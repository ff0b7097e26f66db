import math

from glci import suite
from glci.coxeter import k0_rank
from glci.grading import Trichotomy, WeightSystem


def test_weight_tuples_bounds():
    tuples = suite.weight_tuples()
    assert len(tuples) == len(set(tuples)) == 127
    assert tuples[0] == () and tuples == sorted(tuples, key=lambda t: (len(t), t))
    assert all(len(t) <= 6 and math.prod(t) <= 240 for t in tuples)
    assert all(all(2 <= p <= 6 for p in t) for t in tuples)
    assert all(tuple(sorted(t)) == t for t in tuples)
    assert (2, 2, 2, 2, 3, 5) in tuples and (2, 2, 2, 2, 4, 4) not in tuples


def test_matrix_grid_respects_rank_cap_and_fixtures():
    grid = suite.matrix_grid()
    pairs = {(ws.d, ws.weights) for ws in grid}
    for fixture in suite.MATRIX_FIXTURES:
        assert fixture in pairs
    fixtures = set(suite.MATRIX_FIXTURES)
    for ws in grid:
        if (ws.d, ws.weights) not in fixtures:
            assert k0_rank(ws) <= 80


def test_run_batteries_filter_and_narrowing():
    results = suite.run_batteries(only="gldim")
    assert results and all(r.battery == "global_dimension" for r in results)
    ws = WeightSystem(2, (2, 2, 3, 4))
    narrowed = suite.run_batteries(only="mf", ws=ws)
    assert len(narrowed) == 1 and narrowed[0].ok
    # batteries whose precondition fails are skipped entirely
    assert suite.run_batteries(only="mf", ws=WeightSystem(2, (2, 3))) == []
    assert suite.run_batteries(only="slices", ws=WeightSystem(2, (2, 3))) == []
    assert suite.run_batteries(only="atilde", ws=ws) == []
    # the global batteries check fixed enumerations, never a given system
    for narrow in (ws, WeightSystem(1, ()), WeightSystem(2, (2, 3))):
        for name in ("phi", "cm_finite", "enumeration"):
            assert suite.run_batteries(only=name, ws=narrow) == []
    # one table, one signature: every battery takes a list of systems
    assert len(suite.BATTERIES) == 14
    for name, fn in suite.BATTERIES.items():
        results = fn([ws])
        assert all(r.ok and r.label == str(ws) for r in results), name


def test_boxed_enumeration_oracle_matches_enumerator():
    fano = suite.boxed_enumeration_oracle(1, 3, Trichotomy.FANO, box=10)
    found, complete = fano
    assert complete
    assert found == {(2, 3, 3), (2, 3, 4), (2, 3, 5)}


def test_piece_dim_census_agrees_with_formula():
    from glci import grading

    ws = WeightSystem(2, (2, 3))
    census = suite._piece_dim_census(ws, 3)
    for x, count in census.items():
        assert count == grading.piece_dim(ws, x)
