import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from glci import algebra, atilde, classify, coxeter, grading, suite
from glci.coxeter import IntPolynomial, k0_rank
from glci.grading import GroupElement, Trichotomy, WeightSystem


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
    capped = [ws for ws in suite.default_grid() if k0_rank(ws) <= 80]
    # the capped grid first, then each fixture not already in it, once
    assert grid[: len(capped)] == capped and len(set(grid)) == len(grid)
    assert set(grid) == set(capped) | set(suite.MATRIX_FIXTURES)
    assert all(ws in suite.MATRIX_FIXTURES for ws in grid[len(capped) :])


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


MIXED_GRID = (
    WeightSystem(2, (2, 2, 3, 4)),  # Fano, n = d + 2, two weights 2
    WeightSystem(2, (2, 3)),  # Fano, n <= d + 1
    WeightSystem(1, (2, 3, 6)),  # Calabi-Yau, n = d + 2
    WeightSystem(1, (3, 3, 4)),  # anti-Fano, n = d + 2
)
# systems of MIXED_GRID each precondition admits; the other batteries admit all
ADMITTED = {"coset_structure": 2, "mf": 3, "atilde": 1, "slices": 1}
PER_SYSTEM = [name for name in suite.BATTERIES if name not in ("phi", "cm_finite", "enumeration")]


@pytest.mark.parametrize("name", PER_SYSTEM)
def test_a_battery_on_a_grid_is_its_checks_one_system_at_a_time(name):
    fn = suite.BATTERIES[name]
    results = fn(list(MIXED_GRID))
    assert results == [r for ws in MIXED_GRID for r in fn([ws])]
    assert len(results) == ADMITTED.get(name, len(MIXED_GRID))
    assert all(r.ok for r in results), name


# battery: (module, function made to raise, the case it raises on, the
# given list or None for the defaults, the label of that case's check)
INJECTED = {
    "orlov": (
        classify,
        "orlov_rank_delta",
        lambda ws: ws == WeightSystem(1, (2, 3, 5)),
        [WeightSystem(1, (2, 3, 5)), WeightSystem(2, (2, 3))],
        "(d=1; 2,3,5)",
    ),
    "gldim": (
        algebra,
        "structure_constants",
        lambda ws: ws == WeightSystem(1, (2, 2, 2)),
        [WeightSystem(1, (2, 2, 2)), WeightSystem(2, (2, 3))],
        "(d=1; 2,2,2)",
    ),
    "cm_finite": (classify, "cm_finite", lambda ws: ws.d == 2, None, "d=2"),
}


@pytest.mark.parametrize("name", INJECTED)
def test_a_failed_check_ends_that_system_not_the_battery(monkeypatch, name):
    module, attr, raises_on, grid, label = INJECTED[name]
    battery = suite.BATTERIES[name]
    clean = battery(grid)
    real = getattr(module, attr)

    def broken(ws, *args):
        if raises_on(ws):
            raise AssertionError("invariant broken")
        return real(ws, *args)

    monkeypatch.setattr(module, attr, broken)
    results = battery(grid)
    assert [r.label for r in results] == [r.label for r in clean] and len(results) >= 2
    assert [r for r in results if not r.ok] == [
        suite.CheckResult(clean[0].battery, label, False, "invariant broken")
    ]
    assert [r for r in results if r.label != label] == [r for r in clean if r.label != label]


def _one_more_coset(real):
    return lambda ws: replace(real(ws), count=real(ws).count + 1)


# battery: (system, module, function, its broken replacement given the real
# one, the failed check's detail)
NAMED_FAILURES = {
    "atilde cycle": (
        WeightSystem(2, (2, 3, 4)),
        atilde,
        "verify_cut",
        lambda real: lambda q: replace(real(q), acyclic_without_cut=False),
        "the arrows outside the cut form a cycle",
    ),
    "atilde non-cut arrows": (
        WeightSystem(2, (2, 3, 4)),
        atilde,
        "noncut_matches_interval_quiver",
        lambda real: lambda q: False,
        "the arrows outside the cut differ from the interval quiver's",
    ),
    "atilde coset count": (
        WeightSystem(2, (2, 3, 4)),
        grading,
        "coset_data_mod_omega",
        _one_more_coset,
        "26 vertices vs 27 cosets mod omega",
    ),
    "gldim formula": (
        WeightSystem(1, (2, 2, 2)),
        classify,
        "gldim_canonical",
        lambda real: lambda ws: real(ws) + 1,
        "oracle 2 vs formula 3",
    ),
    "coxeter block": (
        WeightSystem(2, (5, 5, 5, 5)),
        coxeter,
        "phi",
        lambda real: lambda values: (
            real(values) * IntPolynomial([1, 1]) if values == (5, 5) else real(values)
        ),
        "block (5, 5) char poly mismatch",
    ),
    "coxeter product": (
        WeightSystem(1, (2, 3, 5)),
        coxeter,
        "coxeter_polynomial",
        lambda real: lambda ws: real(ws) * IntPolynomial([1, 1]),
        "full matrix char poly != +-coxeter polynomial",
    ),
    "gldim associativity": (
        WeightSystem(1, (2, 2, 2)),
        algebra,
        "associativity_spot_check",
        lambda real: lambda alg: False,
        "associativity spot check fails",
    ),
}


@pytest.mark.parametrize("case", NAMED_FAILURES)
def test_a_failed_check_names_its_condition(monkeypatch, case):
    ws, module, attr, breaking, detail = NAMED_FAILURES[case]
    battery = suite.BATTERIES[case.split()[0]]
    assert [(r.ok, r.detail) for r in battery([ws])] == [(True, "")]
    monkeypatch.setattr(module, attr, breaking(getattr(module, attr)))
    assert [(r.ok, r.detail) for r in battery([ws])] == [(False, detail)]


def test_coxeter_battery_refuses_a_non_unit_constant_term(monkeypatch):
    """Routes that agree on a polynomial whose constant term is not a unit
    still fail: the omega action is invertible over the integers."""
    two_plus_t = IntPolynomial([2, 1])
    monkeypatch.setattr(coxeter, "char_poly", lambda matrix: two_plus_t)
    monkeypatch.setattr(coxeter, "phi", lambda values: two_plus_t)
    monkeypatch.setattr(coxeter, "coxeter_polynomial", lambda ws: two_plus_t**2)
    results = suite.BATTERIES["coxeter"]([WeightSystem(1, ())])  # one block, 2 levels
    assert [(r.ok, r.detail) for r in results] == [(False, "constant term 4 not a unit")]


def test_boxed_enumeration_oracle_matches_enumerator():
    found, complete = suite.boxed_enumeration_oracle(1, 3, Trichotomy.FANO, box=10)
    assert complete
    assert found == {(2, 3, 3), (2, 3, 4), (2, 3, 5)}
    assert found == set(classify.enumerate_weight_systems(1, 3, Trichotomy.FANO).sporadic)


def _fraction_box_scan(d, n, cls, box):
    """The box scan over `Fraction`: the oracle for the lcm-scaled integer scan."""
    target = Fraction(n - d - 1)
    recip = {p: Fraction(1, p) for p in range(2, box + 1)}

    def family_covered(tup) -> bool:
        if cls != Trichotomy.FANO:
            return False
        total = Fraction(0)
        for k in range(min(len(tup), n)):
            if total >= target:
                return True
            total += recip[tup[k]]
        return False

    found = set()
    complete = True
    for tup in itertools.combinations_with_replacement(range(2, box + 1), n):
        total = sum(recip[p] for p in tup)
        in_class = total > target if cls == Trichotomy.FANO else total == target
        if in_class and not family_covered(tup):
            found.add(tup)
    for prefix in itertools.combinations_with_replacement(range(2, box + 1), n - 1):
        if family_covered(prefix):
            continue
        gap = target - sum(recip[p] for p in prefix)
        if gap > 0 and Fraction(1, box) > gap:
            complete = False
    return found, complete


BOX_SCAN_CASES = (
    [(1, 3, cls, box) for cls in (Trichotomy.FANO, Trichotomy.CALABI_YAU) for box in (5, 6)]
    + [
        (2, 4, cls, box)
        for cls in (Trichotomy.FANO, Trichotomy.CALABI_YAU)
        for box in (2, 3, 5, 7, 11, 12, 13, 24)
    ]
    + [(2, 5, Trichotomy.CALABI_YAU, 12), (2, 6, Trichotomy.CALABI_YAU, 7)]
)


@pytest.mark.parametrize("d,n,cls,box", BOX_SCAN_CASES)
def test_integer_box_scan_matches_fraction_box_scan(d, n, cls, box):
    assert suite.boxed_enumeration_oracle(d, n, cls, box) == _fraction_box_scan(d, n, cls, box)


def _full_box_scan(d, n, cls, box):
    """The box scan over every nondecreasing n-tuple: the oracle for the
    scan that sums only (n-1)-prefixes and solves for the last weight."""
    weights = range(2, box + 1)
    scale = math.lcm(*weights)
    target = (n - d - 1) * scale
    recips = [scale // p for p in weights]

    def family_covered(tup) -> bool:
        if cls != Trichotomy.FANO:
            return False
        total = 0
        for k in range(min(len(tup), n)):
            if total >= target:
                return True
            total += scale // tup[k]
        return False

    def scan(k, keep):
        tuples = itertools.combinations_with_replacement(weights, k)
        sums = map(sum, itertools.combinations_with_replacement(recips, k))
        return itertools.compress(tuples, map(keep, sums))

    in_class = target.__lt__ if cls == Trichotomy.FANO else target.__eq__
    found = {tup for tup in scan(n, in_class) if not family_covered(tup)}
    near = scan(n - 1, range(target - scale // box + 1, target).__contains__)
    return found, all(family_covered(prefix) for prefix in near)


# The enumeration battery's four box scans, and (1;2,2,2,2), which completes
# its prefix at gap exactly L/2, the bound past which the scan passes no
# prefix to its Python loop.
PREFIX_SCAN_CASES = list(
    dict.fromkeys(
        BOX_SCAN_CASES
        + [
            (2, 4, Trichotomy.FANO, 45),
            (2, 4, Trichotomy.CALABI_YAU, 45),
            (2, 5, Trichotomy.CALABI_YAU, 12),
            (2, 6, Trichotomy.CALABI_YAU, 7),
            (1, 4, Trichotomy.CALABI_YAU, 6),
        ]
    )
)


@pytest.mark.parametrize("d,n,cls,box", PREFIX_SCAN_CASES)
def test_box_scan_of_prefixes_matches_the_full_box_scan(d, n, cls, box):
    assert suite.boxed_enumeration_oracle(d, n, cls, box) == _full_box_scan(d, n, cls, box)


def test_box_scan_sums_prefixes_not_full_tuples(monkeypatch):
    """A cost guard by count: at (2;n=4, box 45) the scan draws each of the
    C(46, 3) nondecreasing 3-prefixes from two iterators, where the full
    scan drew C(47, 4) 4-tuples twice."""
    real = itertools.combinations_with_replacement
    drawn = []

    def counting(iterable, r):
        for combo in real(iterable, r):
            drawn.append(r)
            yield combo

    monkeypatch.setattr(suite.itertools, "combinations_with_replacement", counting)
    found, complete = suite.boxed_enumeration_oracle(2, 4, Trichotomy.FANO, box=45)
    monkeypatch.undo()
    assert complete and len(found) == 112
    assert len(drawn) <= 2 * math.comb(46, 3)


def test_box_scan_completeness_flips_between_boxes_5_and_6():
    # The prefix (2,3) leaves the gap 1/6: below 1/5, so at box 5 a weight
    # beyond the box is not ruled out, but not below 1/6.
    for cls in (Trichotomy.FANO, Trichotomy.CALABI_YAU):
        assert suite.boxed_enumeration_oracle(1, 3, cls, 5)[1] is False
        assert suite.boxed_enumeration_oracle(1, 3, cls, 6)[1] is True


def test_piece_dim_census_agrees_with_formula():
    from glci import grading

    ws = WeightSystem(2, (2, 3))
    census = suite._piece_dim_census(ws, 3)
    for x, count in census.items():
        assert count == grading.piece_dim(ws, x)


ORDER_SYSTEMS = (
    WeightSystem(2, (2, 3, 4)),
    WeightSystem(1, (2, 3, 5)),
    WeightSystem(3, (2, 2, 2, 2, 2)),
)


_SUB, _ADD, _COUNT_TOP = grading.sub, grading.add, suite._count_top


def _sub_dropping_a_borrow(ws, x, y):
    z = _SUB(ws, x, y)
    borrows = any(a < b for a, b in zip(x.torsion, y.torsion))
    return GroupElement(z.torsion, z.free + 1) if borrows else z


def _add_dropping_a_carry(ws, x, y):
    z = _ADD(ws, x, y)
    carries = any(a + b >= p for a, b, p in zip(x.torsion, y.torsion, ws.weights))
    return GroupElement(z.torsion, z.free - 1) if carries else z


def _count_top_off_by_one(ws, torsion):
    return _COUNT_TOP(ws, torsion) + 1


@pytest.mark.parametrize(
    "module,name,broken,order_check",
    [
        (grading, "sub", _sub_dropping_a_borrow, True),
        (grading, "add", _add_dropping_a_carry, False),
        (suite, "_count_top", _count_top_off_by_one, True),
    ],
    ids=["sub-drops-a-borrow", "add-drops-a-carry", "count-off-by-one"],
)
def test_group_laws_battery_fails_on_a_broken_route(monkeypatch, module, name, broken, order_check):
    assert all(r.ok for r in suite.battery_group_laws(ORDER_SYSTEMS))
    monkeypatch.setattr(module, name, broken)
    results = suite.battery_group_laws(ORDER_SYSTEMS)
    assert len(results) == len(ORDER_SYSTEMS)
    for r in results:
        assert not r.ok, r.label
        # the per-class order check runs before the pool and reports the tops
        if order_check:
            assert r.detail.startswith("order characterization fails at") and "tops" in r.detail
