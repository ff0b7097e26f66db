from dataclasses import replace
from fractions import Fraction

import pytest

from glci import algebra, suite
from glci.algebra import (
    Arrow,
    Quiver,
    associativity_spot_check,
    canonical_interval,
    cartan_matrix,
    check_convex,
    cm_interval,
    cm_tensor_check,
    global_dimension,
    i_canonical_quiver,
    is_acyclic,
    minimal_resolution_profile,
    structure_constants,
)
from glci.coxeter import k0_rank
from glci.linalg import Echelon
from glci.grading import (
    WeightSystem,
    gen_c,
    gen_x,
    generic_lambda,
    interval,
    negate,
    normalize_weights,
    piece_dim,
    smul,
    sub,
    zero,
)


def arm_lengths(quiver):
    """Multiset of out-valences by label, to recognize star shapes."""
    counts = {}
    for a in quiver.arrows:
        counts[a.label] = counts.get(a.label, 0) + 1
    return sorted(counts.values())


def test_canonical_quiver_star_for_weighted_line():
    ws = WeightSystem(1, (2, 3, 5))
    q = i_canonical_quiver(ws, canonical_interval(ws))
    assert len(q.vertices) == 9
    # three arms with 2, 3 and 5 arrows between 0 and c
    assert arm_lengths(q) == [2, 3, 5]
    # exactly one hypersurface relation, at the source vertex
    assert len(q.relations) == 1
    rel = q.relations[0]
    assert rel.coeffs[0] == Fraction(1)
    assert rel.coeffs[1:] == ("-lambda[3][0]", "-lambda[3][1]")
    assert [len(p) for p in rel.paths] == [5, 2, 3]


def test_canonical_quiver_beilinson():
    ws = WeightSystem(2, ())
    q = i_canonical_quiver(ws, canonical_interval(ws))
    assert len(q.vertices) == 3
    assert len(q.arrows) == 6  # three parallel arrows per step
    # all relations are commutativity relations of length-2 paths
    assert len(q.relations) == 3
    for rel in q.relations:
        assert sorted(rel.coeffs) == [Fraction(-1), Fraction(1)]
        assert all(len(p) == 2 for p in rel.paths)


def test_canonical_quiver_cm_square():
    ws = WeightSystem(1, (2, 3, 3))
    box = cm_interval(ws)
    assert len(box) == 4
    q = i_canonical_quiver(ws, box)
    assert len(q.arrows) == 4
    assert len(q.relations) == 1  # one commutative square


def test_quiver_rejects_non_convex_and_duplicates():
    ws = WeightSystem(1, (2, 3, 5))
    c = gen_c(ws)
    with pytest.raises(ValueError):
        i_canonical_quiver(ws, [zero(ws), c])  # misses interior points
    with pytest.raises(ValueError):
        i_canonical_quiver(ws, [zero(ws), zero(ws)])
    assert check_convex(ws, canonical_interval(ws))


def test_cm_interval_examples():
    assert cm_interval(WeightSystem(2, (2, 3, 4))) == []
    box = cm_interval(WeightSystem(1, (2, 3, 3)))
    assert len(box) == 4
    assert cm_interval(WeightSystem(1, (2, 2, 2))) == [zero(WeightSystem(1, (2, 2, 2)))]


def test_cm_interval_size_formula():
    for d, weights in ((1, (2, 3, 5)), (2, (2, 2, 3, 4)), (1, (3, 3, 3)), (3, (2, 2, 2, 2, 2))):
        ws = WeightSystem(d, weights)
        expected = 1
        for p in weights:
            expected *= p - 1
        assert len(cm_interval(ws)) == expected


def test_cartan_matrix_examples():
    ws = WeightSystem(1, (2, 3, 3))
    assert cartan_matrix(ws, [zero(ws)]) == [[1]]
    box = cm_interval(ws)
    cm = cartan_matrix(ws, box)
    assert all(v in (0, 1) for row in cm for v in row)
    assert sum(v for row in cm for v in row) == 9

    ws235 = WeightSystem(1, (2, 3, 5))
    box235 = canonical_interval(ws235)
    total = sum(v for row in cartan_matrix(ws235, box235) for v in row)
    assert total == sum(
        piece_dim(ws235, sub(ws235, x, y)) for x in box235 for y in box235
    )


def cartan_by_differences(ws, elements):
    """The former body of `cartan_matrix`: the normal form of x - y, then its
    graded piece; kept as an oracle for the free-part count."""
    base = normalize_weights(ws)
    return [[piece_dim(base, sub(base, x, y)) for y in elements] for x in elements]


def test_cartan_matrix_matches_the_difference_oracle_on_the_quiver_grid():
    # the quiver_structure battery's default grid, on [0, dc] and its negation
    grid = [ws for ws in suite.default_grid() if k0_rank(ws) <= 30]
    assert len(grid) > 100
    for ws in grid:
        base = normalize_weights(ws)
        box = canonical_interval(base)
        for elements in (box, [negate(base, x) for x in box]):
            assert cartan_matrix(base, elements) == cartan_by_differences(base, elements), ws


def test_cartan_transpose_under_negation():
    ws = WeightSystem(1, (2, 3, 5))
    box = canonical_interval(ws)
    neg_box = [negate(ws, x) for x in box]
    cm = cartan_matrix(ws, box)
    cm_neg = cartan_matrix(ws, neg_box)
    transpose = [list(col) for col in zip(*cm)]
    assert cm_neg == transpose


def test_structure_constants_field_case():
    ws = WeightSystem(1, (2, 3, 5))
    alg = structure_constants(ws, [zero(ws)])
    assert alg.dim == 1
    one = alg.idempotent(0)
    assert alg.multiply(one, one) == {one: Fraction(1)}


def test_structure_constants_closure_and_dim():
    ws = WeightSystem(1, (2, 2))
    alg = structure_constants(ws, canonical_interval(ws))
    assert associativity_spot_check(alg)
    ws2 = WeightSystem(1, (2, 3, 5))
    box = canonical_interval(ws2)
    alg2 = structure_constants(ws2, box)
    assert alg2.dim == sum(
        piece_dim(ws2, sub(ws2, x, y)) for x in box for y in box
    )
    assert associativity_spot_check(alg2)


def test_structure_constants_with_explicit_points():
    # hyperplane data (1:0), (0:1), (1:1) on the line
    ws = WeightSystem(1, (2, 3, 5), ((Fraction(1), Fraction(1)),))
    alg = structure_constants(ws, canonical_interval(ws))
    assert associativity_spot_check(alg)


def test_structure_constants_rejects_degenerate_points():
    # (0:1) repeats the second coordinate hyperplane: a 1x1 minor vanishes
    ws = WeightSystem(1, (2, 3, 5), ((Fraction(0), Fraction(1)),))
    with pytest.raises(ValueError, match="general position"):
        structure_constants(ws, canonical_interval(ws))


def test_global_dimension_examples():
    cases = [
        ((1, ()), 1),  # Kronecker algebra is hereditary
        ((1, (2, 2)), 1),
        ((1, (2, 2, 2)), 2),
        ((1, (2, 3, 3)), 2),
        ((2, (2, 3)), 2),
    ]
    for (d, weights), expected in cases:
        ws = WeightSystem(d, weights)
        alg = structure_constants(ws, canonical_interval(ws))
        assert global_dimension(alg) == expected, (d, weights)


def test_global_dimension_of_field():
    ws = WeightSystem(1, (2, 3, 5))
    assert global_dimension(structure_constants(ws, [zero(ws)])) == 0


def test_vertex_count_matches_rank():
    for ws in (WeightSystem(1, (2, 3, 5)), WeightSystem(2, (2, 3)), WeightSystem(3, (2, 2))):
        assert len(canonical_interval(ws)) == k0_rank(ws)


def test_quiver_is_acyclic_and_relations_have_length_two_or_more():
    for ws in (WeightSystem(1, (2, 3, 5)), WeightSystem(2, (2, 2, 2, 2))):
        q = i_canonical_quiver(ws, canonical_interval(ws))
        # arrows strictly increase the free coordinate sum, hence acyclicity;
        # verify by topological peeling
        indeg = [0] * len(q.vertices)
        for a in q.arrows:
            indeg[a.target] += 1
        layer = [v for v in range(len(q.vertices)) if indeg[v] == 0]
        seen = 0
        adj = {}
        for a in q.arrows:
            adj.setdefault(a.source, []).append(a.target)
        while layer:
            v = layer.pop()
            seen += 1
            for t in adj.get(v, ()):
                indeg[t] -= 1
                if indeg[t] == 0:
                    layer.append(t)
        assert seen == len(q.vertices)
        assert all(min(len(p) for p in rel.paths) >= 2 for rel in q.relations)


def test_is_acyclic_cases():
    dag = [Arrow(0, 1, 1), Arrow(0, 2, 1), Arrow(1, 2, 2), Arrow(2, 3, 1)]
    assert is_acyclic(4, dag)
    assert not is_acyclic(2, [Arrow(0, 1, 1), Arrow(1, 0, 1)])
    assert not is_acyclic(2, [Arrow(0, 1, 1), Arrow(1, 1, 2)])
    empty = Quiver((), (), ())
    assert is_acyclic(len(empty.vertices), empty.arrows)


def test_cm_tensor_check_examples():
    assert cm_tensor_check(WeightSystem(1, (2, 3, 3)))
    assert cm_tensor_check(WeightSystem(2, (2, 2, 2, 2)))
    assert cm_tensor_check(WeightSystem(1, (3, 3, 3)))
    assert cm_tensor_check(WeightSystem(2, (2, 2, 3, 4)))
    with pytest.raises(ValueError):
        cm_tensor_check(WeightSystem(1, (2, 3)))


def _radical_positions(alg):
    """The off-diagonal span: the vertex poset is directed, so this is the
    radical."""
    return [k for k, (x, y, _) in enumerate(alg.basis) if x != y]


def test_radical_is_nilpotent():
    # off-diagonal span is an ideal whose powers vanish (directed poset)
    ws = WeightSystem(1, (2, 3, 3))
    alg = structure_constants(ws, canonical_interval(ws))
    layer = {pos: Fraction(1) for pos in _radical_positions(alg)}
    power = 1
    while layer and power <= alg.dim:
        nxt = {}
        for a in layer:
            for b in _radical_positions(alg):
                for pos, coeff in alg.multiply(a, b).items():
                    nxt[pos] = nxt.get(pos, Fraction(0)) + coeff
        layer = {k: v for k, v in nxt.items() if v}
        power += 1
        # products never reacquire a diagonal component
        assert all(alg.basis[pos][0] != alg.basis[pos][1] for pos in layer)
    assert not layer


def test_by_pair_blocks_match_piece_dims():
    ws = WeightSystem(2, (2, 3))
    box = canonical_interval(ws)
    alg = structure_constants(ws, box)
    for xi, x in enumerate(alg.vertices):
        for yi, y in enumerate(alg.vertices):
            expected = piece_dim(ws, sub(ws, x, y))
            got = len(alg.by_pair.get((xi, yi), ()))
            assert got == expected


def test_global_dimension_of_stable_interval_algebras():
    # the oracle decides the stable-side global dimension per instance; the
    # tensor factors with weight 2 are semisimple and contribute nothing
    cases = [
        ((1, (2, 3, 3)), 2),  # kA2 (x) kA2
        ((1, (2, 2, 3)), 1),  # kA2
        ((1, (2, 2, 2)), 0),  # base field
        ((1, (3, 3, 3)), 3),  # kA2 (x) kA2 (x) kA2
    ]
    for (d, weights), expected in cases:
        ws = WeightSystem(d, weights)
        box = cm_interval(ws)
        alg = structure_constants(ws, box)
        assert global_dimension(alg) == expected, (d, weights)


def _all_radical_submodule(alg, free, cols_by_vertex):
    """J*M acted on by every radical basis element, not only the arrows."""
    nv = len(alg.vertices)
    rad_cols = {x: [] for x in range(nv)}
    rad_by_source = {}
    for a in _radical_positions(alg):
        rad_by_source.setdefault(alg.basis[a][1], []).append(a)
    for v in range(nv):
        for col in cols_by_vertex[v]:
            for a in rad_by_source.get(v, ()):
                target, image = free.act(a, v, col)
                if any(image):
                    rad_cols[target].append(image)
    return {x: Echelon(cols) for x, cols in rad_cols.items()}


def _radical_oracle_cases():
    line = WeightSystem(1, (2, 3, 5))
    chain = interval(line, zero(line), smul(line, 2, gen_x(line, 3)))
    cases = [(ws, canonical_interval(ws)) for ws in suite.GLDIM_FIXTURES + suite.GLDIM_EXTRA]
    cases += [(line, chain), (line, canonical_interval(line))]
    cube = WeightSystem(1, (3, 3, 3))
    cases.append((cube, cm_interval(cube)))
    return cases


@pytest.mark.parametrize(
    "ws, elements",
    _radical_oracle_cases(),
    ids=lambda v: str(v) if isinstance(v, WeightSystem) else f"{len(v)} vertices",
)
def test_arrow_radical_matches_all_radical_oracle(monkeypatch, ws, elements):
    # J*M = J_1*M: resolutions built from arrow actions equal the ones built
    # from the action of the whole radical, vertex by vertex
    alg = structure_constants(ws, elements)
    by_arrows = [minimal_resolution_profile(alg, v) for v in range(len(alg.vertices))]
    monkeypatch.setattr(algebra, "_radical_submodule", _all_radical_submodule)
    by_radical = [minimal_resolution_profile(alg, v) for v in range(len(alg.vertices))]
    assert by_arrows == by_radical


def test_arrows_generate_every_radical_monomial():
    ws = WeightSystem(1, (2, 3, 5))
    alg = structure_constants(ws, canonical_interval(ws))
    # each radical monomial off the arrows is arrow * radical monomial,
    # with coefficient 1
    radical = set(_radical_positions(alg))
    arrows = {a for group in alg.arrows_by_vertex.values() for a in group}
    assert arrows < radical
    factored = set()
    for a in arrows:
        for b in radical:
            product = alg.multiply(a, b)
            if list(product.values()) == [1]:
                factored |= product.keys()
    assert radical - arrows <= factored


@pytest.mark.parametrize("d, weights", [(1, (2, 3, 5)), (1, (2, 2, 2, 2)), (2, (2, 2, 3, 3))])
def test_generic_structure_constants_are_ints(d, weights):
    ws = generic_lambda(d, weights)
    alg = structure_constants(ws, canonical_interval(ws))
    coeffs = [
        c for a in range(alg.dim) for b in range(alg.dim) for c in alg.multiply(a, b).values()
    ]
    assert coeffs and all(type(c) is int for c in coeffs)


def _gldim_algebras():
    return [
        structure_constants(ws, canonical_interval(ws))
        for ws in suite.GLDIM_FIXTURES + suite.GLDIM_EXTRA
    ]


class _NoMemo(dict):
    """A products table that keeps nothing, so every multiply recomputes."""

    def __setitem__(self, key, value):
        pass


def test_memoized_products_stay_fresh():
    # callers only read what multiply returns: after the gldim battery's
    # calls every cached product still equals a freshly computed one
    for alg in _gldim_algebras():
        global_dimension(alg)
        assert associativity_spot_check(alg)
        assert alg.products
        fresh = replace(alg, products=_NoMemo())
        for (a, b), product in alg.products.items():
            assert product == fresh.multiply(a, b), (a, b)


def test_resolution_profiles_match_without_the_memo():
    for alg in _gldim_algebras():
        uncached = replace(alg, products=_NoMemo())
        for v in range(len(alg.vertices)):
            assert minimal_resolution_profile(alg, v) == minimal_resolution_profile(uncached, v)
        assert not uncached.products
