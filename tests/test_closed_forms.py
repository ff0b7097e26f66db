"""Closed forms against enumerate-and-test oracles: intervals, convexity,
the slice Hom-vanishing corner test, the K0 rank, the phi multiplicities and
the invariant factors of L modulo omega.

The oracles below are the original enumerate-and-test routines.  They share
only the group arithmetic (`add`, `sub`, `leq`, `delta_l`) with the library,
never the interval, size or convexity code they check.  The slice oracle
enumerates the pieces with the (separately checked) `interval` and tests
every pair; it shares only the pieces with the corner test.  The K0 rank and
phi multiplicity oracles loop over the index subsets, and the coset oracle
runs the Smith normal form on a presentation of L / Z omega.
"""

import itertools
import math
import random

import pytest

from glci.algebra import (
    canonical_interval,
    canonical_interval_size,
    check_convex,
    cm_interval,
    cm_interval_size,
)
from glci.classify import (
    SliceReport,
    enumerate_weight_systems,
    hom_vanishing_from_corners,
    main2_slice,
)
from glci.coxeter import _phi_multiplicities, _weight_subsets, k0_rank
from glci.grading import (
    GroupElement,
    Trichotomy,
    WeightSystem,
    add,
    coset_data_mod_omega,
    delta_l,
    gen_c,
    gen_x,
    leq,
    interval,
    interval_size,
    normal_form,
    omega,
    piece_dim,
    smul,
    sub,
    trichotomy,
    zero,
)
from glci.linalg import smith_normal_form
from glci.suite import battery_slices, default_grid


def _interval_by_enumeration(ws, x, y):
    """Every candidate u with free part up to floor(delta(y - x)), tested by leq."""
    w = sub(ws, y, x)
    if w.free < 0:
        return []
    bound = delta_l(ws, w) // math.lcm(*ws.weights)
    out = []
    for tors in itertools.product(*(range(p) for p in ws.weights)):
        for a in range(bound + 1):
            u = GroupElement(tors, a)
            if leq(ws, u, w):
                out.append(add(ws, x, u))
    return out


def _convex_by_intervals(ws, elements):
    """Naive convexity: every interval between two members stays inside."""
    members = set(elements)
    for x in members:
        for z in members:
            if x == z or not leq(ws, x, z):
                continue
            if any(y not in members for y in _interval_by_enumeration(ws, x, z)):
                return False
    return True


def _convex_by_steps(ws, elements):
    """Step convexity: no successor (+x_i or +c) of a member leaves the set
    while staying below some member.  Compares against every member."""
    members = set(elements)
    steps = [gen_x(ws, i) for i in range(1, ws.n + 1)] + [gen_c(ws)]
    for x in members:
        for g in steps:
            s = add(ws, x, g)
            if s not in members and any(leq(ws, s, z) for z in members):
                return False
    return True


def _random_element(ws, rng, lo, hi):
    return normal_form(ws, [rng.randrange(p) for p in ws.weights], rng.randint(lo, hi))


def _endpoint_pairs(ws, rng):
    """Canonical, stable, seeded-random and empty (y not >= x) endpoints."""
    o = zero(ws)
    dc = smul(ws, ws.d, gen_c(ws))
    pairs = [(o, dc), (o, add(ws, dc, smul(ws, 2, omega(ws))))]
    for _ in range(3):
        x = _random_element(ws, rng, -2, 2)
        pairs.append((x, add(ws, x, _random_element(ws, rng, 0, ws.d))))
    x = _random_element(ws, rng, -1, 1)
    pairs.append((x, sub(ws, x, gen_c(ws))))  # empty: y = x - c
    pairs.append((dc, o))
    return pairs


def _check_closed_forms(ws, rng):
    for x, y in _endpoint_pairs(ws, rng):
        expected = _interval_by_enumeration(ws, x, y)
        assert interval(ws, x, y) == expected, (ws, x, y)
        assert interval_size(ws, x, y) == len(expected), (ws, x, y)


def test_interval_and_size_match_enumeration_on_default_grid():
    grid = [ws for ws in default_grid() if k0_rank(ws) <= 30]
    assert len(grid) > 100
    rng = random.Random(2024)
    for ws in grid:
        _check_closed_forms(ws, rng)


def test_interval_and_size_with_weight_one_entries():
    rng = random.Random(7)
    for ws in (
        WeightSystem(1, (1, 2, 3)),
        WeightSystem(2, (2, 1, 3)),
        WeightSystem(1, (1, 1)),
        WeightSystem(2, ()),
    ):
        _check_closed_forms(ws, rng)


def test_interval_and_size_match_enumeration_on_random_endpoints():
    """Any endpoints, empty intervals (y not >= x) included, on bounded
    systems with weights of 1 and the empty tuple."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        ws = WeightSystem(
            draw(st.integers(1, 3)), tuple(draw(st.lists(st.integers(1, 6), max_size=4)))
        )

        def element(free):
            tors = [draw(st.integers(0, p - 1)) for p in ws.weights]
            return normal_form(ws, tors, draw(free))

        x = element(st.integers(-2, 2))
        return ws, x, add(ws, x, element(st.integers(-1, ws.d + 1)))

    seen = {True: 0, False: 0}

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        ws, x, y = case
        expected = _interval_by_enumeration(ws, x, y)
        assert interval(ws, x, y) == expected
        assert interval_size(ws, x, y) == len(expected)
        seen[bool(expected)] += 1

    check()
    assert seen[True] > 30 and seen[False] > 10, seen


def test_interval_size_helpers_match_enumerated_intervals():
    for ws in (
        WeightSystem(1, (2, 3, 5)),
        WeightSystem(1, (1, 2, 3, 3)),
        WeightSystem(2, (2, 3, 4)),
        WeightSystem(2, (3, 3, 3, 3)),
        WeightSystem(3, (2, 2, 2, 2, 2)),
    ):
        assert canonical_interval_size(ws) == len(canonical_interval(ws)) == k0_rank(ws)
        assert cm_interval_size(ws) == len(cm_interval(ws))


def test_interval_size_on_large_system_without_enumeration():
    ws = WeightSystem(2, (30, 30, 30, 30, 30))
    assert canonical_interval_size(ws) == k0_rank(ws) == 8_703
    assert cm_interval_size(ws) == 44_558_703
    # one weight-2 coordinate: the stable interval is the cube prod(p_i - 1)
    ws = WeightSystem(2, (2, 5, 7, 9))
    assert cm_interval_size(ws) == 1 * 4 * 6 * 8


def test_step_convexity_matches_naive_check_on_random_subsets():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for ws in (
        WeightSystem(1, (2, 3, 5)),
        WeightSystem(1, (1, 2, 3)),
        WeightSystem(2, (2, 3)),
        WeightSystem(2, (2, 2, 3)),
        WeightSystem(1, ()),
    ):
        box = interval(ws, zero(ws), smul(ws, ws.d, gen_c(ws)))
        assert check_convex(ws, box) and _convex_by_intervals(ws, box)
        for _ in range(60):
            subset = [z for z in box if rng.random() < 0.5]
            if rng.random() < 0.3:
                subset.append(_random_element(ws, rng, -1, ws.d + 1))
            naive = _convex_by_intervals(ws, subset)
            assert check_convex(ws, subset) == naive, (ws, subset)
            seen[naive] += 1
    assert seen[True] > 20 and seen[False] > 20


def test_convexity_matches_both_oracles_on_random_subsets():
    """Two intervals (or two from one bottom), an interval with one member
    removed, or a random part of a small interval: all but the last often
    have several locally maximal members, the only members the library's
    test compares against."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        ws = WeightSystem(draw(st.integers(1, 2)), draw(st.sampled_from(SMALL_WEIGHTS)))

        def element(free):
            tors = [draw(st.integers(0, p - 1)) for p in ws.weights]
            return normal_form(ws, tors, draw(free))

        def piece(lo):
            return interval(ws, lo, add(ws, lo, element(st.integers(0, 1))))

        kind = draw(st.sampled_from(("two intervals", "one bottom", "one gap", "random part")))
        lo = element(st.integers(-1, 1))
        subset = piece(lo)
        if kind == "two intervals":
            subset += piece(element(st.integers(-1, 1)))
        elif kind == "one bottom":  # convex, with a top per interval
            subset += piece(lo)
        elif kind == "one gap" and subset:
            del subset[draw(st.integers(0, len(subset) - 1))]
        elif kind == "random part":
            subset = [z for z in subset if draw(st.booleans())]
        return ws, subset

    seen = {}

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        ws, subset = case
        expected = _convex_by_intervals(ws, subset)
        assert _convex_by_steps(ws, subset) == expected
        assert check_convex(ws, subset) == expected
        members = set(subset)
        steps = [gen_x(ws, i) for i in range(1, ws.n + 1)] + [gen_c(ws)]
        tops = [x for x in members if all(add(ws, x, g) not in members for g in steps)]
        key = (expected, len(tops) >= 2)
        seen[key] = seen.get(key, 0) + 1

    check()
    assert all(seen.get((convex, True), 0) > 10 for convex in (True, False)), seen
    assert seen.get((False, False), 0) > 10, seen


def _hom_vanishing_pairwise(ws, pieces, ells):
    """Every x, y in the union of the pieces and every ell: R_{y - x + ell*omega} = 0.

    Pairs with a difference y - x seen before are not tested again.
    """
    elements = {z for lo, hi in pieces for z in interval(ws, lo, hi)}
    shifts = [smul(ws, ell, omega(ws)) for ell in ells]
    seen = set()
    for x in elements:
        for y in elements:
            u = sub(ws, y, x)
            if u in seen:
                continue
            seen.add(u)
            if any(piece_dim(ws, add(ws, u, shift)) for shift in shifts):
                return False
    return True


# main2_slice reports as (size, coset_count, cosets_distinct, hom_vanishing_ok,
# ell_bound), recorded from the pairwise Hom-vanishing loop.  The first 32
# systems are the slices battery's defaults, in its order.
SLICE_REPORTS = {
    (2, (2, 2, 3, 4)): (28, 28, True, True, 3),
    (2, (2, 2, 2, 2)): (16, 16, True, True, 2),
    (3, (2, 2, 2, 2, 2)): (48, 48, True, True, 2),
    (1, (2, 2, 2)): (4, 4, True, True, 1),
    (1, (2, 2, 3)): (4, 4, True, True, 2),
    (1, (2, 2, 4)): (4, 4, True, True, 2),
    (1, (2, 2, 5)): (4, 4, True, True, 3),
    (1, (2, 2, 6)): (4, 4, True, True, 3),
    (2, (2, 2, 2, 3)): (20, 20, True, True, 2),
    (2, (2, 2, 2, 4)): (24, 24, True, True, 2),
    (2, (2, 2, 2, 5)): (28, 28, True, True, 3),
    (2, (2, 2, 2, 6)): (32, 32, True, True, 3),
    (2, (2, 2, 3, 3)): (24, 24, True, True, 3),
    (2, (2, 2, 3, 5)): (32, 32, True, True, 3),
    (2, (2, 2, 3, 6)): (36, 36, True, True, 3),
    (2, (2, 2, 4, 4)): (32, 32, True, True, 3),
    (2, (2, 2, 4, 5)): (36, 36, True, True, 4),
    (2, (2, 2, 4, 6)): (40, 40, True, True, 4),
    (2, (2, 2, 5, 5)): (40, 40, True, True, 4),
    (2, (2, 2, 5, 6)): (44, 44, True, True, 5),
    (2, (2, 2, 6, 6)): (48, 48, True, True, 5),
    (3, (2, 2, 2, 2, 3)): (64, 64, True, True, 2),
    (3, (2, 2, 2, 2, 4)): (80, 80, True, True, 2),
    (3, (2, 2, 2, 2, 5)): (96, 96, True, True, 3),
    (3, (2, 2, 2, 2, 6)): (112, 112, True, True, 3),
    (3, (2, 2, 2, 3, 3)): (84, 84, True, True, 3),
    (3, (2, 2, 2, 3, 4)): (104, 104, True, True, 3),
    (3, (2, 2, 2, 3, 5)): (124, 124, True, True, 3),
    (3, (2, 2, 2, 3, 6)): (144, 144, True, True, 3),
    (3, (2, 2, 2, 4, 4)): (128, 128, True, True, 3),
    (3, (2, 2, 3, 3, 3)): (108, 108, True, True, 3),
    (3, (2, 2, 3, 3, 4)): (132, 132, True, True, 3),
    (1, (2, 2, 7)): (4, 4, True, True, 4),
    (3, (2, 2, 3, 3, 5)): (156, 156, True, True, 3),
    (4, (2, 2, 2, 2, 2, 2)): (128, 128, True, True, 2),
    (4, (2, 2, 2, 2, 2, 3)): (176, 176, True, True, 2),
    (5, (2, 2, 2, 2, 2, 2, 2)): (320, 320, True, True, 2),
}
SLICE_SYSTEMS = [WeightSystem(d, weights) for d, weights in SLICE_REPORTS]


def test_slice_systems_start_with_the_battery_defaults():
    assert [r.label for r in battery_slices()] == [str(ws) for ws in SLICE_SYSTEMS[:32]]


@pytest.mark.parametrize("ws", SLICE_SYSTEMS, ids=str)
def test_slice_corner_test_matches_pairwise_oracle(ws):
    data = main2_slice(ws)
    assert data.report == SliceReport(*SLICE_REPORTS[ws.d, ws.weights])
    sws, pieces = data.ws, data.pieces
    ells = range(1, data.report.ell_bound + 1)
    assert hom_vanishing_from_corners(sws, pieces, ells)
    assert _hom_vanishing_pairwise(sws, pieces, ells)
    # ell = 0 pairs each x with itself, and R_0 is the ground field
    with_zero = range(0, data.report.ell_bound + 1)
    assert not hom_vanishing_from_corners(sws, pieces, with_zero)
    assert not _hom_vanishing_pairwise(sws, pieces, with_zero)
    # raising any piece's top by c breaks the vanishing
    for k, (lo, hi) in enumerate(pieces):
        raised = pieces[:k] + ((lo, add(sws, hi, gen_c(sws))),) + pieces[k + 1 :]
        assert not hom_vanishing_from_corners(sws, raised, ells), k
        assert not _hom_vanishing_pairwise(sws, raised, ells), k


SMALL_WEIGHTS = [
    w
    for k in range(5)
    for w in itertools.combinations_with_replacement(range(2, 7), k)
    if math.prod(w) <= 24
]


def test_slice_corner_test_matches_pairwise_on_random_pieces():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        ws = WeightSystem(draw(st.integers(1, 3)), draw(st.sampled_from(SMALL_WEIGHTS)))

        def element(free):
            tors = [draw(st.integers(0, p - 1)) for p in ws.weights]
            return normal_form(ws, tors, draw(free))

        pieces = []
        for _ in range(draw(st.integers(1, 3))):
            lo = element(st.integers(-2, 2))
            pieces.append((lo, add(ws, lo, element(st.integers(0, 2)))))
        start = draw(st.integers(-2, 2))
        return ws, tuple(pieces), range(start, start + draw(st.integers(0, 3)))

    seen = {True: 0, False: 0}

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        ws, pieces, ells = case
        expected = _hom_vanishing_pairwise(ws, pieces, ells)
        assert hom_vanishing_from_corners(ws, pieces, ells) == expected
        seen[expected] += 1

    check()
    assert seen[True] > 10 and seen[False] > 10, seen


def _k0_rank_by_subsets(ws):
    """Sum over index subsets I with |I| <= d of (d+1-|I|) prod (p_i - 1)."""
    total = 0
    for subset in _weight_subsets(ws):
        total += (ws.d + 1 - len(subset)) * math.prod(ws.weights[i] - 1 for i in subset)
    return total


def _phi_multiplicities_by_subsets(ws):
    """Each index subset I with |I| <= d adds d+1-|I| to its sorted weights."""
    exps = {}
    for subset in _weight_subsets(ws):
        key = tuple(sorted(ws.weights[i] for i in subset))
        exps[key] = exps.get(key, 0) + ws.d + 1 - len(subset)
    return exps


def _omega_presentation_matrix(ws):
    """Generators x_1..x_n with c = p_n * x_n eliminated; the last row kills omega."""
    n = ws.n
    if n == 0:
        return [[ws.n - ws.d - 1]]
    mat = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = ws.weights[i]
        row[i + 1] = -ws.weights[i + 1]
        mat.append(row)
    last = [-1] * n
    last[n - 1] = (ws.n - ws.d - 1) * ws.weights[n - 1] - 1
    mat.append(last)
    return mat


def _check_rank_forms(ws):
    assert k0_rank(ws) == _k0_rank_by_subsets(ws), ws
    assert _phi_multiplicities(ws) == _phi_multiplicities_by_subsets(ws), ws
    factors = tuple(smith_normal_form(_omega_presentation_matrix(ws)))
    assert coset_data_mod_omega(ws).invariant_factors == factors, ws


def test_rank_forms_match_oracles_on_default_grid_and_calabi_yau_systems():
    grid = default_grid()
    calabi_yau = [
        WeightSystem(d, weights)
        for d in (1, 2, 3)
        for n in range(d + 5)
        for weights in enumerate_weight_systems(d, n, Trichotomy.CALABI_YAU).sporadic
    ]
    assert sum(trichotomy(ws) == Trichotomy.CALABI_YAU for ws in grid) >= 8
    assert len(calabi_yau) > 150
    for ws in grid + calabi_yau:
        _check_rank_forms(ws)
    # the Calabi-Yau factor lists end in the one free summand
    assert all(coset_data_mod_omega(ws).invariant_factors[-1] == 0 for ws in calabi_yau)


# repeated weights, prime powers and composites with several prime factors
RANDOM_WEIGHT_POOL = (1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 27, 36, 49, 64, 100)


def test_rank_forms_match_oracles_on_random_tuples():
    rng = random.Random(3101)
    repeated = 0
    for _ in range(2_000):
        n = rng.randint(0, 7)
        weights = [rng.choice(RANDOM_WEIGHT_POOL) for _ in range(n)]
        if n >= 2 and rng.random() < 0.5:
            weights[rng.randrange(n)] = weights[0]
        ws = WeightSystem(rng.randint(1, 5), tuple(weights))
        repeated += len(set(weights)) < n
        _check_rank_forms(ws)
    assert repeated > 500


MERSENNE_61 = 2**61 - 1


@pytest.mark.parametrize(
    "ws",
    [
        WeightSystem(2, (MERSENNE_61, 3, 5)),
        WeightSystem(1, (MERSENNE_61, MERSENNE_61 * (2**31 - 1))),
        WeightSystem(2, (MERSENNE_61 * (2**31 - 1), MERSENNE_61, 2, 2)),
        WeightSystem(3, (MERSENNE_61, MERSENNE_61, MERSENNE_61 * (2**31 - 1), 6, 10, 15)),
        WeightSystem(2, (2**31 - 1, 4 * MERSENNE_61, 12, 9, 9)),
    ],
    ids=str,
)
def test_rank_forms_match_oracles_on_large_weights(ws):
    _check_rank_forms(ws)
