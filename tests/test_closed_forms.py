"""Closed-form intervals and step convexity against enumerate-and-test oracles.

The oracles below are the original enumerate-and-test routines.  They share
only the group arithmetic (`add`, `sub`, `leq`, `delta`) with the library,
never the interval, size or convexity code they check.
"""

import itertools
import math
import random

from glci.algebra import (
    canonical_interval,
    canonical_interval_size,
    check_convex,
    cm_interval,
    cm_interval_size,
)
from glci.coxeter import k0_rank
from glci.grading import (
    GroupElement,
    WeightSystem,
    add,
    delta,
    gen_c,
    leq,
    interval,
    interval_size,
    normal_form,
    normalize_weights,
    omega,
    smul,
    sub,
    zero,
)
from glci.suite import default_grid


def _interval_by_enumeration(ws, x, y):
    """Every candidate u with free part up to floor(delta(y - x)), tested by leq."""
    w = sub(ws, y, x)
    if w.free < 0:
        return []
    bound = math.floor(delta(ws, w))
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
    ws = normalize_weights(WeightSystem(2, (2, 5, 7, 9)))
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
