import itertools

import pytest

from glci.atilde import (
    atilde_presentation,
    noncut_matches_interval_quiver,
    verify_cut,
)
from glci.coxeter import k0_rank
from glci.grading import WeightSystem, add, coset_data_mod_omega, omega, presentation


def test_kronecker_with_cut():
    q = atilde_presentation(WeightSystem(1, ()))
    assert len(q.vertices) == 2
    noncut = [a for a in q.arrows if not a.cut]
    cut = [a for a in q.arrows if a.cut]
    assert len(noncut) == 2 and len(cut) == 2
    assert all(a.source != a.target for a in noncut)
    # both cut arrows run from c back to 0
    assert all((a.source, a.target) == (1, 0) for a in cut)
    report = verify_cut(q)
    assert report.ok
    assert report.walks_checked == 2 * 2  # 2 vertices x 2! label orders


def test_beilinson_with_cut():
    q = atilde_presentation(WeightSystem(2, ()))
    assert len(q.vertices) == 3
    assert sum(a.cut for a in q.arrows) == 3
    # all three cut arrows go from 2c back to 0
    assert all((a.source, a.target) == (2, 0) for a in q.arrows if a.cut)
    assert verify_cut(q).ok


def test_weighted_surface_example():
    ws = WeightSystem(2, (2, 3, 4))
    q = atilde_presentation(ws)
    assert len(q.vertices) == 26 == k0_rank(ws)
    report = verify_cut(q)
    assert report.ok
    assert report.walks_checked == 26 * 6
    assert noncut_matches_interval_quiver(q)


def test_padded_case():
    ws = WeightSystem(3, (2, 2))
    q = atilde_presentation(ws)
    assert len(q.vertices) == k0_rank(ws) == 12
    assert verify_cut(q).ok
    assert noncut_matches_interval_quiver(q)


def test_vertex_count_equals_coset_count():
    for d, weights in ((1, (2, 3)), (2, (2, 3, 4)), (3, (2, 2))):
        ws = WeightSystem(d, weights)
        q = atilde_presentation(ws)
        data = coset_data_mod_omega(ws)
        assert len(q.vertices) == data.count


def test_one_arrow_per_vertex_and_label():
    ws = WeightSystem(2, (2, 3, 4))
    q = atilde_presentation(ws)
    keys = {(a.source, a.label) for a in q.arrows}
    assert len(keys) == len(q.arrows) == len(q.vertices) * (ws.d + 1)


def test_rejects_too_many_weights():
    with pytest.raises(ValueError):
        atilde_presentation(WeightSystem(1, (2, 2, 2)))


def test_walk_cap():
    q = atilde_presentation(WeightSystem(6, ()))
    with pytest.raises(ValueError):
        verify_cut(q)


def _orbit_walk_representative(ws, members, x):
    """The oracle for the closed-form cut target: walk down the omega orbit
    of x (omega < 0 here) until it enters the interval."""
    w = omega(ws)
    while x.free >= 0:
        if x in members:
            return x
        x = add(ws, x, w)
    return None


def test_cut_target_is_the_orbit_representative():
    systems = [
        ws
        for d in (1, 2, 3)
        for n in range(d + 2)
        for tup in itertools.combinations_with_replacement(range(2, 6), n)
        if k0_rank(ws := WeightSystem(d, tup)) <= 60
    ]
    assert len(systems) > 50
    for ws in systems:
        q = atilde_presentation(ws)
        gens, _ = presentation(ws)
        members = set(q.vertices)
        for a in q.arrows:
            t = add(ws, q.vertices[a.source], gens[a.label - 1])
            expected = _orbit_walk_representative(ws, members, t) if a.cut else t
            assert q.vertices[a.target] == expected, (ws, a)
