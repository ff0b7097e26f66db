import gc
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from glci.classify import (
    DCMFiniteness,
    classification_report,
    cm_finite,
    d_cm_finite_sufficient,
    enumerate_weight_systems,
    frac_cy,
    gldim_canonical,
    knoerrer_partner,
    main2_slice,
    orlov_rank_delta,
    vb_finite,
)
from glci.cli import main
from glci.grading import (
    Trichotomy,
    WeightSystem,
    coset_data_mod_omega,
    coset_keys,
)
from glci.suite import default_grid
from test_grading import delta_by_fractions, delta_omega_by_fractions, trichotomy_by_fractions


def test_cm_finite_examples():
    assert cm_finite(WeightSystem(3, (2, 2, 2, 3, 5)))
    assert not cm_finite(WeightSystem(2, (3, 3, 3, 3)))
    assert cm_finite(WeightSystem(2, (2, 3)))
    assert cm_finite(WeightSystem(1, (2, 2, 7)))  # (2,...,2,p)
    assert cm_finite(WeightSystem(1, (2, 2, 2)))
    assert not cm_finite(WeightSystem(1, (2, 3, 7)))
    assert not cm_finite(WeightSystem(1, (2, 2, 2, 3)))  # n = d + 3
    # weight-1 entries are dropped before the membership test
    assert cm_finite(WeightSystem(1, (1, 2, 3, 5)))


def test_d_cm_finite_examples():
    suff = DCMFiniteness.SUFFICIENT_BY_HYPERSURFACE_LIST
    assert d_cm_finite_sufficient(WeightSystem(2, (2, 2, 7, 9))) == suff
    assert d_cm_finite_sufficient(WeightSystem(2, (3, 3, 3, 3))) == suff
    assert d_cm_finite_sufficient(WeightSystem(2, (2, 3, 7, 41))) == DCMFiniteness.UNKNOWN
    assert d_cm_finite_sufficient(WeightSystem(2, (2, 3))) == DCMFiniteness.UNKNOWN
    assert d_cm_finite_sufficient(WeightSystem(3, (2, 3, 4, 9, 11))) == suff


def test_vb_finite_examples():
    assert vb_finite(WeightSystem(1, (2, 3, 5)))
    assert not vb_finite(WeightSystem(2, (2, 2)))
    assert not vb_finite(WeightSystem(1, (2, 3, 7)))


def test_gldim_canonical_examples():
    assert gldim_canonical(WeightSystem(2, (2, 3))) == 2
    assert gldim_canonical(WeightSystem(2, (2, 2, 2, 2))) == 4
    assert gldim_canonical(WeightSystem(1, ())) == 1


def test_frac_cy_examples():
    data = frac_cy(WeightSystem(1, (2, 3, 6)))
    assert (data.m, data.l) == (6, 6) and data.reduced == 1
    data = frac_cy(WeightSystem(1, (2, 2, 2)))
    assert (data.m, data.l) == (0, 2) and data.reduced == 0
    assert frac_cy(WeightSystem(2, (2, 2, 2, 2, 2))).kind == "none"
    assert frac_cy(WeightSystem(2, (2, 3))).kind == "zero"
    data = frac_cy(WeightSystem(1, (2, 3, 5)))
    assert (data.m, data.l) == (28, 30) and data.reduced == Fraction(14, 15)


def test_enumerate_families():
    fano = enumerate_weight_systems(2, 4, Trichotomy.FANO)
    assert set(fano.infinite_families) == {
        (2, 2),
        (2, 3, 3),
        (2, 3, 4),
        (2, 3, 5),
        (2, 3, 6),
        (2, 4, 4),
        (3, 3, 3),
    }
    sporadic = set(fano.sporadic)
    assert all(len(t) == 4 for t in sporadic)
    assert (2, 3, 7, 41) in sporadic and (2, 3, 7, 42) not in sporadic
    assert (2, 4, 5, 19) in sporadic
    # every sporadic tuple really is Fano and really avoids all families
    for t in sporadic:
        assert sum(Fraction(1, p) for p in t) > 1
        assert t[:2] != (2, 2) and t[:3] not in fano.infinite_families


def test_enumerate_calabi_yau_lists():
    cy4 = enumerate_weight_systems(2, 4, Trichotomy.CALABI_YAU)
    assert cy4.infinite_families == ()
    assert set(cy4.sporadic) == {
        (2, 3, 7, 42),
        (2, 3, 8, 24),
        (2, 3, 9, 18),
        (2, 3, 10, 15),
        (2, 3, 12, 12),
        (2, 4, 5, 20),
        (2, 4, 6, 12),
        (2, 4, 8, 8),
        (2, 5, 5, 10),
        (2, 6, 6, 6),
        (3, 3, 4, 12),
        (3, 3, 6, 6),
        (3, 4, 4, 6),
        (4, 4, 4, 4),
    }
    cy5 = enumerate_weight_systems(2, 5, Trichotomy.CALABI_YAU)
    assert set(cy5.sporadic) == {(2, 2, 2, 3, 6), (2, 2, 2, 4, 4), (2, 2, 3, 3, 3)}
    cy6 = enumerate_weight_systems(2, 6, Trichotomy.CALABI_YAU)
    assert cy6.sporadic == ((2, 2, 2, 2, 2, 2),)


def test_enumerate_classical_line():
    fano = enumerate_weight_systems(1, 3, Trichotomy.FANO)
    assert set(fano.infinite_families) == {(2, 2)}
    assert set(fano.sporadic) == {(2, 3, 3), (2, 3, 4), (2, 3, 5)}
    cy = enumerate_weight_systems(1, 3, Trichotomy.CALABI_YAU)
    assert set(cy.sporadic) == {(2, 3, 6), (2, 4, 4), (3, 3, 3)}
    cy4 = enumerate_weight_systems(1, 4, Trichotomy.CALABI_YAU)
    assert set(cy4.sporadic) == {(2, 2, 2, 2)}


def test_enumerate_guards():
    with pytest.raises(ValueError):
        enumerate_weight_systems(2, 4, Trichotomy.ANTI_FANO)
    with pytest.raises(ValueError):
        enumerate_weight_systems(2, 9, Trichotomy.FANO)


def test_enumeration_leaves_nothing_for_the_cyclic_collector():
    # The recursion must not hold itself in a reference cycle, or every call
    # would leave its lists to a full collection.
    gc.collect()
    gc.disable()
    try:
        enumerate_weight_systems(2, 4, Trichotomy.FANO)
        for n in (4, 5, 6):
            enumerate_weight_systems(2, n, Trichotomy.CALABI_YAU)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_orlov_rank_delta_examples():
    assert orlov_rank_delta(WeightSystem(2, (2, 2, 3, 4))) == 28
    assert orlov_rank_delta(WeightSystem(2, (2,) * 6)) == 0
    assert orlov_rank_delta(WeightSystem(2, (2, 3))) == 11
    assert orlov_rank_delta(WeightSystem(1, (2, 3, 7))) == -1


def test_main2_slice_examples():
    data = main2_slice(WeightSystem(2, (2, 2, 3, 4)))
    assert data.report.size == 28 and data.report.ok
    data = main2_slice(WeightSystem(2, (2, 2, 2, 2)))
    assert data.report.size == 16 and data.report.ok
    data = main2_slice(WeightSystem(3, (2, 2, 2, 2, 2)))
    assert data.report.size == 48 and data.report.ok
    # representatives are pairwise distinct modulo omega
    ws = data.ws
    keys = {coset_keys(ws, [x])[0] for x in data.elements}
    assert len(keys) == len(data.elements)


def test_main2_slice_low_dimensions():
    # odd-d branch at d = 1: the classical (2,2,p) line has 4 orbit classes
    # (|4p * delta(omega)| = 4 independently of p)
    for p in (3, 7):
        data = main2_slice(WeightSystem(1, (2, 2, p)))
        assert data.report.ok and data.report.size == 4
    # even-d branch above the fixtures
    data = main2_slice(WeightSystem(4, (2, 2, 2, 2, 2, 2)))
    assert data.report.ok and data.report.size == 128


def test_main2_slice_reorders_weights():
    data = main2_slice(WeightSystem(2, (3, 2, 4, 2)))
    assert data.ws.weights == (2, 2, 3, 4)
    assert data.report.ok


def test_main2_slice_precondition():
    with pytest.raises(ValueError):
        main2_slice(WeightSystem(2, (2, 3, 3, 4)))
    with pytest.raises(ValueError):
        main2_slice(WeightSystem(2, (2, 2, 3)))


def test_knoerrer_partner_examples():
    assert knoerrer_partner(WeightSystem(1, (2, 3, 3))).weights == (2, 2, 3, 3)
    assert knoerrer_partner(WeightSystem(1, (2, 2, 2))).weights == (2, 2, 2, 2)
    partner = knoerrer_partner(WeightSystem(2, (2, 2, 3, 4)))
    assert partner.d == 3 and partner.weights == (2, 2, 2, 3, 4)
    with pytest.raises(ValueError):
        knoerrer_partner(WeightSystem(2, (2, 3)))


def test_classification_report_consistency():
    report = classification_report(WeightSystem(1, (2, 3, 5)))
    assert report.trichotomy == Trichotomy.FANO
    assert report.cm_finite and report.vb_finite
    assert report.k0_rank == 9 and report.cm_rank == 8
    assert report.orlov_delta == 1 == report.coset_count
    assert report.is_hypersurface and not report.is_regular
    report2 = classification_report(WeightSystem(2, (2, 3)))
    assert report2.is_regular and report2.cm_rank == 0
    assert report2.gldim_canonical == 2


def enumerate_by_fractions(d, n, cls):
    """The former `Fraction` body of `enumerate_weight_systems`, kept as an
    oracle for its integer running numerator."""
    target = Fraction(n - d - 1)
    families, sporadic = [], []

    def extend(prefix, total):
        k = len(prefix)
        if cls == Trichotomy.FANO and k < n and total >= target:
            families.append(prefix)
            return
        if cls == Trichotomy.CALABI_YAU and k < n and total >= target:
            return
        if k == n:
            if (cls == Trichotomy.FANO and total > target) or (
                cls == Trichotomy.CALABI_YAU and total == target
            ):
                sporadic.append(prefix)
            return
        p = prefix[-1] if prefix else 2
        while True:
            best = total + Fraction(n - k, p)
            if cls == Trichotomy.FANO and best <= target:
                break
            if cls == Trichotomy.CALABI_YAU and best < target:
                break
            extend(prefix + (p,), total + Fraction(1, p))
            p += 1

    extend((), Fraction(0))
    return tuple(families), tuple(sporadic)


def test_enumeration_matches_the_fraction_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        d = draw(st.integers(1, 2))
        return d, draw(st.integers(0, d + 4)), draw(st.sampled_from(
            [Trichotomy.FANO, Trichotomy.CALABI_YAU]
        ))

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example((2, 4, Trichotomy.FANO))
    @hypothesis.example((2, 4, Trichotomy.CALABI_YAU))
    def check(case):
        got = enumerate_weight_systems(*case)
        assert (got.infinite_families, got.sporadic) == enumerate_by_fractions(*case)

    check()


# ---- output edges: every field derived from the degree map, against the
# Fraction routes the library used before degrees became lcm-scaled integers

EDGE_SYSTEMS = (
    WeightSystem(1, (2, 3, 7, 43)),
    WeightSystem(1, (2, 3, 7)),
    WeightSystem(2, (2,) * 6),
    WeightSystem(3, ()),
)


def frac_cy_by_fractions(base):
    if base.n <= base.d + 1:
        return "zero", None, None, None
    p = math.lcm(*base.weights) if base.weights else 1
    if base.n == base.d + 2:
        m = p * (base.d + 2 * delta_omega_by_fractions(base))
        assert m.denominator == 1
        return "pair", int(m), p, Fraction(int(m), p)
    if trichotomy_by_fractions(base) == Trichotomy.CALABI_YAU:
        return "pair", base.d * p, p, Fraction(base.d * p, p)
    return "none", None, None, None


def coset_count_by_fractions(base):
    dw = delta_omega_by_fractions(base)
    if dw == 0:
        return None
    count = abs(math.prod(base.weights) * dw)
    assert count.denominator == 1
    return int(count)


def test_degree_derived_outputs_match_the_fraction_routes():
    systems = list(dict.fromkeys(default_grid() + list(EDGE_SYSTEMS)))
    assert len(systems) == len(default_grid()) + 2  # (2;2,...,2) and (3;-) are on the grid
    slices = sum(_check_degree_derived_outputs(ws) for ws in systems)
    assert slices >= 40


def _check_degree_derived_outputs(ws):
    """Asserts every degree-derived output of ws; True when it has a slice."""
    tri = trichotomy_by_fractions(ws)
    count = coset_count_by_fractions(ws)
    cy = frac_cy(ws)
    assert (cy.kind, cy.m, cy.l, cy.reduced) == frac_cy_by_fractions(ws), ws
    assert coset_data_mod_omega(ws).count == count, ws
    report = classification_report(ws)
    assert report.trichotomy == tri, ws
    assert report.vb_finite == (ws.d == 1 and tri == Trichotomy.FANO), ws
    assert report.frac_cy == cy and report.coset_count == count, ws
    sign = {Trichotomy.FANO: 1, Trichotomy.CALABI_YAU: 0, Trichotomy.ANTI_FANO: -1}[tri]
    assert report.orlov_delta == sign * (count or 0), ws
    if ws.n == ws.d + 2 and sorted(ws.weights)[:2] == [2, 2]:
        data = main2_slice(ws)
        gap = max(delta_by_fractions(data.ws, hi) for _, hi in data.pieces) - min(
            delta_by_fractions(data.ws, lo) for lo, _ in data.pieces
        )
        expected = max(0, math.ceil(gap / -delta_omega_by_fractions(data.ws)))
        assert data.report.ell_bound == expected, ws
        return True
    return False


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "info_ladder_golden.json"


def test_info_json_matches_the_recorded_ladder(capsys):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 11
    for key, expected in golden.items():
        d, weights = key.split(";")
        assert main(["info", "-d", d, "-w", weights, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == expected, key
