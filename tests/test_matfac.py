import itertools
import operator
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glci import cli, linalg, matfac, suite
from glci.grading import (
    GroupElement,
    WeightSystem,
    add,
    delta_l,
    gen_c,
    gen_x,
    normal_form,
    sub,
    zero,
)
from glci.matfac import (
    MFIndex,
    MultiPoly,
    _corner_minor,
    _monomial_degree,
    _position_sign,
    _system_constants,
    expected_index_count,
    hypersurface_poly,
    mf_build,
    mf_enumerate,
    mf_minor_nonsingular,
    mf_pairs,
    mf_verify,
    subsets_by_parity,
)


def X(n, i, k):
    return MultiPoly.x_power(n, i, k)


def LX(n, i, k):
    return MultiPoly.lam_x_power(n, i, k)


def O(n):
    return MultiPoly.zero(n)


def expected_4x4(p, ell):
    """The printed 4x4 pair for d = 1, n = 3, under the documented subset order
    {1},{2},{3},{1,2,3} (rows of M) by (),{1,2},{1,3},{2,3} (columns of M)."""
    n = 3
    (p1, p2, p3), (l1, l2, l3) = p, ell
    m = [
        [-X(n, 1, l1), LX(n, 2, p2 - l2), LX(n, 3, p3 - l3), O(n)],
        [-X(n, 2, l2), -LX(n, 1, p1 - l1), O(n), LX(n, 3, p3 - l3)],
        [-X(n, 3, l3), O(n), -LX(n, 1, p1 - l1), -LX(n, 2, p2 - l2)],
        [O(n), -X(n, 3, l3), X(n, 2, l2), -X(n, 1, l1)],
    ]
    nn = [
        [-LX(n, 1, p1 - l1), -LX(n, 2, p2 - l2), -LX(n, 3, p3 - l3), O(n)],
        [X(n, 2, l2), -X(n, 1, l1), O(n), -LX(n, 3, p3 - l3)],
        [X(n, 3, l3), O(n), -X(n, 1, l1), LX(n, 2, p2 - l2)],
        [O(n), X(n, 3, l3), -X(n, 2, l2), -LX(n, 1, p1 - l1)],
    ]
    return m, nn


def expected_8x8(p, ell):
    """The printed 8x8 pair for d = 2, n = 4, with Y_i = X_i^{ell_i} and
    Z_i = lambda_i X_i^{p_i - ell_i}."""
    n = 4
    Y = [None] + [X(n, i, ell[i - 1]) for i in range(1, 5)]
    Z = [None] + [LX(n, i, p[i - 1] - ell[i - 1]) for i in range(1, 5)]
    o = O(n)
    m = [
        [-Y[1], Z[2], Z[3], Z[4], o, o, o, o],
        [-Y[2], -Z[1], o, o, Z[3], Z[4], o, o],
        [-Y[3], o, -Z[1], o, -Z[2], o, Z[4], o],
        [-Y[4], o, o, -Z[1], o, -Z[2], -Z[3], o],
        [o, -Y[3], Y[2], o, -Y[1], o, o, Z[4]],
        [o, -Y[4], o, Y[2], o, -Y[1], o, -Z[3]],
        [o, o, -Y[4], Y[3], o, o, -Y[1], Z[2]],
        [o, o, o, o, -Y[4], Y[3], -Y[2], -Z[1]],
    ]
    nn = [
        [-Z[1], -Z[2], -Z[3], -Z[4], o, o, o, o],
        [Y[2], -Y[1], o, o, -Z[3], -Z[4], o, o],
        [Y[3], o, -Y[1], o, Z[2], o, -Z[4], o],
        [Y[4], o, o, -Y[1], o, Z[2], Z[3], o],
        [o, Y[3], -Y[2], o, -Z[1], o, o, -Z[4]],
        [o, Y[4], o, -Y[2], o, -Z[1], o, Z[3]],
        [o, o, Y[4], -Y[3], o, o, -Z[1], -Z[2]],
        [o, o, o, o, Y[4], -Y[3], Y[2], -Y[1]],
    ]
    return m, nn


def test_multipoly_arithmetic():
    n = 2
    a = X(n, 1, 2)
    b = LX(n, 2, 3)
    assert (a + b) - a == b
    assert (a * b).is_single_monomial()
    assert (a - a).is_zero()
    f = hypersurface_poly(WeightSystem(1, (2, 3, 5)))
    assert len(f.terms) == 3


def test_subset_order():
    assert subsets_by_parity(3, 1) == [(1,), (2,), (3,), (1, 2, 3)]
    assert subsets_by_parity(3, 0) == [(), (1, 2), (1, 3), (2, 3)]
    assert subsets_by_parity(4, 0) == [
        (),
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
        (1, 2, 3, 4),
    ]


def test_mf_build_matches_printed_4x4():
    weights = (2, 3, 5)
    ws = WeightSystem(1, weights)
    for ell in ((1, 1, 1), (1, 2, 3), (1, 1, 4)):
        pair = mf_build(ws, MFIndex(ell))
        m, nn = expected_4x4(weights, ell)
        assert [list(r) for r in pair.m_rows] == m
        assert [list(r) for r in pair.n_rows] == nn


def test_mf_build_matches_printed_8x8():
    weights = (2, 2, 3, 4)
    ws = WeightSystem(2, weights)
    for ell in ((1, 1, 1, 1), (1, 1, 2, 3)):
        pair = mf_build(ws, MFIndex(ell))
        m, nn = expected_8x8(weights, ell)
        assert [list(r) for r in pair.m_rows] == m
        assert [list(r) for r in pair.n_rows] == nn


def test_mf_entries_are_single_signed_monomials():
    ws = WeightSystem(1, (2, 2, 2))
    pair = mf_build(ws, MFIndex((1, 1, 1)))
    for rows in (pair.m_rows, pair.n_rows):
        for row in rows:
            for entry in row:
                if not entry.is_zero():
                    assert entry.is_single_monomial()
                    assert abs(next(iter(entry.terms.values()))) == 1


def test_mf_verify_identity_and_homogeneity():
    for d, weights in ((1, (2, 3, 5)), (2, (2, 2, 3, 4))):
        ws = WeightSystem(d, weights)
        for index in mf_enumerate(ws):
            report = mf_verify(mf_build(ws, index))
            assert report.identity_ok and report.homogeneity_ok, report.failures


def test_mf_product_diagonal_is_hypersurface():
    ws = WeightSystem(1, (2, 3, 5))
    pair = mf_build(ws, MFIndex((1, 1, 1)))
    f = hypersurface_poly(ws)
    acc = MultiPoly.zero(ws.n)
    for k in range(pair.size):
        acc = acc + pair.m_rows[0][k] * pair.n_rows[k][0]
    assert acc == f


def test_mf_enumerate_counts():
    assert len(mf_enumerate(WeightSystem(1, (2, 3, 5)))) == 8
    only = mf_enumerate(WeightSystem(2, (2, 2, 2, 2)))
    assert [i.ell for i in only] == [(1, 1, 1, 1)]
    assert len(mf_enumerate(WeightSystem(2, (2, 2, 3, 4)))) == 6
    assert expected_index_count(WeightSystem(2, (2, 2, 3, 4))) == 6


def test_mf_errors():
    with pytest.raises(ValueError):
        mf_enumerate(WeightSystem(2, (2, 3)))
    ws = WeightSystem(1, (2, 3, 5))
    with pytest.raises(ValueError):
        mf_build(ws, MFIndex((1, 1, 5)))
    with pytest.raises(ValueError):
        mf_build(ws, MFIndex((0, 1, 1)))


def _symbolic_det(matrix):
    """Cofactor expansion along rows, memoized on the remaining column set:
    an oracle for the corner minor independent of `linalg.nonsingular`."""
    k = len(matrix)
    nvars = matrix[0][0].nvars
    cache = {}

    def rec(row, cols):
        if not cols:
            return MultiPoly.monomial(nvars, 1, {})
        if cols not in cache:
            acc = MultiPoly.zero(nvars)
            for pos, c in enumerate(cols):
                if not matrix[row][c].is_zero():
                    term = matrix[row][c] * rec(row + 1, cols[:pos] + cols[pos + 1 :])
                    acc = acc + (term if pos % 2 == 0 else -term)
            cache[cols] = acc
        return cache[cols]

    return rec(0, tuple(range(k)))


@pytest.mark.parametrize("ws", suite.MF_FIXTURES, ids=str)
def test_corner_minor_is_power_of_truncated_hypersurface(ws):
    """det(corner) = +-f'^(2^(d-1)), f' the sum of the first n - 1 terms of
    f: the corner is the N-block of the factorization in n - 1 variables."""
    n = ws.n
    f_prime = MultiPoly.zero(n)
    for i, p in enumerate(ws.weights[:-1], start=1):
        f_prime = f_prime + LX(n, i, p)
    power = MultiPoly.monomial(n, 1, {})
    for _ in range(2 ** (ws.d - 1)):
        power = power * f_prime
    for index in mf_enumerate(ws):
        pair = mf_build(ws, index)
        det = _symbolic_det(_corner_minor(pair))
        assert det in (power, -power), index
        assert mf_minor_nonsingular(pair) is True


def test_mf_minor_nonsingular_examples():
    ws = WeightSystem(1, (2, 3, 5))
    assert mf_minor_nonsingular(mf_build(ws, MFIndex((1, 1, 1)))) is True
    ws4 = WeightSystem(4, (2, 2, 2, 2, 2, 3))
    for index in mf_enumerate(ws4):
        assert mf_minor_nonsingular(mf_build(ws4, index)) is True


def test_mf_minor_singular_when_a_corner_row_is_zero():
    ws = WeightSystem(2, (2, 2, 3, 4))
    pair = mf_build(ws, MFIndex((1, 1, 2, 3)))
    row = next(k for k, s in enumerate(pair.even_subsets) if s and ws.n not in s)
    rows = list(pair.n_rows)
    rows[row] = tuple(MultiPoly.zero(ws.n) for _ in rows[row])
    bad = replace(pair, n_rows=tuple(rows))
    assert _symbolic_det(_corner_minor(bad)).is_zero()
    assert mf_minor_nonsingular(bad) is False


def _zero_a_corner_row(pair):
    """The pair with one row of its corner minor zeroed: the edit of
    `test_mf_minor_singular_when_a_corner_row_is_zero`."""
    n = pair.ws.n
    row = next(k for k, s in enumerate(pair.even_subsets) if s and n not in s)
    rows = list(pair.n_rows)
    rows[row] = tuple(MultiPoly.zero(n) for _ in rows[row])
    return replace(pair, n_rows=tuple(rows))


@pytest.mark.parametrize("order", [1, -1], ids=["sound first", "tampered first"])
def test_corner_verdicts_are_memoized_on_the_matrix_not_on_ell(monkeypatch, order):
    # the two pairs share ell_1..ell_{n-1}, so their sound corners are equal;
    # the second is tampered inside its corner and must not take the
    # first's verdict, whichever of the two the loop meets first
    ws = WeightSystem(2, (2, 2, 3, 4))
    sound, tampered = MFIndex((1, 1, 2, 1)), MFIndex((1, 1, 2, 3))
    real_build = matfac.mf_build

    def build(ws, index, slots=None):
        pair = real_build(ws, index, slots)
        return _zero_a_corner_row(pair) if index == tampered else pair

    monkeypatch.setattr(matfac, "mf_build", build)
    results = list(mf_pairs(ws, [sound, tampered][::order], True))
    verdicts = {index: nonsingular for index, _, _, nonsingular in results}
    assert verdicts == {sound: True, tampered: False}
    reports = {index: report for index, _, report, _ in results}
    assert reports[sound].ok and not reports[tampered].identity_ok


@pytest.mark.parametrize("ws", suite.MF_FIXTURES + (WeightSystem(2, (2, 3, 3, 4)),), ids=str)
def test_mf_pairs_agrees_with_each_pair_checked_alone(ws):
    indices = mf_enumerate(ws)
    results = list(mf_pairs(ws, indices, True))
    assert [index for index, *_ in results] == indices
    for index, pair, report, nonsingular in results:
        assert pair == mf_build(ws, index)
        assert report == mf_verify(pair)
        assert nonsingular is mf_minor_nonsingular(pair) is True
    built = list(mf_pairs(ws, indices, False))
    assert [(index, pair) for index, pair, _, _ in built] == [(i, p) for i, p, _, _ in results]
    assert {(report, nonsingular) for _, _, report, nonsingular in built} == {(None, None)}


def _label_case(pair, bump, probe):
    """The pair, with its label at position 0, column 1, moved by c when
    `bump`: the entries stay, so only the homogeneity check can see it."""
    if not bump:
        return pair
    shifts = dict(pair.shifts)
    shifts[0] = (shifts[0][0], add(pair.ws, shifts[0][1], gen_c(pair.ws)), *shifts[0][2:])
    return replace(pair, shifts=shifts)


def _entry_case(pair, bump, probe):
    """The pair with M's entry (0,0) replaced by `probe`, one object shared
    by both pairs of a run, set to that entry, times X_2 when `bump`.
    Setting it in place gives the other pair an entry of another monomial
    under the same id, as a reused id would."""
    rows = [list(row) for row in pair.m_rows]
    ((exps, coeff),) = rows[0][0].terms.items()
    probe.terms = {(exps[0], exps[1] + bump, *exps[2:]): coeff}
    rows[0][0] = probe
    return replace(pair, m_rows=tuple(map(tuple, rows)))


@pytest.mark.parametrize("case", [_label_case, _entry_case], ids=["label", "entry"])
@pytest.mark.parametrize("tampered_at", [1, 0], ids=["sound first", "tampered first"])
def test_degree_key_memos_are_keyed_on_the_value(monkeypatch, case, tampered_at):
    # a sound pair and a tampered pair of the same ell run through one loop,
    # so they share its memos; each must get the report it gets alone,
    # whichever the loop meets first
    ws = WeightSystem(1, (2, 3, 5))
    index = MFIndex((1, 2, 4))
    probe, turn = MultiPoly.zero(ws.n), itertools.count()
    real_build = matfac.mf_build

    def build(ws, index, slots=None):
        return case(real_build(ws, index, slots), next(turn) == tampered_at, probe)

    monkeypatch.setattr(matfac, "mf_build", build)
    # each pair is checked alone before the loop builds the next, which may
    # set the probe
    reports = [(report, mf_verify(pair)) for _, pair, report, _ in mf_pairs(ws, [index] * 2, True)]
    assert [loop == alone for loop, alone in reports] == [True, True]
    assert [loop.ok for loop, _ in reports] == [k != tampered_at for k in range(2)]
    assert not reports[tampered_at][0].homogeneity_ok


def test_mf_verify_ignores_constants_of_other_weights():
    ws = WeightSystem(1, (2, 3, 5))
    other = _system_constants(WeightSystem(1, (2, 3, 7)))
    for index in mf_enumerate(ws):
        pair = mf_build(ws, index)
        assert mf_verify(pair, other) == mf_verify(pair) == mf_verify(pair, _system_constants(ws))
        assert mf_verify(pair).ok


def test_mf_verify_reads_a_label_as_an_element_of_l():
    # (a_1 + 3 p_1, a_2, a_3; a - 3) is the label (a_1, a_2, a_3; a): the
    # keys reduce torsion mod p_i, so it stays homogeneous; moved by x_1 it
    # is not
    ws = WeightSystem(1, (2, 3, 5))
    pair = mf_build(ws, MFIndex((1, 2, 4)))
    for pos in (-1, 0, 1):
        for k, (torsion, free) in enumerate(pair.shifts[pos]):
            for bump in (0, 1):
                shifts = dict(pair.shifts)
                moved = list(shifts[pos])
                raw = (torsion[0] + 3 * ws.weights[0] + bump, *torsion[1:])
                moved[k] = GroupElement(raw, free - 3)
                shifts[pos] = tuple(moved)
                report = mf_verify(replace(pair, shifts=shifts))
                assert report.identity_ok and report.homogeneity_ok == (not bump), (pos, k)


def test_mf_verify_cli_does_each_systems_work_once(capsys, monkeypatch):
    """Cost guard by count on `mf --verify -d 3 -w 3,3,4,4,5`: one f and one
    elimination per distinct corner minor, 2*2*3*3 = 36 of them, not one of
    each per pair; each of the 144 pairs is still built and verified."""
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(linalg, "nonsingular")
    for name in ("hypersurface_poly", "mf_build", "mf_verify", "mf_minor_nonsingular"):
        counted(matfac, name)
    assert cli.main(["mf", "--verify", "-d", "3", "-w", "3,3,4,4,5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "144 factorizations, all identities verified"
    assert calls == {
        "nonsingular": 36,
        "hypersurface_poly": 1,
        "mf_build": 144,
        "mf_verify": 144,
        "mf_minor_nonsingular": 144,
    }


def test_mf_verify_cli_computes_each_value_once(capsys, monkeypatch):
    """Cost guard by count on `mf --verify -d 3 -w 3,3,4,4,5`: each slot
    polynomial is built once per (i, ell_i), 2+2+3+3+4 = 14 of each kind
    (and lambda_i X_i^{p_i} once more for each term of f); each degree key
    is computed once per distinct label and monomial; each of the 144 pairs
    is still verified."""
    calls = {}

    def counted(owner, name, kind=None):
        fn = getattr(owner, name)

        def wrapper(*args):
            key = kind(*args) if kind else name
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("x_power", "lam_x_power"):
        counted(MultiPoly, name)
    counted(matfac, "mf_verify")
    # a label's torsion has n entries, a monomial's exponent tuple 2n
    counted(matfac, "_degree_key", lambda c, torsion, free: f"{len(torsion)}-key")
    assert cli.main(["mf", "--verify", "-d", "3", "-w", "3,3,4,4,5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "144 factorizations, all identities verified"
    assert calls == {
        "x_power": 14,
        "lam_x_power": 14 + 5,
        "5-key": 1_086,
        "10-key": 28,
        "mf_verify": 144,
    }


def test_homogeneity_failure_names_the_expected_degree_in_normal_form():
    # (8,1,0; -4) is (0,1,0; 0) written outside normal form: the message
    # names the expected degree as the difference of the normal forms
    ws = WeightSystem(1, (2, 3, 5))
    pair = mf_build(ws, MFIndex((1, 2, 4)))
    assert pair.shifts[0][1] == GroupElement((1, 1, 0), -1)
    reports = []
    for label in (GroupElement((8, 1, 0), -4), normal_form(ws, (8, 1, 0), -4)):
        shifts = dict(pair.shifts)
        shifts[0] = (shifts[0][0], label, *shifts[0][2:])
        reports.append(mf_verify(replace(pair, shifts=shifts)))
    assert reports[0] == reports[1]
    assert reports[0].identity_ok and not reports[0].homogeneity_ok
    assert reports[0].failures[0] == "M entry (0,1) has degree (0,1,0; 0) != (1,1,0; 0)"


def test_shift_labels_match_printed_summands():
    # P^{l,0} = R + R(c - l1 x1 - l2 x2) + R(c - l1 x1 - l3 x3) + R(c - l2 x2 - l3 x3)
    ws = WeightSystem(1, (2, 3, 5))
    ell = (1, 2, 4)
    pair = mf_build(ws, MFIndex(ell))
    zero_shift = _shift_label_by_normal_form(ws, ell, (), 0)
    assert pair.shifts[0][0] == zero_shift == GroupElement((0, 0, 0), 0)
    got = pair.shifts[0][1]
    assert got == normal_form(ws, (-ell[0], -ell[1], 0), 1)
    # ranks: 2^{d+1} per parity class
    assert pair.size == 2 ** (ws.d + 1)


def _shift_label_by_normal_form(ws, ell, subset, position):
    """((|I| + a)/2) * c - sum of ell_i * x_i over I reduced by `normal_form`:
    the oracle for the closed-form labels."""
    raw = [0] * ws.n
    for i in subset:
        raw[i - 1] = -ell[i - 1]
    return normal_form(ws, raw, (len(subset) + position) // 2)


@st.composite
def _mf_systems(draw):
    """An n = d + 2 system, sometimes built with weight-1 hyperplanes, which
    it drops, and an index in range for the kept weights."""
    d = draw(st.integers(1, 4))
    kept = draw(st.lists(st.integers(2, 7), min_size=d + 2, max_size=d + 2))
    weights = list(kept)
    for _ in range(draw(st.integers(0, 2))):
        weights.insert(draw(st.integers(0, len(weights))), 1)
    ell = tuple(draw(st.integers(1, p - 1)) for p in kept)
    return WeightSystem(d, tuple(weights)), ell


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mf_systems())
def test_closed_form_shift_labels_match_normal_form(system):
    ws, ell = system
    pair = mf_build(ws, MFIndex(ell))
    for position in (-1, 0, 1):
        subsets = subsets_by_parity(ws.n, position)
        want = tuple(_shift_label_by_normal_form(ws, ell, s, position) for s in subsets)
        assert pair.shifts[position] == want


def test_mf_build_rejects_an_index_out_of_range():
    ws = WeightSystem(1, (2, 3, 5))
    for ell in ((0, 1, 1), (1, 3, 1), (1, 1, 5), (1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            mf_build(ws, MFIndex(ell))
    # indexed by the kept weights: (1;2,1,3,5) takes three exponents
    raw = WeightSystem(1, (2, 1, 3, 5))
    assert mf_build(raw, MFIndex((1, 1, 1))) == mf_build(ws, MFIndex((1, 1, 1)))
    with pytest.raises(ValueError, match="out of range"):
        mf_build(raw, MFIndex((1, 1, 1, 1)))


def test_mf_verify_rejects_tampered_pair():
    ws = WeightSystem(1, (2, 3, 5))
    pair = mf_build(ws, MFIndex((1, 1, 1)))
    rows = [list(r) for r in pair.m_rows]
    rows[0][0] = -rows[0][0]
    bad = replace(pair, m_rows=tuple(tuple(r) for r in rows))
    report = mf_verify(bad)
    assert not report.identity_ok


def test_mf_verify_rejects_tampered_shift_labels():
    from glci.grading import gen_c, add

    ws = WeightSystem(1, (2, 3, 5))
    pair = mf_build(ws, MFIndex((1, 1, 1)))
    shifts = dict(pair.shifts)
    bumped = list(shifts[0])
    bumped[0] = add(ws, bumped[0], gen_c(ws))
    shifts[0] = tuple(bumped)
    bad = replace(pair, shifts=shifts)
    report = mf_verify(bad)
    assert report.identity_ok and not report.homogeneity_ok


def _homogeneity_failures_by_difference(pair):
    """The homogeneity failures worded from each expected degree formed as a
    difference in L, the oracle for the integer-key check."""
    ws = pair.ws
    out = []
    for name, rows, src, tgt in (("M", pair.m_rows, -1, 0), ("N", pair.n_rows, 0, 1)):
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if len(entry.terms) > 1:
                    out.append(f"{name} entry ({i},{j}) is not a monomial")
                elif entry.terms:
                    want = sub(ws, pair.shifts[tgt][j], pair.shifts[src][i])
                    got = _monomial_degree(ws, entry)
                    if got != want:
                        out.append(f"{name} entry ({i},{j}) has degree {got} != {want}")
    return tuple(out)


@pytest.mark.parametrize("d, weights, i, j", [(1, (2, 3, 3), 2, 3), (2, (3, 3, 4, 4), 3, 4)])
def test_mf_verify_sees_a_label_moved_by_a_nonzero_element_of_degree_zero(d, weights, i, j):
    # x_i - x_j with p_i = p_j is nonzero of degree 0: delta alone cannot
    # tell the moved label from the true one, the torsion part of the key can
    ws = WeightSystem(d, weights)
    pair = mf_build(ws, MFIndex(tuple(p - 1 for p in weights)))
    twist = sub(ws, gen_x(ws, i), gen_x(ws, j))
    assert twist != zero(ws) and delta_l(ws, twist) == 0
    assert not _homogeneity_failures_by_difference(pair)
    for pos in (-1, 0):
        shifts = dict(pair.shifts)
        moved = list(shifts[pos])
        moved[1] = add(ws, moved[1], twist)
        shifts[pos] = tuple(moved)
        bad = replace(pair, shifts=shifts)
        report = mf_verify(bad)
        assert report.identity_ok and not report.homogeneity_ok
        assert report.failures == _homogeneity_failures_by_difference(bad) != ()


def test_all_indices_cover_box():
    ws = WeightSystem(2, (2, 2, 3, 4))
    ells = {i.ell for i in mf_enumerate(ws)}
    manual = set(itertools.product((1,), (1,), (1, 2), (1, 2, 3)))
    assert ells == manual


# The four `mf --verify` systems of the benchmark's verify workload, then the
# first in another order: the corner minor avoids the last weight, which is 3
# there instead of 5.
VERIFY_SYSTEMS = (
    WeightSystem(3, (3, 3, 4, 4, 5)),
    WeightSystem(2, (4, 5, 5, 5)),
    WeightSystem(3, (2, 3, 3, 3, 4)),
    WeightSystem(3, (3, 3, 3, 3, 3)),
    WeightSystem(3, (5, 4, 4, 3, 3)),
)


def _entry(nvars, weights, ell, row, col):
    """One entry of the pair by comparing the row and column subsets: an
    oracle for the Koszul incidence in `mf_build`."""
    rs, cs = set(row), set(col)
    if rs >= cs and len(rs - cs) == 1:
        (i,) = rs - cs
        return MultiPoly.x_power(nvars, i, ell[i - 1], _position_sign(i, row))
    if cs >= rs and len(cs - rs) == 1:
        (j,) = cs - rs
        return MultiPoly.lam_x_power(
            nvars, j, weights[j - 1] - ell[j - 1], _position_sign(j, col)
        )
    return MultiPoly.zero(nvars)


def _mat_mul(a, b):
    """Product of two MultiPoly matrices, every output entry a MultiPoly:
    an oracle for the packed row products in `mf_verify`."""
    nvars = a[0][0].nvars
    cols = len(b[0])
    b_rows = [[(j, e.terms) for j, e in enumerate(row) if e.terms] for row in b]
    out = []
    for row in a:
        acc = [{} for _ in range(cols)]
        for entry, b_row in zip(row, b_rows):
            for e1, c1 in entry.terms.items():
                for j, terms in b_row:
                    dst = acc[j]
                    for e2, c2 in terms.items():
                        key = tuple(map(operator.add, e1, e2))
                        dst[key] = dst.get(key, 0) + c1 * c2
        out.append([MultiPoly(nvars, terms) for terms in acc])
    return out


def _oracle_identity_failures(pair):
    f = hypersurface_poly(pair.ws)
    zero = MultiPoly.zero(pair.ws.n)
    failures = []
    for name, prod in (
        ("M*N", _mat_mul(pair.m_rows, pair.n_rows)),
        ("N*M", _mat_mul(pair.n_rows, pair.m_rows)),
    ):
        for i in range(pair.size):
            for j in range(pair.size):
                if prod[i][j] != (f if i == j else zero):
                    failures.append(f"{name} entry ({i},{j}) != expected")
    return failures


def _sampled_indices(ws):
    """Every index, or a seeded sample of 12 when the pairs hold more than
    2^14 entries in all, as for (3;3,3,4,4,5)."""
    indices = mf_enumerate(ws)
    if len(indices) * 4 ** (ws.d + 1) > 2**14:
        return random.Random(11).sample(indices, 12)
    return indices


@pytest.mark.parametrize("ws", suite.MF_FIXTURES + VERIFY_SYSTEMS, ids=str)
def test_mf_build_matches_set_comparison_oracle(ws):
    for index in _sampled_indices(ws):
        pair = mf_build(ws, index)
        weights, ell = pair.ws.weights, index.ell
        for rows, sources, targets in (
            (pair.m_rows, pair.odd_subsets, pair.even_subsets),
            (pair.n_rows, pair.even_subsets, pair.odd_subsets),
        ):
            expected = [[_entry(ws.n, weights, ell, r, c) for c in targets] for r in sources]
            assert [list(row) for row in rows] == expected, index


def _tampered(pair, rng):
    """Pairs that break the identity or keep it, one per kind of edit of M
    and then of N.  An edit of square factors that breaks N*M breaks M*N
    too, so `mf_verify` reaches N*M only after a failed M*N.  The negative
    exponent sits in the leading digit of the packing, so its products pack
    far below zero."""
    n, top = pair.ws.n, max(pair.ws.weights)
    for side in ("m_rows", "n_rows"):
        rows = [list(r) for r in getattr(pair, side)]
        nonzero = [(i, j) for i, r in enumerate(rows) for j, e in enumerate(r) if e.terms]
        zeros = [(i, j) for i, r in enumerate(rows) for j, e in enumerate(r) if not e.terms]
        (i, j), (k, m) = rng.choice(nonzero), rng.choice(zeros)
        edits = {
            "negated": {(i, j): -rows[i][j]},
            "dropped": {(i, j): MultiPoly.zero(n)},
            "spurious": {(k, m): X(n, 1, 1)},
            "extra term": {(i, j): rows[i][j] + LX(n, 2, 1)},
            "rescaled": {(i, j): rows[i][j] * MultiPoly.monomial(n, 2, {})},
            "swapped": {(i, j): rows[k][m], (k, m): rows[i][j]},
            "same": {(i, j): rows[i][j] * MultiPoly.monomial(n, 1, {})},
            "negative exponent": {(i, j): rows[i][j] * MultiPoly.monomial(n, 1, {0: -3 * top})},
        }
        for kind, edit in edits.items():
            bad = [list(r) for r in rows]
            for (a, b), entry in edit.items():
                bad[a][b] = entry
            yield f"{side[0].upper()} {kind}", replace(pair, **{side: tuple(tuple(r) for r in bad)})


@pytest.mark.parametrize("ws", suite.MF_FIXTURES + VERIFY_SYSTEMS, ids=str)
def test_mf_verify_agrees_with_oracle_product(ws):
    rng = random.Random(5)
    for count, index in enumerate(_sampled_indices(ws)):
        pair = mf_build(ws, index)
        report = mf_verify(pair)
        assert report.ok and not report.failures and not _oracle_identity_failures(pair)
        if count >= 4:
            continue
        for kind, bad in _tampered(pair, rng):
            expected = _oracle_identity_failures(bad)
            report = mf_verify(bad)
            assert report.identity_ok == (not expected), (index, kind)
            homogeneity = _homogeneity_failures_by_difference(bad)
            assert report.homogeneity_ok == (not homogeneity), (index, kind)
            assert report.failures == (*expected, *homogeneity), (index, kind)
            assert kind.endswith(" same") == (not expected)


def test_mf_verify_computes_n_times_m_for_non_square_factors():
    # M = (1 0) and N = (f 0)^T give M*N = f, but N*M = diag(f, 0): the
    # identity M*N = f*Id forces N*M = f*Id only for square factors
    ws = WeightSystem(1, (2, 3, 5))
    pair = mf_build(ws, MFIndex((1, 1, 1)))
    one, zero_poly = MultiPoly.monomial(ws.n, 1, {}), MultiPoly.zero(ws.n)
    bad = replace(pair, m_rows=((one, zero_poly),), n_rows=((hypersurface_poly(ws),), (zero_poly,)))
    report = mf_verify(bad)
    assert not report.identity_ok
    assert [f for f in report.failures if "*" in f] == ["N*M entry (1,1) != expected"]


@pytest.mark.parametrize("ws", [WeightSystem(1, (2, 3, 5)), WeightSystem(3, (3, 3, 4, 4, 5))], ids=str)
@pytest.mark.parametrize("carry", ["p + 1", "2p + 1", "3p", "-(2p + 1)"])
def test_packed_identity_check_rejects_carry_collisions(ws, carry):
    """An exponent above every weight must not carry into the next digit.
    In base b = carry (p the largest weight), X_1^{l-1} X_2^b packs like
    X_1^l when X_1 is the higher digit, and X_1^b X_2^{l-1} like X_2^l when
    it is the lower one; a base taken from the weights passes both.  A
    negative b lowers the exponent below zero and borrows instead, which a
    base that ignores negative exponents passes."""
    p = max(ws.weights)
    b = {"p + 1": p + 1, "2p + 1": 2 * p + 1, "3p": 3 * p, "-(2p + 1)": -(2 * p + 1)}[carry]
    pair = mf_build(ws, mf_enumerate(ws)[-1])
    n = ws.n
    for var, other in ((0, 1), (1, 0)):
        rows = [list(r) for r in pair.m_rows]
        i, j, e, c = next(
            (i, j, e, c)
            for i, r in enumerate(rows)
            for j, entry in enumerate(r)
            for e, c in entry.terms.items()
            if e[var] and not any(e[n:])
        )
        e = list(e)
        e[var] -= 1 if b > 0 else -1
        e[other] += b
        rows[i][j] = MultiPoly(n, {tuple(e): c})
        report = mf_verify(replace(pair, m_rows=tuple(tuple(r) for r in rows)))
        assert not report.identity_ok, (var, e)
        assert f"M*N entry ({i},{i}) != expected" in report.failures


def test_packed_identity_check_rejects_a_monomial_in_a_zero_entry():
    ws = WeightSystem(2, (2, 2, 3, 4))
    pair = mf_build(ws, MFIndex((1, 1, 2, 3)))
    rows = [list(r) for r in pair.n_rows]
    j = next(j for j, e in enumerate(rows[0]) if e.is_zero())
    rows[0][j] = X(ws.n, 4, 1)
    report = mf_verify(replace(pair, n_rows=tuple(tuple(r) for r in rows)))
    assert not report.identity_ok
    assert report.failures[0].startswith("M*N entry (")


def _kronecker(poly, base, order):
    """Each exponent tuple as one int, digits placed least significant first
    in `order`: the substitution the packed identity check relies on."""
    return {sum(e[q] * base**k for k, q in enumerate(order)): c for e, c in poly.terms.items()}


@pytest.mark.parametrize("msb_first", [True, False])
def test_packed_identity_check_doubles_the_largest_exponent(msb_first):
    """A base of one more than the largest exponent is not exact: products
    carry.  With u = (lowest variable)^D, D the largest weight, and each term
    of g the term of f minus u, borrowed in base D + 1, u * g packs like f in
    that base while every exponent of u, g and f stays at most D."""
    ws = WeightSystem(1, (2, 3, 5))
    n, top = ws.n, max(ws.weights)
    order = list(reversed(range(2 * n))) if msb_first else list(range(2 * n))
    f = hypersurface_poly(ws)
    g_terms = {}
    for e in f.terms:
        digits = list(e)
        digits[order[0]] -= top
        for low, high in zip(order, order[1:]):
            if digits[low] < 0:
                digits[low] += top + 1
                digits[high] -= 1
        assert 0 <= min(digits) and max(digits) <= top
        g_terms[tuple(digits)] = 1
    u = MultiPoly.monomial(n, 1, {order[0]: top})
    g = MultiPoly(n, g_terms)
    assert u * g != f
    assert _kronecker(u * g, top + 1, order) == _kronecker(f, top + 1, order)
    pair = mf_build(ws, MFIndex((1, 1, 1)))
    tiny = replace(
        pair,
        odd_subsets=pair.odd_subsets[:1],
        even_subsets=pair.even_subsets[:1],
        m_rows=((u,),),
        n_rows=((g,),),
    )
    report = mf_verify(tiny)
    assert not report.identity_ok
    assert report.failures[:2] == ("M*N entry (0,0) != expected", "N*M entry (0,0) != expected")
