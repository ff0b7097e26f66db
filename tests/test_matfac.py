import itertools
from dataclasses import replace

import pytest

from glci import suite
from glci.grading import GroupElement, WeightSystem
from glci.matfac import (
    MFIndex,
    MultiPoly,
    _corner_minor,
    expected_index_count,
    hypersurface_poly,
    mf_build,
    mf_enumerate,
    mf_minor_nonsingular,
    mf_verify,
    shift_label,
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
    an oracle for the corner minor independent of `linalg.det`."""
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


def test_shift_labels_match_printed_summands():
    # P^{l,0} = R + R(c - l1 x1 - l2 x2) + R(c - l1 x1 - l3 x3) + R(c - l2 x2 - l3 x3)
    ws = WeightSystem(1, (2, 3, 5))
    ell = (1, 2, 4)
    pair = mf_build(ws, MFIndex(ell))
    zero_shift = shift_label(ws, ell, (), 0)
    assert pair.shifts[0][0] == zero_shift == GroupElement((0, 0, 0), 0)
    got = pair.shifts[0][1]
    from glci.grading import normal_form

    assert got == normal_form(ws, (-ell[0], -ell[1], 0), 1)
    # ranks: 2^{d+1} per parity class
    assert pair.size == 2 ** (ws.d + 1)


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


def test_all_indices_cover_box():
    ws = WeightSystem(2, (2, 2, 3, 4))
    ells = {i.ell for i in mf_enumerate(ws)}
    manual = set(itertools.product((1,), (1,), (1, 2), (1, 2, 3)))
    assert ells == manual
