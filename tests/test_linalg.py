"""The exact linear algebra kernel against oracles that share no code with it."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glci.linalg import Echelon, GraphEchelon, nonsingular, nullspace


def naive_det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # parity via cycle counting
        p = list(perm)
        for i in range(n):
            if not seen[i]:
                j = i
                length = 0
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def _fraction_echelon(rows):
    """The former `Echelon` over Fraction: (echelon rows, pivots), each input
    row reduced against the earlier echelon rows by division."""
    ech_rows, pivots = [], []
    for v in rows:
        v = list(v)
        for row, p in zip(ech_rows, pivots):
            if v[p]:
                f = Fraction(v[p]) / row[p]
                for i, x in enumerate(row):
                    if x:
                        v[i] -= f * x
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            ech_rows.append(v)
            pivots.append(p)
    return ech_rows, pivots


def _fraction_det(m):
    ech_rows, pivots = _fraction_echelon(m)
    if len(pivots) < len(m):
        return 0
    inversions = sum(a > b for a, b in itertools.combinations(pivots, 2))
    product = Fraction(1)
    for row, p in zip(ech_rows, pivots):
        product *= row[p]
    return -product if inversions % 2 else product


def _fraction_nullspace(rows, ncols):
    ech_rows, pivots = _fraction_echelon(rows)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(reversed(ech_rows), reversed(pivots)):
            acc = sum((x * vec[c] for c, x in enumerate(row) if x and c != p), Fraction(0))
            vec[p] = -acc / row[p]
        out.append(vec)
    return out


def _entry(rng, fractions):
    # zero-heavy so that dependent rows and singular matrices are common
    num = rng.choice((0, 0, 0, -1, 1, -2, 2, 3))
    return Fraction(num, rng.randint(1, 4)) if fractions else num


def _random_rows(rng, nrows, ncols, fractions):
    rows = [[_entry(rng, fractions) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.3:
        # force a dependency: last row a combination of the first two
        a, b = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), 2)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def _columns(rows, ncols):
    """The image columns A e_j of the matrix `rows`, the input of `nullspace`."""
    return [[row[j] for row in rows] for j in range(ncols)]


def _assert_ints(values):
    for v in values:
        assert type(v) is int, (v, type(v))


def _assert_same_kernel(kernel, oracle):
    """`kernel` is an int basis of the span of the independent `oracle`
    vectors: as many vectors, and every oracle vector lies in their span."""
    _assert_ints([x for vec in kernel for x in vec])
    assert len(kernel) == len(oracle), (kernel, oracle)
    span = Echelon(kernel)
    for vec in oracle:
        assert not any(span.reduce(vec)), (kernel, vec)


def test_nonsingular_against_permutation_expansion():
    rng = random.Random(4102)
    singular = 0
    for n in range(6):
        for fractions in (False, True):
            for _ in range(12):
                m = _random_rows(rng, n, n, fractions)
                expected = naive_det(m)
                assert nonsingular(m) == (expected != 0), m
                singular += expected == 0
    assert singular >= 20  # the singular branch is exercised


def test_echelon_and_nullspace_against_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(rows):
        return sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        )

    def from_sympy(vec):
        return [Fraction(int(x.p), int(x.q)) for x in vec]

    rng = random.Random(777)
    for trial in range(120):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = _random_rows(rng, nrows, ncols, fractions=trial % 2 == 1)
        ech = Echelon(rows)
        reference = to_sympy(rows)
        assert len(ech.rows) == reference.rank(), rows
        combo = [
            sum((Fraction(rng.randint(-2, 2)) * row[c] for row in rows), Fraction(0))
            for c in range(ncols)
        ]
        other = [_entry(rng, True) for _ in range(ncols)]
        for v in (combo, other):
            in_span = not any(ech.reduce(v))
            assert in_span == (to_sympy(rows + [v]).rank() == reference.rank()), (rows, v)
        expected = [from_sympy(vec) for vec in reference.nullspace()]
        _assert_same_kernel(nullspace(_columns(rows, ncols)), expected)


def test_kernel_vectors_are_annihilated():
    rng = random.Random(31337)
    for trial in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
        rows = _random_rows(rng, nrows, ncols, fractions=trial % 3 == 0)
        kernel = nullspace(_columns(rows, ncols))
        assert len(kernel) == ncols - len(Echelon(rows).rows)
        assert len(Echelon(kernel).rows) == len(kernel), (rows, kernel)
        for vec in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0, (rows, vec)


def test_int_input_gives_exact_values():
    assert nonsingular([[2, 1], [1, 1]]) and nonsingular([[3, 1], [1, 2]])
    assert not nonsingular([[1, 2], [2, 4]])
    kernel = nullspace([[2], [1], [0]])
    assert kernel == [[1, -2, 0], [0, 0, 1]]
    _assert_ints([x for vec in kernel for x in vec])
    ech = Echelon([[2, 1], [1, 1]])
    assert ech.rows == [[2, 1], [0, 1]]
    _assert_ints([x for row in ech.rows for x in row])
    _assert_ints(ech.reduce([1, 0]))
    assert not ech.add([4, 3]) and ech.pivots == [0, 1]


@st.composite
def _matrices(draw):
    """Int or Fraction matrices up to 5 x 6, zero-heavy, with some rows forced
    to be combinations of earlier ones."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    small = st.sampled_from((0, 0, 0, -1, 1, -2, 2, 3))
    if draw(st.booleans()):
        entry = st.builds(Fraction, small | st.integers(-50, 50), st.integers(1, 12))
    else:
        entry = small | st.integers(-(10**6), 10**6)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for k in range(2, nrows):
        if draw(st.booleans()):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            a, b = draw(small), draw(st.builds(Fraction, small, st.integers(1, 3)))
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_matrices(), st.data())
def test_integer_echelon_against_fraction_echelon(rows, data):
    ncols = len(rows[0]) if rows else data.draw(st.integers(1, 6))
    ech = Echelon(rows)
    ref_rows, ref_pivots = _fraction_echelon(rows)
    assert ech.pivots == ref_pivots
    for row, ref, p in zip(ech.rows, ref_rows, ech.pivots):
        # primitive integer rows with a positive pivot, spanning the same lines
        assert all(type(x) is int for x in row) and row[p] > 0
        assert math.gcd(*row) == 1
        assert [Fraction(x, row[p]) for x in row] == [Fraction(x) / ref[p] for x in ref]
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    combo = [sum((c * row[k] for c, row in zip(coeffs, rows)), 0) for k in range(ncols)]
    other = data.draw(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols))
    for v in (combo, other):
        reduced = ech.reduce(v)
        assert not any(reduced[p] for p in ech.pivots)
        in_span = len(_fraction_echelon(rows + [v])[1]) == len(ref_pivots)
        assert (not any(reduced)) == in_span, (rows, v)
    k = min(len(rows), ncols)
    square = [row[:k] for row in rows[:k]]
    assert nonsingular(square) == (_fraction_det(square) != 0)
    _assert_same_kernel(nullspace(_columns(rows, ncols)), _fraction_nullspace(rows, ncols))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_matrices(), st.data())
def test_graph_echelon_grows_the_image_and_keeps_the_kernel(rows, data):
    # extend_image answers membership in the span of the columns and of the
    # vectors it added before, and leaves the kernel of the columns as it was
    ncols = len(rows[0]) if rows else data.draw(st.integers(1, 6))
    columns = _columns(rows, ncols)
    graph = GraphEchelon(columns, len(rows))
    kernel = graph.kernel()
    _assert_same_kernel(kernel, _fraction_nullspace(rows, ncols))
    vector = st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    combo = [sum((c * col[i] for c, col in zip(coeffs, columns)), 0) for i in range(len(rows))]
    image = list(columns)
    for v in [combo, *data.draw(st.lists(vector, max_size=4)), combo]:
        grows = len(_fraction_echelon(image + [v])[1]) > len(_fraction_echelon(image)[1])
        assert graph.extend_image(v) == grows, (rows, v)
        image += [v] * grows
    assert graph.kernel() == kernel
