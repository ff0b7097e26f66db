"""The exact linear algebra kernel against oracles that share no code with it."""

import itertools
import random
from fractions import Fraction

import pytest

from glci.linalg import Echelon, det, nullspace


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


def _assert_exact(values):
    for v in values:
        assert type(v) in (int, Fraction), (v, type(v))


def test_det_against_permutation_expansion():
    rng = random.Random(4102)
    singular = 0
    for n in range(6):
        for fractions in (False, True):
            for _ in range(12):
                m = _random_rows(rng, n, n, fractions)
                expected = naive_det(m)
                got = det(m)
                _assert_exact([got])
                assert got == expected, m
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
        assert nullspace(rows, ncols) == expected, rows


def test_kernel_vectors_are_annihilated():
    rng = random.Random(31337)
    for trial in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
        rows = _random_rows(rng, nrows, ncols, fractions=trial % 3 == 0)
        kernel = nullspace(rows, ncols)
        assert len(kernel) == ncols - len(Echelon(rows).rows)
        for vec in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0, (rows, vec)


def test_int_input_gives_exact_values():
    assert det([[2, 1], [1, 1]]) == 1
    _assert_exact([det([[2, 1], [1, 1]]), det([[3, 1], [1, 2]]), det([[1, 2], [2, 4]])])
    kernel = nullspace([[2, 1, 0]], 3)
    assert kernel == [[Fraction(-1, 2), 1, 0], [0, 0, 1]]
    _assert_exact([x for vec in kernel for x in vec])
    ech = Echelon([[2, 1], [1, 1]])
    assert ech.rows == [[2, 1], [0, Fraction(1, 2)]]
    _assert_exact([x for row in ech.rows for x in row])
    _assert_exact(ech.reduce([1, 0]))
    assert not ech.add([4, 3]) and ech.pivots == [0, 1]
