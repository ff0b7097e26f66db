"""Exact linear algebra: one echelon reduction over Q, and a Smith normal form over Z.

Entries are ints or `fractions.Fraction`; every result is exact (an int or a
Fraction, never a float).  `Echelon` is the only elimination over Q: span
membership, rank, the determinant and the null space are all read off it.
It eliminates over Z without division: on integer input only the vectors
`nullspace` returns are Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence


class Echelon:
    """Incrementally grown echelon basis of a subspace of Q^n, kept over Z.

    Each row is a primitive integer vector (its entries have gcd 1) whose
    pivot, its first nonzero entry, is positive.  Row k has its pivot in
    column `pivots[k]` and is zero in the pivot columns of every earlier row,
    so reducing against the rows in insertion order clears every pivot
    column.  A rational vector is scaled by the lcm of its denominators on
    entry, which keeps the span.
    """

    def __init__(self, rows: Iterable[Sequence] = ()):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def _eliminate(self, v: Sequence) -> tuple[list[int], int]:
        """(w, t): the integer vector w = t*v minus a combination of the rows,
        zero in every pivot column, with t a positive integer.

        Against a row with pivot b, an entry a becomes 0 by
        w <- (b/g)*w - (a/g)*row with g = gcd(a, b), with no division.
        """
        if set(map(type, v)) <= {int}:
            w, t = list(v), 1
        else:
            t = math.lcm(*(x.denominator for x in v))
            w = [x.numerator * (t // x.denominator) for x in v]
        for row, p in zip(self.rows, self.pivots):
            a = w[p]
            if not a:
                continue
            b = row[p]
            g = math.gcd(a, b)
            a //= g
            b //= g
            if b == 1:
                for i in range(p, len(row)):
                    if row[i]:
                        w[i] -= a * row[i]
            else:
                w = [b * x - a * y for x, y in zip(w, row)]
                t *= b
        return w, t

    def _push(self, w: list[int]) -> int:
        """Store w divided by c, its content signed so the pivot is positive,
        and return c; return 0 and store nothing when w is zero."""
        p = next((i for i, x in enumerate(w) if x), None)
        if p is None:
            return 0
        c = math.gcd(*w)
        if w[p] < 0:
            c = -c
        if c != 1:
            w = [x // c for x in w]
        self.rows.append(w)
        self.pivots.append(p)
        return c

    def reduce(self, v: Sequence) -> list[int]:
        """A positive multiple of v minus a combination of the rows, zero in
        every pivot column; all zero exactly when v lies in the span."""
        return self._eliminate(v)[0]

    def add(self, v: Sequence) -> bool:
        """Extend the basis by v; False (and no change) when v is already in the span."""
        return bool(self._push(self._eliminate(v)[0]))


def det(m: Sequence[Sequence]):
    """Determinant of a square matrix.

    Ordering the echelon rows' columns by pivot makes them upper triangular,
    so their determinant is the sign of the pivot permutation times the pivot
    product.  Row k is (t_k / c_k) * m[k] plus earlier input rows, with t_k
    from the elimination and c_k the divisor that made it primitive, so the
    determinant of m is that product times prod(c_k) / prod(t_k).
    """
    ech = Echelon()
    num = den = 1
    for row in m:
        w, t = ech._eliminate(row)
        c = ech._push(w)
        if not c:
            return 0
        num *= c
        den *= t
    inversions = sum(a > b for a, b in itertools.combinations(ech.pivots, 2))
    num *= math.prod(row[p] for row, p in zip(ech.rows, ech.pivots))
    if inversions % 2:
        num = -num
    return num // den if num % den == 0 else Fraction(num, den)


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """Kernel basis of the map Q^ncols -> Q^len(rows) whose matrix is `rows`.

    One vector per non-pivot column, 1 there and 0 at the other non-pivot
    columns, found by back-substitution through the echelon rows in reverse.
    The vector is w / den with w an integer vector: solving a row for its
    pivot entry scales w and den by the part of the pivot the new entry's
    numerator does not cancel.
    """
    ech = Echelon(rows)
    pivots = set(ech.pivots)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        w = [0] * ncols
        w[free] = 1
        den = 1
        for row, p in zip(reversed(ech.rows), reversed(ech.pivots)):
            acc = sum(row[c] * w[c] for c in range(p + 1, ncols) if row[c])
            if not acc:
                continue
            g = math.gcd(acc, row[p])
            m = row[p] // g
            if m != 1:
                w = [m * x for x in w]
                den *= m
            w[p] = -acc // g
        out.append([Fraction(x, den) for x in w])
    return out


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors (nonnegative, each dividing the next) of an integer matrix."""
    a = [[int(v) for v in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = min(rows, cols)
    t = 0
    while t < m:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
        if pj != t:
            for row in a:
                row[pj], row[t] = row[t], row[pj]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
        # Clear row and column t; restart pivot search if a remainder appears.
        dirty = False
        for i in range(t + 1, rows):
            q = a[i][t] // a[t][t]
            if q:
                a[i] = [v - q * w for v, w in zip(a[i], a[t])]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // a[t][t]
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        # Divisibility: pivot must divide every remaining entry.
        viol = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    viol = i
                    break
            if viol is not None:
                break
        if viol is not None:
            a[t] = [v + w for v, w in zip(a[t], a[viol])]
            continue
        t += 1
    return [abs(a[i][i]) for i in range(m)]
