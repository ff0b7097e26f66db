"""Exact linear algebra: one echelon reduction over Q, and a Smith normal form over Z.

Entries are ints or `fractions.Fraction`; every result is exact (an int or a
Fraction, never a float).  `Echelon` is the only elimination over Q: span
membership, rank, the determinant and the null space are all read off it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence


class Echelon:
    """Incrementally grown echelon basis of a subspace of Q^n.

    Row k has its pivot (first nonzero entry) in column `pivots[k]` and is zero
    in the pivot columns of every earlier row, so reducing against the rows in
    insertion order clears every pivot column.
    """

    def __init__(self, rows: Iterable[Sequence] = ()):
        self.rows: list[list] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def reduce(self, v: Sequence) -> list:
        """v minus the combination of basis rows that clears every pivot column;
        all zero exactly when v lies in the span."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = Fraction(v[p]) / row[p]
                for i, x in enumerate(row):
                    if x:
                        v[i] -= f * x
        return v

    def add(self, v: Sequence) -> bool:
        """Extend the basis by v; False (and no change) when v is already in the span."""
        v = self.reduce(v)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        self.rows.append(v)
        self.pivots.append(p)
        return True


def det(m: Sequence[Sequence]):
    """Determinant of a square matrix.

    The echelon rows are the matrix rows times a unit lower triangular matrix;
    ordering their columns by pivot makes them upper triangular, so the
    determinant is the sign of the pivot permutation times the pivot product.
    """
    ech = Echelon()
    for row in m:
        if not ech.add(row):
            return 0
    inversions = sum(a > b for a, b in itertools.combinations(ech.pivots, 2))
    pivot_product = math.prod(row[p] for row, p in zip(ech.rows, ech.pivots))
    return -pivot_product if inversions % 2 else pivot_product


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """Kernel basis of the map Q^ncols -> Q^len(rows) whose matrix is `rows`.

    One vector per non-pivot column, 1 there and 0 at the other non-pivot
    columns, found by back-substitution through the echelon rows in reverse.
    """
    ech = Echelon(rows)
    pivots = set(ech.pivots)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(reversed(ech.rows), reversed(ech.pivots)):
            acc = sum((x * vec[c] for c, x in enumerate(row) if x and c != p), Fraction(0))
            vec[p] = -acc / row[p]
        out.append(vec)
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
