"""Exact linear algebra: one echelon reduction over Q, and a Smith normal form over Z.

`Echelon` is the only elimination over Q: span membership, rank,
nonsingularity and the null space (through `GraphEchelon`, which also grows
the image) are all read off it.  It eliminates over Z without division, so
every result is a Python int; rational input is scaled to integers on entry.
"""

from __future__ import annotations

import math
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

    def reduce(self, v: Sequence) -> list[int]:
        """A positive integer multiple of v minus a combination of the rows,
        zero in every pivot column; all zero exactly when v lies in the span.

        Against a row with pivot b, an entry a becomes 0 by
        w <- (b/g)*w - (a/g)*row with g = gcd(a, b), with no division.
        """
        if set(map(type, v)) <= {int}:
            w = list(v)
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
        return w

    def add(self, v: Sequence) -> bool:
        """Extend the basis by v; False (and no change) when v is already in the span."""
        return self._insert(self.reduce(v))

    def _insert(self, w: list[int]) -> bool:
        """Append a reduced vector w as a primitive row; False when w is zero."""
        p = next((i for i, x in enumerate(w) if x), None)
        if p is None:
            return False
        c = math.gcd(*w)
        if w[p] < 0:
            c = -c
        if c != 1:
            w = [x // c for x in w]
        self.rows.append(w)
        self.pivots.append(p)
        return True


def nonsingular(m: Sequence[Sequence]) -> bool:
    """Whether the square matrix m has full rank (a nonzero determinant)."""
    ech = Echelon()
    return all(ech.add(row) for row in m)


class GraphEchelon(Echelon):
    """Echelon basis of the row space of [A^T | I], for the linear map A
    whose image columns A e_j, each of `height` entries, are `columns`.

    Every vector of that span is (A u, u).  A row whose pivot index is at
    least `height` has a zero leading part, so its unit part is in the
    kernel.  These kernel rows have distinct pivots; the other rows have
    independent leading parts in the image, at most rank A of them, so the
    kernel rows, at least len(columns) - rank A, are a kernel basis.  The
    other rows' leading parts are an echelon basis of the image, and reducing
    against a kernel row only scales the leading part, so a vector's leading
    part lies in the image exactly when that of its reduction is zero.
    """

    def __init__(self, columns: Sequence[Sequence], height: int):
        self.height, self.units = height, len(columns)
        n = self.units
        super().__init__([*c, *[0] * j, 1, *[0] * (n - 1 - j)] for j, c in enumerate(columns))

    def extend_image(self, v: Sequence) -> bool:
        """Add the column v to the image; False (and no change) when it lies there."""
        w = self.reduce([*v, *[0] * self.units])
        return any(w[: self.height]) and self._insert(w)

    def kernel(self) -> list[list[int]]:
        """Integer kernel basis of A; rows from `extend_image` pivot before `height`."""
        return [row[self.height :] for row, p in zip(self.rows, self.pivots) if p >= self.height]


def nullspace(columns: Sequence[Sequence]) -> list[list[int]]:
    """Integer kernel basis of the linear map with image columns `columns`."""
    return GraphEchelon(columns, len(columns[0]) if columns else 0).kernel()


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
