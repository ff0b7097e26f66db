"""Explicit graded matrix factorizations of the weighted Fermat hypersurface.

For n = d + 2 the pair (M, N) below factors f = sum(lambda_i * X_i^{p_i}):
M * N = N * M = f * Id, with rows and columns indexed by odd and even subsets
of {1..n} and entries that are single signed monomials.  The lambda_i are kept
as formal variables so the identity is verified for every coefficient choice
at once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .grading import (
    GroupElement,
    WeightSystem,
    add,
    delta_l,
    gen_c,
    normal_form,
    normalize_weights,
    sub,
)


class MultiPoly:
    """Sparse integer polynomial in X_1..X_n and lambda_1..lambda_n.

    Terms map exponent tuples of length 2n (X exponents then lambda
    exponents) to nonzero integer coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict[tuple[int, ...], int]] = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars: int, coeff: int, exps: dict[int, int]) -> "MultiPoly":
        e = [0] * (2 * nvars)
        for var, k in exps.items():
            e[var] = k
        return cls(nvars, {tuple(e): coeff})

    @classmethod
    def x_power(cls, nvars: int, i: int, k: int, coeff: int = 1) -> "MultiPoly":
        """coeff * X_i^k with 1-based i."""
        return cls.monomial(nvars, coeff, {i - 1: k})

    @classmethod
    def lam_x_power(cls, nvars: int, i: int, k: int, coeff: int = 1) -> "MultiPoly":
        """coeff * lambda_i * X_i^k with 1-based i."""
        return cls.monomial(nvars, coeff, {i - 1: k, nvars + i - 1: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def evaluate(self, point: Sequence[int]) -> int:
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(point, e):
                if k:
                    term *= v**k
            total += term
        return total

    def is_single_monomial(self) -> bool:
        return len(self.terms) == 1

    def x_degree(self) -> dict[int, int]:
        """Exponents of the X variables when the polynomial is one monomial."""
        if not self.is_single_monomial():
            raise ValueError("not a monomial")
        e = next(iter(self.terms))
        return {i: e[i] for i in range(self.nvars) if e[i]}

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = []
            for i in range(self.nvars):
                if e[i]:
                    factors.append(f"X{i+1}" + (f"^{e[i]}" if e[i] > 1 else ""))
            for i in range(self.nvars):
                if e[self.nvars + i]:
                    k = e[self.nvars + i]
                    factors.append(f"l{i+1}" + (f"^{k}" if k > 1 else ""))
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            elif c == -1 and factors:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}" if factors else str(c))
        return " + ".join(parts).replace("+ -", "- ")


def subsets_by_parity(n: int, parity: int) -> list[tuple[int, ...]]:
    """Subsets of {1..n} with |S| congruent to parity mod 2, by (size, lex)."""
    out = []
    for size in range(parity % 2, n + 1, 2):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


@dataclass(frozen=True)
class MFIndex:
    """Exponent tuple with 1 <= ell_i <= p_i - 1 selecting one factorization."""

    ell: tuple[int, ...]


@dataclass(frozen=True)
class GradedMatrixPair:
    ws: WeightSystem
    index: MFIndex
    odd_subsets: tuple[tuple[int, ...], ...]
    even_subsets: tuple[tuple[int, ...], ...]
    m_rows: tuple[tuple[MultiPoly, ...], ...]  # odd rows x even columns
    n_rows: tuple[tuple[MultiPoly, ...], ...]  # even rows x odd columns
    shifts: dict[int, tuple[GroupElement, ...]]  # homological position -> labels

    @property
    def size(self) -> int:
        return len(self.odd_subsets)


def _position_sign(i: int, subset: tuple[int, ...]) -> int:
    return (-1) ** sum(1 for j in subset if j <= i)


@functools.cache
def _incidence(n: int):
    """The Koszul incidence of the pair in n variables: the odd and even
    subsets, then M and N as tables of slots.

    Row r is nonzero only at the columns r minus {i}, holding the sign of i
    in r times X_i^{ell_i} (slot 4(i - 1), or 4(i - 1) + 1 when negative),
    and r plus {j}, holding the sign of j in that column times
    lambda_j X_j^{p_j - ell_j} (slot 4(j - 1) + 2, or 4(j - 1) + 3).  Every
    other entry is slot 4n, the zero.
    """
    odd = tuple(subsets_by_parity(n, 1))
    even = tuple(subsets_by_parity(n, 0))

    def table(sources, targets):
        col = {s: k for k, s in enumerate(targets)}
        out = []
        for r in sources:
            row = [4 * n] * len(targets)
            for i in range(1, n + 1):
                if i in r:
                    c = tuple(v for v in r if v != i)
                    row[col[c]] = 4 * (i - 1) + (_position_sign(i, r) < 0)
                else:
                    c = tuple(sorted(r + (i,)))
                    row[col[c]] = 4 * (i - 1) + 2 + (_position_sign(i, c) < 0)
            out.append(tuple(row))
        return tuple(out)

    return odd, even, table(odd, even), table(even, odd)


def shift_label(
    ws: WeightSystem, ell: tuple[int, ...], subset: tuple[int, ...], position: int
) -> GroupElement:
    """Degree shift ((|I| + a)/2) * c - sum of ell_i * x_i over the subset."""
    if (len(subset) + position) % 2:
        raise ValueError("subset size and homological position must match parity")
    raw = [0] * ws.n
    for i in subset:
        raw[i - 1] = -ell[i - 1]
    return normal_form(ws, raw, (len(subset) + position) // 2)


def mf_enumerate(ws: WeightSystem) -> list[MFIndex]:
    base = normalize_weights(ws)
    if base.n != base.d + 2:
        raise ValueError("matrix factorizations require n = d + 2")
    return [
        MFIndex(t)
        for t in itertools.product(*(range(1, p) for p in base.weights))
    ]


def mf_build(ws: WeightSystem, index: MFIndex) -> GradedMatrixPair:
    base = normalize_weights(ws)
    if base.n != base.d + 2:
        raise ValueError("matrix factorizations require n = d + 2")
    ell = tuple(index.ell)
    if len(ell) != base.n or any(
        not 1 <= l <= p - 1 for l, p in zip(ell, base.weights)
    ):
        raise ValueError(f"exponent index {ell} out of range for {base.weights}")
    n = base.n
    odd, even, m_table, n_table = _incidence(n)
    slots: list[MultiPoly] = []
    for i, (l, p) in enumerate(zip(ell, base.weights), start=1):
        x, z = MultiPoly.x_power(n, i, l), MultiPoly.lam_x_power(n, i, p - l)
        slots += (x, -x, z, -z)
    slots.append(MultiPoly.zero(n))  # slot 4n, shared by every zero entry
    m_rows, n_rows = (
        tuple(tuple(slots[s] for s in row) for row in table) for table in (m_table, n_table)
    )
    below = tuple(shift_label(base, ell, s, -1) for s in odd)
    c = gen_c(base)
    shifts = {
        -1: below,
        0: tuple(shift_label(base, ell, s, 0) for s in even),
        1: tuple(add(base, label, c) for label in below),  # (|I| + 1)/2 = (|I| - 1)/2 + 1
    }
    return GradedMatrixPair(base, MFIndex(ell), odd, even, m_rows, n_rows, shifts)


def hypersurface_poly(ws: WeightSystem) -> MultiPoly:
    base = normalize_weights(ws)
    total = MultiPoly.zero(base.n)
    for i, p in enumerate(base.weights, start=1):
        total = total + MultiPoly.lam_x_power(base.n, i, p)
    return total


def _monomial_degree(ws: WeightSystem, poly: MultiPoly) -> GroupElement:
    exps = poly.x_degree()
    raw = [0] * ws.n
    for i, k in exps.items():
        raw[i] = k
    return normal_form(ws, raw, 0)


@dataclass(frozen=True)
class MFReport:
    identity_ok: bool
    homogeneity_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.homogeneity_ok


def _nonzero(rows) -> list[list[tuple[int, MultiPoly]]]:
    return [[(j, e) for j, e in enumerate(row) if e.terms] for row in rows]


def mf_verify(pair: GradedMatrixPair) -> MFReport:
    """Check M*N = N*M = f*Id symbolically and per-entry degree homogeneity.

    Each row of a product is accumulated from the nonzero entries into one
    dict keyed by (column, packed exponent).  An exponent tuple packs into
    one int in base B = 2 * (largest exponent in M, N or f) + 1, so adding
    packed exponents multiplies monomials without carrying between digits,
    and the packing is exact for any pair (a negative exponent widens B by
    twice its distance below zero).
    """
    ws = pair.ws
    f = hypersurface_poly(ws)
    m_nonzero, n_nonzero = _nonzero(pair.m_rows), _nonzero(pair.n_rows)
    monomials = set(f.terms)
    for rows in (m_nonzero, n_nonzero):
        monomials.update(e for row in rows for _, entry in row for e in entry.terms)
    digits = {k for e in monomials for k in e}
    low = min(0, *digits)
    base = 2 * (max(digits) - low) + 1
    packed = {e: functools.reduce(lambda acc, k: acc * base + k, e, 0) for e in monomials}

    def pack(rows):
        return [
            [(j, [(packed[e], c) for e, c in entry.terms.items()]) for j, entry in row]
            for row in rows
        ]

    m_packed, n_packed = pack(m_nonzero), pack(n_nonzero)
    f_packed = [(packed[e], c) for e, c in f.terms.items()]
    failures = []
    identity_ok = True
    for name, left, right in (("M*N", m_packed, n_packed), ("N*M", n_packed, m_packed)):
        for i, row in enumerate(left):
            acc: dict[tuple[int, int], int] = {}
            for k, left_terms in row:
                for j, right_terms in right[k]:
                    for e1, c1 in left_terms:
                        for e2, c2 in right_terms:
                            key = (j, e1 + e2)
                            acc[key] = acc.get(key, 0) + c1 * c2
            got = {key: c for key, c in acc.items() if c}
            want = {(i, e): c for e, c in f_packed}
            if got != want:
                identity_ok = False
                keys = got.keys() | want.keys()
                bad = {key[0] for key in keys if got.get(key) != want.get(key)}
                failures.extend(f"{name} entry ({i},{j}) != expected" for j in sorted(bad))
    homogeneity_ok = True
    # L embeds in Z x prod Z/p_i by x -> (delta_l(x), torsion), so degrees are
    # compared by these integer keys, with no difference formed in L.
    keys = {pos: [(delta_l(ws, x), x.torsion) for x in xs] for pos, xs in pair.shifts.items()}
    degrees: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}  # monomial -> its key
    for name, rows, src_pos, tgt_pos in (("M", m_nonzero, -1, 0), ("N", n_nonzero, 0, 1)):
        for i, row in enumerate(rows):
            src_l, src_t = keys[src_pos][i]
            for j, entry in row:
                if not entry.is_single_monomial():
                    homogeneity_ok = False
                    failures.append(f"{name} entry ({i},{j}) is not a monomial")
                    continue
                (e,) = entry.terms
                if e not in degrees:
                    x = _monomial_degree(ws, entry)
                    degrees[e] = delta_l(ws, x), x.torsion
                tgt_l, tgt_t = keys[tgt_pos][j]
                diff_t = tuple(map(operator.mod, map(operator.sub, tgt_t, src_t), ws.weights))
                if degrees[e] != (tgt_l - src_l, diff_t):
                    homogeneity_ok = False
                    failures.append(
                        f"{name} entry ({i},{j}) has degree {_monomial_degree(ws, entry)} != "
                        f"{sub(ws, pair.shifts[tgt_pos][j], pair.shifts[src_pos][i])}"
                    )
    return MFReport(identity_ok, homogeneity_ok, tuple(failures))


def _corner_minor(pair: GradedMatrixPair) -> list[list[MultiPoly]]:
    n = pair.ws.n
    rows = [k for k, s in enumerate(pair.even_subsets) if n not in s]
    cols = [k for k, s in enumerate(pair.odd_subsets) if n not in s]
    return [[pair.n_rows[r][c] for c in cols] for r in rows]


def mf_minor_nonsingular(pair: GradedMatrixPair) -> bool:
    """Nonvanishing of det of the N-submatrix on subsets avoiding the last index.

    The entries are evaluated exactly at up to 5 deterministic pseudo-random
    positive integer points, and `linalg.nonsingular` tests each evaluation.
    One nonsingular evaluation proves the polynomial determinant nonzero; five
    singular ones report a singular minor without proof.  For a pair from
    `mf_build` the determinant is +-f'^(2^(d-1)) with f' the sum of the first
    n - 1 terms of f, which is positive at these points.
    """
    minor = _corner_minor(pair)
    nvars = pair.ws.n
    for attempt in range(1, 6):
        rng = random.Random(10_007 * attempt + 17)
        point = [rng.randint(1, 10**6) for _ in range(2 * nvars)]
        values = [[entry.evaluate(point) for entry in row] for row in minor]
        if linalg.nonsingular(values):
            return True
    return False


def expected_index_count(ws: WeightSystem) -> int:
    base = normalize_weights(ws)
    return math.prod(p - 1 for p in base.weights)
