"""Coxeter polynomials via two independent routes.

Route one multiplies closed-form cyclotomic-like factors; route two builds the
integer matrix of the degree-shift action on a block basis of the Grothendieck
group and takes an exact characteristic polynomial. The two never share code,
so their agreement is a real check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .grading import WeightSystem, normalize_weights


class IntPolynomial:
    """Dense univariate polynomial over the integers, lowest degree first.

    The zero polynomial has an empty coefficient tuple; trailing zeros are
    never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs[:end]))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = IntPolynomial([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod_exact(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division over Q; quotient and remainder converted back to ints."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        div = [Fraction(c) for c in other.coeffs]
        q = [Fraction(0)] * max(0, len(rem) - len(div) + 1)
        lead = div[-1]
        for shift in range(len(rem) - len(div), -1, -1):
            f = rem[shift + len(div) - 1] / lead
            if f:
                q[shift] = f
                for i, dc in enumerate(div):
                    rem[shift + i] -= f * dc
        return _frac_list_to_poly(q), _frac_list_to_poly(rem)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def monic_normalized(self) -> "IntPolynomial":
        """Negate if the leading coefficient is negative; error if not +-1."""
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        if lc == -1:
            return -self
        raise ValueError(f"leading coefficient {lc} is not a unit")

    def __repr__(self):
        return f"IntPolynomial({format_poly(self)!r})"


def _frac_list_to_poly(values: list[Fraction]) -> IntPolynomial:
    out = []
    for v in values:
        if v.denominator != 1:
            raise ValueError("division was not exact over the integers")
        out.append(int(v))
    return IntPolynomial(out)


def format_poly(p: IntPolynomial) -> str:
    """Ascending powers with explicit signs, e.g. '1-t+t^2'."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "t" if k == 1 else f"t^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(sign + body)
    return "".join(parts)


def _one_minus_power(length: int, exponent: int) -> IntPolynomial:
    """(1 - t^length)^exponent expanded with exact binomials."""
    out = [0] * (length * exponent + 1)
    for j in range(exponent + 1):
        out[j * length] = (-1) ** j * math.comb(exponent, j)
    return IntPolynomial(out)


def phi(values: Sequence[int]) -> IntPolynomial:
    """Characteristic polynomial of the simultaneous +1 shift on the quotient
    of the group ring of Z/a_1 x ... x Z/a_s by the coordinate-sum ideal.

    Symmetric in its arguments, so computed once per sorted tuple.
    """
    key = tuple(sorted(int(a) for a in values))
    if any(a < 1 for a in key):
        raise ValueError("phi arguments must be positive")
    return _phi_sorted(key)


@functools.cache
def _phi_sorted(key: tuple[int, ...]) -> IntPolynomial:
    """Moebius inversion of the telescoping identity prod over index subsets
    I of S of phi_I = g_S, with g_I = (1 - t^lcm I)^(prod I / lcm I) and
    g_() = 1 - t: phi_S is the product of g_I over |S - I| even divided by
    the product over |S - I| odd, by one exact division.  The exponents are
    summed per lcm first, so equal factors cancel before the division."""
    exponents: dict[int, int] = {}
    for size in range(len(key) + 1):
        sign = -1 if (len(key) - size) % 2 else 1
        for sub in itertools.combinations(key, size):
            L = math.lcm(*sub)
            exponents[L] = exponents.get(L, 0) + sign * (math.prod(sub) // L)
    num = den = IntPolynomial([1])
    for L, e in exponents.items():
        if e > 0:
            num = num * _one_minus_power(L, e)
        elif e < 0:
            den = den * _one_minus_power(L, -e)
    result, rem = num.divmod_exact(den)
    if not rem.is_zero():
        raise AssertionError(f"phi division left a remainder for {key}")
    if result.degree != math.prod(a - 1 for a in key):
        raise AssertionError(f"phi degree mismatch for {key}")
    return result


def _weight_subsets(ws: WeightSystem):
    """Subsets I of the weight indices with |I| <= d, ordered by (size, indices)."""
    base = normalize_weights(ws)
    idx = range(base.n)
    for size in range(min(base.d, base.n) + 1):
        for subset in itertools.combinations(idx, size):
            yield base, subset


def coxeter_polynomial(ws: WeightSystem) -> IntPolynomial:
    """Product formula: prod over |I| <= d of phi(p_i : i in I)^(d+1-|I|)."""
    result = IntPolynomial([1])
    for base, subset in _weight_subsets(ws):
        factor = phi(tuple(base.weights[i] for i in subset))
        result = result * factor ** (base.d + 1 - len(subset))
    return result


def coxeter_factors(ws: WeightSystem) -> list[tuple[IntPolynomial, int]]:
    """Distinct phi factors of the product formula with combined exponents."""
    exps: dict[tuple[int, ...], int] = {}
    base = normalize_weights(ws)
    for _, subset in _weight_subsets(ws):
        key = tuple(sorted(base.weights[i] for i in subset))
        exps[key] = exps.get(key, 0) + base.d + 1 - len(subset)
    ordered = sorted(exps, key=lambda k: (len(k), k))
    return [(phi(k), exps[k]) for k in ordered]


def k0_rank(ws: WeightSystem) -> int:
    """Rank of the Grothendieck group: sum over |I| <= d of (d+1-|I|) prod (p_i - 1)."""
    total = 0
    for base, subset in _weight_subsets(ws):
        total += (base.d + 1 - len(subset)) * math.prod(
            base.weights[i] - 1 for i in subset
        )
    return total


@dataclass(frozen=True)
class BlockBasisIndex:
    """Index of one Grothendieck-group basis element: a subset of weight
    indices (0-based, at most d of them), a level 0 <= e <= d - |subset|, and
    a torsion tuple with entries 1 <= a_i <= p_i - 1 along the subset."""

    subset: tuple[int, ...]
    level: int
    torsion: tuple[int, ...]


def grothendieck_basis(ws: WeightSystem) -> list[BlockBasisIndex]:
    """Basis indices in the row/column order of the omega action matrix."""
    base = normalize_weights(ws)
    out = []
    for _, subset in _weight_subsets(ws):
        tuples = list(
            itertools.product(*(range(1, base.weights[i]) for i in subset))
        )
        for level in range(base.d + 1 - len(subset)):
            out.extend(BlockBasisIndex(subset, level, t) for t in tuples)
    return out


def omega_action_block(weights: Sequence[int]) -> list[list[int]]:
    """Matrix of the +1 shift on tuples (a_i) with 1 <= a_i <= p_i - 1.

    A coordinate that would reach p_i is rewritten through the coordinate-sum
    relation: value 0 expands to minus the sum over values 1..p_i - 1, giving
    sign (-1)^k for k simultaneous wrap-arounds.  Row r of the result holds
    the expansion of the image of basis tuple r.
    """
    weights = tuple(weights)
    basis = list(itertools.product(*(range(1, p) for p in weights)))
    index = {t: i for i, t in enumerate(basis)}
    size = len(basis)
    mat = [[0] * size for _ in range(size)]
    for r, tup in enumerate(basis):
        shifted = tuple((a + 1) % p for a, p in zip(tup, weights))
        wrapped = [i for i, a in enumerate(shifted) if a == 0]
        sign = (-1) ** len(wrapped)
        choices = [
            range(1, weights[i]) if i in wrapped else (shifted[i],)
            for i in range(len(weights))
        ]
        for filled in itertools.product(*choices):
            mat[r][index[filled]] += sign
    return mat


def omega_action_blocks(ws: WeightSystem) -> list[tuple[tuple[int, ...], int, list[list[int]]]]:
    """(subset, level, block) triples in deterministic order; equal subsets share blocks."""
    out = []
    for base, subset in _weight_subsets(ws):
        block = omega_action_block(tuple(base.weights[i] for i in subset))
        for level in range(base.d + 1 - len(subset)):
            out.append((subset, level, block))
    return out


def omega_action_matrix(ws: WeightSystem) -> list[list[int]]:
    """Block-diagonal integer matrix of the omega shift on the Grothendieck basis."""
    blocks = omega_action_blocks(ws)
    size = sum(len(b) for _, _, b in blocks)
    mat = [[0] * size for _ in range(size)]
    offset = 0
    for _, _, block in blocks:
        k = len(block)
        for i in range(k):
            row = mat[offset + i]
            src = block[i]
            for j in range(k):
                row[offset + j] = src[j]
        offset += k
    return mat


def char_poly(matrix: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(t*I - M) for a square integer matrix, by exact Hessenberg reduction."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return IntPolynomial([1])
    h = [[Fraction(v) for v in row] for row in matrix]
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if h[r][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = 1 / h[j + 1][j]
        for i in range(j + 2, n):
            if h[i][j]:
                f = h[i][j] * inv
                hi, hj1 = h[i], h[j + 1]
                for col in range(j, n):
                    hi[col] -= f * hj1[col]
                for row in h:
                    row[j + 1] += f * row[i]
    # Char-poly recurrence for an upper Hessenberg matrix.
    polys: list[list[Fraction]] = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [Fraction(0)] * (m + 1)
        for i, c in enumerate(prev):
            cur[i + 1] += c
            cur[i] -= h[m - 1][m - 1] * c
        subprod = Fraction(1)
        for i in range(m - 1, 0, -1):
            subprod *= h[i][i - 1]
            coef = h[i - 1][m - 1] * subprod
            if coef:
                for k, c in enumerate(polys[i - 1]):
                    cur[k] -= coef * c
        polys.append(cur)
    return _frac_list_to_poly(polys[n])
