"""Coxeter polynomials via two independent routes.

Route one multiplies closed-form cyclotomic-like factors; route two builds the
integer matrix of the degree-shift action on each block of a block basis of
the Grothendieck group, takes its characteristic polynomial modulo a prime
large enough to recover every integer coefficient, and multiplies these, each
raised to the number of levels its block acts on.  The action is
block-diagonal, so no route assembles the full matrix, and blocks of the same
ordered weight tuple are equal, so each is reduced once.  Route one counts
the weight subsets in closed form and route two enumerates them, so the two
share only the weights and their agreement is a real check;
`matrix_route_check` is that check, block by block and overall.  Both compute
over the integers only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator, Sequence

from .grading import WeightSystem


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
        object.__setattr__(self, "coeffs", tuple([int(c) for c in coeffs[:end]]))

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
            k >>= 1
            if k:
                base = base * base
        return result

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


def _expand(exponents: dict[int, int], degree: int) -> IntPolynomial:
    """prod over L of (1 - t^L)^exponents[L], a polynomial of the given degree.

    Multiplying by 1 - t^L is the stride difference p[i] - p[i - L].
    Dividing p by 1 - t^L is the stride-L prefix sum q[i] = p[i] + q[i - L]
    of the power series quotient, kept to N = deg p + 1 terms; all factors
    of positive exponent come first, so every step is exact arithmetic in
    Z[[t]] / t^N.  If the result r has the given degree, r times the
    divisors has degree below N and agrees with the numerator modulo t^N,
    so the two are equal: the degree check proves every division exact.
    """
    coeffs = [1]
    for L, e in exponents.items():
        for _ in range(e):
            coeffs = coeffs + [0] * L
            coeffs[L:] = map(operator.sub, coeffs[L:], coeffs)
    for L, e in exponents.items():
        for _ in range(-e):
            for r in range(L):
                coeffs[r::L] = itertools.accumulate(coeffs[r::L])
    result = IntPolynomial(coeffs)
    if result.degree != degree:
        raise AssertionError(f"division by 1 - t^L not exact for exponents {exponents}")
    return result


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
def _phi_exponents(key: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """phi_S as (L, exponent) pairs of prod (1 - t^L)^exponent, summed per L.

    Moebius inversion of the telescoping identity prod over index subsets I
    of S of phi_I = g_S, with g_I = (1 - t^lcm I)^(prod I / lcm I) and
    g_() = 1 - t: phi_S is the product of g_I over |S - I| even divided by
    the product over |S - I| odd.
    """
    exponents: dict[int, int] = {}
    for size in range(len(key) + 1):
        sign = -1 if (len(key) - size) % 2 else 1
        for sub in itertools.combinations(key, size):
            L = math.lcm(*sub)
            exponents[L] = exponents.get(L, 0) + sign * (math.prod(sub) // L)
    return tuple(exponents.items())


@functools.cache
def _phi_sorted(key: tuple[int, ...]) -> IntPolynomial:
    """phi_S for a sorted key; its degree is prod(a - 1)."""
    return _expand(dict(_phi_exponents(key)), math.prod(a - 1 for a in key))


def _weight_subsets(ws: WeightSystem):
    """Subsets I of the weight indices with |I| <= d, ordered by (size, indices)."""
    for size in range(min(ws.d, ws.n) + 1):
        yield from itertools.combinations(range(ws.n), size)


def _phi_multiplicities(ws: WeightSystem) -> dict[tuple[int, ...], int]:
    """Sorted weight tuple of each phi factor -> its combined exponent.

    The index subsets I with |I| <= d whose weights sort to a key taking c_v
    copies of each weight v number prod C(m_v, c_v), where v occurs m_v
    times, and each adds d + 1 - |I| to the key.  So the keys are built one
    distinct weight at a time, never one subset at a time.  No caller relies
    on the key order: `coxeter_factors` sorts the keys, and `_expand`'s
    result does not depend on the order of its factors.
    """
    ways: dict[tuple[int, ...], int] = {(): 1}
    for v in sorted(set(ws.weights)):
        m = ws.weights.count(v)
        ways = {
            key + (v,) * c: count * math.comb(m, c)
            for key, count in ways.items()
            for c in range(min(m, ws.d - len(key)) + 1)
        }
    return {key: (ws.d + 1 - len(key)) * count for key, count in ways.items()}


def coxeter_polynomial(ws: WeightSystem) -> IntPolynomial:
    """Product formula: prod over |I| <= d of phi(p_i : i in I)^(d+1-|I|).

    Each phi factor is a ratio of factors 1 - t^L, so the product is
    expanded once, from the exponents of all factors summed per L.
    """
    exponents: dict[int, int] = {}
    for key, mult in _phi_multiplicities(ws).items():
        for L, e in _phi_exponents(key):
            exponents[L] = exponents.get(L, 0) + mult * e
    return _expand(exponents, k0_rank(ws))


def coxeter_factors(ws: WeightSystem) -> list[tuple[IntPolynomial, int]]:
    """Distinct phi factors of the product formula with combined exponents."""
    exps = _phi_multiplicities(ws)
    ordered = sorted(exps, key=lambda k: (len(k), k))
    return [(phi(k), exps[k]) for k in ordered]


def k0_rank(ws: WeightSystem) -> int:
    """Rank of the Grothendieck group: sum over |I| <= d of (d+1-|I|) prod (p_i - 1),
    which is sum over k <= min(d, n) of (d+1-k) e_k with e_k the k-th
    elementary symmetric polynomial of the p_i - 1.  Each weight updates e_k
    with k descending, so e_{k-1} still excludes it."""
    top = min(ws.d, ws.n)
    e = [1] + [0] * top
    for p in ws.weights:
        for k in range(top, 0, -1):
            e[k] += e[k - 1] * (p - 1)
    return sum((ws.d + 1 - k) * e_k for k, e_k in enumerate(e))


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


def omega_action_blocks(ws: WeightSystem) -> Iterator[tuple[tuple[int, ...], int, list[list[int]]]]:
    """Yield (weights, levels, block) once per distinct ordered weight tuple
    (p_i : i in I) of the subsets I with |I| <= d, in the order the subsets
    first reach it: the block acts on each of the d + 1 - |I| levels of every
    such I, summed into `levels`.  The block is a function of the tuple alone."""
    levels: dict[tuple[int, ...], int] = {}
    for subset in _weight_subsets(ws):
        weights = tuple(ws.weights[i] for i in subset)
        levels[weights] = levels.get(weights, 0) + ws.d + 1 - len(subset)
    for weights, count in levels.items():
        yield weights, count, omega_action_block(weights)


def matrix_route_check(ws: WeightSystem, chi: IntPolynomial) -> tuple[bool, str]:
    """The matrix route against the product route: (ok, detail).

    Each block's characteristic polynomial is its phi factor made monic, the
    product over the levels is +-`chi`, the caller's `coxeter_polynomial(ws)`,
    and its constant term is a unit.  Each block is reduced once."""
    full = IntPolynomial([1])
    for weights, levels, block in omega_action_blocks(ws):
        char = char_poly(block)
        if char != phi(weights).monic_normalized():
            return False, f"block {weights} char poly mismatch"
        full = full * char**levels
    if full != chi and full != -chi:
        return False, "full matrix char poly != +-coxeter polynomial"
    if abs(full.constant_term()) != 1:
        return False, f"constant term {full.constant_term()} not a unit"
    return True, ""


def omega_action_matrix(ws: WeightSystem) -> list[list[int]]:
    """Block-diagonal integer matrix of the omega shift on the Grothendieck
    basis, each distinct block repeated once per level."""
    blocks = [block for _, levels, block in omega_action_blocks(ws) for _ in range(levels)]
    size = sum(len(b) for b in blocks)
    mat = [[0] * size for _ in range(size)]
    offset = 0
    for block in blocks:
        k = len(block)
        for i in range(k):
            mat[offset + i][offset : offset + k] = block[i]
        offset += k
    return mat


# Exponents e of the Mersenne primes 2^e - 1 below 2^20000.
MERSENNE_EXPONENTS = (
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279,
    2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937,
)


def char_poly(matrix: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(t*I - M) for a square integer matrix, by Hessenberg reduction and
    the Hessenberg recurrence over GF(P).

    Each coefficient is a signed sum of principal minors, so by Hadamard its
    absolute value is at most B = prod over rows r of (2 + isqrt(|r|^2)).
    P is the first Mersenne prime above 2B, and each residue is lifted to
    the symmetric range (-P/2, P/2).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    bound = math.prod(2 + math.isqrt(sum(v * v for v in row)) for row in matrix)
    primes = (2**e - 1 for e in MERSENNE_EXPONENTS)
    P = next((p for p in primes if p > 2 * bound), None)
    if P is None:
        raise ValueError(
            f"char_poly coefficient bound has {bound.bit_length()} bits, more than "
            f"the largest prime 2^{MERSENNE_EXPONENTS[-1]} - 1 allows"
        )
    h = [[v % P for v in row] for row in matrix]
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if h[r][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, P)
        hj1 = h[j + 1]
        for i in range(j + 2, n):
            if h[i][j]:
                f = h[i][j] * inv % P
                hi = h[i]
                for col in range(j, n):
                    if hj1[col]:
                        hi[col] = (hi[col] - f * hj1[col]) % P
                for row in h:
                    if row[i]:
                        row[j + 1] = (row[j + 1] + f * row[i]) % P
    # Char-poly recurrence for an upper Hessenberg matrix; a zero on the
    # subdiagonal ends the sum, since every later term carries it.
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        diag = h[m - 1][m - 1]
        cur = [0] + prev
        for i, c in enumerate(prev):
            cur[i] -= diag * c
        subprod = 1
        for i in range(m - 1, 0, -1):
            subprod = subprod * h[i][i - 1] % P
            if not subprod:
                break
            coef = h[i - 1][m - 1] * subprod % P
            if coef:
                for k, c in enumerate(polys[i - 1]):
                    cur[k] -= coef * c
        polys.append([c % P for c in cur])
    return IntPolynomial([c - P if 2 * c > P else c for c in polys[n]])
