"""Exact arithmetic in the rank-1 grading group of a weighted projective setup.

The group L is generated by x_1, ..., x_n and c subject to p_i * x_i = c.
Every element has a unique normal form sum(a_i * x_i) + a * c with
0 <= a_i < p_i; all functions in this module keep elements in that form.
No floating point and no rational is used: torsion data are ints, and
degrees are ints scaled by L = lcm(p_i).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

from .linalg import smith_normal_form  # unused here: perfbench traces grading.smith_normal_form


class Trichotomy(Enum):
    FANO = "Fano"
    CALABI_YAU = "CalabiYau"
    ANTI_FANO = "AntiFano"


def _integer(value, what: str) -> int:
    """`value` as an int, refusing anything `operator.index` refuses (a float
    or a string), so that no value is silently truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class WeightSystem:
    """Ambient dimension d and weights p_1..p_n.

    Weight-1 hyperplanes are dropped when the system is built: X_i = l_i(T)
    eliminates X_i and leaves R and L unchanged, so `weights` never holds 1.
    No invariant computed here depends on which hyperplanes in general
    position define R, so the system carries none.
    """

    d: int
    weights: tuple[int, ...]

    def __post_init__(self):
        d = _integer(self.d, "ambient dimension")
        if d < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {d}")
        weights = tuple(_integer(p, "weight") for p in self.weights)
        for p in weights:
            if p < 1:
                raise ValueError(f"weights must be >= 1, got {p}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "weights", tuple(p for p in weights if p > 1))

    @property
    def n(self) -> int:
        return len(self.weights)

    def __str__(self):
        w = ",".join(str(p) for p in self.weights)
        return f"(d={self.d}; {w})"


class GroupElement(NamedTuple):
    """Element of L in normal form: torsion coordinates plus free c-coordinate.

    A tuple, so its hash and equality are those of the plain tuple
    (torsion, free), computed in C.  The kernels below build their results
    with `tuple.__new__(GroupElement, (torsion, free))`, the call that
    `GroupElement._make` makes, one Python frame short of the constructor.
    """

    torsion: tuple[int, ...]
    free: int

    def __str__(self):
        if not self.torsion:
            return f"(; {self.free})"
        return "(" + ",".join(str(a) for a in self.torsion) + f"; {self.free})"


def normal_form(ws: WeightSystem, raw_torsion: Sequence[int], raw_free: int) -> GroupElement:
    """Reduce arbitrary integer coordinates using p_i * x_i = c; a float or
    a string is refused, not truncated."""
    if len(raw_torsion) != ws.n:
        raise ValueError(f"expected {ws.n} torsion coordinates, got {len(raw_torsion)}")
    tors = []
    carry = 0
    for a, p in zip(raw_torsion, ws.weights):
        q, r = divmod(_integer(a, "torsion coordinate"), p)
        tors.append(r)
        carry += q
    free = _integer(raw_free, "free coordinate") + carry
    return tuple.__new__(GroupElement, (tuple(tors), free))


def zero(ws: WeightSystem) -> GroupElement:
    return tuple.__new__(GroupElement, ((0,) * len(ws.weights), 0))


def gen_x(ws: WeightSystem, i: int) -> GroupElement:
    """The generator x_i (1-based).  Every weight is at least 2, so
    x_i = (e_i; 0) is already in normal form."""
    n = len(ws.weights)
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    torsion = [0] * n
    torsion[i - 1] = 1
    return tuple.__new__(GroupElement, (tuple(torsion), 0))


def gen_c(ws: WeightSystem) -> GroupElement:
    return tuple.__new__(GroupElement, ((0,) * len(ws.weights), 1))


def add(ws: WeightSystem, x: GroupElement, y: GroupElement) -> GroupElement:
    """x + y for x, y in normal form: 0 <= a + b < 2p, so each coordinate
    carries at most one c."""
    free = x.free + y.free
    tors = []
    for a, b, p in zip(x.torsion, y.torsion, ws.weights, strict=True):
        s = a + b
        if s >= p:
            s -= p
            free += 1
        tors.append(s)
    return tuple.__new__(GroupElement, (tuple(tors), free))


def negate(ws: WeightSystem, x: GroupElement) -> GroupElement:
    """-x for x in normal form: each nonzero a_i becomes p_i - a_i and
    borrows one c."""
    tors = tuple([p - a if a else 0 for a, p in zip(x.torsion, ws.weights, strict=True)])
    return tuple.__new__(GroupElement, (tors, x.torsion.count(0) - len(tors) - x.free))


def sub(ws: WeightSystem, x: GroupElement, y: GroupElement) -> GroupElement:
    """x - y for x, y in normal form: -p < a - b < p, so each coordinate
    borrows at most one c."""
    free = x.free - y.free
    tors = []
    for a, b, p in zip(x.torsion, y.torsion, ws.weights, strict=True):
        s = a - b
        if s < 0:
            s += p
            free -= 1
        tors.append(s)
    return tuple.__new__(GroupElement, (tuple(tors), free))


def smul(ws: WeightSystem, k: int, x: GroupElement) -> GroupElement:
    k = _integer(k, "scalar")
    return normal_form(ws, [k * a for a in x.torsion], k * x.free)


def is_nonneg(x: GroupElement) -> bool:
    # The monoid of effective degrees is exactly {free coordinate >= 0}.
    return x.free >= 0


def free_of_difference(x: GroupElement, y: GroupElement) -> int:
    """The free part of x - y: each torsion coordinate x_i < y_i borrows a c.
    Lengths are not checked here: `leq` checks its own, and the vertex-pair
    loops of `algebra` take elements of one system."""
    return x.free - y.free - sum(map(operator.lt, x.torsion, y.torsion))


def leq(ws: WeightSystem, x: GroupElement, y: GroupElement) -> bool:
    """x <= y: the free part of y - x is >= 0, read without building y - x."""
    if not len(x.torsion) == len(y.torsion) == len(ws.weights):
        raise ValueError(
            f"expected {ws.n} torsion coordinates, got {len(x.torsion)} and {len(y.torsion)}"
        )
    return free_of_difference(y, x) >= 0


def delta_l(ws: WeightSystem, x: GroupElement) -> int:
    """L * delta(x) for L = lcm(p_i): x_i -> L // p_i, c -> L."""
    big = math.lcm(*ws.weights)
    return x.free * big + sum(
        a * (big // p) for a, p in zip(x.torsion, ws.weights, strict=True)
    )


def omega(ws: WeightSystem) -> GroupElement:
    """Dualizing element (n-d-1)c - sum(x_i) = ((p_i - 1)_i; -d - 1): each
    -x_i borrows one c."""
    return tuple.__new__(GroupElement, (tuple([p - 1 for p in ws.weights]), -ws.d - 1))


def delta_omega_l(ws: WeightSystem) -> int:
    """L * delta(omega) for L = lcm(p_i)."""
    big = math.lcm(*ws.weights)
    return (ws.n - ws.d - 1) * big - sum(big // p for p in ws.weights)


def trichotomy(ws: WeightSystem) -> Trichotomy:
    dw = delta_omega_l(ws)
    if dw < 0:
        return Trichotomy.FANO
    if dw == 0:
        return Trichotomy.CALABI_YAU
    return Trichotomy.ANTI_FANO


def interval(ws: WeightSystem, x: GroupElement, y: GroupElement) -> list[GroupElement]:
    """All z with x <= z <= y, in lexicographic order of (torsion, free) of z - x.

    With y - x = (b; f), the offset u = (t; a) lies in [0, y - x] exactly when
    0 <= a <= f - #{i : t_i > b_i}, because each such torsion entry borrows
    one c in the normal form of (y - x) - u.
    """
    w = sub(ws, y, x)
    out: list[GroupElement] = []
    if w.free < 0:
        return out
    for tors in itertools.product(*(range(p) for p in ws.weights)):
        top = w.free - sum(t > b for t, b in zip(tors, w.torsion))
        if top >= 0:
            z_torsion, z_free = add(ws, x, tuple.__new__(GroupElement, (tors, 0)))
            out.extend(
                tuple.__new__(GroupElement, (z_torsion, f))
                for f in range(z_free, z_free + top + 1)
            )
    return out


def interval_size(ws: WeightSystem, x: GroupElement, y: GroupElement) -> int:
    """|[x, y]| without enumeration, in O(n^2) integer operations.

    With y - x = (b; f) and N_k the coefficient of z^k in
    prod((b_i + 1) + (p_i - 1 - b_i) z), the torsion tuples with exactly k
    entries above b number N_k, and each contributes f - k + 1 free values.
    """
    w = sub(ws, y, x)
    if w.free < 0:
        return 0
    coeffs = [1]  # N_0..N_k, truncated at k = f since larger k contribute 0
    for b, p in zip(w.torsion, ws.weights):
        low, high = b + 1, p - 1 - b
        nxt = [v * low for v in coeffs] + [0]
        for k, v in enumerate(coeffs):
            nxt[k + 1] += v * high
        coeffs = nxt[: w.free + 1]
    return sum(v * (w.free - k + 1) for k, v in enumerate(coeffs))


@dataclass(frozen=True)
class CosetData:
    """Order and invariant factors of L modulo the subgroup generated by omega.

    `count` is None when the quotient is infinite (degree of omega is zero).
    """

    count: Optional[int]
    invariant_factors: tuple[int, ...]


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime q > 1 such that each value > 0 is a product of their
    powers (factor refinement).  A q sharing a factor g with a new value is
    split into g, q / g and the value / g, which divides the product of all
    numbers held by g, so the loop ends after at most log2 of the product of
    the values splits, with no factoring."""
    base: list[int] = []
    todo = [v for v in set(values) if v > 1]
    while todo:
        x = todo.pop()
        for i, q in enumerate(base):
            g = math.gcd(x, q)
            if g > 1:
                del base[i]
                todo.extend(v for v in (g, q // g, x // g) if v > 1)
                break
        else:
            base.append(x)
    return base


def _valuation(q: int, x: int) -> int:
    """The largest k with q^k dividing x != 0."""
    k = 0
    while x % q == 0:
        x //= q
        k += 1
    return k


def coset_data_mod_omega(ws: WeightSystem) -> CosetData:
    """L / Z omega, one element q of a coprime base of the weights and of
    delta(omega) at a time.

    At q, each weight prime to q eliminates its generator, so with the
    q-valuations a_1 >= a_2 >= ... of the weights, the q-part of L is
    Z y_1 + sum over j >= 2 of Z/q^a_j, and omega = (beta, units) there with
    v_q(beta) = v = v_q(delta_omega_l).  So omega kills the largest torsion
    summand and leaves Z/q^(a_2 + v), or Z when delta(omega) = 0.  Merging
    the q-parts position by position gives the invariant factors.
    """
    dw = delta_omega_l(ws)
    size = max(ws.n, 1)
    merged = [1] * size
    for q in _coprime_base(ws.weights + (abs(dw),)):
        a = sorted((_valuation(q, p) for p in ws.weights), reverse=True) + [0, 0]
        exponents = [a[1] + _valuation(q, dw), *a[2:]] if dw else a[2:]
        for pos, e in zip(range(size), exponents):
            merged[pos] *= q**e
    if dw == 0:
        return CosetData(None, tuple(sorted(merged[:-1])) + (0,))
    factors = tuple(sorted(merged))
    # |prod(p) * delta(omega)|, with delta(omega) = dw / L
    count, rest = divmod(abs(math.prod(ws.weights) * dw), math.lcm(*ws.weights))
    if rest:
        raise AssertionError("coset count must be an integer")
    prod = math.prod(f for f in factors if f)
    if 0 in factors or prod != count:
        raise AssertionError(
            f"invariant factors {factors} inconsistent with coset count {count}"
        )
    return CosetData(count, factors)


def piece_dim(ws: WeightSystem, x: GroupElement) -> int:
    """Dimension of the graded piece R_x: monomials of degree `free` in d+1 variables."""
    if x.free < 0:
        return 0
    return math.comb(x.free + ws.d, ws.d)


def hom_ext_dim(ws: WeightSystem, x: GroupElement, y: GroupElement, i: int) -> int:
    """dim Ext^i(O(x), O(y)) between line bundles: nonzero only for i = 0 and i = d."""
    if i < 0:
        raise ValueError("cohomological degree must be >= 0")
    if i == 0:
        return piece_dim(ws, sub(ws, y, x))
    if i == ws.d:
        return piece_dim(ws, add(ws, sub(ws, x, y), omega(ws)))
    return 0


def presentation(ws: WeightSystem) -> tuple[list[GroupElement], tuple[int, ...]]:
    """The generators and weights of the presentation, padded with weight-1
    hyperplanes up to n = d+1: x_i for the real hyperplanes followed by c
    for each padded one."""
    pad = max(0, ws.d + 1 - ws.n)
    gens = [gen_x(ws, i) for i in range(1, ws.n + 1)] + [gen_c(ws)] * pad
    return gens, ws.weights + (1,) * pad


def elements_with_free_in(ws: WeightSystem, lo: int, hi: int) -> Iterable[GroupElement]:
    """All normal forms with free coordinate in [lo, hi], lexicographic."""
    for tors in itertools.product(*(range(p) for p in ws.weights)):
        for a in range(lo, hi + 1):
            yield GroupElement(tors, a)


def coset_keys(ws: WeightSystem, xs: Iterable[GroupElement]) -> list[GroupElement]:
    """Canonical representatives of the elements xs modulo the omega subgroup.

    Valid when delta(omega) != 0: the representative is the unique element of
    the coset whose degree lies in [0, |delta(omega)|).  Scaling both degrees
    by L leaves the quotient, so k = floor(delta_l(x) / |delta_omega_l|).
    L, the scaled degrees of the x_i and delta_omega_l are computed once for
    all of xs.
    """
    dw = delta_omega_l(ws)
    if dw == 0:
        raise ValueError("coset keys require delta(omega) != 0")
    big = math.lcm(*ws.weights)
    parts = [big // p for p in ws.weights]
    sign = 1 if dw < 0 else -1
    shift = ws.n - ws.d - 1
    keys = []
    for x in xs:
        step = sign * ((x.free * big + sum(map(operator.mul, x.torsion, parts))) // abs(dw))
        # x + step * omega, with omega = (n-d-1)c - sum(x_i)
        keys.append(normal_form(ws, [a - step for a in x.torsion], x.free + step * shift))
    return keys
