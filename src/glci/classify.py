"""Decision procedures and enumerations for the finiteness classifications.

Everything here reduces to exact arithmetic on weights: membership in the
finite-type weight lists, the sufficient condition for higher-dimensional
finiteness, fractional Calabi-Yau data, Fano/Calabi-Yau weight enumeration,
the rank bookkeeping between the two derived categories, and the explicit
slice of degree-shift orbit representatives for n = d + 2 with two weights 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebra import (
    canonical_interval_size,
    cm_interval_size,
    cm_tensor_check,
)
from .coxeter import k0_rank
from .grading import (
    GroupElement,
    Trichotomy,
    WeightSystem,
    add,
    coset_data_mod_omega,
    coset_keys,
    delta_l,
    delta_omega_l,
    gen_c,
    gen_x,
    interval,
    leq,
    omega,
    smul,
    sub,
    trichotomy,
    zero,
)


class DCMFiniteness(Enum):
    SUFFICIENT_BY_HYPERSURFACE_LIST = "SufficientByKnownList"
    UNKNOWN = "Unknown"


def cm_finite(ws: WeightSystem) -> bool:
    """Finite Cohen-Macaulay type: n <= d+1, or n = d+2 with weights
    (2,..,2,p), (2,..,2,3,3), (2,..,2,3,4) or (2,..,2,3,5) up to order."""
    if ws.n <= ws.d + 1:
        return True
    if ws.n != ws.d + 2:
        return False
    t = tuple(sorted(ws.weights))
    if all(p == 2 for p in t[:-1]):
        return True
    return all(p == 2 for p in t[:-2]) and t[-2:] in {(3, 3), (3, 4), (3, 5)}


def d_cm_finite_sufficient(ws: WeightSystem) -> DCMFiniteness:
    """Sufficient condition only; the complement is open, so never answer 'no'."""
    t = tuple(sorted(ws.weights))
    if ws.n == ws.d + 2:
        if len(t) >= 3 and (
            t[:2] == (2, 2) or t[:3] in {(2, 3, 3), (2, 3, 4), (2, 3, 5)}
        ):
            return DCMFiniteness.SUFFICIENT_BY_HYPERSURFACE_LIST
        if len(t) >= 4 and t[:4] == (3, 3, 3, 3):
            return DCMFiniteness.SUFFICIENT_BY_HYPERSURFACE_LIST
    return DCMFiniteness.UNKNOWN


def vb_finite(ws: WeightSystem) -> bool:
    return ws.d == 1 and trichotomy(ws) == Trichotomy.FANO


def gldim_canonical(ws: WeightSystem) -> int:
    return ws.d if ws.n <= ws.d + 1 else 2 * ws.d


@dataclass(frozen=True)
class FracCY:
    """Fractional Calabi-Yau data of the stable category.

    kind is 'zero' (the category vanishes), 'pair' (dimension m/l with the
    reduced fraction attached) or 'none'.
    """

    kind: str
    m: Optional[int] = None
    l: Optional[int] = None
    reduced: Optional[Fraction] = None


def frac_cy(ws: WeightSystem) -> FracCY:
    if ws.n <= ws.d + 1:
        return FracCY("zero")
    p = math.lcm(*ws.weights)
    if ws.n == ws.d + 2 or trichotomy(ws) == Trichotomy.CALABI_YAU:
        # m = p * (d + 2 * delta(omega)), which is d * p when Calabi-Yau
        m = ws.d * p + 2 * delta_omega_l(ws)
        return FracCY("pair", m, p, Fraction(m, p))
    return FracCY("none")


@dataclass(frozen=True)
class WeightEnumeration:
    infinite_families: tuple[tuple[int, ...], ...]
    sporadic: tuple[tuple[int, ...], ...]


def enumerate_weight_systems(d: int, n: int, cls: Trichotomy) -> WeightEnumeration:
    """Nondecreasing weight tuples (all >= 2) of length n in the given class.

    A prefix all of whose nondecreasing completions stay in class is reported
    once, as shortly as possible, as an infinite family (Fano only: the class
    condition is an open inequality, so a prefix with degree sum already at
    the threshold absorbs every tail).  All remaining tuples are sporadic and
    are enumerated completely via the bound 1/p > gap left by the prefix.
    """
    if cls == Trichotomy.ANTI_FANO:
        raise ValueError("anti-Fano weight systems are not a finite enumeration")
    if d < 1 or n < 0 or n > d + 4:
        raise ValueError("enumeration guard: need d >= 1 and 0 <= n <= d + 4")
    target = n - d - 1
    families: list[tuple[int, ...]] = []
    sporadic: list[tuple[int, ...]] = []
    # Depth first over (prefix, num, den), the degree sum of the prefix being
    # num / den with den = prod(prefix); an explicit stack, since a recursive
    # closure would hold itself through its own cell in a reference cycle.
    stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 1)]
    while stack:
        prefix, num, den = stack.pop()
        k = len(prefix)
        excess = num - target * den
        if cls == Trichotomy.FANO and k < n and excess >= 0:
            families.append(prefix)
            continue
        if cls == Trichotomy.CALABI_YAU and k < n and excess >= 0:
            # Weights only add positive degree, so no completion balances out.
            continue
        if k == n:
            if (cls == Trichotomy.FANO and excess > 0) or (
                cls == Trichotomy.CALABI_YAU and excess == 0
            ):
                sporadic.append(prefix)
            continue
        children = []
        p = prefix[-1] if prefix else 2
        while True:
            # den * p times the excess of the best completion, n - k more p's
            best = excess * p + (n - k) * den
            if best < 0 or (cls == Trichotomy.FANO and best == 0):
                break
            children.append((prefix + (p,), num * p + den, den * p))
            p += 1
        stack.extend(reversed(children))  # smallest p is visited first
    return WeightEnumeration(tuple(families), tuple(sporadic))


def _orlov_delta(
    canonical_size: int, cm_size: int, tri: Trichotomy, count: Optional[int]
) -> int:
    """canonical_size - cm_size, asserted equal to the signed order `count`
    of the omega coset group (zero in the Calabi-Yau case)."""
    value = canonical_size - cm_size
    if tri == Trichotomy.CALABI_YAU:
        if value != 0:
            raise AssertionError(f"rank difference {value} nonzero in Calabi-Yau case")
        return value
    expected = count if tri == Trichotomy.FANO else -count
    if value != expected:
        raise AssertionError(f"rank difference {value} != expected {expected}")
    return value


def orlov_rank_delta(ws: WeightSystem) -> int:
    """rank K0 of the sheaf side minus rank K0 of the stable side; must equal
    the signed order of the omega coset group (zero in the Calabi-Yau case)."""
    return _orlov_delta(
        canonical_interval_size(ws),
        cm_interval_size(ws),
        trichotomy(ws),
        coset_data_mod_omega(ws).count,
    )


@dataclass(frozen=True)
class SliceReport:
    size: int
    coset_count: int
    cosets_distinct: bool
    hom_vanishing_ok: bool
    ell_bound: int

    @property
    def ok(self) -> bool:
        return (
            self.size == self.coset_count
            and self.cosets_distinct
            and self.hom_vanishing_ok
        )


@dataclass(frozen=True)
class SliceData:
    ws: WeightSystem  # weights sorted so the two 2s lead
    pieces: tuple[tuple[GroupElement, GroupElement], ...]  # nonempty [lo, hi]
    elements: tuple[GroupElement, ...]
    report: SliceReport


def hom_vanishing_from_corners(
    ws: WeightSystem,
    pieces: Sequence[tuple[GroupElement, GroupElement]],
    ells: Iterable[int],
) -> bool:
    """Whether R_{y - x + ell*omega} = 0 for all x, y in the union of the
    nonempty intervals [lo, hi] in `pieces` and every ell in `ells`.

    The order is translation-invariant, so some x in [lo_a, hi_a] and y in
    [lo_b, hi_b] have x <= y + ell*omega exactly when lo_a <= hi_b + ell*omega,
    with witnesses x = lo_a and y = hi_b.
    """
    w = omega(ws)
    return not any(
        leq(ws, lo, add(ws, hi, smul(ws, ell, w)))
        for ell in ells
        for lo, _ in pieces
        for _, hi in pieces
    )


def main2_slice(ws: WeightSystem) -> SliceData:
    """Orbit representatives with forward Hom-vanishing for n = d+2, p1 = p2 = 2.

    The set is a union of four explicit intervals (two per leading weight-2
    index, with separate shapes for odd and even d).  Verification checks that
    the set hits every omega coset exactly once and that all graded pieces
    R_{y + ell*omega - x} vanish for x, y in the set and 1 <= ell <= L, where
    L bounds the range beyond which the degree map forces vanishing.  Both L
    and the vanishing are read off the interval endpoints.
    """
    sorted_ws = WeightSystem(ws.d, tuple(sorted(ws.weights)))
    if sorted_ws.n != sorted_ws.d + 2 or sorted_ws.weights[:2] != (2, 2):
        raise ValueError("slice construction needs n = d + 2 with two weights 2")
    d = sorted_ws.d
    c = gen_c(sorted_ws)
    x1 = gen_x(sorted_ws, 1)
    x2 = gen_x(sorted_ws, 2)
    x12 = add(sorted_ws, x1, x2)

    def combo(cc: int, extra: GroupElement) -> GroupElement:
        return add(sorted_ws, smul(sorted_ws, cc, c), extra)

    o = zero(sorted_ws)
    if d % 2 == 1:
        los = (combo(-(d - 1) // 2, o), sub(sorted_ws, combo(-(d - 3) // 2, o), x12))
        his = (combo((d - 1) // 2, x1), combo((d - 1) // 2, x2))
        pieces = [(lo, hi) for hi in his for lo in los]
    else:
        los = (combo(-d // 2, x1), combo(-d // 2, x2))
        his = (combo(d // 2, o), combo((d - 2) // 2, x12))
        pieces = [(lo, hi) for lo in los for hi in his]
    if not all(leq(sorted_ws, lo, hi) for lo, hi in pieces):
        raise AssertionError(f"empty slice piece among {pieces}")
    elements = tuple(
        dict.fromkeys(z for lo, hi in pieces for z in interval(sorted_ws, lo, hi))
    )

    count = coset_data_mod_omega(sorted_ws).count
    distinct = len(set(coset_keys(sorted_ws, elements))) == len(elements)

    # delta is monotone, so the extreme degrees sit at the piece endpoints;
    # both degrees are scaled by L, and ceil(gap / -dw) = -(gap // dw)
    max_gap = max(delta_l(sorted_ws, hi) for _, hi in pieces) - min(
        delta_l(sorted_ws, lo) for lo, _ in pieces
    )
    ell_bound = max(0, -(max_gap // delta_omega_l(sorted_ws)))
    vanish = hom_vanishing_from_corners(sorted_ws, pieces, range(1, ell_bound + 1))

    report = SliceReport(len(elements), count, distinct, vanish, ell_bound)
    return SliceData(sorted_ws, tuple(pieces), elements, report)


def knoerrer_partner(ws: WeightSystem) -> WeightSystem:
    """One dimension up with an extra weight 2; the stable interval data agree.

    Both stable interval quivers must pass `cm_tensor_check`: each is then
    the commuting product of the type-A lines over the weights >= 3, which
    the two systems share, so the quivers agree.
    """
    if ws.n != ws.d + 2:
        raise ValueError("dimension-shift pairing requires n = d + 2")
    partner = WeightSystem(ws.d + 1, (2,) + ws.weights)
    if cm_interval_size(ws) != cm_interval_size(partner):
        raise AssertionError("stable interval sizes disagree with the pairing")
    if not (cm_tensor_check(ws) and cm_tensor_check(partner)):
        raise AssertionError("stable interval quivers disagree with the pairing")
    return partner


@dataclass(frozen=True)
class ClassificationReport:
    ws: WeightSystem
    trichotomy: Trichotomy
    is_regular: bool
    is_hypersurface: bool
    cm_finite: bool
    d_cm_finite: DCMFiniteness
    vb_finite: bool
    gldim_canonical: int
    frac_cy: FracCY
    coset_count: Optional[int]
    coset_invariant_factors: tuple[int, ...]
    k0_rank: int
    cm_rank: int
    orlov_delta: int


def classification_report(ws: WeightSystem) -> ClassificationReport:
    """Every invariant that `glci info` prints.  The coset data, the
    trichotomy and both interval sizes are computed once each and shared
    with the Orlov check."""
    cosets = coset_data_mod_omega(ws)
    tri = trichotomy(ws)
    cm_rank = cm_interval_size(ws)
    return ClassificationReport(
        ws=ws,
        trichotomy=tri,
        is_regular=ws.n <= ws.d + 1,
        is_hypersurface=ws.n <= ws.d + 2,
        cm_finite=cm_finite(ws),
        d_cm_finite=d_cm_finite_sufficient(ws),
        vb_finite=vb_finite(ws),
        gldim_canonical=gldim_canonical(ws),
        frac_cy=frac_cy(ws),
        coset_count=cosets.count,
        coset_invariant_factors=cosets.invariant_factors,
        k0_rank=k0_rank(ws),
        cm_rank=cm_rank,
        orlov_delta=_orlov_delta(canonical_interval_size(ws), cm_rank, tri, cosets.count),
    )
