"""Invariant batteries over a built-in grid of weight systems.

Every battery has the signature `battery(grid=None) -> list[CheckResult]`,
and the CLI `suite` subcommand and the acceptance tests both run them:

- with `grid=None` a battery runs its default systems;
- a given list is filtered by the battery's own precondition, so a system
  it does not apply to yields no check;
- the global batteries (`phi`, `cm_finite`, `enumeration`) check fixed
  enumerations, not systems, and return [] for any given list.

The default grid takes every nondecreasing weight tuple with entries in
[2, 6], length at most 6 and product at most 240, for ambient dimensions
1..3.  The matrix cross-check battery caps the Grothendieck rank at 80 so
exact characteristic polynomials stay cheap, and adds named fixture systems.
The fixture batteries run their named fixtures first, then the default-grid
systems small enough for them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import algebra, atilde, classify, coxeter, grading, matfac
from .coxeter import IntPolynomial
from .grading import GroupElement, Trichotomy, WeightSystem


@dataclass(frozen=True)
class CheckResult:
    battery: str
    label: str
    ok: bool
    detail: str = ""


def weight_tuples() -> list[tuple[int, ...]]:
    """Nondecreasing tuples with entries in [2, 6], length at most 6 and
    product at most 240, by length and then lexicographically."""
    return [
        tup
        for k in range(7)
        for tup in itertools.combinations_with_replacement(range(2, 7), k)
        if math.prod(tup) <= 240
    ]


def default_grid() -> list[WeightSystem]:
    grid = []
    for d in (1, 2, 3):
        for tup in weight_tuples():
            grid.append(WeightSystem(d, tup))
    return grid


MATRIX_FIXTURES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (1, (2, 3, 5)),
    (1, (2, 3, 6)),
    (1, (2, 3, 7)),
    (1, (2, 3, 7, 43)),
    (1, (3, 3, 3)),
    (2, (2, 3)),
    (2, (2, 2, 3, 4)),
    (2, (2, 3, 7)),
    (3, (2, 2)),
    (3, (2, 2, 2, 2, 2)),
)


def matrix_grid() -> list[WeightSystem]:
    seen = set()
    grid = []
    for ws in default_grid():
        if coxeter.k0_rank(ws) <= 80:
            seen.add((ws.d, ws.weights))
            grid.append(ws)
    for d, tup in MATRIX_FIXTURES:
        if (d, tup) not in seen:
            grid.append(WeightSystem(d, tup))
    return grid


# ---------------------------------------------------------------- batteries


def _count_top(ws: WeightSystem, torsion: Sequence[int]) -> int:
    """The largest free value a with (torsion; a) in [0, d*c], by counting:
    d - #{i : t_i != 0}."""
    return ws.d - sum(1 for a in torsion if a)


def battery_group_laws(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    """Group laws plus the three-way order characterization of the interval
    x in [0, d*c] <=> x.free >= 0 and x.free + #{a_i != 0} <= d
    <=> x >= 0 and x + omega is not >= 0.

    The order check runs once per torsion tuple t: with x0 = (t; 0), the
    largest a with (t; a) in the box is (d*c - x0).free by the first form,
    `_count_top` by the second and -(x0 + omega).free - 1 by the third, and
    all three forms require a >= 0, so equal tops make the forms agree at
    every free value.  The forms are then also tested element by element on
    the seeded pool of elements with free part in [-2d, 2d]."""
    results = []
    for ws in grid if grid is not None else default_grid():
        rng = random.Random(1234 + ws.d * 1000 + hash(ws.weights) % 1000)
        tors = list(itertools.product(*(range(p) for p in ws.weights)))
        span = 4 * ws.d + 1  # free values -2d..2d per torsion tuple
        size = len(tors) * span
        picks = range(size) if size <= 200 else rng.sample(range(size), 200)
        pool = [GroupElement(tors[k // span], -2 * ws.d + k % span) for k in picks]
        ok = True
        detail = ""
        for _ in range(40):
            x, y, z = (rng.choice(pool) for _ in range(3))
            if grading.add(ws, x, y) != grading.add(ws, y, x):
                ok, detail = False, f"commutativity fails at {x}, {y}"
                break
            lhs = grading.add(ws, grading.add(ws, x, y), z)
            rhs = grading.add(ws, x, grading.add(ws, y, z))
            if lhs != rhs:
                ok, detail = False, f"associativity fails at {x}, {y}, {z}"
                break
            if grading.add(ws, x, grading.negate(ws, x)) != grading.zero(ws):
                ok, detail = False, f"negate fails at {x}"
                break
            bumps = [rng.randint(-3, 3) for _ in ws.weights]
            denorm = [a + p * k for a, p, k in zip(x.torsion, ws.weights, bumps)]
            if grading.normal_form(ws, denorm, x.free - sum(bumps)) != x:
                ok, detail = False, f"normal form not left inverse at {x}"
                break
        w = grading.omega(ws)
        dc = grading.smul(ws, ws.d, grading.gen_c(ws))
        if ok:
            for t in tors:
                x0 = GroupElement(t, 0)
                tops = (
                    grading.sub(ws, dc, x0).free,
                    _count_top(ws, t),
                    -grading.add(ws, x0, w).free - 1,
                )
                if len(set(tops)) != 1:
                    ok, detail = False, f"order characterization fails at {x0}: tops {tops}"
                    break
        if ok:
            for x in pool:
                in_box = grading.is_nonneg(x) and grading.leq(ws, x, dc)
                count_form = x.free >= 0 and x.free <= _count_top(ws, x.torsion)
                dual_form = grading.is_nonneg(x) and not grading.is_nonneg(
                    grading.add(ws, x, w)
                )
                if not (in_box == count_form == dual_form):
                    ok, detail = False, f"order characterization fails at {x}"
                    break
        results.append(CheckResult("group_laws", str(ws), ok, detail))
    return results


def battery_rank_identities(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    """|[0, d*c]| = closed-form interval size = Grothendieck rank = degree of
    the Coxeter polynomial; for n = d+2 the stable interval has size
    prod(p_i - 1), both enumerated and in closed form."""
    results = []
    for ws in grid if grid is not None else default_grid():
        box = algebra.canonical_interval(ws)
        rank = coxeter.k0_rank(ws)
        size = algebra.canonical_interval_size(ws)
        ok = len(box) == rank == size
        detail = f"|interval| {len(box)} vs rank {rank} vs closed form {size}"
        if ok:
            chi = coxeter.coxeter_polynomial(ws)
            ok = chi.degree == rank
            detail += f", deg chi {chi.degree}"
        if ok and ws.n == ws.d + 2:
            cm = algebra.cm_interval(ws)
            expected = math.prod(p - 1 for p in ws.weights)
            cm_size = algebra.cm_interval_size(ws)
            ok = len(cm) == expected == cm_size
            detail += f", |cm| {len(cm)} vs {expected} vs closed form {cm_size}"
        results.append(CheckResult("rank_identities", str(ws), ok, detail if not ok else ""))
    return results


def battery_coset_structure(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    """Fano: [0, d*c] surjects onto the omega cosets; n <= d+1: bijectively."""
    results = []
    for ws in grid if grid is not None else default_grid():
        if grading.trichotomy(ws) != Trichotomy.FANO:
            continue
        data = grading.coset_data_mod_omega(ws)
        box = algebra.canonical_interval(ws)
        reps = set(grading.coset_keys(ws, box))
        ok = len(reps) == data.count
        detail = f"{len(reps)} cosets hit of {data.count}"
        if ok and ws.n <= ws.d + 1:
            ok = len(box) == data.count
            detail += f"; bijectivity |box| {len(box)}"
        results.append(CheckResult("coset_structure", str(ws), ok, detail if not ok else ""))
    return results


def _piece_dim_census(ws: WeightSystem, max_free: int) -> dict[GroupElement, int]:
    """Counts of basis monomials X^a * T^b per degree, free part up to max_free."""
    census: dict[GroupElement, int] = {}
    splits_by_total = {
        f: [
            tuple(
                (cuts := (-1,) + bars + (f + ws.d,))[i + 1] - cuts[i] - 1
                for i in range(ws.d + 1)
            )
            for bars in itertools.combinations(range(f + ws.d), ws.d)
        ]
        for f in range(max_free + 1)
    }
    for a in itertools.product(*(range(p) for p in ws.weights)):
        for f, splits in splits_by_total.items():
            # every split is one monomial X^a * T^b; they share the degree
            x = grading.normal_form(ws, a, f)
            census[x] = census.get(x, 0) + len(splits)
    return census


def battery_piece_dims(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    results = []
    if grid is None:
        grid = [ws for ws in default_grid() if math.prod(ws.weights) <= 60]
    for ws in grid:
        ok = True
        detail = ""
        max_free = ws.d + 2
        census = _piece_dim_census(ws, max_free)
        for x in grading.elements_with_free_in(ws, -2, max_free):
            expected = census.get(x, 0)
            if grading.piece_dim(ws, x) != expected:
                ok, detail = False, f"piece_dim mismatch at {x}"
                break
        if ok:
            w = grading.omega(ws)
            for x in grading.elements_with_free_in(ws, -1, 1):
                y = grading.zero(ws)
                lhs = grading.hom_ext_dim(ws, x, y, ws.d)
                rhs = grading.hom_ext_dim(ws, y, grading.add(ws, x, w), 0)
                if lhs != rhs:
                    ok, detail = False, f"duality symmetry fails at {x}"
                    break
        results.append(CheckResult("piece_dims", str(ws), ok, detail))
    return results


def battery_coxeter_cross_route(
    grid: Optional[Sequence[WeightSystem]] = None,
) -> list[CheckResult]:
    """Matrix route vs product route, per block and overall, plus unit constant term."""
    results = []
    for ws in grid if grid is not None else matrix_grid():
        ok = True
        detail = ""
        blocks = coxeter.omega_action_blocks(ws)
        for subset, level, block in blocks:
            if level:
                continue  # blocks repeat across levels by construction
            char = coxeter.char_poly(block)
            expected = coxeter.phi(
                tuple(ws.weights[i] for i in subset)
            ).monic_normalized()
            if char != expected:
                ok, detail = False, f"block {subset} char poly mismatch"
                break
        if ok:
            full = coxeter.char_poly(coxeter.omega_action_matrix(ws))
            chi = coxeter.coxeter_polynomial(ws)
            if full != chi and full != -chi:
                ok, detail = False, "full matrix char poly != +-coxeter polynomial"
            elif abs(full.constant_term()) != 1:
                ok, detail = False, f"constant term {full.constant_term()} not a unit"
        results.append(CheckResult("coxeter_cross_route", str(ws), ok, detail))
    return results


def _sub_multisets(values: tuple[int, ...]):
    """(sub-multiset, multiplicity) pairs, counting index subsets of a sorted
    tuple that realize each sub-multiset; the full tuple is included."""
    items = sorted(set(values))
    counts = [values.count(v) for v in items]
    for picks in itertools.product(*(range(c + 1) for c in counts)):
        sub = []
        mult = 1
        for v, c, k in zip(items, counts, picks):
            sub.extend([v] * k)
            mult *= math.comb(c, k)
        yield tuple(sub), mult


def battery_phi_telescoping(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    """Global: the phi factors over the sub-multisets of each multiset of at
    most 3 values in 1..6 multiply out to (1 - t^lcm)^(prod / lcm), the
    forward form of the identity that `coxeter.phi` inverts."""
    if grid is not None:
        return []
    results = []
    for size in range(4):
        for combo in itertools.combinations_with_replacement(range(1, 7), size):
            prod = IntPolynomial([1])
            for sub_key, mult in _sub_multisets(combo):
                prod = prod * coxeter.phi(sub_key) ** mult
            L = math.lcm(*combo)
            one_minus_t_to_L = IntPolynomial([1] + [0] * (L - 1) + [-1])
            ok = prod == one_minus_t_to_L ** (math.prod(combo) // L)
            results.append(
                CheckResult(
                    "phi_telescoping",
                    str(combo),
                    ok,
                    "" if ok else "product of phi factors mismatches closed form",
                )
            )
    return results


def battery_quiver_structure(
    grid: Optional[Sequence[WeightSystem]] = None,
) -> list[CheckResult]:
    """Interval quivers are acyclic with relation paths of length >= 2, the
    Cartan matrix transposes under negating the interval, and systems with
    n = d + 2 agree with their one-dimension-up partner."""
    results = []
    if grid is None:
        grid = [ws for ws in default_grid() if coxeter.k0_rank(ws) <= 30]
    for ws in grid:
        ok = True
        detail = ""
        box = algebra.canonical_interval(ws)
        quiver = algebra.i_canonical_quiver(ws, box)
        if not algebra.is_acyclic(len(quiver.vertices), quiver.arrows):
            ok, detail = False, "interval quiver has a cycle"
        if ok and any(min(len(p) for p in rel.paths) < 2 for rel in quiver.relations):
            ok, detail = False, "relation path of length < 2"
        if ok:
            neg_box = [grading.negate(ws, x) for x in box]
            cm = algebra.cartan_matrix(ws, box)
            cm_neg = algebra.cartan_matrix(ws, neg_box)
            if cm_neg != [list(col) for col in zip(*cm)]:
                ok, detail = False, "Cartan matrix not transposed under negation"
        if ok and ws.n == ws.d + 2:
            try:
                classify.knoerrer_partner(ws)
            except AssertionError as exc:
                ok, detail = False, f"dimension-shift pairing: {exc}"
        results.append(CheckResult("quiver_structure", str(ws), ok, detail))
    return results


def _fixtures_then_grid(
    fixtures: Sequence[WeightSystem], accepts: Callable[[WeightSystem], bool]
) -> list[WeightSystem]:
    """The fixtures, then the default-grid systems `accepts` admits that are
    not among them."""
    return list(fixtures) + [
        ws for ws in default_grid() if accepts(ws) and ws not in fixtures
    ]


MF_FIXTURES: tuple[WeightSystem, ...] = (
    WeightSystem(1, (2, 3, 5)),
    WeightSystem(1, (3, 3, 3)),
    WeightSystem(2, (2, 2, 3, 4)),
    WeightSystem(2, (2, 2, 2, 2)),
    WeightSystem(3, (2, 2, 2, 2, 2)),
)


def battery_matrix_factorizations(
    grid: Optional[Sequence[WeightSystem]] = None,
) -> list[CheckResult]:
    """Systems with n = d + 2: every matrix factorization verified symbolically.
    By default the fixtures, then grid systems with d <= 2 and at most 8
    factorizations."""
    if grid is None:
        grid = _fixtures_then_grid(
            MF_FIXTURES,
            lambda ws: ws.d <= 2 and math.prod(p - 1 for p in ws.weights) <= 8,
        )
    results = []
    for ws in grid:
        if ws.n != ws.d + 2:
            continue
        indices = matfac.mf_enumerate(ws)
        ok = len(indices) == matfac.expected_index_count(ws)
        detail = f"index count {len(indices)}"
        if ok:
            for index in indices:
                pair = matfac.mf_build(ws, index)
                if pair.size != 2 ** (ws.d + 1):
                    ok, detail = False, f"{index.ell}: size {pair.size}"
                    break
                report = matfac.mf_verify(pair)
                if not report.ok:
                    ok, detail = False, f"{index.ell}: {report.failures[:2]}"
                    break
                if not matfac.mf_minor_nonsingular(pair):
                    ok, detail = False, f"{index.ell}: singular corner minor"
                    break
            else:
                detail = f"{len(indices)} factorizations verified"
        results.append(CheckResult("matrix_factorizations", str(ws), ok, detail))
    return results


ATILDE_FIXTURES: tuple[WeightSystem, ...] = (
    WeightSystem(1, ()),
    WeightSystem(2, ()),
    WeightSystem(2, (2, 3, 4)),
    WeightSystem(3, (2, 2)),
)


def battery_atilde(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    """Systems with n <= d + 1: the orbit quiver satisfies the cut axioms.
    By default the fixtures, then grid systems of Grothendieck rank <= 20."""
    if grid is None:
        grid = _fixtures_then_grid(ATILDE_FIXTURES, lambda ws: coxeter.k0_rank(ws) <= 20)
    results = []
    for ws in grid:
        if ws.n > ws.d + 1:
            continue
        q = atilde.atilde_presentation(ws)
        report = atilde.verify_cut(q)
        count = grading.coset_data_mod_omega(ws).count
        ok = (
            report.ok
            and atilde.noncut_matches_interval_quiver(q)
            and len(q.vertices) == count
        )
        detail = "" if ok else f"bad walks {report.bad_walks[:2]}"
        results.append(CheckResult("atilde_cut", str(ws), ok, detail))
    return results


GLDIM_FIXTURES: tuple[WeightSystem, ...] = (
    WeightSystem(1, ()),
    WeightSystem(1, (2, 2, 2)),
    WeightSystem(1, (2, 3, 3)),
    WeightSystem(2, (2, 3)),
)

GLDIM_EXTRA: tuple[WeightSystem, ...] = (
    WeightSystem(1, (2, 2, 2, 2)),
    WeightSystem(2, (2, 2, 2, 2)),
    WeightSystem(3, (2, 2)),
)


def battery_global_dimension(
    grid: Optional[Sequence[WeightSystem]] = None,
) -> list[CheckResult]:
    """Any system: the resolution oracle's global dimension equals the formula.
    By default the fixtures and the extra systems."""
    results = []
    for ws in grid if grid is not None else GLDIM_FIXTURES + GLDIM_EXTRA:
        alg = algebra.structure_constants(ws, algebra.canonical_interval(ws))
        got = algebra.global_dimension(alg)
        expected = classify.gldim_canonical(ws)
        ok = got == expected and algebra.associativity_spot_check(alg)
        results.append(
            CheckResult(
                "global_dimension",
                str(ws),
                ok,
                "" if ok else f"oracle {got} vs formula {expected}",
            )
        )
    return results


def battery_orlov(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    results = []
    for ws in grid if grid is not None else default_grid():
        try:
            classify.orlov_rank_delta(ws)
            ok, detail = True, ""
        except AssertionError as exc:
            ok, detail = False, str(exc)
        results.append(CheckResult("orlov_rank", str(ws), ok, detail))
    return results


SLICE_FIXTURES: tuple[WeightSystem, ...] = (
    WeightSystem(2, (2, 2, 3, 4)),
    WeightSystem(2, (2, 2, 2, 2)),
    WeightSystem(3, (2, 2, 2, 2, 2)),
)


def battery_slices(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    """Systems with n = d + 2 and two weights 2: the slice report holds.
    By default the fixtures, then grid systems with at most 150 omega cosets."""

    def few_cosets(ws: WeightSystem) -> bool:
        count = grading.coset_data_mod_omega(ws).count
        return count is not None and count <= 150

    if grid is None:
        grid = _fixtures_then_grid(SLICE_FIXTURES, few_cosets)
    results = []
    for ws in grid:
        if ws.n != ws.d + 2 or sorted(ws.weights)[:2] != [2, 2]:
            continue
        data = classify.main2_slice(ws)
        ok = data.report.ok
        results.append(
            CheckResult(
                "slices",
                str(ws),
                ok,
                "" if ok else f"report {data.report}",
            )
        )
    return results


def battery_cm_finiteness_scan(
    grid: Optional[Sequence[WeightSystem]] = None,
) -> list[CheckResult]:
    """Global: membership in the finite-type list, re-derived case by case for
    weights up to 7, versus cm_finite; plus consistency with the sufficient
    higher-finiteness list at n = d + 2."""
    if grid is not None:
        return []
    results = []
    for d in (1, 2, 3):
        ok = True
        detail = ""
        for n in range(0, d + 4):
            for tup in itertools.combinations_with_replacement(range(2, 8), n):
                ws = WeightSystem(d, tup)
                got = classify.cm_finite(ws)
                if n <= d + 1:
                    expected = True
                elif n == d + 2:
                    twos = sum(1 for p in tup if p == 2)
                    rest = tuple(sorted(p for p in tup if p != 2))
                    expected = (
                        twos >= n - 1
                        or (twos == n - 2 and len(rest) == 1)
                        or (twos == n - 2 and rest in {(3, 3), (3, 4), (3, 5)})
                    )
                else:
                    expected = False
                if got != expected:
                    ok, detail = False, f"cm_finite({d},{tup}) = {got}"
                    break
                if (
                    n == d + 2
                    and got
                    and classify.d_cm_finite_sufficient(ws)
                    != classify.DCMFiniteness.SUFFICIENT_BY_HYPERSURFACE_LIST
                ):
                    ok, detail = False, f"finite type {tup} not in sufficient list"
                    break
            if not ok:
                break
        results.append(CheckResult("cm_finiteness_scan", f"d={d}", ok, detail))
    return results


def boxed_enumeration_oracle(
    d: int, n: int, cls: Trichotomy, box: int
) -> tuple[set[tuple[int, ...]], bool]:
    """Sporadic tuples found by scanning the full box p_i <= box, together with
    a completeness certificate: no non-family prefix leaves room for a weight
    beyond the box.

    Sums of 1/p are exact integers scaled by L = lcm(2..box): every p in the
    box divides L, so 1/p is L // p."""
    weights = range(2, box + 1)
    scale = math.lcm(*weights)
    target = (n - d - 1) * scale
    recips = [scale // p for p in weights]

    def family_covered(tup) -> bool:
        if cls != Trichotomy.FANO:
            return False
        total = 0
        for k in range(min(len(tup), n)):
            if total >= target:
                return True
            total += scale // tup[k]
        return False

    def scan(k: int, keep: Callable[[int], bool]):
        # Tuples and their reciprocal sums come from two iterators over the
        # same positions, so they run in one order; every tuple is summed.
        tuples = itertools.combinations_with_replacement(weights, k)
        sums = map(sum, itertools.combinations_with_replacement(recips, k))
        return itertools.compress(tuples, map(keep, sums))

    in_class = target.__lt__ if cls == Trichotomy.FANO else target.__eq__
    found = {tup for tup in scan(n, in_class) if not family_covered(tup)}
    # A tail weight p beyond the box would need L/p > gap (Fano) or == gap,
    # with 0 < L/p < L/box, which is exact since box divides L.  So a
    # prefix leaves room when 0 < target - sum < L/box.
    near = scan(n - 1, range(target - scale // box + 1, target).__contains__)
    return found, all(family_covered(prefix) for prefix in near)


def battery_enumeration(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
    """Global: families and sporadic tuples against an independent bounded box scan."""
    if grid is not None:
        return []
    results = []
    fano = classify.enumerate_weight_systems(2, 4, Trichotomy.FANO)
    results.append(
        CheckResult(
            "enumeration",
            "d=2 n=4 Fano families",
            len(fano.infinite_families) == 7,
            f"{len(fano.infinite_families)} families",
        )
    )
    oracle, complete = boxed_enumeration_oracle(2, 4, Trichotomy.FANO, box=45)
    ok = complete and set(fano.sporadic) == oracle
    results.append(
        CheckResult(
            "enumeration",
            "d=2 n=4 Fano sporadic vs box scan",
            ok,
            f"{len(fano.sporadic)} sporadic, oracle {len(oracle)}, complete={complete}",
        )
    )
    cy_counts = {}
    cy_ok = True
    for n, box in ((4, 45), (5, 12), (6, 7)):
        cy = classify.enumerate_weight_systems(2, n, Trichotomy.CALABI_YAU)
        cy_counts[n] = len(cy.sporadic)
        oracle, complete = boxed_enumeration_oracle(2, n, Trichotomy.CALABI_YAU, box=box)
        cy_ok = cy_ok and complete and set(cy.sporadic) == oracle
    results.append(
        CheckResult(
            "enumeration",
            "d=2 Calabi-Yau totals",
            cy_ok and cy_counts == {4: 14, 5: 3, 6: 1},
            f"{cy_counts}",
        )
    )
    return results


BATTERIES: dict[str, Callable[[Optional[Sequence[WeightSystem]]], list[CheckResult]]] = {
    "group_laws": battery_group_laws,
    "rank_identities": battery_rank_identities,
    "coset_structure": battery_coset_structure,
    "piece_dims": battery_piece_dims,
    "quiver_structure": battery_quiver_structure,
    "coxeter": battery_coxeter_cross_route,
    "orlov": battery_orlov,
    "mf": battery_matrix_factorizations,
    "atilde": battery_atilde,
    "gldim": battery_global_dimension,
    "slices": battery_slices,
    "phi": battery_phi_telescoping,
    "cm_finite": battery_cm_finiteness_scan,
    "enumeration": battery_enumeration,
}


def run_batteries(
    only: Optional[str] = None, ws: Optional[WeightSystem] = None
) -> list[CheckResult]:
    """Run the batteries whose name contains `only`, each on its default
    systems, or with `ws` given on that one system where it applies."""
    results = []
    for name, fn in BATTERIES.items():
        if not only or only in name:
            results.extend(fn([ws] if ws is not None else None))
    return results
