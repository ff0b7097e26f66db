"""Invariant batteries over a built-in grid of weight systems.

Every battery has the signature `battery(grid=None) -> list[CheckResult]`,
and the CLI `suite` subcommand and the acceptance tests both run them:

- with `grid=None` a battery runs its default cases;
- a given list is filtered by the battery's own precondition, so a system
  it does not apply to yields no check;
- the global batteries (`phi`, `cm_finite`, `enumeration`) check fixed
  cases, not systems, and return [] for any given list.

Each battery is written as one check of one case, `check(case) -> (ok,
detail)`, and `per_system` declares its label, default cases and
precondition.  It holds the one loop over the cases: the only place a
`CheckResult` is built, and the only place an `AssertionError` raised by a
failed invariant is caught, so that failure ends its own case alone.

The default grid takes every nondecreasing weight tuple with entries in
[2, 6], length at most 6 and product at most 240, for ambient dimensions
1..3.  The matrix cross-check battery caps the Grothendieck rank at 80 so
exact characteristic polynomials stay cheap, and adds named fixture systems.
The fixture batteries run their named fixtures first, then the default-grid
systems small enough for them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

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


MATRIX_FIXTURES: tuple[WeightSystem, ...] = (
    WeightSystem(1, (2, 3, 5)),
    WeightSystem(1, (2, 3, 6)),
    WeightSystem(1, (2, 3, 7)),
    WeightSystem(1, (2, 3, 7, 43)),
    WeightSystem(1, (3, 3, 3)),
    WeightSystem(2, (2, 3)),
    WeightSystem(2, (2, 2, 3, 4)),
    WeightSystem(2, (2, 3, 7)),
    WeightSystem(3, (2, 2)),
    WeightSystem(3, (2, 2, 2, 2, 2)),
)


def matrix_grid() -> list[WeightSystem]:
    """The default-grid systems of Grothendieck rank <= 80, then the
    fixtures not among them."""
    grid = [ws for ws in default_grid() if coxeter.k0_rank(ws) <= 80]
    return grid + [ws for ws in MATRIX_FIXTURES if ws not in grid]


def per_system(
    battery_label: str,
    cases: Callable[[], Iterable],
    applies: Optional[Callable[[WeightSystem], bool]] = lambda ws: True,
    label: Callable[[Any], str] = str,
):
    """Make a battery `run(grid=None) -> list[CheckResult]` of a check
    `check(case) -> (ok, detail)`: `run` checks `cases()`, or the given list
    of systems, in order, skipping those `applies` does not admit, and
    labels each check `label(case)`.  `applies=None` marks a global battery,
    whose fixed cases are not systems: it has no precondition, and a given
    list yields no check.  An `AssertionError` from the check fails that
    case alone, with the exception's message as its detail."""

    def picked(grid: Optional[Sequence[WeightSystem]]) -> Iterable:
        if applies is None:
            return cases() if grid is None else ()
        return filter(applies, cases() if grid is None else grid)

    def decorate(check: Callable[[Any], tuple[bool, str]]):
        @functools.wraps(check)
        def run(grid: Optional[Sequence[WeightSystem]] = None) -> list[CheckResult]:
            results = []
            for case in picked(grid):
                try:
                    ok, detail = check(case)
                except AssertionError as exc:
                    ok, detail = False, str(exc)
                results.append(CheckResult(battery_label, label(case), ok, detail))
            return results

        return run

    return decorate


# ---------------------------------------------------------------- batteries


def _count_top(ws: WeightSystem, torsion: Sequence[int]) -> int:
    """The largest free value a with (torsion; a) in [0, d*c], by counting:
    d - #{i : t_i != 0}."""
    return ws.d - sum(1 for a in torsion if a)


@per_system("group_laws", default_grid)
def battery_group_laws(ws: WeightSystem) -> tuple[bool, str]:
    """Group laws plus the three-way order characterization of the interval
    x in [0, d*c] <=> x.free >= 0 and x.free + #{a_i != 0} <= d
    <=> x >= 0 and x + omega is not >= 0.

    The order check runs once per torsion tuple t: with x0 = (t; 0), the
    largest a with (t; a) in the box is (d*c - x0).free by the first form,
    `_count_top` by the second and -(x0 + omega).free - 1 by the third, and
    all three forms require a >= 0, so equal tops make the forms agree at
    every free value.  The forms are then also tested element by element on
    the seeded pool of elements with free part in [-2d, 2d]."""
    rng = random.Random(1234 + ws.d * 1000 + hash(ws.weights) % 1000)
    tors = list(itertools.product(*(range(p) for p in ws.weights)))
    span = 4 * ws.d + 1  # free values -2d..2d per torsion tuple
    size = len(tors) * span
    picks = range(size) if size <= 200 else rng.sample(range(size), 200)
    pool = [GroupElement(tors[k // span], -2 * ws.d + k % span) for k in picks]
    for _ in range(40):
        x, y, z = (rng.choice(pool) for _ in range(3))
        if grading.add(ws, x, y) != grading.add(ws, y, x):
            return False, f"commutativity fails at {x}, {y}"
        lhs = grading.add(ws, grading.add(ws, x, y), z)
        rhs = grading.add(ws, x, grading.add(ws, y, z))
        if lhs != rhs:
            return False, f"associativity fails at {x}, {y}, {z}"
        if grading.add(ws, x, grading.negate(ws, x)) != grading.zero(ws):
            return False, f"negate fails at {x}"
        bumps = [rng.randint(-3, 3) for _ in ws.weights]
        denorm = [a + p * k for a, p, k in zip(x.torsion, ws.weights, bumps)]
        if grading.normal_form(ws, denorm, x.free - sum(bumps)) != x:
            return False, f"normal form not left inverse at {x}"
    w = grading.omega(ws)
    dc = grading.smul(ws, ws.d, grading.gen_c(ws))
    for t in tors:
        x0 = GroupElement(t, 0)
        tops = (
            grading.sub(ws, dc, x0).free,
            _count_top(ws, t),
            -grading.add(ws, x0, w).free - 1,
        )
        if len(set(tops)) != 1:
            return False, f"order characterization fails at {x0}: tops {tops}"
    for x in pool:
        in_box = grading.is_nonneg(x) and grading.leq(ws, x, dc)
        count_form = x.free >= 0 and x.free <= _count_top(ws, x.torsion)
        dual_form = grading.is_nonneg(x) and not grading.is_nonneg(grading.add(ws, x, w))
        if not (in_box == count_form == dual_form):
            return False, f"order characterization fails at {x}"
    return True, ""


@per_system("rank_identities", default_grid)
def battery_rank_identities(ws: WeightSystem) -> tuple[bool, str]:
    """|[0, d*c]| = closed-form interval size = Grothendieck rank = degree of
    the Coxeter polynomial; for n = d+2 the stable interval has size
    prod(p_i - 1), both enumerated and in closed form."""
    box = algebra.canonical_interval(ws)
    rank = coxeter.k0_rank(ws)
    size = algebra.canonical_interval_size(ws)
    detail = f"|interval| {len(box)} vs rank {rank} vs closed form {size}"
    if not len(box) == rank == size:
        return False, detail
    chi = coxeter.coxeter_polynomial(ws)
    detail += f", deg chi {chi.degree}"
    if chi.degree != rank:
        return False, detail
    if ws.n == ws.d + 2:
        cm = algebra.cm_interval(ws)
        expected = math.prod(p - 1 for p in ws.weights)
        cm_size = algebra.cm_interval_size(ws)
        if not len(cm) == expected == cm_size:
            return False, detail + f", |cm| {len(cm)} vs {expected} vs closed form {cm_size}"
    return True, ""


@per_system(
    "coset_structure",
    default_grid,
    applies=lambda ws: grading.trichotomy(ws) == Trichotomy.FANO,
)
def battery_coset_structure(ws: WeightSystem) -> tuple[bool, str]:
    """Fano: [0, d*c] surjects onto the omega cosets; n <= d+1: bijectively."""
    data = grading.coset_data_mod_omega(ws)
    box = algebra.canonical_interval(ws)
    reps = set(grading.coset_keys(ws, box))
    detail = f"{len(reps)} cosets hit of {data.count}"
    if len(reps) != data.count:
        return False, detail
    if ws.n <= ws.d + 1 and len(box) != data.count:
        return False, detail + f"; bijectivity |box| {len(box)}"
    return True, ""


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


@per_system("piece_dims", lambda: [ws for ws in default_grid() if math.prod(ws.weights) <= 60])
def battery_piece_dims(ws: WeightSystem) -> tuple[bool, str]:
    max_free = ws.d + 2
    census = _piece_dim_census(ws, max_free)
    for x in grading.elements_with_free_in(ws, -2, max_free):
        if grading.piece_dim(ws, x) != census.get(x, 0):
            return False, f"piece_dim mismatch at {x}"
    w = grading.omega(ws)
    y = grading.zero(ws)
    for x in grading.elements_with_free_in(ws, -1, 1):
        lhs = grading.hom_ext_dim(ws, x, y, ws.d)
        rhs = grading.hom_ext_dim(ws, y, grading.add(ws, x, w), 0)
        if lhs != rhs:
            return False, f"duality symmetry fails at {x}"
    return True, ""


@per_system("coxeter_cross_route", matrix_grid)
def battery_coxeter_cross_route(ws: WeightSystem) -> tuple[bool, str]:
    """Matrix route vs product route, per block and overall, plus unit
    constant term: `coxeter.matrix_route_check`."""
    return coxeter.matrix_route_check(ws, coxeter.coxeter_polynomial(ws))


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


@per_system(
    "phi_telescoping",
    lambda: itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(1, 7), size) for size in range(4)
    ),
    applies=None,
)
def battery_phi_telescoping(combo: tuple[int, ...]) -> tuple[bool, str]:
    """Global: the phi factors over the sub-multisets of each multiset of at
    most 3 values in 1..6 multiply out to (1 - t^lcm)^(prod / lcm), the
    forward form of the identity that `coxeter.phi` inverts."""
    prod = IntPolynomial([1])
    for sub_key, mult in _sub_multisets(combo):
        prod = prod * coxeter.phi(sub_key) ** mult
    L = math.lcm(*combo)
    one_minus_t_to_L = IntPolynomial([1] + [0] * (L - 1) + [-1])
    if prod != one_minus_t_to_L ** (math.prod(combo) // L):
        return False, "product of phi factors mismatches closed form"
    return True, ""


@per_system(
    "quiver_structure", lambda: [ws for ws in default_grid() if coxeter.k0_rank(ws) <= 30]
)
def battery_quiver_structure(ws: WeightSystem) -> tuple[bool, str]:
    """Interval quivers are acyclic with relation paths of length >= 2, the
    Cartan matrix transposes under negating the interval, and systems with
    n = d + 2 agree with their one-dimension-up partner."""
    box = algebra.canonical_interval(ws)
    quiver = algebra.i_canonical_quiver(ws, box)
    if not algebra.is_acyclic(len(quiver.vertices), quiver.arrows):
        return False, "interval quiver has a cycle"
    if any(min(len(p) for p in rel.paths) < 2 for rel in quiver.relations):
        return False, "relation path of length < 2"
    neg_box = [grading.negate(ws, x) for x in box]
    cm = algebra.cartan_matrix(ws, box)
    cm_neg = algebra.cartan_matrix(ws, neg_box)
    if cm_neg != [list(col) for col in zip(*cm)]:
        return False, "Cartan matrix not transposed under negation"
    if ws.n == ws.d + 2:
        classify.knoerrer_partner(ws)
    return True, ""


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


@per_system(
    "matrix_factorizations",
    lambda: _fixtures_then_grid(
        MF_FIXTURES, lambda ws: ws.d <= 2 and math.prod(p - 1 for p in ws.weights) <= 8
    ),
    applies=lambda ws: ws.n == ws.d + 2,
)
def battery_matrix_factorizations(ws: WeightSystem) -> tuple[bool, str]:
    """Systems with n = d + 2: every matrix factorization verified symbolically.
    By default the fixtures, then grid systems with d <= 2 and at most 8
    factorizations."""
    ells = matfac.mf_enumerate(ws)
    if len(ells) != matfac.expected_index_count(ws):
        return False, f"index count {len(ells)}"
    for pair, report, nonsingular in matfac.mf_pairs(ws, ells, True):
        if pair.size != 2 ** (ws.d + 1):
            return False, f"{pair.ell}: size {pair.size}"
        if not report.ok:
            return False, f"{pair.ell}: {report.failures[:2]}"
        if not nonsingular:
            return False, f"{pair.ell}: singular corner minor"
    return True, f"{len(ells)} factorizations verified"


ATILDE_FIXTURES: tuple[WeightSystem, ...] = (
    WeightSystem(1, ()),
    WeightSystem(2, ()),
    WeightSystem(2, (2, 3, 4)),
    WeightSystem(3, (2, 2)),
)


@per_system(
    "atilde_cut",
    lambda: _fixtures_then_grid(ATILDE_FIXTURES, lambda ws: coxeter.k0_rank(ws) <= 20),
    applies=lambda ws: ws.n <= ws.d + 1,
)
def battery_atilde(ws: WeightSystem) -> tuple[bool, str]:
    """Systems with n <= d + 1: the orbit quiver satisfies the cut axioms.
    By default the fixtures, then grid systems of Grothendieck rank <= 20."""
    q = atilde.atilde_presentation(ws)
    report = atilde.verify_cut(ws, q)
    if not report.acyclic_without_cut:
        return False, "the arrows outside the cut form a cycle"
    if report.bad_walks:
        return False, f"bad walks {report.bad_walks[:2]}"
    if not atilde.noncut_matches_interval_quiver(ws, q):
        return False, "the arrows outside the cut differ from the interval quiver's"
    count = grading.coset_data_mod_omega(ws).count
    if len(q.vertices) != count:
        return False, f"{len(q.vertices)} vertices vs {count} cosets mod omega"
    return True, ""


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


@per_system("global_dimension", lambda: GLDIM_FIXTURES + GLDIM_EXTRA)
def battery_global_dimension(ws: WeightSystem) -> tuple[bool, str]:
    """Any system: the resolution oracle's global dimension equals the formula.
    By default the fixtures and the extra systems."""
    alg = algebra.structure_constants(ws, algebra.canonical_interval(ws))
    got = algebra.global_dimension(alg)
    expected = classify.gldim_canonical(ws)
    if got != expected:
        return False, f"oracle {got} vs formula {expected}"
    if not algebra.associativity_spot_check(alg):
        return False, "associativity spot check fails"
    return True, ""


@per_system("orlov_rank", default_grid)
def battery_orlov(ws: WeightSystem) -> tuple[bool, str]:
    """The rank bookkeeping between the sheaf and singularity sides, which
    `orlov_rank_delta` asserts."""
    classify.orlov_rank_delta(ws)
    return True, ""


SLICE_FIXTURES: tuple[WeightSystem, ...] = (
    WeightSystem(2, (2, 2, 3, 4)),
    WeightSystem(2, (2, 2, 2, 2)),
    WeightSystem(3, (2, 2, 2, 2, 2)),
)


def _few_cosets(ws: WeightSystem) -> bool:
    count = grading.coset_data_mod_omega(ws).count
    return count is not None and count <= 150


@per_system(
    "slices",
    lambda: _fixtures_then_grid(SLICE_FIXTURES, _few_cosets),
    applies=lambda ws: ws.n == ws.d + 2 and sorted(ws.weights)[:2] == [2, 2],
)
def battery_slices(ws: WeightSystem) -> tuple[bool, str]:
    """Systems with n = d + 2 and two weights 2: the slice report holds.
    By default the fixtures, then grid systems with at most 150 omega cosets."""
    report = classify.main2_slice(ws).report
    return report.ok, "" if report.ok else f"report {report}"


@per_system("cm_finiteness_scan", lambda: (1, 2, 3), applies=None, label=lambda d: f"d={d}")
def battery_cm_finiteness_scan(d: int) -> tuple[bool, str]:
    """Global, per dimension d: membership in the finite-type list,
    re-derived case by case for weights up to 7, versus cm_finite; plus
    consistency with the sufficient higher-finiteness list at n = d + 2."""
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
                return False, f"cm_finite({d},{tup}) = {got}"
            if (
                n == d + 2
                and got
                and classify.d_cm_finite_sufficient(ws)
                != classify.DCMFiniteness.SUFFICIENT_BY_HYPERSURFACE_LIST
            ):
                return False, f"finite type {tup} not in sufficient list"
    return True, ""


def boxed_enumeration_oracle(
    d: int, n: int, cls: Trichotomy, box: int
) -> tuple[set[tuple[int, ...]], bool]:
    """Sporadic tuples found by scanning the box p_i <= box, together with
    a completeness certificate: no non-family prefix leaves room for a weight
    beyond the box.

    Sums of 1/p are exact integers scaled by L = lcm(2..box): every p in the
    box divides L, so 1/p is L // p.  Each nondecreasing (n-1)-prefix is
    summed once, leaving gap = target - sum, and the last weight q >= the
    prefix's last is solved for rather than scanned, since L // q falls
    strictly as q grows.  A Fano tuple is family-covered exactly when its
    prefix reaches the target, as prefix sums only grow; so it is found when
    gap > 0 and L // q > gap, that is q <= (L - 1) // gap.  A Calabi-Yau
    tuple needs L // q == gap, so q = L // gap when gap divides L."""
    weights = range(2, box + 1)
    scale = math.lcm(*weights)
    target = (n - d - 1) * scale
    recips = [scale // p for p in weights]
    found = set()
    complete = True
    prefixes = itertools.combinations_with_replacement(weights, n - 1)
    sums, selector = itertools.tee(
        map(sum, itertools.combinations_with_replacement(recips, n - 1))
    )
    # Every prefix is summed, but only one with gap <= L/2 can take a last
    # weight (each adds at most L/2) or leave room beyond the box (L/box).
    near = map((target - scale // 2).__le__, selector)
    for prefix, total in itertools.compress(zip(prefixes, sums), near):
        gap = target - total
        if gap <= 0:  # n = 1 stops here too (gap = -d * L), so prefix[-1] exists
            continue
        # A tail weight p beyond the box would need L/p > gap (Fano) or
        # == gap, with L/p < L/box, which is exact since box divides L.
        if gap < scale // box:
            complete = False
        if cls == Trichotomy.FANO:
            top = min(box, (scale - 1) // gap)
            found.update(prefix + (q,) for q in range(prefix[-1], top + 1))
        elif scale % gap == 0 and prefix[-1] <= scale // gap <= box:
            found.add(prefix + (scale // gap,))
    return found, complete


def _fano_families() -> tuple[bool, str]:
    families = classify.enumerate_weight_systems(2, 4, Trichotomy.FANO).infinite_families
    return len(families) == 7, f"{len(families)} families"


def _fano_sporadic_vs_box_scan() -> tuple[bool, str]:
    sporadic = classify.enumerate_weight_systems(2, 4, Trichotomy.FANO).sporadic
    oracle, complete = boxed_enumeration_oracle(2, 4, Trichotomy.FANO, box=45)
    ok = complete and set(sporadic) == oracle
    return ok, f"{len(sporadic)} sporadic, oracle {len(oracle)}, complete={complete}"


def _calabi_yau_totals() -> tuple[bool, str]:
    counts = {}
    ok = True
    for n, box in ((4, 45), (5, 12), (6, 7)):
        cy = classify.enumerate_weight_systems(2, n, Trichotomy.CALABI_YAU)
        counts[n] = len(cy.sporadic)
        oracle, complete = boxed_enumeration_oracle(2, n, Trichotomy.CALABI_YAU, box=box)
        ok = ok and complete and set(cy.sporadic) == oracle
    return ok and counts == {4: 14, 5: 3, 6: 1}, f"{counts}"


ENUMERATION_CLAIMS: dict[str, Callable[[], tuple[bool, str]]] = {
    "d=2 n=4 Fano families": _fano_families,
    "d=2 n=4 Fano sporadic vs box scan": _fano_sporadic_vs_box_scan,
    "d=2 Calabi-Yau totals": _calabi_yau_totals,
}


@per_system("enumeration", lambda: ENUMERATION_CLAIMS, applies=None)
def battery_enumeration(claim: str) -> tuple[bool, str]:
    """Global: families and sporadic tuples against an independent bounded box scan."""
    return ENUMERATION_CLAIMS[claim]()


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
