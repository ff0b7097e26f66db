"""Quiver presentations and exact linear algebra for interval endomorphism algebras.

An interval algebra A^I packs the graded pieces R_{x-y} for x, y in a finite
convex subset I of the grading group into one finite dimensional algebra.
This module builds its quiver presentation, its multiplication table over
exact rationals, and a projective-resolution oracle for the global dimension.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .grading import (
    GroupElement,
    WeightSystem,
    add,
    delta_l,
    general_position_ok,
    generic_lambda,
    gen_c,
    gen_x,
    interval,
    interval_size,
    leq,
    normalize_weights,
    omega,
    piece_dim,
    presentation,
    presentation_weights,
    smul,
    sub,
    zero,
)
from .linalg import GraphEchelon

Scalar = Union[int, Fraction]
Coefficient = Union[Fraction, str]


@dataclass(frozen=True)
class Arrow:
    source: int
    target: int
    label: int  # 1-based generator index in the presentation


@dataclass(frozen=True)
class Relation:
    """Formal sum of paths; each path is a tuple of arrow indices, source to target."""

    coeffs: tuple[Coefficient, ...]
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[GroupElement, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]
    ws: Optional[WeightSystem] = field(default=None, compare=False)


def is_acyclic(vertex_count: int, arrows: Iterable[Arrow]) -> bool:
    """Whether arrows (anything with `source` and `target` in
    range(vertex_count)) form no oriented cycle, by Kahn peeling."""
    indeg = [0] * vertex_count
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for a in arrows:
        adj[a.source].append(a.target)
        indeg[a.target] += 1
    layer = [v for v in range(vertex_count) if indeg[v] == 0]
    seen = 0
    while layer:
        v = layer.pop()
        seen += 1
        for t in adj[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                layer.append(t)
    return seen == vertex_count


def check_convex(ws: WeightSystem, elements: Sequence[GroupElement]) -> bool:
    """Whether x <= y <= z with x, z in the set forces y into the set.

    Every y >= x is reached from x by steps +x_i and +c, so a gap shows up as
    a one-step successor of a member that leaves the set while staying below
    some member.  It suffices to compare the leaving successors with the
    locally maximal members T, those none of whose successors stay in the
    set: climbing from any member through successors inside the set rises
    strictly and ends in T.  For an interval T is its top alone.
    """
    members = set(elements)
    steps = [gen_x(ws, i) for i in range(1, ws.n + 1)] + [gen_c(ws)]
    outside, tops = set(), []
    for x in members:
        leaving = [s for s in (add(ws, x, g) for g in steps) if s not in members]
        outside.update(leaving)
        if len(leaving) == len(steps):
            tops.append(x)
    return not any(leq(ws, s, t) for s in outside for t in tops)


def _symbolic_coeff(i: int, j: int) -> str:
    return f"-lambda[{i}][{j}]"


def i_canonical_quiver(
    ws: WeightSystem, elements: Sequence[GroupElement]
) -> Quiver:
    """Quiver with relations presenting A^I for a finite convex I.

    Arrows x -> x + x_i for every presentation generator; commutativity
    relations wherever both length-two paths exist, and one hypersurface
    relation per non-coordinate hyperplane at every x with x + c in I.
    Relation coefficients stay symbolic unless the weight system carries
    numeric hyperplane rows.
    """
    base, gens = presentation(ws)
    verts = tuple(dict.fromkeys(elements))
    if len(verts) != len(elements):
        raise ValueError("interval contains repeated vertices")
    vindex = {v: i for i, v in enumerate(verts)}
    if not check_convex(base, verts):
        raise ValueError("vertex set is not convex")
    n_pres = len(gens)
    pres_weights = presentation_weights(ws)

    arrows = []
    arrow_index: dict[tuple[int, int], int] = {}
    for label in range(1, n_pres + 1):
        g = gens[label - 1]
        for vi, v in enumerate(verts):
            t = add(base, v, g)
            ti = vindex.get(t)
            if ti is not None:
                arrow_index[(label, vi)] = len(arrows)
                arrows.append(Arrow(vi, ti, label))

    def path(start: int, labels: Sequence[int]) -> Optional[tuple[int, ...]]:
        out = []
        cur = start
        for lab in labels:
            ai = arrow_index.get((lab, cur))
            if ai is None:
                return None
            out.append(ai)
            cur = arrows[ai].target
        return tuple(out)

    relations = []
    for i, j in itertools.combinations(range(1, n_pres + 1), 2):
        for vi in range(len(verts)):
            pij = path(vi, (i, j))
            pji = path(vi, (j, i))
            if pij is not None and pji is not None:
                relations.append(
                    Relation((Fraction(1), Fraction(-1)), (pij, pji))
                )
    for i in range(base.d + 2, n_pres + 1):
        p_i = pres_weights[i - 1]
        row = base.lam[i - base.d - 2] if base.lam is not None else None
        for vi in range(len(verts)):
            main = path(vi, (i,) * p_i)
            if main is None:
                continue
            coeffs: list[Coefficient] = [Fraction(1)]
            paths = [main]
            for j in range(1, base.d + 2):
                pj = path(vi, (j,) * pres_weights[j - 1])
                if pj is None:
                    raise AssertionError("convexity guarantees comparison paths")
                coeffs.append(-row[j - 1] if row is not None else _symbolic_coeff(i, j - 1))
                paths.append(pj)
            relations.append(Relation(tuple(coeffs), tuple(paths)))
    return Quiver(verts, tuple(arrows), tuple(relations), ws=base)


def _cm_top(base: WeightSystem) -> GroupElement:
    return add(base, smul(base, base.d, gen_c(base)), smul(base, 2, omega(base)))


def cm_interval(ws: WeightSystem) -> list[GroupElement]:
    """The interval [0, d*c + 2*omega] indexing the stable tilting summands."""
    base = normalize_weights(ws)
    return interval(base, zero(base), _cm_top(base))


def cm_interval_size(ws: WeightSystem) -> int:
    base = normalize_weights(ws)
    return interval_size(base, zero(base), _cm_top(base))


def canonical_interval(ws: WeightSystem) -> list[GroupElement]:
    base = normalize_weights(ws)
    return interval(base, zero(base), smul(base, base.d, gen_c(base)))


def canonical_interval_size(ws: WeightSystem) -> int:
    base = normalize_weights(ws)
    return interval_size(base, zero(base), smul(base, base.d, gen_c(base)))


def cartan_matrix(ws: WeightSystem, elements: Sequence[GroupElement]) -> list[list[int]]:
    """dim R_{x - y}; x - y has free part x.free - y.free - #{i : x_i < y_i}."""

    def dim(x: GroupElement, y: GroupElement) -> int:
        f = x.free - y.free - sum(map(operator.lt, x.torsion, y.torsion))
        return math.comb(f + ws.d, ws.d) if f >= 0 else 0

    return [[dim(x, y) for y in elements] for x in elements]


@dataclass(frozen=True)
class StructureAlgebra:
    """Multiplication table of A^I on its monomial basis over exact rationals;
    the coefficients are ints when the hyperplane rows are integral.

    Basis elements are triples (source vertex, target vertex, exponent tuple)
    where the exponents encode a monomial of degree source - target in the
    normalized polynomial presentation of R.  The table maps a pair of basis
    positions to a sparse combination of basis positions.
    """

    ws: WeightSystem
    vertices: tuple[GroupElement, ...]
    pres_weights: tuple[int, ...]
    lam_rows: tuple[tuple[Scalar, ...], ...]
    basis: tuple[tuple[int, int, tuple[int, ...]], ...]
    index: dict[tuple[int, int, tuple[int, ...]], int] = field(compare=False)
    by_pair: dict[tuple[int, int], tuple[int, ...]] = field(compare=False)
    # multiply's results by (a, b); callers only read the dicts it returns
    products: dict[tuple[int, int], dict[int, Scalar]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def degree_order(self) -> list[int]:
        """The vertex indices by increasing `delta_l`.  A nonzero e_x A e_y
        with x != y has x - y effective and nonzero, so delta(x) > delta(y)."""
        return sorted(range(len(self.vertices)), key=lambda v: delta_l(self.ws, self.vertices[v]))

    def reduce_monomial(self, exps: Sequence[int]) -> dict[tuple[int, ...], Scalar]:
        """Rewrite X_i^{p_i} for non-coordinate i until exponents are in range."""
        d = self.ws.d
        pending = {tuple(exps): 1}
        done: dict[tuple[int, ...], Scalar] = {}
        while pending:
            nxt: dict[tuple[int, ...], Scalar] = {}
            for e, coeff in pending.items():
                hot = next(
                    (
                        i
                        for i in range(d + 1, len(e))
                        if e[i] >= self.pres_weights[i]
                    ),
                    None,
                )
                if hot is None:
                    done[e] = done.get(e, 0) + coeff
                    continue
                row = self.lam_rows[hot - d - 1]
                for j in range(d + 1):
                    if row[j] == 0:
                        continue
                    e2 = list(e)
                    e2[hot] -= self.pres_weights[hot]
                    e2[j] += self.pres_weights[j]
                    key = tuple(e2)
                    nxt[key] = nxt.get(key, 0) + coeff * row[j]
            pending = {k: v for k, v in nxt.items() if v}
        return {k: v for k, v in done.items() if v}

    def multiply(self, a: int, b: int) -> dict[int, Scalar]:
        """Product of basis elements a * b, zero unless the middle vertices
        match; computed once per pair and kept in `products`."""
        cached = self.products.get((a, b))
        if cached is not None:
            return cached
        xa, ya, ea = self.basis[a]
        xb, yb, eb = self.basis[b]
        if ya != xb:
            return {}
        out: dict[int, Scalar] = {}
        for e, coeff in self.reduce_monomial(
            [u + v for u, v in zip(ea, eb)]
        ).items():
            pos = self.index.get((xa, yb, e))
            if pos is None:
                raise AssertionError("product fell outside the monomial basis")
            out[pos] = out.get(pos, 0) + coeff
        out = self.products[(a, b)] = {k: v for k, v in out.items() if v}
        return out


def _graded_monomials(
    d: int, pres_weights: tuple[int, ...], degree: GroupElement
) -> list[tuple[int, ...]]:
    """Basis monomials of R in a given degree, exponent-lex order.

    Exponents of non-coordinate variables are pinned by the torsion normal
    form; coordinate variables i <= d+1 range over a_i + p_i * b_i with the
    b_i summing to the free coordinate.
    """
    if degree.free < 0:
        return []
    n_pres = len(pres_weights)
    tors = degree.torsion + (0,) * (n_pres - len(degree.torsion))
    out = []
    for split in _compositions(degree.free, d + 1):
        exps = [tors[i] + pres_weights[i] * split[i] for i in range(d + 1)]
        exps += [tors[i] for i in range(d + 1, n_pres)]
        out.append(tuple(exps))
    out.sort()
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def structure_constants(ws: WeightSystem, elements: Sequence[GroupElement]) -> StructureAlgebra:
    """Build A^I with numeric hyperplane coefficients in general position:
    the rows of `ws.lam`, checked here, else `generic_lambda`, which checks
    its own rows."""
    base, _ = presentation(ws)
    if not check_convex(base, elements):
        raise ValueError("vertex set is not convex")
    pres_weights = presentation_weights(ws)
    need_rows = max(0, base.n - base.d - 1)
    if need_rows:
        if base.lam is None:
            lam_rows = generic_lambda(base.d, base.weights).lam
        elif general_position_ok(base):
            lam_rows = base.lam
        else:
            raise ValueError("hyperplane coefficients are not in general position")
    else:
        lam_rows = ()
    # Integral rows (Vandermonde ones always) as ints keep every product an int.
    lam_rows = tuple(
        tuple(v.numerator if v.denominator == 1 else v for v in row) for row in lam_rows
    )

    verts = tuple(dict.fromkeys(elements))
    basis: list[tuple[int, int, tuple[int, ...]]] = []
    by_pair: dict[tuple[int, int], list[int]] = {}
    expected = 0
    for xi, x in enumerate(verts):
        for yi, y in enumerate(verts):
            degree = sub(base, x, y)
            expected += piece_dim(base, degree)
            monos = _graded_monomials(base.d, pres_weights, degree)
            if monos:
                by_pair[(xi, yi)] = list(
                    range(len(basis), len(basis) + len(monos))
                )
                basis.extend((xi, yi, m) for m in monos)
    alg = StructureAlgebra(
        ws=base,
        vertices=verts,
        pres_weights=pres_weights,
        lam_rows=lam_rows,
        basis=tuple(basis),
        index={b: k for k, b in enumerate(basis)},
        by_pair={k: tuple(v) for k, v in by_pair.items()},
    )
    if alg.dim != expected:
        raise AssertionError("basis size disagrees with the Cartan count")
    return alg


def associativity_spot_check(alg: StructureAlgebra) -> bool:
    """(ab)c == a(bc) on 60 seeded random triples of basis elements."""
    rng = random.Random(7)
    dim = alg.dim
    for _ in range(60):
        a, b, c = (rng.randrange(dim) for _ in range(3))
        left = _combine(alg, alg.multiply(a, b), c, right=True)
        right = _combine(alg, alg.multiply(b, c), a, right=False)
        if left != right:
            return False
    return True


def _combine(alg, partial: dict[int, Scalar], other: int, right: bool):
    out: dict[int, Scalar] = {}
    for pos, coeff in partial.items():
        prod = alg.multiply(pos, other) if right else alg.multiply(other, pos)
        for q, v in prod.items():
            out[q] = out.get(q, 0) + coeff * v
    return {k: v for k, v in out.items() if v}


class _FreeModule:
    """Direct sum of projectives A e_{v_i}, graded by target vertex of basis triples."""

    def __init__(self, alg: StructureAlgebra, summands: Sequence[int]):
        self.alg = alg
        self.slot: dict[int, list[tuple[int, int]]] = {
            v: [] for v in range(len(alg.vertices))
        }
        for comp, v in enumerate(summands):
            for x in range(len(alg.vertices)):
                for pos in alg.by_pair.get((x, v), ()):
                    self.slot[x].append((comp, pos))
        self.offset: dict[int, dict[tuple[int, int], int]] = {
            x: {key: k for k, key in enumerate(pairs)}
            for x, pairs in self.slot.items()
        }

    def dim_at(self, vertex: int) -> int:
        return len(self.slot[vertex])

    def act(self, a: int, vertex: int, column: list[Scalar]) -> tuple[int, list[Scalar]]:
        """Left action of basis element a on a column supported at `vertex`."""
        xa, ya, _ = self.alg.basis[a]
        if ya != vertex:
            raise ValueError("action source vertex mismatch")
        out = [0] * self.dim_at(xa)
        for k, coeff in enumerate(column):
            if not coeff:
                continue
            comp, pos = self.slot[vertex][k]
            for q, v in self.alg.multiply(a, pos).items():
                out[self.offset[xa][(comp, q)]] += coeff * v
        return xa, out


def _resolution_step(alg: StructureAlgebra, free: _FreeModule, cols_by_vertex):
    """Minimal generators (vertex, column) of the submodule M of `free` with
    the basis `cols_by_vertex` at each vertex (vertices where M is zero are
    absent), their projective cover, and the cover's kernel in the same form.

    Vertices are visited by increasing degree.  At x, the images b*g of the
    generators g found so far, for b in e_x A e_{v_g}, span (J*M)_x: the
    radical part of e_x A e_y is zero unless delta(y) < delta(x), and each
    earlier M_y is spanned by such images and its own generators.  The
    images are also the cover map at x on the earlier summands, and the new
    generators at x, independent of the images, fill its last slots; so the
    kernel at x is the null space of the images, padded with zeros, and
    there are new generators only when dim M_x exceeds the images' rank.
    """
    gens: list[tuple[int, list[Scalar]]] = []
    kernel_cols = {}
    for x in alg.degree_order:
        images = [
            free.act(b, v, col)[1] for v, col in gens for b in alg.by_pair.get((x, v), ())
        ]
        if not images and x not in cols_by_vertex:
            continue
        graph = GraphEchelon(images, free.dim_at(x))
        kernel, cols, new = graph.kernel(), cols_by_vertex.get(x, []), []
        if len(cols) > len(images) - len(kernel):  # else the images span M_x
            new = [col for col in cols if graph.extend_image(col)]
        if kernel:
            kernel_cols[x] = [row + [0] * len(new) for row in kernel]
        gens += [(x, col) for col in new]
    return gens, _FreeModule(alg, [v for v, _ in gens]), kernel_cols


def minimal_resolution_profile(alg: StructureAlgebra, vertex: int) -> list[list[int]]:
    """Vertex indices, in increasing order, of the projective cover summands
    in each homological degree of the minimal resolution of the simple at
    `vertex`."""
    free = _FreeModule(alg, [vertex])
    cols = {  # rad P_vertex: every basis column off the vertex itself
        x: [[int(k == j) for k in range(dim)] for j in range(dim)]
        for x in range(len(alg.vertices))
        if x != vertex and (dim := free.dim_at(x))
    }
    profile = [[vertex]]
    while cols:
        gens, free, cols = _resolution_step(alg, free, cols)
        profile.append(sorted(v for v, _ in gens))
    return profile


def global_dimension(alg: StructureAlgebra) -> int:
    """Max projective-resolution length over simples, by radical-kernel linear algebra."""
    return max(
        len(minimal_resolution_profile(alg, v)) - 1
        for v in range(len(alg.vertices))
    )


def cm_tensor_check(ws: WeightSystem) -> bool:
    """For n = d+2: the stable interval quiver is the product of equioriented
    type-A line quivers under the coordinate identification, with exactly the
    commutativity relations."""
    base = normalize_weights(ws)
    if base.n != base.d + 2:
        raise ValueError("tensor decomposition check requires n = d + 2")
    box = cm_interval(base)
    quiver = i_canonical_quiver(base, box)
    coords = {}
    for vi, v in enumerate(quiver.vertices):
        if v.free != 0 or any(
            a > p - 2 for a, p in zip(v.torsion, base.weights)
        ):
            return False
        coords[vi] = v.torsion
    if len(set(coords.values())) != len(box) or len(box) != math.prod(
        p - 1 for p in base.weights
    ):
        return False
    expected_arrows = set()
    for tup in itertools.product(*(range(p - 1) for p in base.weights)):
        for i, p in enumerate(base.weights):
            if tup[i] + 1 <= p - 2:
                bumped = tuple(
                    a + 1 if k == i else a for k, a in enumerate(tup)
                )
                expected_arrows.add((tup, bumped, i + 1))
    actual_arrows = {
        (coords[a.source], coords[a.target], a.label) for a in quiver.arrows
    }
    if actual_arrows != expected_arrows:
        return False
    expected_relations = set()
    for tup in itertools.product(*(range(p - 1) for p in base.weights)):
        for i, j in itertools.combinations(range(len(base.weights)), 2):
            if tup[i] + 1 <= base.weights[i] - 2 and tup[j] + 1 <= base.weights[j] - 2:
                expected_relations.add((tup, i + 1, j + 1))
    actual_relations = set()
    for rel in quiver.relations:
        if len(rel.paths) != 2 or sorted(rel.coeffs) != [Fraction(-1), Fraction(1)]:
            return False
        path = rel.paths[0]
        if len(path) != 2:
            return False
        first = quiver.arrows[path[0]]
        second = quiver.arrows[path[1]]
        labels = tuple(sorted((first.label, second.label)))
        actual_relations.add((coords[first.source], labels[0], labels[1]))
    return actual_relations == expected_relations
