"""Quiver presentations and exact linear algebra for interval endomorphism algebras.

An interval algebra A^I packs the graded pieces R_{x-y} for x, y in a finite
convex subset I of the grading group into one finite dimensional algebra.
This module builds its quiver presentation, its multiplication table over
the integers, and a projective-resolution oracle for the global dimension.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .grading import (
    GroupElement,
    WeightSystem,
    add,
    delta_l,
    free_of_difference,
    gen_c,
    gen_x,
    interval,
    interval_size,
    leq,
    omega,
    piece_dim,
    presentation,
    smul,
    sub,
    zero,
)
from .linalg import GraphEchelon, nonsingular

Coefficient = Union[int, str]


@dataclass(frozen=True)
class Arrow:
    source: int
    target: int
    label: int  # 1-based generator index in the presentation
    cut: bool = False  # whether an orbit quiver's arrow crosses the cut


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


def _vertex_tuple(
    ws: WeightSystem, elements: Sequence[GroupElement]
) -> tuple[GroupElement, ...]:
    """The vertices of A^I in the given order, refusing a repeated or
    non-convex vertex set."""
    verts = tuple(dict.fromkeys(elements))
    if len(verts) != len(elements):
        raise ValueError("interval contains repeated vertices")
    if not check_convex(ws, verts):
        raise ValueError("vertex set is not convex")
    return verts


def i_canonical_quiver(
    ws: WeightSystem, elements: Sequence[GroupElement]
) -> Quiver:
    """Quiver with relations presenting A^I for a finite convex I.

    Arrows x -> x + x_i for every presentation generator; commutativity
    relations wherever both length-two paths exist, and one hypersurface
    relation per non-coordinate hyperplane at every x with x + c in I.
    The hypersurface relations keep their coefficients -lambda[i][j] symbolic.
    """
    gens, pres_weights = presentation(ws)
    verts = _vertex_tuple(ws, elements)
    vindex = {v: i for i, v in enumerate(verts)}
    n_pres = len(gens)

    arrows = []
    arrow_index: dict[tuple[int, int], int] = {}
    for label in range(1, n_pres + 1):
        g = gens[label - 1]
        for vi, v in enumerate(verts):
            t = add(ws, v, g)
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
                relations.append(Relation((1, -1), (pij, pji)))
    for i in range(ws.d + 2, n_pres + 1):
        p_i = pres_weights[i - 1]
        for vi in range(len(verts)):
            main = path(vi, (i,) * p_i)
            if main is None:
                continue
            coeffs: list[Coefficient] = [1]
            paths = [main]
            for j in range(1, ws.d + 2):
                pj = path(vi, (j,) * pres_weights[j - 1])
                if pj is None:
                    raise AssertionError("convexity guarantees comparison paths")
                coeffs.append(f"-lambda[{i}][{j - 1}]")
                paths.append(pj)
            relations.append(Relation(tuple(coeffs), tuple(paths)))
    return Quiver(verts, tuple(arrows), tuple(relations))


def _cm_top(ws: WeightSystem) -> GroupElement:
    return add(ws, smul(ws, ws.d, gen_c(ws)), smul(ws, 2, omega(ws)))


def cm_interval(ws: WeightSystem) -> list[GroupElement]:
    """The interval [0, d*c + 2*omega] indexing the stable tilting summands."""
    return interval(ws, zero(ws), _cm_top(ws))


def cm_interval_size(ws: WeightSystem) -> int:
    return interval_size(ws, zero(ws), _cm_top(ws))


def canonical_interval(ws: WeightSystem) -> list[GroupElement]:
    return interval(ws, zero(ws), smul(ws, ws.d, gen_c(ws)))


def canonical_interval_size(ws: WeightSystem) -> int:
    return interval_size(ws, zero(ws), smul(ws, ws.d, gen_c(ws)))


def cartan_matrix(ws: WeightSystem, elements: Sequence[GroupElement]) -> list[list[int]]:
    """dim R_{x - y}, read off the free part of x - y."""

    def dim(x: GroupElement, y: GroupElement) -> int:
        f = free_of_difference(x, y)
        return math.comb(f + ws.d, ws.d) if f >= 0 else 0

    return [[dim(x, y) for y in elements] for x in elements]


@dataclass(frozen=True)
class StructureAlgebra:
    """Multiplication table of A^I on its monomial basis over the integers,
    with the integer hyperplane rows of `generic_rows`.

    Basis elements are triples (source vertex, target vertex, exponent tuple)
    where the exponents encode a monomial of degree source - target in the
    padded polynomial presentation of R.  The table maps a pair of basis
    positions to a sparse combination of basis positions.
    """

    ws: WeightSystem
    vertices: tuple[GroupElement, ...]
    pres_weights: tuple[int, ...]
    lam_rows: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, int, tuple[int, ...]], ...]
    index: dict[tuple[int, int, tuple[int, ...]], int] = field(compare=False)
    by_pair: dict[tuple[int, int], tuple[int, ...]] = field(compare=False)
    # multiply's results by (a, b), and reduce_monomial's by exponent tuple;
    # callers only read the dicts they return.  Not init fields, so a
    # `dataclasses.replace` copy starts with empty memos of its own.
    products: dict[tuple[int, int], dict[int, int]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    reductions: dict[tuple[int, ...], dict[tuple[int, ...], int]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def degree_order(self) -> list[int]:
        """The vertex indices by increasing `delta_l`.  A nonzero e_x A e_y
        with x != y has x - y effective and nonzero, so delta(x) > delta(y)."""
        return sorted(range(len(self.vertices)), key=lambda v: delta_l(self.ws, self.vertices[v]))

    def reduce_monomial(self, exps: Sequence[int]) -> dict[tuple[int, ...], int]:
        """Rewrite X_i^{p_i} for non-coordinate i until exponents are in range."""
        d = self.ws.d
        pending = {tuple(exps): 1}
        done: dict[tuple[int, ...], int] = {}
        while pending:
            nxt: dict[tuple[int, ...], int] = {}
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
                    e2 = list(e)
                    e2[hot] -= self.pres_weights[hot]
                    e2[j] += self.pres_weights[j]
                    key = tuple(e2)
                    nxt[key] = nxt.get(key, 0) + coeff * row[j]
            pending = {k: v for k, v in nxt.items() if v}
        return {k: v for k, v in done.items() if v}

    def multiply(self, a: int, b: int) -> dict[int, int]:
        """Product of basis elements a * b, zero unless the middle vertices
        match; computed once per pair and kept in `products`.  The product
        monomial recurs across vertex pairs, so its reduction is computed
        once per exponent tuple and kept in `reductions`."""
        cached = self.products.get((a, b))
        if cached is not None:
            return cached
        xa, ya, ea = self.basis[a]
        xb, yb, eb = self.basis[b]
        if ya != xb:
            return {}
        exps = tuple(map(operator.add, ea, eb))
        reduced = self.reductions.get(exps)
        if reduced is None:
            reduced = self.reductions[exps] = self.reduce_monomial(exps)
        out: dict[int, int] = {}
        for e, coeff in reduced.items():
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


def general_position_ok(rows: Sequence[Sequence[int]]) -> bool:
    """All minors of every size of the hyperplane coefficient rows are
    nonzero: the rows' hyperplanes and the coordinate ones are in general
    position."""
    cols = len(rows[0]) if rows else 0
    return all(
        nonsingular([[rows[i][j] for j in ci] for i in ri])
        for k in range(1, min(len(rows), cols) + 1)
        for ri in itertools.combinations(range(len(rows)), k)
        for ci in itertools.combinations(range(cols), k)
    )


def generic_rows(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Integer coefficient rows for the hyperplanes of index d+2..n, the first
    d+1 being coordinate hyperplanes: Vandermonde rows (1, t, ..., t^d) at the
    distinct positive nodes t = 2, 3, ..., so every minor of every size is
    positive; the check is still run."""
    rows = tuple(tuple(t**j for j in range(d + 1)) for t in range(2, n - d + 1))
    if not general_position_ok(rows):
        raise AssertionError(f"Vandermonde rows not in general position for d={d}, n={n}")
    return rows


def structure_constants(ws: WeightSystem, elements: Sequence[GroupElement]) -> StructureAlgebra:
    """Build A^I with the integer hyperplane rows of `generic_rows`, which are
    in general position, so every structure constant is an int."""
    verts = _vertex_tuple(ws, elements)
    _, pres_weights = presentation(ws)
    basis: list[tuple[int, int, tuple[int, ...]]] = []
    by_pair: dict[tuple[int, int], list[int]] = {}
    monomials: dict[GroupElement, list[tuple[int, ...]]] = {}  # by degree, for this call
    expected = 0
    for xi, x in enumerate(verts):
        for yi, y in enumerate(verts):
            if free_of_difference(x, y) < 0:
                continue  # R_{x - y} = 0: no basis element, no Cartan count
            degree = sub(ws, x, y)
            expected += piece_dim(ws, degree)  # per pair: the check below counts each pair
            monos = monomials.get(degree)
            if monos is None:
                monos = monomials[degree] = _graded_monomials(ws.d, pres_weights, degree)
            if monos:
                by_pair[(xi, yi)] = list(
                    range(len(basis), len(basis) + len(monos))
                )
                basis.extend((xi, yi, m) for m in monos)
    alg = StructureAlgebra(
        ws=ws,
        vertices=verts,
        pres_weights=pres_weights,
        lam_rows=generic_rows(ws.d, ws.n),
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


def _combine(alg, partial: dict[int, int], other: int, right: bool):
    out: dict[int, int] = {}
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

    def act(self, a: int, vertex: int, column: list[int]) -> tuple[int, list[int]]:
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
    gens: list[tuple[int, list[int]]] = []
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
    """Max projective dimension of the simples at the minimal vertices.  For
    A^I with I convex, the minimal resolution of S_v is that of S_w, w <= v,
    translated by v - w (e_x A e_y = R_{x-y}) and restricted to I, so it is no
    longer (README, Conventions); other algebras need every vertex."""
    minimal = set(range(len(alg.vertices))).difference(x for x, y in alg.by_pair if x != y)
    return max(len(minimal_resolution_profile(alg, w)) - 1 for w in minimal)


def cm_tensor_check(ws: WeightSystem) -> bool:
    """For n = d+2: the stable interval quiver is the product of equioriented
    type-A line quivers under the coordinate identification, with exactly the
    commutativity relations.  The stable top d*c + 2*omega is (p_i - 2; 0),
    so the vertices, arrows and commuting squares expected are read off the
    box {t : 0 <= t_i <= p_i - 2}, and the quiver must have each exactly once."""
    if ws.n != ws.d + 2:
        raise ValueError("tensor decomposition check requires n = d + 2")
    quiver = i_canonical_quiver(ws, cm_interval(ws))
    box = set(itertools.product(*(range(p - 1) for p in ws.weights)))
    coords = [v.torsion for v in quiver.vertices]
    if any(v.free for v in quiver.vertices) or len(coords) != len(box) or set(coords) != box:
        return False
    # steps[t]: the coordinates i along which t + e_i stays in the box
    steps = {t: [i for i, p in enumerate(ws.weights) if t[i] < p - 2] for t in box}
    arrows = {(t, t[:i] + (t[i] + 1,) + t[i + 1 :], i + 1) for t in box for i in steps[t]}
    if len(quiver.arrows) != len(arrows):
        return False
    if {(coords[a.source], coords[a.target], a.label) for a in quiver.arrows} != arrows:
        return False
    squares = set()
    for rel in quiver.relations:
        if len(rel.paths) != 2 or sorted(rel.coeffs) != [-1, 1]:
            return False
        if any(len(path) != 2 for path in rel.paths):
            return False
        # the second path must run b2 then a2, with the labels of b then a
        (a, b), (b2, a2) = ([quiver.arrows[k] for k in path] for path in rel.paths)
        composable = a.target == b.source and b2.target == a2.source
        swapped = (b2.source, a2.target, b2.label, a2.label) == (a.source, b.target, b.label, a.label)
        if not (composable and swapped):
            return False
        squares.add((coords[a.source], *sorted((a.label, b.label))))
    expected = {(t, i + 1, j + 1) for t in box for i, j in itertools.combinations(steps[t], 2)}
    return squares == expected and len(quiver.relations) == len(expected)
