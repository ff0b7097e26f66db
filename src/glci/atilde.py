"""Orbit-quiver-with-cut presentation of the canonical interval algebra, n <= d+1.

The quiver lives on the interval [0, d*c], which is a fundamental domain for
the shift by omega.  Each vertex carries one arrow per presentation generator;
an arrow whose honest target leaves the interval has `cut=True` and is
re-targeted at the interval representative of its omega-orbit.  Removing the
cut arrows recovers the interval quiver.  The orbit quiver is a `Quiver`
without relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .grading import WeightSystem, add, omega, presentation
from .algebra import Arrow, Quiver, canonical_interval, i_canonical_quiver, is_acyclic


def atilde_presentation(ws: WeightSystem) -> Quiver:
    if ws.n > ws.d + 1:
        raise ValueError("orbit presentation requires n <= d + 1 after normalization")
    gens, _ = presentation(ws)
    verts = tuple(canonical_interval(ws))
    vindex = {v: i for i, v in enumerate(verts)}
    w = omega(ws)
    arrows = []
    for label, g in enumerate(gens, start=1):
        for vi, v in enumerate(verts):
            t = add(ws, v, g)
            if t in vindex:
                arrows.append(Arrow(vi, vindex[t], label))
            else:
                # For n <= d+1 every generator g has g + omega <= 0, so a target
                # that leaves [0, d*c] comes back into it at exactly t + omega.
                rep = vindex.get(add(ws, t, w))
                if rep is None:
                    raise AssertionError(f"no interval representative found for {t}")
                arrows.append(Arrow(vi, rep, label, cut=True))
    return Quiver(verts, tuple(arrows), ())


@dataclass(frozen=True)
class CutReport:
    acyclic_without_cut: bool
    walks_checked: int
    bad_walks: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.acyclic_without_cut and not self.bad_walks


def verify_cut(ws: WeightSystem, q: Quiver) -> CutReport:
    """Cut axioms: the uncut subquiver is acyclic and every full-label walk
    of length d+1 from any vertex closes up and crosses exactly one cut arrow.
    A walk that meets a vertex without an arrow of its next label is a bad walk.

    The walk count is |V| * (d+1)!, so the check refuses d beyond 5.
    """
    d = ws.d
    if d > 5:
        raise ValueError("walk verification capped at d <= 5")
    nv = len(q.vertices)
    outgoing: dict[tuple[int, int], Arrow] = {}
    for a in q.arrows:
        key = (a.source, a.label)
        if key in outgoing:
            raise AssertionError("more than one arrow per (vertex, label)")
        outgoing[key] = a

    acyclic = is_acyclic(nv, (a for a in q.arrows if not a.cut))
    labels = list(range(1, d + 2))
    bad = []
    walks = 0
    for v in range(nv):
        for perm in itertools.permutations(labels):
            walks += 1
            cur = v
            cuts = 0
            try:
                for lab in perm:
                    arrow = outgoing[cur, lab]
                    cuts += arrow.cut
                    cur = arrow.target
            except KeyError:
                bad.append(f"walk {perm} from vertex {v} finds no arrow labelled {lab} at vertex {cur}")
                continue
            if cur != v:
                bad.append(f"walk {perm} from vertex {v} does not close")
            elif cuts != 1:
                bad.append(f"walk {perm} from vertex {v} crosses {cuts} cut arrows")
    return CutReport(acyclic, walks, tuple(bad))


def noncut_matches_interval_quiver(ws: WeightSystem, q: Quiver) -> bool:
    """The arrows outside the cut are exactly the canonical interval quiver arrows."""
    quiver = i_canonical_quiver(ws, canonical_interval(ws))
    ref = {(a.source, a.target, a.label) for a in quiver.arrows}
    got = {(a.source, a.target, a.label) for a in q.arrows if not a.cut}
    # Vertex orders agree: both use the interval enumeration order.
    return quiver.vertices == q.vertices and ref == got
