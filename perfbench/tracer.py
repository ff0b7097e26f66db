"""Layer tracing from outside the library.

`Tracer.install()` replaces each traced glci function by a wrapper that
records a span (name, start, end, parent, call id) and counts calls and
self time.  `from .grading import interval` copies the binding into the
importing module, and the suite keeps its batteries in registry dicts, so the
wrapper is bound in every glci module namespace and registry that holds the
function.  `uninstall()` puts every original object back.

Element-level arithmetic (`normal_form`, `add`, `leq`, ...) runs millions of
times per pass and is not wrapped; its time stays in the caller's self time,
and `grading.interval.candidates` counts the elements tested.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Optional

# Traced functions per glci module.  The suite batteries are added from
# `suite.BATTERIES` and named `suite.<registry name>`.
TRACED = {
    "grading": ("interval", "piece_dim", "smith_normal_form", "coset_data_mod_omega"),
    "algebra": (
        "check_convex",
        "canonical_interval",
        "cm_interval",
        "i_canonical_quiver",
        "cartan_matrix",
        "structure_constants",
        "global_dimension",
    ),
    "coxeter": ("char_poly", "coxeter_polynomial", "omega_action_matrix"),
    "matfac": ("mf_build", "mf_verify", "mf_minor_nonsingular"),
    "atilde": ("atilde_presentation", "verify_cut"),
    "classify": (
        "classification_report",
        "orlov_rank_delta",
        "main2_slice",
        "knoerrer_partner",
        "enumerate_weight_systems",
    ),
    "suite": ("boxed_enumeration_oracle",),
    "cli": ("main",),
}

MAX_SPANS = 100_000


def _containers() -> list[tuple[str, dict]]:
    """Each glci module namespace, plus every module-level dict in it."""
    out = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "glci" and not mod_name.startswith("glci."):
            continue
        ns = vars(module)
        out.append((mod_name, ns))
        out.extend(
            (f"{mod_name}.{key}", value)
            for key, value in ns.items()
            if isinstance(value, dict) and not key.startswith("__")
        )
    return out


def binding_snapshot() -> dict[tuple[str, str], tuple[int, ...]]:
    """Identity of every function bound in a glci namespace or registry,
    directly or inside a tuple, to prove that `uninstall` restored them."""
    snap = {}
    for label, container in _containers():
        for key, value in container.items():
            items = value if isinstance(value, tuple) else (value,)
            if any(callable(v) for v in items):
                snap[(label, str(key))] = tuple(id(v) for v in items)
    return snap


class _Frame:
    __slots__ = ("start", "child", "span")

    def __init__(self, start: float, span: int):
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Spans and per-name totals for one traced run; not thread-safe."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span, call id]
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.call_id = -1
        self._stack: list[_Frame] = []
        self._restore: list[tuple[dict, object, object]] = []
        self._lcm: dict[tuple[int, ...], int] = {}
        self._names: list[str] = []
        self._inclusive: set[str] = set()

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        from glci import suite

        targets: dict[int, Callable] = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"glci.{module}"]
            for name in names:
                fn = getattr(mod, name)
                targets[id(fn)] = self._wrap(f"{module}.{name}", fn)
        for key, fn in suite.BATTERIES.items():
            targets[id(fn)] = self._wrap(f"suite.{key}", fn)
            # A battery's time is its whole span, so the batteries add up to the pass.
            self._inclusive.add(f"suite.{key}")
        if not self._names:
            self._names = [w.__qualname__ for w in targets.values()]
        for _, container in _containers():
            for key, value in list(container.items()):
                if id(value) in targets:
                    container[key] = targets[id(value)]
                    self._restore.append((container, key, value))
                elif isinstance(value, tuple) and any(id(v) in targets for v in value):
                    container[key] = tuple(targets.get(id(v), v) for v in value)
                    self._restore.append((container, key, value))

    def uninstall(self) -> None:
        while self._restore:
            container, key, value = self._restore.pop()
            container[key] = value

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = -1
            if len(self.spans) < MAX_SPANS:
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent.span if parent else -1, self.call_id])
            else:
                self.dropped += 1
            frame = _Frame(clock(), span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                if span >= 0:
                    self.spans[span][1] = frame.start
                    self.spans[span][2] = end
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child
                if parent is not None:
                    parent.child += dur
            if count is not None:
                count(args, result)
                if parent is not None:
                    # Counting is tracing work: keep it out of the parent's self time.
                    parent.child += clock() - end
            return result

        traced.__wrapped__ = fn
        traced.__qualname__ = name
        return traced

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _count_grading_interval(self, args, result) -> None:
        ws, x, y = args
        lcm = self._lcm.get(ws.weights)
        if lcm is None:
            lcm = self._lcm[ws.weights] = math.lcm(*ws.weights)
        free = y.free - x.free
        frac = 0
        for a, b, p in zip(x.torsion, y.torsion, ws.weights):
            q, r = divmod(b - a, p)
            free += q
            frac += r * (lcm // p)
        candidates = math.prod(ws.weights) * (free + frac // lcm + 1) if free >= 0 else 0
        self._add("grading.interval.candidates", candidates)
        self._add("grading.interval.elements", len(result))

    def _count_algebra_check_convex(self, args, result) -> None:
        self._add("algebra.check_convex.members", len(args[1]))

    def _count_coxeter_char_poly(self, args, result) -> None:
        self._add("coxeter.char_poly.n3", len(args[0]) ** 3)

    def _count_atilde_verify_cut(self, args, result) -> None:
        self._add("atilde.verify_cut.walks", result.walks_checked)

    # ------------------------------------------------------------ output

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass `<name>.calls`, `<name>.s` (self time; whole time for a
        suite battery) and counters, with 0 for functions never called."""
        out = {}
        for name in self._names:
            seconds = self.total_s if name in self._inclusive else self.self_s
            out[f"{name}.calls"] = self.calls.get(name, 0) / passes
            out[f"{name}.s"] = seconds.get(name, 0.0) / passes
        for key in ("grading.interval.candidates", "grading.interval.elements",
                    "algebra.check_convex.members", "coxeter.char_poly.n3",
                    "atilde.verify_cut.walks"):
            out[key] = self.counters.get(key, 0) / passes
        candidates = out["grading.interval.candidates"]
        out["grading.interval.yield"] = out["grading.interval.elements"] / candidates if candidates else 0.0
        return out

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans_fields": ["name", "start", "end", "parent", "call"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counters": self.counters,
            **(extra or {}),
        }
        path.write_text(json.dumps(payload))
