"""Seeded inputs and correctness oracles for the benchmark workloads.

A workload is a list of `Call`s; each is one argv for `glci.cli.main`, and one
pass runs every call once.  Seed 0 gives the reference lists below.  Any other
seed draws a variant of every weight system: the weights in a random order
and, where two equal weights are at least 10, sometimes one of them lowered by
one and the other raised by one.  So (d, n) never changes and interval sizes
and ranks change by at most 1%, which keeps the work per pass the same across
seeds.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 0

System = tuple[int, tuple[int, ...]]

WORKLOADS = ("suite", "info-ladder", "verify")

# Eleven `glci info` rungs, from trivial to (2;15,15,15,15).  (2;20,20,20,20)
# takes about 12 s, two thirds of a pass, so at most one pass would fit in a
# run and the median call would rest on 12 samples; (2;30,30,30,30,30) does not
# finish in bounded time.
INFO_LADDER: tuple[System, ...] = (
    (1, (2, 3, 5)),
    (1, (2, 3, 7, 43)),
    (2, (7, 11, 13)),
    (3, (2, 2, 2, 2, 2)),
    (2, (5, 5, 5, 5)),
    (3, (4, 4, 4, 4, 4)),
    (2, (8, 8, 8, 8)),
    (2, (6, 6, 6, 6, 6)),
    (2, (10, 10, 10, 10)),
    (2, (12, 12, 12, 12)),
    (2, (15, 15, 15, 15)),
)

# Per-system exact verifiers on mid-size systems outside the suite's grid caps.
# Each entry is (argv prefix, systems, text the last output line must hold).
VERIFY: tuple[tuple[tuple[str, ...], tuple[System, ...], str], ...] = (
    (
        ("coxeter", "--check-matrix"),
        ((2, (4, 4, 4, 4)), (2, (5, 5, 5, 5)), (2, (3, 5, 7, 9)), (3, (3, 3, 3, 3, 3)), (2, (7, 11, 13))),
        "matrix route agrees: True",
    ),
    (
        ("mf", "--verify"),
        ((3, (3, 3, 4, 4, 5)), (2, (4, 5, 5, 5)), (3, (2, 3, 3, 3, 4)), (3, (3, 3, 3, 3, 3))),
        "all identities verified",
    ),
    (
        ("suite", "--only", "gldim"),
        ((3, (2, 2, 2, 2, 2)), (3, (2, 3, 3)), (3, (2, 2, 2, 3)), (3, (2, 2, 2, 2))),
        "1/1 checks passed",
    ),
    (
        ("atilde",),
        ((3, (2, 3, 4)), (2, (3, 4, 5)), (3, (2, 2, 2, 2))),
        "non-cut part equals interval quiver: True",
    ),
)

_CHECKS_PASSED = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass(frozen=True)
class Call:
    """One `glci` invocation and what its output must show.

    `kind` picks the oracle: "suite" (the last line is `k/k checks passed`
    with k == `checks`), "info" (the JSON report satisfies the identities)
    or "verify" (the last line contains `expect`).
    """

    argv: tuple[str, ...]
    kind: str
    system: Optional[System] = None
    checks: int = 0
    expect: str = ""


def use_checkout_source() -> None:
    """Import glci from this checkout's src/, never from an installed copy."""
    if not (SRC / "glci" / "__init__.py").is_file():
        raise RuntimeError(f"no glci sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import glci

    if Path(glci.__file__).resolve().parent != (SRC / "glci").resolve():
        raise RuntimeError(f"glci was imported from {glci.__file__}, not from {SRC}")


def parse_system(text: str) -> System:
    d, weights = text.split(";")
    return int(d), tuple(int(p) for p in weights.split(",")) if weights != "-" else ()


def format_system(system: System) -> str:
    d, weights = system
    return f"{d};{','.join(map(str, weights)) or '-'}"


def _ws_args(system: System) -> tuple[str, ...]:
    d, weights = system
    return ("-d", str(d), "-w", ",".join(map(str, weights)) or "-")


def variant(rng: random.Random, system: System) -> System:
    d, weights = system
    w = list(weights)
    rng.shuffle(w)
    pairs = sorted(p for p in set(w) if p >= 10 and w.count(p) >= 2)
    if pairs and rng.random() < 0.5:
        p = rng.choice(pairs)
        i = w.index(p)
        j = w.index(p, i + 1)
        w[i] -= 1
        w[j] += 1
    return d, tuple(w)


def build(workload: str, seed: int) -> list[Call]:
    """The calls of one pass of `workload`; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")

    def vary(system: System) -> System:
        return system if seed == DEFAULT_SEED else variant(rng, system)

    if workload == "suite":
        sample = json.loads((DATA / "suite_sample.json").read_text())
        calls = []
        for battery, systems in sample["narrowed"].items():
            for text in systems:
                system = vary(parse_system(text))
                argv = ("suite", "--only", battery) + _ws_args(system)
                calls.append(Call(argv, "suite", system, checks=1))
        for battery, checks in sample["global"].items():
            calls.append(Call(("suite", "--only", battery), "suite", checks=checks))
        return calls
    if workload == "info-ladder":
        return [
            Call(("info",) + _ws_args(s) + ("--format", "json"), "info", s)
            for s in map(vary, INFO_LADDER)
        ]
    if workload == "verify":
        return [
            Call(prefix + _ws_args(s), "verify", s, expect=expect)
            for prefix, systems, expect in VERIFY
            for s in map(vary, systems)
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def load_goldens(workload: str, seed: int) -> Optional[dict]:
    """Recorded `glci info` reports, compared only at the default seed."""
    if workload != "info-ladder" or seed != DEFAULT_SEED:
        return None
    return json.loads((DATA / "info_ladder_golden.json").read_text())


def check(call: Call, rc: int, out: str, goldens: Optional[dict] = None) -> str:
    """Empty when the call's exit code and output are correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.strip().splitlines()
    last = lines[-1] if lines else ""
    if call.kind == "suite":
        m = _CHECKS_PASSED.match(last)
        if not m or m.group(1) != m.group(2) or int(m.group(2)) != call.checks:
            return f"expected {call.checks}/{call.checks} checks passed, got {last!r}"
        return ""
    if call.kind == "verify":
        return "" if call.expect in last else f"expected {call.expect!r}, got {last!r}"
    return _check_info(call, out, goldens)


def _check_info(call: Call, out: str, goldens: Optional[dict]) -> str:
    from glci.coxeter import coxeter_polynomial
    from glci.grading import WeightSystem

    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    d, weights = call.system
    weights = tuple(p for p in weights if p >= 2)
    degree = coxeter_polynomial(WeightSystem(d, weights)).degree
    if report["k0_rank"] != degree:
        return f"k0_rank {report['k0_rank']} != deg coxeter polynomial {degree}"
    sign = {"Fano": 1, "CalabiYau": 0, "AntiFano": -1}[report["trichotomy"]]
    expected = 0 if sign == 0 else sign * report["coset_count"]
    if report["orlov_delta"] != expected:
        return f"orlov_delta {report['orlov_delta']} != {expected}"
    if len(weights) == d + 2:
        cm_rank = math.prod(p - 1 for p in weights)
        if report["cm_rank"] != cm_rank:
            return f"cm_rank {report['cm_rank']} != {cm_rank}"
    if goldens is not None and report != goldens.get(format_system(call.system)):
        return "report differs from the recorded golden"
    return ""
