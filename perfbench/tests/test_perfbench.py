"""Tests of the benchmark itself: seeded inputs, oracles and the tracer."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import workloads  # noqa: E402
from perfbench.tracer import Tracer, binding_snapshot  # noqa: E402
from perfbench.worker import Loop, run_call  # noqa: E402

workloads.use_checkout_source()

from glci import cli  # noqa: E402
from glci.coxeter import k0_rank  # noqa: E402
from glci.grading import WeightSystem  # noqa: E402


def _rank(system) -> int:
    return k0_rank(WeightSystem(*system))


def _smallest(workload: str) -> workloads.Call:
    calls = [c for c in workloads.build(workload, 0) if c.system is not None]
    return min(calls, key=lambda c: _rank(c.system))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    for seed in (0, 1, 7):
        assert workloads.build(workload, seed) == workloads.build(workload, seed)
    reference = workloads.build(workload, 0)
    for seed in range(1, 6):
        calls = workloads.build(workload, seed)
        assert [c.kind for c in calls] == [c.kind for c in reference]
        for ref, call in zip(reference, calls):
            if ref.system is None:
                assert call == ref
                continue
            (d, w), (d2, w2) = ref.system, call.system
            assert d == d2 and len(w) == len(w2)
            assert abs(_rank(call.system) - _rank(ref.system)) <= 0.01 * _rank(ref.system)


def test_default_seed_uses_the_reference_systems():
    info = workloads.build("info-ladder", 0)
    assert [c.system for c in info] == list(workloads.INFO_LADDER)
    assert any(workloads.build("info-ladder", s) != info for s in range(1, 6))


def test_traced_pass_restores_every_binding_and_reports_every_layer():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    calls = [_smallest(w) for w in ("suite", "info-ladder")]
    before = binding_snapshot()
    tracer = Tracer()
    loop = Loop(calls, None, time.perf_counter())
    result = loop.one_pass(tracer)
    after = binding_snapshot()
    assert result["failed"] == 0
    assert result["scaled_s"] > 0 and len(result["scaled_calls"]) == len(calls)
    assert {k: after.get(k) for k in before} == before
    assert cli.main.__module__ == "glci.cli" and not hasattr(cli.main, "__wrapped__")
    layers = tracer.layer_metrics(1)
    layers.update({"cli.main.failed": 0, "trace.overhead_s": 0.0})
    assert layers["cli.main.calls"] == len(calls)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    assert all(span[2] >= span[1] for span in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_input_passes_its_check(workload):
    call = _smallest(workload)
    goldens = workloads.load_goldens(workload, 0)
    _, rc, out, error = run_call(cli.main, call.argv, 60)
    assert error == ""
    assert workloads.check(call, rc, out, goldens) == ""
    assert workloads.check(call, 1, out, goldens) != ""
    assert workloads.check(call, rc, "0/1 checks passed\n", goldens) != ""


def test_escaping_assertion_is_a_failed_call():
    def main(argv):
        raise AssertionError("invariant broken")

    _, _, _, error = run_call(main, ["info"], 5)
    assert "AssertionError" in error
