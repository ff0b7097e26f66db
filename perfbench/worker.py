"""One workload in its own process: build the inputs, run whole passes of a
closed loop (one client, one `glci.cli.main` call at a time) and check every
output.  Run by `run.py` as `python3 -m perfbench.worker` from the checkout
root.  Prints `ready` once glci is imported and the inputs are built, then a
JSON line with the host's speed scale, then, unless `--setup-only`, one JSON
line with the measurements.

Times are scaled to a nominal host.  On a shared host the CPU speed of this
process swings by up to 1.5x for minutes at a time, as other tenants load the
machine.  So between calls, at least every REF_EVERY_S, the worker times a
fixed integer loop, and each call's seconds are multiplied by REF_NOMINAL_S
over the median of the loop's times from REF_WINDOW_S before the call to
REF_WINDOW_S after it.  Raw seconds are reported next to the scaled ones.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from perfbench import workloads
from perfbench.tracer import Tracer

HARD_LIMIT_S = 150.0  # calls not started by then count as failed
CALL_TIMEOUT_S = 100.0
TRACE_DIR = workloads.ROOT / ".bench_build" / "perfbench"
REF_NOMINAL_S = 0.005  # the reference loop's time on the nominal host
REF_EVERY_S = 0.1
REF_WINDOW_S = 1.0


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python integer loop: the host's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Reference timings taken between calls."""

    def __init__(self):
        self.at: list[float] = []
        self.ref_s: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] > REF_EVERY_S:
            self.ref_s.append(reference_s())
            self.at.append(now)

    def scale(self, start: float, end: float) -> float:
        """Factor to nominal speed for a call that ran from `start` to `end`;
        needs a sample taken after `end`."""
        i = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        j = bisect.bisect_right(self.at, end + REF_WINDOW_S)
        return REF_NOMINAL_S / statistics.median(self.ref_s[i:j])


class CallTimeout(BaseException):
    """Raised in the running call when its time is up; a BaseException so
    that no `except Exception` in the library swallows it."""


def _alarm(signum, frame):
    raise CallTimeout()


def run_call(main, argv, timeout_s: float) -> tuple[float, int, str, str]:
    """Time one `main(argv)` with stdout captured: (seconds, exit code, stdout, error)."""
    out = io.StringIO()
    error = ""
    rc = 1
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(argv))
    except CallTimeout:
        error = f"timed out after {timeout_s:.0f} s"
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an AssertionError can escape glci.cli.main
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return elapsed, rc, out.getvalue(), error


class Loop:
    def __init__(self, calls, goldens, start: float):
        from glci import cli

        self.cli = cli
        self.calls = calls
        self.goldens = goldens
        self.start = start
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.speed = HostSpeed()

    def one_pass(self, tracer: Tracer | None = None) -> dict:
        """Run every call once, then check the outputs.  Returns the raw and
        scaled seconds of the pass and of each call, and the failed calls."""
        results, spans = [], []
        if tracer is not None:
            tracer.install()
        try:
            for i, call in enumerate(self.calls):
                left = HARD_LIMIT_S - self.elapsed()
                if left <= 0:
                    results.append((call, 0.0, 1, "", "not started: time budget spent"))
                    spans.append((0.0, 0.0))
                    continue
                if tracer is not None:
                    tracer.call_id = i
                self.speed.sample()
                start = time.perf_counter()
                # Look up main per call so that a traced pass calls the wrapper.
                results.append((call,) + run_call(self.cli.main, call.argv, min(CALL_TIMEOUT_S, left)))
                spans.append((start, time.perf_counter()))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.speed.sample(force=True)
        # Checks run untraced: the info oracle calls glci itself.
        failed = 0
        for call, _, rc, out, error in results:
            reason = error or workloads.check(call, rc, out, self.goldens)
            if reason:
                failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"glci {' '.join(call.argv)}: {reason}")
        self.attempted += len(results)
        self.failed += failed
        raw = [r[1] for r in results]
        scaled = [t * self.speed.scale(a, b) if t else 0.0 for t, (a, b) in zip(raw, spans)]
        return {
            "raw_s": sum(raw),
            "scaled_s": sum(scaled),
            "raw_calls": raw,
            "scaled_calls": scaled,
            "failed": failed,
        }

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _passes(loop: Loop, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """Whole passes until the next one would end after `seconds` (at least one)."""
    passes = []
    while True:
        passes.append(loop.one_pass(tracer))
        if loop.elapsed() + statistics.median(p["raw_s"] for p in passes) > seconds:
            return passes


def _summary(loop: Loop, passes: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(p["scaled_s"] for p in passes),
        "p50_ms": statistics.median(t for p in passes for t in p["scaled_calls"]) * 1000,
        "raw_wall_s": statistics.median(p["raw_s"] for p in passes),
        "raw_p50_ms": statistics.median(t for p in passes for t in p["raw_calls"]) * 1000,
        "ref_ms": statistics.median(loop.speed.ref_s) * 1000,
        "pass_s": [p["raw_s"] for p in passes],
    }


def measure(loop: Loop, seconds: float) -> dict:
    return {
        **_summary(loop, _passes(loop, seconds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(loop: Loop, seconds: float, trace_path: Path) -> dict:
    """One untraced pass, then traced passes; per-layer numbers are per traced
    pass, in raw seconds."""
    untraced = loop.one_pass()
    tracer = Tracer()
    traced = _passes(loop, seconds, tracer)
    summary = _summary(loop, traced)
    layers = tracer.layer_metrics(len(traced))
    layers["cli.main.failed"] = sum(p["failed"] for p in traced) / len(traced)
    layers["trace.overhead_s"] = summary["wall_s"] - untraced["scaled_s"]
    tracer.write(trace_path, {"untraced_pass_s": untraced["raw_s"], "traced_pass_s": summary["pass_s"]})
    return {
        **summary,
        "pass_s": [untraced["raw_s"]] + summary["pass_s"],
        "layers": layers,
        "trace_file": str(trace_path.relative_to(workloads.ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workloads.use_checkout_source()
    import glci.cli  # noqa: F401  (setup time includes the import)

    calls = workloads.build(args.workload, args.seed)
    goldens = workloads.load_goldens(args.workload, args.seed)
    print("ready", flush=True)
    print(json.dumps({"scale": REF_NOMINAL_S / statistics.median(reference_s() for _ in range(3))}), flush=True)
    if args.setup_only:
        return 0

    loop = Loop(calls, goldens, time.perf_counter())
    if args.trace:
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        result = measure_traced(loop, args.seconds, path)
    else:
        result = measure(loop, args.seconds)
    result.update(
        calls_per_pass=len(calls), attempted=loop.attempted, failed=loop.failed, failures=loop.failures
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
