"""Benchmark of the glci command line, end to end and per layer.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 38 --trace 0

runs one workload (`suite`, `info-ladder`, `verify`, or `all` for each in
turn) in its own child process and prints, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.  The
line before it is the run record.  Must be started from the checkout root;
glci is imported from `src/` there.  End-to-end times are scaled to a nominal
host speed (see worker.py); the record holds the raw ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite", "info-ladder", "verify")
SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s, besides the measured one
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its `ready` line: (process, setup seconds,
    the worker's factor from this host's speed to the nominal one)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker"] + args,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _, err = proc.communicate()
        raise BenchError(f"worker failed to start: {(line + err).strip()[-2000:]}")
    return proc, setup, json.loads(proc.stdout.readline())["scale"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, setup, scale = _spawn(common + ["--seconds", "0", "--setup-only"])
        proc.communicate()
        setups.append((setup, scale))
    proc, setup, scale = _spawn(common + ["--seconds", str(seconds), "--trace", str(int(trace))])
    setups.append((setup, scale))
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(t * scale for t, scale in setups)
    result["raw_setup_s"] = statistics.median(t for t, _ in setups)
    return result


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "p50_ms": result["p50_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": 1 - result["failed"] / result["attempted"],
    }


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "glci" / "__init__.py").is_file():
            raise BenchError(f"no glci sources under {ROOT / 'src'}")
        names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        todo = WORKLOADS if args.workload == "all" else (args.workload,)
        budget = RUN_LIMIT_S if len(todo) == 1 else RUN_LIMIT_S * len(todo)
        results = {}
        for workload in todo:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), start + budget
            )
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for workload, result in results.items():
        values = result["layers"] if args.trace else end_to_end(result)
        prefix = f"{workload}." if len(results) > 1 else ""
        for name in names:
            metrics[prefix + name] = {"value": values[name], "unit": units[name]}
        for failure in result["failures"]:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)
        if len(results) > 1:
            for name in names:
                print(f"{workload:<12} {name:<36} {values[name]:>14.6g} {units[name]}")
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(),
        "workloads": {
            w: {
                "calls_per_pass": r["calls_per_pass"],
                "passes": len(r["pass_s"]),
                "pass_s": r["pass_s"],
                "calls": r["attempted"],
                **{k: r[k] for k in ("raw_setup_s", "raw_wall_s", "raw_p50_ms", "ref_ms")},
                **({"trace_file": r["trace_file"]} if args.trace else {}),
            }
            for w, r in results.items()
        },
    }
    print(json.dumps({"record": record}))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
