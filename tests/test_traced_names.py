"""The benchmark's per-layer names keep resolving in the library.

`perfbench/tracer.py` wraps each function named in its `TRACED` table and
each battery in `suite.BATTERIES`, and `BENCHMARK.json` reports their times
under `<module>.<name>`.  A rename in the library would silently drop a layer.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from glci import suite  # noqa: E402
from perfbench.tracer import TRACED  # noqa: E402

TRACED_NAMES = [(module, name) for module, names in TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", TRACED_NAMES, ids=lambda v: v)
def test_traced_name_is_a_function_in_its_module(module, name):
    # a binding counts too: grading.smith_normal_form comes from linalg
    assert inspect.isfunction(getattr(importlib.import_module(f"glci.{module}"), name, None))


def test_every_battery_key_names_a_battery():
    batteries = {
        name: fn
        for name, fn in vars(suite).items()
        if name.startswith("battery_") and inspect.isfunction(fn)
    }
    for key, fn in suite.BATTERIES.items():
        assert batteries.get(fn.__name__) is fn, key
    assert set(batteries.values()) == set(suite.BATTERIES.values())


def test_benchmark_layer_metrics_name_traced_functions_or_batteries():
    layers = {f"{module}.{name}" for module, name in TRACED_NAMES}
    layers |= {f"suite.{key}" for key in suite.BATTERIES}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in metrics:
        prefix, _, _ = metric["name"].rpartition(".")
        assert prefix == "trace" or prefix in layers, metric["name"]
