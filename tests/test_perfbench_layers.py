"""The benchmark names only functions and verify families that whindex still has."""

import importlib
import importlib.util
import json
from pathlib import Path

from whindex.verify import FAMILIES

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_layer_function_exists():
    # perfbench/run.py --trace 1 wraps each of these in Tracer.install and
    # fails there if one was removed or renamed.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.LAYER_FUNCTIONS
        if not callable(getattr(importlib.import_module(f"whindex.{module}"), name, None))
    ]
    assert tracing.LAYER_FUNCTIONS
    assert missing == []


def test_every_declared_verify_metric_names_a_family():
    # The benchmark times each family of the battery as verify.<family>.wall_ms.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"][len("verify."):-len(".wall_ms")] for m in declared
             if m["name"].startswith("verify.") and m["name"].endswith(".wall_ms")]
    assert len(names) == 22
    assert sorted(names) == sorted(name for name, _, _ in FAMILIES)
