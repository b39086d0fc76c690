"""The span tracer of the benchmark names only functions that whindex still has."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
