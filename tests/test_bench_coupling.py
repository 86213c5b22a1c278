"""The benchmark's tracer wraps cakelab functions by name: each must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"cakelab.{layer}.{name}"
        for layer, funcs in tracing.WRAPPED.items()
        for name in funcs
        if not callable(getattr(importlib.import_module(f"cakelab.{layer}"), name, None))
    ]
    assert missing == []
