"""The benchmark's tracer patches attributes of reportsignal's modules by
name; every one it names must exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load_tracing()
    targets = [entry[:2] for entry in tracing.SPANS] + [entry[:2] for entry in tracing.COUNTS]
    assert targets
    missing = [
        f"reportsignal.{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(f"reportsignal.{module}"), attr)
    ]
    assert missing == []
