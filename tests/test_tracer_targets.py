"""The traced benchmark run (bench/tracing.py) rebinds orthospin functions by
name; every name it lists must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("orthospin_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, *_ in tracing.TARGETS:
        mod = importlib.import_module(f"orthospin.{module}")
        assert callable(getattr(mod, attr, None)), f"orthospin.{module}.{attr}"
