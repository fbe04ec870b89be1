"""The benchmark's traced run wraps library functions by name; every name
it lists must still exist in the library."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = []
    for name in tracing.TRACED:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"respectra.{module}"),
                                attr, None)):
            missing.append(name)
    assert missing == []
