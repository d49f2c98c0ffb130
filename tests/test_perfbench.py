"""The traced benchmark run (perfbench/spans.py) times layers by rebinding
library names in the modules that call them.  A simplification that deletes
or renames one of those names breaks the traced run; this catches it."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_benchmark_bindings_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # bindings() raises AttributeError naming a binding that no longer exists
    for module, attr, obj in spans.bindings():
        assert callable(obj), f"{module.__name__}.{attr} is not callable"
