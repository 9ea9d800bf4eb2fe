"""The benchmark's tracer wraps module attributes by name; each must exist.

``perfbench/spans.py`` replaces ``svbackend.<module>.<attr>`` for every key
of ``WRAPPED`` (timing pass) and ``PEAKED`` (allocation pass). A rename in
the package would make ``perfbench/run.py --trace 1`` fail, so the names
are checked here against the package itself.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("table", ["WRAPPED", "PEAKED"])
def test_traced_attributes_resolve(table):
    keys = list(getattr(SPANS, table))
    assert keys
    missing = [
        f"svbackend.{module}.{attr}"
        for module, attr in keys
        if not callable(getattr(importlib.import_module(f"svbackend.{module}"), attr, None))
    ]
    assert missing == []
