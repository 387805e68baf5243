"""The per-layer tracer in ``perfbench/tracer.py`` wraps library functions and
methods by name from outside the package; every name it lists must exist.

The tuples are read and each target is looked up; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
FUNCTIONS = sorted({(module, attr) for _, module, attr, _, _ in tracer.SPANS})
METHODS = [(module, cls, method) for _, module, cls, method, _ in tracer.METHOD_SPANS]


@pytest.mark.parametrize("module,attr", FUNCTIONS, ids=[".".join(t) for t in FUNCTIONS])
def test_span_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module("malgebra." + module), attr))


@pytest.mark.parametrize("module,cls,method", METHODS, ids=[".".join(t) for t in METHODS])
def test_method_span_target_resolves(module, cls, method):
    owner = getattr(importlib.import_module("malgebra." + module), cls)
    assert callable(getattr(owner, method))
