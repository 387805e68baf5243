"""The per-layer tracer in ``perfbench/tracer.py`` wraps library functions and
methods by name from outside the package; every name it lists must exist.

The tuples are read and each target is looked up; nothing is wrapped, except
in one traced CLI run in a child process, which must record the law spans.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_a_traced_check_records_its_law_spans(tmp_path):
    # the tracer finds the submodules in sys.modules after ``import malgebra``
    # and wraps what the CLI then calls
    root = TRACER_PATH.parent.parent
    spans = tmp_path / "spans"
    done = subprocess.run([sys.executable, str(TRACER_PATH.parent / "child.py"), "trace",
                           str(root / "src"), str(spans), "check", str(root / "fixtures" / "t2.json")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    names = json.loads((spans / "header.json").read_text(encoding="utf-8"))["names"]
    assert any(name.startswith("core.check.") for name in names), names
