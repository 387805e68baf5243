"""The backend seam, read off the source: code outside the backends asks the
protocol, never a backend class, and ``core`` does not depend on ``rays``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "malgebra"
MODULES = sorted(PACKAGE.glob("*.py"))
BACKENDS = {"FiniteAlgebra", "RayAlgebra"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_in(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_isinstance_test_names_a_backend_class(path):
    tests = [node.lineno for node in ast.walk(parse(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and BACKENDS & names_in(node)]
    assert tests == [], f"{path.name} asks for a backend class at lines {tests}"


def imported_names(tree):
    """Every dotted part of every module an import names, and what it binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")


def test_core_imports_nothing_from_rays():
    assert "rays" not in set(imported_names(parse(PACKAGE / "core.py")))


def test_core_never_compares_a_backend_kind():
    compares = [node.lineno for node in ast.walk(parse(PACKAGE / "core.py"))
                if isinstance(node, ast.Compare) and "kind" in names_in(node)]
    assert compares == []
