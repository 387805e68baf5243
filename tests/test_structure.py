"""The backend seam, read off the source: code outside the backends asks the
protocol, never a backend class, and ``core`` does not depend on ``rays``; a
table run never executes the ray modules; ``core`` stays small enough for
the parser's first token array; no module imports a name it never uses; the
README's synopsis names the options the parser defines."""

import argparse
import ast
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from malgebra.cli import build_parser

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


def bound_imports(tree):
    """The names each import binds, with its line; ``__future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # ``__init__.py`` imports to re-export; every other module imports to use
    tree = parse(path)
    used = names_in(tree)
    dead = [(name, line) for name, line in bound_imports(tree) if name not in used]
    assert dead == [], f"{path.name} never uses {dead}"


def test_core_imports_nothing_from_rays():
    assert "rays" not in set(imported_names(parse(PACKAGE / "core.py")))


def test_core_never_compares_a_backend_kind():
    compares = [node.lineno for node in ast.walk(parse(PACKAGE / "core.py"))
                if isinstance(node, ast.Compare) and "kind" in names_in(node)]
    assert compares == []


def parser_tokens(path):
    """The tokens the parser reads: ``tokenize``'s, without comments, blank
    lines and the encoding marker."""
    with path.open("rb") as handle:
        return sum(1 for tok in tokenize.tokenize(handle.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))


def test_core_stays_under_the_parser_token_step():
    # Past 8,192 tokens CPython's parser doubles its token array, which adds
    # 0.2-0.5 MB to the peak RSS of every run that compiles core.py.
    assert parser_tokens(PACKAGE / "core.py") < 8192


# Runs the CLI as ``python -m malgebra.cli`` does and prints the names of the
# package files whose module code ran (the "exec" audit event of the import).
RUN_CLI = """
import os, runpy, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(
    os.path.basename(getattr(args[0], "co_filename", ""))))
sys.argv = ["malgebra", *sys.argv[1:]]
try:
    runpy.run_module("malgebra.cli", run_name="__main__")
finally:
    print(sorted(ran & {"ratlin.py", "rays.py"}), file=sys.stderr)
"""


@pytest.mark.parametrize("model,ran", [("t2", "[]"), ("r2", "['ratlin.py', 'rays.py']")])
def test_only_a_ray_model_executes_the_ray_modules(model, ran):
    # ``malgebra`` registers ``ratlin`` and ``rays`` in sys.modules without
    # running them, so a table run never compiles them
    fixture = PACKAGE.parent.parent / "fixtures" / f"{model}.json"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", RUN_CLI, "check", str(fixture)],
                          capture_output=True, text=True, env=env)
    assert done.stderr.splitlines()[-1] == ran, done.stderr


def test_readme_synopsis_names_each_commands_options():
    # ``--format`` is documented once for every command; any other option a
    # command drops must leave its synopsis line too
    readme = PACKAGE.parent.parent / "README.md"
    synopsis = {line.split()[1]: {"--format", *re.findall(r"--[a-z][a-z-]*", line.split("#")[0])}
                for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("malgebra ")}
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert synopsis == {name: {flag for action in p._actions for flag in action.option_strings}
                        - {"-h", "--help"} for name, p in commands.items()}
