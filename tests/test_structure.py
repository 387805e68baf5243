"""The backend seam, read off the source: code outside the backends asks the
protocol, never a backend class, and neither ``core`` nor the law bodies in
``laws`` depend on ``rays``; a run executes only the package files it needs,
and no module imports ``dataclasses``, which would load ``inspect`` into
every run; the formula nodes share one ``==`` and hash; the package exports
the same public names, each with a caller in the package; every module stays
small enough for the parser's first token array; no module imports a name it
never uses, and no module-level function or class goes unused; the finite
backend finds negations and point measurements by index lookup; ray
composites multiply rational matrices only in ``compose_raw``; classicality
and the negation laws are read off the protocol, with no backend hook and no
caught exception; the README's synopsis names the options the parser defines,
and its library example runs as printed."""

import argparse
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import malgebra
from malgebra import formulas
from malgebra.cli import build_parser
from malgebra.ratlin import Ray

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "malgebra"
MODULES = sorted(PACKAGE.glob("*.py"))
BACKENDS = {"FiniteAlgebra", "RayAlgebra"}
# the algebra and its law bodies, which ``core``'s check entry points run
LAW_MODULES = [PACKAGE / "core.py", PACKAGE / "laws.py"]


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


# Module-level names that nothing in the package names, each kept for a reason.
UNUSED_BY_DESIGN = {
    ("ratlin", "subspace_rays"): "perfbench/tracer.py spans it as ratlin.window",
    ("formulas", "entails"): "perfbench/tracer.py spans it as formulas.entails",
    ("formulas", "essential_function"):
        "perfbench/tracer.py spans it as formulas.essential_function",
}


def test_every_module_level_function_and_class_is_exported_or_used():
    # a name counts as used when the package names it outside its own body;
    # code that only the tests reach belongs in the tests.  Dunder hooks such
    # as the package's ``__getattr__`` are called by the interpreter.
    exported = {(module, name) for module, names in malgebra._EXPORTS.items() for name in names}
    statements = [(path.stem, node, names_in(node)) for path in MODULES
                  for node in parse(path).body]
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        key = (module, node.name)
        if key in exported or key in UNUSED_BY_DESIGN or node.name.startswith("__"):
            continue
        if not any(node.name in names for _, other, names in statements if other is not node):
            unused.append(f"{module}.{node.name}")
    assert unused == []


# Exported names that nothing in the package calls yet, each kept for a reason.
UNCALLED_EXPORTS = {
    ("core", "replay_witness"): "the planned `explain` command replays a witness with it",
    ("order", "classical_commutation_agree"):
        "the paper's central claim, which the `order` command is planned to run",
    ("connectives", "is_classical"):
        "the paper's classicality predicate, which that exact check consumes",
}


def binds(node, name):
    """Whether a module-level statement defines or assigns ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == name for target in targets)


def test_every_exported_name_has_a_caller_in_the_package():
    # the package exports what the CLI runs: a name that only the tests call
    # belongs in the tests
    statements = [(path.stem, node, names_in(node)) for path in MODULES
                  for node in parse(path).body]
    uncalled = {(module, name) for module, names in malgebra._EXPORTS.items() for name in names
                if not any(name in used for owner, node, used in statements
                           if not (owner == module and binds(node, name)))}
    assert uncalled == set(UNCALLED_EXPORTS)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_dataclasses(path):
    # importing it pulls in inspect, ast, dis and tokenize: 6-10 ms and about
    # 1 MB of peak RSS in every run that loads a model
    assert "dataclasses" not in set(imported_names(parse(path))), path.name


def test_formula_nodes_share_one_eq_and_hash():
    # ``_Node`` compares and hashes every node over its ``__match_args__``,
    # with the class in the hash, so And, Or and Implies hash apart
    nodes = [c for c in vars(formulas).values()
             if isinstance(c, type) and issubclass(c, formulas._Node) and c is not formulas._Node]
    assert len(nodes) == 6
    assert [(c.__name__, k) for c in nodes for k in ("__eq__", "__hash__") if k in vars(c)] == []


def test_core_imports_nothing_from_rays():
    for path in LAW_MODULES:
        assert "rays" not in set(imported_names(parse(path))), path.name


def test_ray_composites_have_one_rational_path():
    # ``compose_raw`` is the exact-matrix API; every other composite of the
    # ray backend multiplies integer projections
    tree = parse(PACKAGE / "rays.py")
    raw = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "compose_raw")
    inside = {id(node) for node in ast.walk(raw)}
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inside
             and {"mat_mul", "from_projection"} & names_in(node)]
    assert named == [], f"rays.py multiplies rational matrices at lines {named}"


def test_laws_range_over_one_list_of_state_codes():
    # a backend names only ``state_domain``; fixpoints and zeros are read off
    # ``action``, and checker and replay hand every law its state codes alike
    from malgebra import core, laws

    domains = [f"{path.name}:{node.name}.{item.name}" for path in MODULES
               for node in ast.walk(parse(path)) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)
               and item.name in ("fixpoint_domain", "zero_domain")]
    assert domains == []
    assert not {"_Pinned", "_by_state"} & (set(vars(core)) | set(vars(laws)))
    for pid, (law, _) in laws._LAWS.items():
        assert list(inspect.signature(law).parameters)[:3] == ["alg", "ms", "states"], pid


def test_negation_and_point_measurements_are_index_lookups():
    # the finite backend answers both with one lookup in the mask indexes it
    # builds beside its lanes; no cache or member scan stands behind them
    negations = [f"{path.name}:{node.name}" for path in MODULES
                 for node in ast.walk(parse(path)) if isinstance(node, ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef)
                 and item.name == "negation"]
    assert negations == []
    core = parse(PACKAGE / "core.py")
    assert "_negations" not in names_in(core)
    backend = next(node for node in core.body
                   if isinstance(node, ast.ClassDef) and node.name == "FiniteAlgebra")
    scans = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    lookups = {item.name: item for item in backend.body if isinstance(item, ast.FunctionDef)
               and item.name in ("find_negation", "point_measurement")}
    assert sorted(lookups) == ["find_negation", "point_measurement"]
    for name, item in lookups.items():
        assert not any(isinstance(node, scans) for node in ast.walk(item)), name


def test_classicality_and_the_negation_laws_need_no_backend_hook():
    # classicality is read off ``action`` over the domain, and the negation
    # laws ask ``find_negation`` rather than catch ``negation_of``'s raise;
    # ``Ray`` and ``Subspace`` keep their own ``is_zero``
    hooks = [f"{path.name}:{node.name}.{item.name}" for path in MODULES
             for node in ast.walk(parse(path)) if isinstance(node, ast.ClassDef)
             and node.name in BACKENDS | {"MAlgebra"} for item in node.body if isinstance(item, ast.FunctionDef)
             and item.name in ("is_zero", "is_classical", "commutation_probes")]
    assert hooks == []
    laws = {node.name: node for path in LAW_MODULES for node in parse(path).body
            if isinstance(node, ast.FunctionDef)}
    for name in ("_negation", "_double_negation"):
        assert not any(isinstance(node, ast.Try) for node in ast.walk(laws[name])), name


def test_core_never_compares_a_backend_kind():
    compares = [f"{path.name}:{node.lineno}" for path in LAW_MODULES for node in ast.walk(parse(path))
                if isinstance(node, ast.Compare) and "kind" in names_in(node)]
    assert compares == []


def parser_tokens(path):
    """The tokens the parser reads: ``tokenize``'s, without comments, blank
    lines and the encoding marker."""
    with path.open("rb") as handle:
        return sum(1 for tok in tokenize.tokenize(handle.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_stays_under_the_parser_token_step(path):
    # Past 8,192 tokens CPython's parser doubles its token array, which adds
    # 0.2-0.5 MB to the peak RSS of every run that compiles the module.
    assert parser_tokens(path) < 8192


# Runs the CLI as ``python -m malgebra.cli`` does, or with "load" first loads a
# model file as the benchmark's set-up probe does, and prints the names of the
# package files whose module code ran (the "exec" audit event of the import).
RUN_CLI = """
import os, runpy, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(
    getattr(args[0], "co_filename", "")))
try:
    if sys.argv[1] == "load":
        from malgebra import cli
        from malgebra.errors import InputError
        try:
            cli.load_model_file(sys.argv[2])
        except InputError:
            pass
    else:
        sys.argv = ["malgebra", *sys.argv[1:]]
        runpy.run_module("malgebra.cli", run_name="__main__")
finally:
    package = os.path.dirname(sys.modules["malgebra"].__file__)
    print("ran:", sorted(os.path.basename(f) for f in ran if os.path.dirname(f) == package),
          file=sys.stderr)
    print("loaded:", sorted({"dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
"""

FRONT = ["__init__.py", "cli.py", "errors.py"]
# a table file refused on its shape, before any algebra is built
BAD_TABLE = '{"kind": "table", "states": ["0"], "zero": "0", "measurements": {"m": {"0": 1}}}'


# Only ``check`` and ``lemmas`` run the law bodies in ``laws.py``.
LOADED = FRONT + ["core.py", "models.py"]


@pytest.mark.parametrize("argv,ran", [
    (["check", "t2", "--loop-n", "0"], FRONT),
    (["load", BAD_TABLE], FRONT + ["models.py"]),
    (["load", "f1"], LOADED),
    (["load", "t2"], LOADED + ["syntax.py"]),
    (["load", "r2"], LOADED + ["ratlin.py", "rays.py"]),
    # an unknown law is refused before the law bodies compile
    (["check", "t2", "--axioms", "bogus"], FRONT + ["core.py"]),
    (["check", "t2"], LOADED + ["laws.py", "syntax.py"]),
    (["lemmas", "t3"], LOADED + ["laws.py", "syntax.py"]),
    (["check", "f1", "--axioms", "all"], LOADED + ["laws.py"]),
    (["check", "r2"], LOADED + ["laws.py", "ratlin.py", "rays.py"]),
    (["order", "f1"], LOADED + ["connectives.py", "order.py"]),
    (["tautology", "t2", "--commuting", "bot,p,q,top", "--depth", "2"],
     LOADED + ["connectives.py", "formulas.py", "logic.py", "syntax.py"]),
    # a malformed formula is refused before the algebra's modules compile
    (["connective", "t2", "--expr", "~~(a", "--bind", "a=p"], FRONT + ["formulas.py", "syntax.py"]),
], ids=["argparse-refusal", "table-refused-on-its-shape", "load-f1", "load-t2", "load-r2",
        "check-unknown-axiom", "check-t2", "lemmas-t3", "check-f1", "check-r2", "order-f1", "tautology-t2",
        "connective-malformed-expr"])
def test_a_run_executes_only_the_package_files_it_needs(tmp_path, argv, ran):
    # ``malgebra`` registers its submodules in sys.modules without running
    # them, so a run compiles only what it touches
    fixtures = PACKAGE.parent.parent / "fixtures"
    if argv[1].startswith("{"):
        (tmp_path / "bad.json").write_text(argv[1], encoding="utf-8")
        argv = ["load", str(tmp_path / "bad.json")]
    else:
        argv = [argv[0], str(fixtures / f"{argv[1]}.json"), *argv[2:]]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv],
                          capture_output=True, text=True, env=env)
    assert f"ran: {sorted(ran)}" in done.stderr.splitlines(), done.stderr


@pytest.mark.parametrize("argv", [
    ["check", "t3"], ["check", "r2"], ["lemmas", "t2_maximal"],
    ["tautology", "t2", "--commuting", "p,q", "--depth", "2"],
], ids=["check-t3", "check-r2", "lemmas-t2_maximal", "tautology-t2"])
def test_a_run_never_imports_dataclasses_or_inspect(argv):
    fixtures = PACKAGE.parent.parent / "fixtures"
    argv = [argv[0], str(fixtures / f"{argv[1]}.json"), *argv[2:]]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "loaded: []" in done.stderr.splitlines(), done.stderr


PUBLIC_NAMES = [
    "ALL_AXIOMS", "BudgetError", "CheckResult", "ClosureViolation", "CommutingSet",
    "DEFINING_AXIOMS", "FiniteAlgebra", "InputError", "LEMMA_IDS", "MAlgebra",
    "Measurement", "NegationViolation", "NotCommutingError", "NotStronglySeparable",
    "OPTIONAL_AXIOMS", "OrderViolation", "ProjectionMeasurement", "Ray", "RayAlgebra",
    "Subspace", "TableMeasurement", "bounds_check", "build_propositional", "build_ray",
    "build_table", "check_axiom", "check_axioms", "classical_commutation_agree", "commutes",
    "compose_raw", "conjunction", "disjunction", "eval_formula", "extent",
    "implication", "is_classical", "lemma_suite", "leq", "load_model", "membership",
    "negation_of", "orthomodular_check", "parse_formula", "point_measurement", "preserves",
    "preserves_pointwise", "projection_matrix", "rational", "replay_witness",
    "strong_sep_check", "top_bot", "verify_schemes", "verify_tautology_theorem",
]


def test_every_exported_name_resolves_to_its_modules_object():
    exports = malgebra._EXPORTS
    assert sorted(name for names in exports.values() for name in names) == PUBLIC_NAMES
    assert malgebra.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(malgebra))
    for module, names in exports.items():
        owner = importlib.import_module(f"malgebra.{module}")
        for name in names:
            assert getattr(malgebra, name) is getattr(owner, name), name


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


def test_readme_library_block_runs_and_gives_what_its_comments_say(monkeypatch):
    # each bare expression of the block is evaluated for its value; the
    # comments promise those values and that ``extent`` gives sets of rays
    root = PACKAGE.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(root)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert values == ["sampled_pass", "pdp", "bot", "pass"]
    sets = [namespace[name] for name in ("fp", "z", "definite")]
    assert all(isinstance(s, frozenset) and s and all(isinstance(x, Ray) for x in s)
               for s in sets)
