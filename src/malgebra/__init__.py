"""Verification toolkit for measurement algebras.

State spaces with idempotent measurement operators, exact rational ray
models, executable axiom and derived-law checks, connectives for commuting
measurements, and a tautology harness comparing algebra evaluation against
an independent truth-table oracle.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# every submodule, with the public names it defines (``laws`` defines none:
# ``core``'s check entry points run it)
_EXPORTS = {
    "connectives": ("CommutingSet", "conjunction", "disjunction", "eval_formula",
                    "implication", "is_classical"),
    "core": ("ALL_AXIOMS", "CheckResult", "DEFINING_AXIOMS", "FiniteAlgebra", "LEMMA_IDS",
             "MAlgebra", "Measurement", "OPTIONAL_AXIOMS", "ProjectionMeasurement",
             "TableMeasurement", "check_axiom", "check_axioms", "commutes", "compose_raw",
             "extent", "lemma_suite", "membership", "negation_of", "point_measurement",
             "preserves", "preserves_pointwise", "replay_witness", "top_bot"),
    "errors": ("BudgetError", "ClosureViolation", "InputError", "NegationViolation",
               "NotCommutingError", "NotStronglySeparable", "OrderViolation"),
    "formulas": ("parse_formula",),
    "laws": (),
    "logic": ("verify_schemes", "verify_tautology_theorem"),
    "models": ("build_propositional", "build_ray", "build_table", "load_model"),
    "order": ("bounds_check", "classical_commutation_agree", "leq", "orthomodular_check",
              "strong_sep_check"),
    "ratlin": ("Ray", "Subspace", "projection_matrix", "rational"),
    "rays": ("RayAlgebra",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _lazy(name):
    """The submodule ``name``, registered now and executed on first use.

    A run executes only the submodules it touches: an argparse refusal runs
    none of them, and a table run never runs ``ratlin`` or ``rays``.  The CLI
    handlers import what they run before they read the model file, so that
    compiling a module never raises the peak memory of a built model.  Code
    that looks a submodule up in ``sys.modules`` after ``import malgebra``
    (the tracer in ``perfbench/``) still finds every one there.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _module in _EXPORTS:
    if _module != "errors":
        globals()[_module] = _lazy(_module)


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER})
