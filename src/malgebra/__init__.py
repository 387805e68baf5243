"""Verification toolkit for measurement algebras.

State spaces with idempotent measurement operators, exact rational ray
models, executable axiom and derived-law checks, connectives for commuting
measurements, and a tautology harness comparing algebra evaluation against
an independent truth-table oracle.
"""

import importlib.util
import sys

from .connectives import (
    CommutingSet,
    conjunction,
    disjunction,
    eval_formula,
    implication,
    is_classical,
)
from .core import (
    ALL_AXIOMS,
    CheckResult,
    DEFINING_AXIOMS,
    FiniteAlgebra,
    LEMMA_IDS,
    MAlgebra,
    Measurement,
    OPTIONAL_AXIOMS,
    ProjectionMeasurement,
    TableMeasurement,
    apply,
    check_axiom,
    check_axioms,
    commutes,
    compose_raw,
    extent,
    lemma_suite,
    membership,
    negation_of,
    point_measurement,
    preserves,
    preserves_pointwise,
    replay_witness,
    state_id,
    top_bot,
)
from .errors import (
    BudgetError,
    ClosureViolation,
    InputError,
    NegationViolation,
    NotCommutingError,
    NotStronglySeparable,
    OrderViolation,
)
from .formulas import TautologyVerdict, format_formula, is_tautology, parse_formula
from .logic import verify_schemes, verify_tautology_theorem
from .models import (
    FIXTURES,
    build_propositional,
    build_ray,
    build_table,
    dump_model,
    fixture_f1,
    fixture_r2,
    fixture_r2_full,
    fixture_r3,
    fixture_r3_full,
    fixture_t2,
    fixture_t2_maximal,
    load_model,
    measurement_for,
)
from .order import (
    bounds_check,
    classical_commutation_agree,
    leq,
    orthomodular_check,
    strong_sep_check,
)

__version__ = "0.1.0"


def _lazy(name):
    """The submodule ``name``, registered now and executed on first use.

    A run that only reads tables never executes ``ratlin`` or ``rays``, while
    code that looks a submodule up in ``sys.modules`` after ``import
    malgebra`` (the tracer in ``perfbench/``) still finds it there.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ratlin, rays = _lazy("ratlin"), _lazy("rays")
_RAY_NAMES = {"Ray": ratlin, "Subspace": ratlin, "projection_matrix": ratlin,
              "rational": ratlin, "RayAlgebra": rays}


def __getattr__(name):
    if name in _RAY_NAMES:
        return getattr(_RAY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
