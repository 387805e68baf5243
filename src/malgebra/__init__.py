"""Verification toolkit for measurement algebras.

State spaces with idempotent measurement operators, exact rational ray
models, executable axiom and derived-law checks, connectives for commuting
measurements, and a tautology harness comparing algebra evaluation against
an independent truth-table oracle.
"""

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
    Budget,
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
from .ratlin import Ray, Subspace, projection_matrix, rational
from .rays import RayAlgebra

__version__ = "0.1.0"
