"""Tautology harness: truth-table logic against algebra evaluation.

The truth-table side never consults the algebra, so checking that every
enumerated tautology evaluates to a measurement fixing every state compares
two genuinely independent computations.  The converse is not claimed: a
measurement may fix every state without its formula being a tautology (bind
a slot to the identity measurement).

The formula syntax itself (parser, AST, truth tables) lives in
:mod:`malgebra.formulas` and is re-exported here.
"""

from __future__ import annotations

from .connectives import CommutingSet, conjunction, disjunction, implication
from .core import CheckResult, MAlgebra, check_result, negation_of
from .errors import InputError
from .formulas import (  # noqa: F401  (public logic API)
    And,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    Slot,
    TautologyVerdict,
    entails,
    enumerate_formulas,
    essential_function,
    evaluate,
    format_formula,
    is_tautology,
    parse_formula,
    slots_of,
    truth_mask,
)


def verify_tautology_theorem(alg: MAlgebra, cs: CommutingSet,
                             max_depth: int = 3, max_slots: int = 3,
                             cap: int = 10**6) -> CheckResult:
    """Every enumerated truth-table tautology must fix every state.

    Enumerates all formulas over the commuting set up to the depth bound,
    using at most ``max_slots`` distinct members per formula, and checks
    three consequences of classicality over commuting measurements:

    * a tautology evaluates to a measurement whose fixpoint set is all of X,
    * logically equivalent formulas evaluate to the identical measurement,
    * a truth-table entailment between formulas gives fixpoint inclusion.
    """
    if max_depth < 1 or max_slots < 1:
        raise InputError("depth and slot bounds must be positive")
    alphabet = cs.names
    formulas_list = enumerate_formulas(alphabet, max_depth, min(max_slots, len(alphabet)), cap)
    binding = {name: name for name in alphabet}

    witnesses = []
    classes: dict[tuple, tuple] = {}  # essential function -> (formula text, measurement)
    evaluated: dict[Formula, object] = {}

    def eval_cached(f):
        if f not in evaluated:
            if isinstance(f, Slot):
                m = alg.measurement(binding[f.name])
            elif isinstance(f, Not):
                m = negation_of(alg, eval_cached(f.operand))
            elif isinstance(f, And):
                m = conjunction(alg, eval_cached(f.left), eval_cached(f.right))
            elif isinstance(f, Or):
                m = disjunction(alg, eval_cached(f.left), eval_cached(f.right))
            else:
                m = implication(alg, eval_cached(f.left), eval_cached(f.right))
            evaluated[f] = m
        return evaluated[f]

    checked = 0
    for f in formulas_list:
        checked += 1
        text = format_formula(f, compact=True)
        measurement = eval_cached(f)
        fn = essential_function(f)
        if fn in classes:
            rep_text, rep_m = classes[fn]
            if measurement != rep_m:
                witnesses.append(("equivalent_not_equal", rep_text, text))
                continue
        else:
            classes[fn] = (text, measurement)
        if fn == ((), 1) and not alg.is_full(measurement):
            witnesses.append(("tautology_not_full", text))

    class_items = sorted(classes.items(), key=lambda kv: kv[1][0])
    for fn_a, (text_a, m_a) in class_items:
        for fn_b, (text_b, m_b) in class_items:
            if fn_a == fn_b:
                continue
            if entails(fn_a, fn_b) and not alg.fp_subset(m_a, m_b):
                witnesses.append(("entailment_not_included", text_a, text_b))

    return check_result("tautology_theorem", witnesses, checked,
                        note=f"{len(classes)} semantic classes")


def verify_schemes(alg: MAlgebra, cs: CommutingSet) -> list[CheckResult]:
    """Detachment, the three implication schemes, and the two identities
    defining conjunction and disjunction from negation and implication,
    instantiated over every member tuple of the commuting set."""
    members = cs.members()
    neg = {m.name: negation_of(alg, m) for m in members}
    full = alg.is_full
    results = []

    witnesses, checked, fired = [], 0, False
    for a in members:
        for b in members:
            checked += 1
            if full(a) and full(implication(alg, a, b)):
                fired = True
                if not full(b):
                    witnesses.append((a.name, b.name))
    results.append(check_result("modus_ponens", witnesses, checked, vacuous=not fired))

    witnesses, checked = [], 0
    for a in members:
        for b in members:
            checked += 1
            if not full(implication(alg, a, implication(alg, b, a))):
                witnesses.append((a.name, b.name))
    results.append(check_result("scheme_weakening", witnesses, checked))

    witnesses, checked = [], 0
    for a in members:
        for b in members:
            for c in members:
                checked += 1
                lhs = implication(alg, a, implication(alg, b, c))
                rhs = implication(alg, implication(alg, a, b), implication(alg, a, c))
                if not full(implication(alg, lhs, rhs)):
                    witnesses.append((a.name, b.name, c.name))
    results.append(check_result("scheme_distribution", witnesses, checked))

    witnesses, checked = [], 0
    for a in members:
        for b in members:
            checked += 1
            lhs = implication(alg, neg[b.name], neg[a.name])
            rhs = implication(alg, implication(alg, neg[b.name], a), b)
            if not full(implication(alg, lhs, rhs)):
                witnesses.append((a.name, b.name))
    results.append(check_result("scheme_contraposition", witnesses, checked))

    witnesses, checked = [], 0
    for a in members:
        for b in members:
            checked += 1
            if conjunction(alg, a, b) != negation_of(
                alg, implication(alg, a, neg[b.name])
            ):
                witnesses.append((a.name, b.name))
    results.append(check_result("conjunction_definability", witnesses, checked))

    witnesses, checked = [], 0
    for a in members:
        for b in members:
            checked += 1
            if disjunction(alg, a, b) != implication(alg, neg[a.name], b):
                witnesses.append((a.name, b.name))
    results.append(check_result("disjunction_definability", witnesses, checked))

    return results
