"""Tautology harness: truth-table logic against algebra evaluation.

The truth-table side never consults the algebra, so checking that every
enumerated tautology evaluates to a measurement fixing every state compares
two genuinely independent computations.  The converse is not claimed: a
measurement may fix every state without its formula being a tautology (bind
a slot to the identity measurement).
"""

from __future__ import annotations

from .connectives import CommutingSet, conjunction, disjunction, formula_walker, implication
from .core import (
    CheckResult,
    MAlgebra,
    bit_positions,
    check_instances,
    check_result,
    negation_of,
)
from .errors import InputError
from .formulas import enumerate_formulas, essential_function, format_formula, shadow_on


def verify_tautology_theorem(alg: MAlgebra, cs: CommutingSet,
                             max_depth: int = 3, max_slots: int = 3) -> CheckResult:
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
    formulas_list = enumerate_formulas(alphabet, max_depth, min(max_slots, len(alphabet)))
    evaluate_member = formula_walker(alg, {name: name for name in alphabet})

    witnesses = []
    classes: dict[tuple, tuple] = {}  # essential function -> (formula text, measurement)

    for f in formulas_list:
        text = format_formula(f, compact=True)
        measurement = evaluate_member(f)
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

    # entailment as bit rows over the classes in text order: a entails b
    # exactly when b's truth mask covers a's shadow on b's slots, so one row
    # serves every class with the same shadow on the same slots
    class_items = sorted(classes.items(), key=lambda kv: kv[1][0])
    by_slots: dict[tuple, list] = {}
    for i, ((slots, mask), _) in enumerate(class_items):
        by_slots.setdefault(slots, []).append((i, mask))
    covering: dict[tuple, int] = {}  # (slots, shadow) -> row of the classes covering it
    for i, (fn_a, (text_a, m_a)) in enumerate(class_items):
        entailed = 0
        for slots, group in by_slots.items():
            shadow = shadow_on(fn_a, slots)
            row = covering.get((slots, shadow))
            if row is None:
                row = covering[slots, shadow] = sum(
                    1 << j for j, mask in group if mask & shadow == shadow)
            entailed |= row
        for j in bit_positions(entailed & ~(1 << i)):
            text_b, m_b = class_items[j][1]
            if not alg.fp_subset(m_a, m_b):
                witnesses.append(("entailment_not_included", text_a, text_b))

    return check_result("tautology_theorem", witnesses, len(formulas_list),
                        note=f"{len(classes)} semantic classes")


def verify_schemes(alg: MAlgebra, cs: CommutingSet) -> list[CheckResult]:
    """Detachment, the three implication schemes, and the two identities
    defining conjunction and disjunction from negation and implication,
    instantiated over every member tuple of the commuting set."""
    members = cs.members()
    neg = {m.name: negation_of(alg, m) for m in members}
    full = alg.is_full
    pairs = [(a, b) for a in members for b in members]
    return [
        check_instances("modus_ponens", pairs, lambda a, b: not full(b),
                        premise=lambda a, b: full(a) and full(implication(alg, a, b))),
        check_instances("scheme_weakening", pairs,
                        lambda a, b: not full(implication(alg, a, implication(alg, b, a)))),
        check_instances(
            "scheme_distribution", ((a, b, c) for a, b in pairs for c in members),
            lambda a, b, c: not full(implication(
                alg, implication(alg, a, implication(alg, b, c)),
                implication(alg, implication(alg, a, b), implication(alg, a, c))))),
        check_instances(
            "scheme_contraposition", pairs,
            lambda a, b: not full(implication(
                alg, implication(alg, neg[b.name], neg[a.name]),
                implication(alg, implication(alg, neg[b.name], a), b)))),
        check_instances(
            "conjunction_definability", pairs,
            lambda a, b: conjunction(alg, a, b)
            != negation_of(alg, implication(alg, a, neg[b.name]))),
        check_instances("disjunction_definability", pairs,
                        lambda a, b: disjunction(alg, a, b) != implication(alg, neg[a.name], b)),
    ]
