"""Tautology harness: truth-table logic against algebra evaluation.

The truth-table side never consults the algebra, so checking that every
enumerated tautology evaluates to a measurement fixing every state compares
two genuinely independent computations.  The converse is not claimed: a
measurement may fix every state without its formula being a tautology (bind
a slot to the identity measurement).
"""

from __future__ import annotations

from .connectives import CommutingSet, conjunction, disjunction, implication, member_rule
from .core import (
    CheckResult,
    MAlgebra,
    bit_positions,
    check_instances,
    check_result,
    negation_of,
)
from .errors import BudgetError
from .formulas import (
    DEFAULT_FORMULA_CAP,
    count_formulas,
    enumerate_formulas,
    essential_node,
    format_node,
    operands,
    shadow_on,
)


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
    alphabet = cs.names
    max_slots = min(max_slots, len(alphabet))
    formulas_list = enumerate_formulas(alphabet, max_depth, max_slots)
    member = member_rule(alg, {name: name for name in alphabet})

    witnesses = []
    classes: dict[tuple, tuple] = {}  # essential function -> (formula text, measurement)
    entries: dict[int, tuple] = {}  # id(node) -> (formula text, essential function, measurement)
    # one pass: the list puts every level before the next, so each node is
    # built from its operands' entries; only the levels below the last are
    # operands, so only their entries are kept
    operand_count = count_formulas(len(alphabet), max_depth - 1, max_slots, DEFAULT_FORMULA_CAP) \
        if max_depth > 1 else 0
    # a node's function is memoised by its connective and operand functions
    functions: dict[tuple, tuple] = {}  # essential function -> itself, its one object
    joined: dict[tuple, tuple] = {}  # (connective, id of each operand function) -> function
    for i, f in enumerate(formulas_list):
        ops = [entries[id(g)] for g in operands(f)]
        key = (type(f), *[id(e[1]) for e in ops]) if ops else f
        fn = joined.get(key)
        if fn is None:
            fn = essential_node(f, *[e[1] for e in ops])
            fn = joined[key] = functions.setdefault(fn, fn)
        measurement = member(f, *[e[2] for e in ops])
        rep = classes.get(fn)
        differs = rep is not None and measurement is not rep[1] and measurement != rep[1]
        # only operands, new classes, tautologies and witnesses have their text read
        text = format_node(f, *[e[0] for e in ops], pad="") if (
            i < operand_count or rep is None or differs or fn == ((), 1)) else None
        if i < operand_count:
            entries[id(f)] = text, fn, measurement
        if rep is None:
            classes[fn] = (text, measurement)
        elif differs:
            witnesses.append(("equivalent_not_equal", rep[0], text))
            continue
        if fn == ((), 1) and not alg.is_full(measurement):
            witnesses.append(("tautology_not_full", text))

    # entailment as bit rows over the classes in text order: a entails b
    # exactly when b's truth mask covers a's shadow on b's slots, so one row
    # serves every class with the same shadow on the same slots
    class_items = sorted(classes.items(), key=lambda kv: kv[1][0])
    by_slots: dict[tuple, list] = {}
    same_member: dict[int, int] = {}  # id(measurement) -> the classes it is the member of
    for i, ((slots, mask), (_, m)) in enumerate(class_items):
        by_slots.setdefault(slots, []).append((i, mask))
        same_member[id(m)] = same_member.get(id(m), 0) | 1 << i
    covering: dict[tuple, int] = {}  # (slots, shadow) -> row of the classes covering it
    # id(a) -> [classes whose member b has been asked, those with FP(a) not within FP(b)]
    asked: dict[int, list] = {}
    for i, (fn_a, (text_a, m_a)) in enumerate(class_items):
        entailed = 0
        for slots, group in by_slots.items():
            shadow = shadow_on(fn_a, slots)
            row = covering.get((slots, shadow))
            if row is None:
                row = covering[slots, shadow] = sum(
                    1 << j for j, mask in group if mask & shadow == shadow)
            entailed |= row
        entailed &= ~(1 << i)
        # fixpoint inclusion is asked once per member pair, at its first entailed class
        known = asked.setdefault(id(m_a), [0, 0])
        pending = entailed & ~known[0]
        while pending:
            m_b = class_items[(pending & -pending).bit_length() - 1][1][1]
            classes_b = same_member[id(m_b)]
            known[0] |= classes_b
            if not alg.fp_subset(m_a, m_b):
                known[1] |= classes_b
            pending &= ~classes_b
        for j in bit_positions(entailed & known[1]):
            witnesses.append(("entailment_not_included", text_a, class_items[j][1][0]))

    return check_result("tautology_theorem", witnesses, len(formulas_list),
                        note=f"{len(classes)} semantic classes")


def verify_schemes(alg: MAlgebra, cs: CommutingSet) -> list[CheckResult]:
    """Detachment, the three implication schemes, and the two identities
    defining conjunction and disjunction from negation and implication,
    instantiated over every member tuple of the commuting set.  The
    distribution scheme takes every member triple, so more than
    ``DEFAULT_FORMULA_CAP`` triples raise ``BudgetError`` before any
    instance runs."""
    members = cs.members()
    if len(members) ** 3 > DEFAULT_FORMULA_CAP:
        raise BudgetError(f"{len(members)}^3 scheme instances exceed the cap of "
                          f"{DEFAULT_FORMULA_CAP}")
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
