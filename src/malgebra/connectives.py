"""Connectives among commuting measurements.

Conjunction, disjunction and implication are defined only for commuting
pairs; asking for them on a non-commuting pair raises, deliberately.  The
refusal is the point: connectives of non-commuting measurements have no
classical behavior to offer.
"""

from __future__ import annotations

from . import formulas
from .core import MAlgebra, Measurement, commutes, compose_member, negation_of
from .errors import ClosureViolation, InputError, NotCommutingError


class CommutingSet:
    """An ordered set of pairwise commuting measurements.

    Pairwise commutation is certified once at construction and trusted
    afterwards; connective results over members commute with every member
    again, so the set is closed under formula evaluation.
    """

    def __init__(self, alg: MAlgebra, names):
        self.alg = alg
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InputError("commuting set members must be distinct")
        members = [alg.measurement(n) for n in self.names]
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if not commutes(alg, a, b):
                    raise NotCommutingError(a.name, b.name)
        self._members = members

    def members(self) -> list[Measurement]:
        return list(self._members)

    def __contains__(self, name) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)


def _binary(alg, a, b):
    a, b = alg.resolve(a), alg.resolve(b)
    if not commutes(alg, a, b):
        raise NotCommutingError(a.name, b.name)
    return a, b


def _composite(alg, a, b) -> Measurement:
    """The member equal to "a, then b".  Connectives test only the pair the
    caller named: a derived pair outside M is a failing law, not bad input."""
    result = compose_member(alg, a, b)
    if result is None:
        raise ClosureViolation(
            f"the composite of commuting {a.name!r} and {b.name!r} is not a "
            "measurement; the composition law fails for this algebra"
        )
    return result


def conjunction(alg: MAlgebra, a, b) -> Measurement:
    """The composite of a commuting pair: the unique measurement whose
    fixpoints are the intersection of the two fixpoint sets."""
    return _composite(alg, *_binary(alg, a, b))


def _join(alg, a, b) -> Measurement:
    """The disjunction of a pair the caller has already found commuting."""
    return negation_of(alg, _composite(alg, negation_of(alg, a), negation_of(alg, b)))


def disjunction(alg: MAlgebra, a, b) -> Measurement:
    """Dual of conjunction: the unique measurement whose zeros are the
    intersection of the two zero sets."""
    return _join(alg, *_binary(alg, a, b))


def implication(alg: MAlgebra, a, b) -> Measurement:
    """Measurement fixed exactly where applying ``a`` lands in ``b``'s
    fixpoints; its zeros are a's fixpoints meeting b's zeros."""
    a, b = _binary(alg, a, b)
    return negation_of(alg, _composite(alg, a, negation_of(alg, b)))


def eval_formula(alg: MAlgebra, cs: CommutingSet, formula, binding: dict) -> Measurement:
    """Evaluate a propositional formula over members of a commuting set.

    Slots are resolved through ``binding`` (slot name to member name).
    Logically equivalent formulas over the same commuting set evaluate to
    the identical measurement.
    """
    if isinstance(formula, str):
        formula = formulas.parse_formula(formula)
    for slot in formulas.slots_of(formula):
        if slot not in binding:
            raise InputError(f"unbound slot {slot!r}")
        if binding[slot] not in cs:
            raise InputError(
                f"slot {slot!r} is bound to {binding[slot]!r}, which is not "
                "in the commuting set"
            )
    return formulas.fold(formula, member_rule(alg, binding))


def member_rule(alg: MAlgebra, binding: dict):
    """The member of a formula node from its operands' members, slots resolved
    through ``binding``: a rule for :func:`formulas.fold`.  Connective results
    are memoised by operand identity; callers keep the operands alive."""
    applied: dict = {}
    connective = {formulas.And: conjunction, formulas.Or: disjunction, formulas.Implies: implication}

    def member(node, *ms):
        if not ms:
            return alg.measurement(binding[node.name])
        if len(ms) == 1:
            return negation_of(alg, ms[0])
        key = (type(node), id(ms[0]), id(ms[1]))
        m = applied.get(key)
        if m is None:
            m = applied[key] = connective[type(node)](alg, *ms)
        return m

    return member


def indefinite_state(alg: MAlgebra, m: Measurement):
    """The first state code of the domain that ``m`` neither fixes nor sends
    to zero, or None: a state outside the union of ``extent``."""
    M, zero = alg.action(m), alg.zero_code
    return next((x for x in alg.state_domain() if M[x] != x and M[x] != zero), None)


def is_classical(alg: MAlgebra, m) -> bool:
    """Whether every state either satisfies the measurement or is annihilated.

    Exact on rays too: every window holds each e_i and e_i + e_j, and a
    proper subspace leaves one of them indefinite (with e_i inside and e_j
    outside it, e_i + e_j is neither), so only the zero and full
    projections are classical.
    """
    return indefinite_state(alg, alg.resolve(m)) is None
