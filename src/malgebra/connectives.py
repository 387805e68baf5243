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


def conjunction(alg: MAlgebra, a, b) -> Measurement:
    """The composite of a commuting pair: the unique measurement whose
    fixpoints are the intersection of the two fixpoint sets."""
    a, b = _binary(alg, a, b)
    result = compose_member(alg, a, b)
    if result is None:
        raise ClosureViolation(
            f"the composite of commuting {a.name!r} and {b.name!r} is not a "
            "measurement; the composition law fails for this algebra"
        )
    return result


def disjunction(alg: MAlgebra, a, b) -> Measurement:
    """Dual of conjunction: the unique measurement whose zeros are the
    intersection of the two zero sets."""
    a, b = _binary(alg, a, b)
    return negation_of(
        alg, conjunction(alg, negation_of(alg, a), negation_of(alg, b))
    )


def implication(alg: MAlgebra, a, b) -> Measurement:
    """Measurement fixed exactly where applying ``a`` lands in ``b``'s
    fixpoints; its zeros are a's fixpoints meeting b's zeros."""
    a, b = _binary(alg, a, b)
    return negation_of(alg, conjunction(alg, a, negation_of(alg, b)))


def eval_formula(alg: MAlgebra, cs: CommutingSet, formula, binding: dict,
                 verify_closure: bool = False) -> Measurement:
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

    def walk(node):
        if isinstance(node, formulas.Slot):
            return alg.measurement(binding[node.name])
        if isinstance(node, formulas.Not):
            return negation_of(alg, walk(node.operand))
        left, right = walk(node.left), walk(node.right)
        if isinstance(node, formulas.And):
            return conjunction(alg, left, right)
        if isinstance(node, formulas.Or):
            return disjunction(alg, left, right)
        return implication(alg, left, right)

    result = walk(formula)
    if verify_closure:
        for member in cs.members():
            if not commutes(alg, result, member):
                raise RuntimeError(
                    f"internal error: result does not commute with {member.name!r}"
                )
    return result


def is_classical(alg: MAlgebra, m) -> bool:
    """Whether every state either satisfies the measurement or is annihilated.

    On the ray backend this holds exactly for the zero and full projections.
    """
    return alg.is_classical(alg.resolve(m))
