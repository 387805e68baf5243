"""The bundled model files as fixtures, and the helpers that only tests use:
``apply``, the truth-table oracles ``truth_mask`` and ``is_tautology``, a
memoised ``formula_walker`` and a table/ray ``dump_model``."""

import json
from pathlib import Path
from typing import NamedTuple

import pytest

from malgebra import formulas, models
from malgebra.connectives import member_rule
from malgebra.errors import InputError

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
# the files the fixture-wide tests run on; ``t3`` (256 states by 256
# measurements) is loaded only where a test names it
FIXTURES = ("f1", "t2", "t2_maximal", "r2", "r2_full", "r3", "r3_full")


def load_fixture(name, height=None):
    """A fresh model built from ``fixtures/<name>.json``; ``height``, when
    given, replaces a ray model's ``sample_height``."""
    data = json.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    return models.load_model(data, height)


def apply(alg, m, state):
    """Act on a state with a measurement; deterministic and total."""
    m = alg.resolve(m)
    if not alg.has_state(state):
        raise InputError(f"not a state of this algebra: {state!r}")
    return m(state)


def slot_masks(slot_order: tuple[str, ...]) -> dict[str, int]:
    """Each slot's column of the truth table: the bitmask of the rows where
    it is true.  Row ``i`` assigns slot ``j`` the bit ``(i >> (k-1-j)) & 1``,
    the binary counting order of assignments."""
    return dict(zip(slot_order, formulas._columns(len(slot_order))))


def truth_mask(f, slot_order) -> int:
    """Truth table as an integer: bit ``row`` is the value under that assignment.

    Row ``i`` assigns slot ``j`` the bit ``(i >> (k-1-j)) & 1``, matching the
    binary counting order of assignments.  Every row is evaluated at once:
    each slot is its column from ``slot_masks`` and the connectives
    are bit operations.  A slot missing from ``slot_order`` raises.
    """
    columns = slot_masks(slot_order)
    full = (1 << (1 << len(slot_order))) - 1

    def walk(node):
        if isinstance(node, formulas.Slot):
            try:
                return columns[node.name]
            except KeyError:
                raise InputError(f"unbound slot {node.name!r}") from None
        if isinstance(node, formulas.Not):
            return full ^ walk(node.operand)
        if isinstance(node, formulas.And):
            return walk(node.left) & walk(node.right)
        if isinstance(node, formulas.Or):
            return walk(node.left) | walk(node.right)
        return (full ^ walk(node.left)) | walk(node.right)

    return walk(f)


def formula_walker(alg, binding):
    """An evaluator of formula trees, slots resolved through ``binding``: the
    member rule folded over one memo, which keeps every tree it evaluated."""
    rule, memo, roots = member_rule(alg, binding), {}, []

    def walk(f):
        roots.append(f)  # keeps the memoised nodes alive, so no other node takes an id
        return formulas.fold(f, rule, memo)

    return walk


class TautologyVerdict(NamedTuple):
    formula: formulas.Formula
    is_tautology: bool
    falsifying: dict | None


def is_tautology(f) -> TautologyVerdict:
    """Exhaustive truth-table verdict, with the first falsifying assignment
    in binary counting order on failure."""
    if isinstance(f, str):
        f = formulas.parse_formula(f)
    slots = formulas.slots_of(f)
    mask = truth_mask(f, slots)
    if mask == (1 << (1 << len(slots))) - 1:
        return TautologyVerdict(f, True, None)
    row = ((mask + 1) & ~mask).bit_length() - 1  # the first false row
    columns = slot_masks(slots)
    return TautologyVerdict(f, False, {s: bool(columns[s] >> row & 1) for s in slots})


def dump_model(alg) -> dict:
    """The model-file form of a table or ray algebra."""
    if alg.kind == "ray":
        return {
            "kind": "ray",
            "dimension": alg.dim,
            "full_lattice": alg.full_lattice,
            "sample_height": alg.sample_height,
            "subspaces": {m.name: [[str(x) for x in row] for row in m.subspace.basis]
                          for m in alg.sorted_measurements()},
        }
    out = {
        "kind": "table",
        "states": list(alg.states),
        "zero": alg.zero,
        "measurements": {m.name: dict(m.mapping) for m in alg.sorted_measurements()},
    }
    if alg.negation_hints:
        out["negations"] = dict(alg.negation_hints)
    return out


@pytest.fixture(scope="session")
def f1():
    return load_fixture("f1")


@pytest.fixture(scope="session")
def t2():
    return load_fixture("t2")


@pytest.fixture(scope="session")
def t2max():
    return load_fixture("t2_maximal")


@pytest.fixture(scope="session")
def r2():
    return load_fixture("r2")


@pytest.fixture(scope="session")
def r2full():
    return load_fixture("r2_full")


@pytest.fixture(scope="session")
def r3():
    return load_fixture("r3")


@pytest.fixture(scope="session")
def r3full():
    return load_fixture("r3_full")
