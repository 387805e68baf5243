"""Propositional formulas: AST, text parser, truth tables, enumeration.

The surface syntax uses ``~`` (not), ``&`` (and), ``|`` (or) and ``->``
(implies) with precedence ``~ > & > | > ->``; implication associates to the
right, the other binary operators to the left.  Slot names are ordinary
identifiers.  This module is purely syntactic/semantic and knows nothing
about algebras; it serves as the independent truth-table oracle.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb

from .errors import BudgetError, InputError
from .syntax import PRECEDENCE, join

DEFAULT_FORMULA_CAP = 10**6
# Deeper trees would overflow the recursive walkers (and the parser itself).
MAX_FORMULA_DEPTH = 100


class _Node:
    """A formula node: a frozen value shown as ``Class(field=value, ...)``,
    equal to a node of its own class with equal fields, and hashed over its
    class and fields.  ``object.__setattr__`` keeps the instances' compact
    layout, which writing ``__dict__`` gives up."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__match_args__)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, *self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Slot(_Node):
    __match_args__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Not(_Node):
    __match_args__ = ("operand",)

    def __init__(self, operand: Formula):
        object.__setattr__(self, "operand", operand)


class _Binary(_Node):
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


Formula = Slot | Not | And | Or | Implies

_SYMBOL = {Slot: "", Not: "~", And: "&", Or: "|", Implies: "->"}


def operands(node: Formula) -> tuple[Formula, ...]:
    """The node's operand formulas, left to right; a slot has none."""
    return () if isinstance(node, Slot) else (
        (node.operand,) if isinstance(node, Not) else (node.left, node.right))


def fold(f: Formula, rule, memo: dict | None = None):
    """``rule(node, *values of its operands)`` at ``f``, operands first.
    Values are kept in ``memo`` by node identity, so a shared subtree is
    evaluated once; the caller keeps the nodes alive, so ids stay unique."""
    memo = {} if memo is None else memo
    value = memo.get(id(f))
    if value is None:
        value = memo[id(f)] = rule(f, *[fold(g, rule, memo) for g in operands(f)])
    return value


def format_node(node: Formula, *texts: str, pad: str = " ") -> str:
    """The text of ``node`` from its operands' texts, with the fewest
    parentheses that reparse to the same tree."""
    return node.name if isinstance(node, Slot) else join(_SYMBOL[type(node)], pad, *zip(
        texts, (PRECEDENCE[_SYMBOL[type(g)]] for g in operands(node))))


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>->|[~&|()]))")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unknown character {stripped[0]!r}", bad_at)
        tokens.append((m.group("ident") or m.group("op"), m.start("ident") if m.group("ident") else m.start("op")))
        pos = m.end()
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse the textual syntax into a formula tree.

    Trees deeper than ``MAX_FORMULA_DEPTH`` are refused with a ParseError.
    """
    tokens = _tokenize(text)
    index = 0
    nesting = 0

    def peek():
        return tokens[index][0] if index < len(tokens) else None

    def here():
        return tokens[index][1] if index < len(tokens) else len(text)

    def take():
        nonlocal index
        tok = tokens[index]
        index += 1
        return tok

    def parse_implies():
        # a loop folded to the right, so long chains cannot exhaust the stack
        operands = [parse_or()]
        while peek() == "->":
            take()
            operands.append(parse_or())
        node = operands.pop()
        while operands:
            node = Implies(operands.pop(), node)
        return node

    def parse_or():
        node = parse_and()
        while peek() == "|":
            take()
            node = Or(node, parse_and())
        return node

    def parse_and():
        node = parse_unary()
        while peek() == "&":
            take()
            node = And(node, parse_unary())
        return node

    def parse_unary():
        nonlocal nesting
        tok = peek()
        if tok in ("~", "("):
            nesting += 1
            if nesting > MAX_FORMULA_DEPTH:
                raise ParseError(f"formula nests deeper than {MAX_FORMULA_DEPTH}", here())
            take()
            if tok == "~":
                node = Not(parse_unary())
            else:
                node = parse_implies()
                if peek() != ")":
                    raise ParseError("expected ')'", here())
                take()
            nesting -= 1
            return node
        if tok is None:
            raise ParseError("unexpected end of input", here())
        if tok in ("&", "|", "->", ")"):
            raise ParseError(f"unexpected {tok!r}", here())
        take()
        return Slot(tok)

    node = parse_implies()
    if index < len(tokens):
        raise ParseError(f"unexpected {peek()!r}", here())
    if _formula_depth(node) > MAX_FORMULA_DEPTH:
        raise ParseError(f"formula nests deeper than {MAX_FORMULA_DEPTH}", 0)
    return node


def is_atom(text: str) -> bool:
    """Whether ``text`` parses as a lone atom: what slots and propositional atoms are."""
    try:
        return parse_formula(text) == Slot(text)
    except InputError:
        return False


def _formula_depth(f: Formula) -> int:
    """Height of the formula tree; a lone slot has depth 0."""
    depth = 0
    stack = [(f, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if isinstance(node, Not):
            stack.append((node.operand, d + 1))
        elif not isinstance(node, Slot):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return depth


def slots_of(f: Formula) -> tuple[str, ...]:
    """Slot names occurring in the formula, sorted."""
    return tuple(sorted(fold(f, lambda node, *sets: set().union(*sets) if sets else {node.name})))


@lru_cache(maxsize=32)
def _columns(k: int) -> tuple[int, ...]:
    """The slot columns over ``k`` slots: the rows where slot j is true, row
    i giving it bit ``(i >> (k-1-j)) & 1``, are runs of ``run`` false rows
    then ``run`` true rows (one quotient bit per period)."""
    full = (1 << (1 << k)) - 1
    runs = [1 << (k - 1 - j) for j in range(k)]
    return tuple(full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run) for run in runs)


def essential_node(node: Formula, *fns: tuple[tuple[str, ...], int]) -> tuple[tuple[str, ...], int]:
    """The essential function of ``node`` from its operands' essential
    functions: their tables are lifted to the union of their slots, joined
    by the connective, and reduced to the slots the result depends on."""
    if isinstance(node, Slot):
        return (node.name,), 0b10
    own = [slots for slots, _ in fns]
    slots = own[0] if own[0] == own[-1] else tuple(sorted({*own[0], *own[1]}))
    k = len(slots)
    full = (1 << (1 << k)) - 1
    masks = [mask if own_i == slots else _lift(own_i, mask, slots) for own_i, mask in fns]
    if isinstance(node, Not):  # the negation of an essential function is one
        return slots, full ^ masks[0]
    if isinstance(node, And):
        mask = masks[0] & masks[1]
    elif isinstance(node, Or):
        mask = masks[0] | masks[1]
    else:
        mask = (full ^ masks[0]) | masks[1]
    # slot j is irrelevant exactly when the table on the rows where it is true,
    # shifted down 2**(k-1-j) rows, equals the table on the rows where it is false
    dropped = [j for j, column in enumerate(_columns(k))
               if (mask & column) >> (1 << (k - 1 - j)) == mask & ~column]
    for j in reversed(dropped):  # the later slots first, so earlier ones keep their row bit
        mask, k = _drop(mask, k, j), k - 1
    return (tuple(s for j, s in enumerate(slots) if j not in dropped) if dropped else slots), mask


def _drop(mask: int, k: int, j: int) -> int:
    """The table over the other slots of a table over ``k``: a row is true
    when it is true with slot ``j`` false or with it true."""
    run = 1 << (k - 1 - j)
    mask |= mask >> run
    low, out = (1 << run) - 1, 0
    for b in range(0, 1 << (k - 1), run):
        out |= (mask >> 2 * b & low) << b
    return out


def _lift(own: tuple[str, ...], mask: int, slots: tuple[str, ...]) -> int:
    """The truth mask over ``slots`` of the one over ``own``, a sorted subset
    of the sorted ``slots``: inserting slot j of k repeats every block of
    2**(k-j) rows once."""
    k = len(own)
    for j, s in enumerate(slots):
        if s not in own:
            run = 1 << (k - j)
            low, spread = (1 << run) - 1, 0
            for b in range(0, 1 << k, run):
                spread |= (mask >> b & low) << 2 * b
            mask = spread | spread << run
            k += 1
    return mask


def essential_function(f: Formula) -> tuple[tuple[str, ...], int]:
    """Boolean function of ``f`` with irrelevant slots removed.

    Returns the sorted tuple of slots the value actually depends on, and the
    truth mask over those slots.  Logically equivalent formulas yield the
    same pair, whatever slots they mention syntactically.
    """
    return fold(f, essential_node)


def entails(fn_a: tuple[tuple[str, ...], int], fn_b: tuple[tuple[str, ...], int]) -> bool:
    """Whether the first essential function logically implies the second:
    the truth mask of the second covers the shadow of the first on its slots."""
    slots_b, mask_b = fn_b
    shadow = shadow_on(fn_a, slots_b)
    return mask_b & shadow == shadow


def shadow_on(fn: tuple[tuple[str, ...], int], slots: tuple[str, ...]) -> int:
    """The rows of the truth table over the sorted ``slots`` that agree, on
    the slots both mention, with some row where the essential function ``fn``
    is true.

    A function over ``slots`` is entailed by ``fn`` exactly when its truth
    mask covers this one, so no table over the union of the slots is built.
    """
    own, mask = fn
    if own == slots:
        return mask
    for j in reversed(range(len(own))):  # the later slots first, as in essential_node
        if own[j] not in slots:
            mask, own = _drop(mask, len(own), j), own[:j] + own[j + 1:]
    return _lift(own, mask, slots)


def count_formulas(alphabet_size: int, max_depth: int, max_slots: int, cap: int) -> int:
    """How many formulas :func:`enumerate_formulas` admits, without building one.

    Every alphabet member plays the same role, so the number of formulas of
    one level whose slot set is a given set U depends only on |U|.  With
    ``prev[i]`` such formulas at the previous level and ``below[i]`` at all
    levels so far, the ordered operand pairs (S, T) with S ∪ T = U, |S| = i
    and |T| = j number C(u, i)·C(i, i+j−u).  Of those, ``both`` have both
    operands at the previous level and ``mixed`` only the first.  The
    enumeration admits ``prev[u]`` negations, (both + prev[u])/2 + mixed
    conjunctions and as many disjunctions (commutative operands are
    canonicalized), and both + 2·mixed implications on U.

    The count is exact up to ``cap``; it stops at the first level whose
    running total exceeds ``cap`` and returns that total.
    """
    if max_depth < 1 or max_slots < 1:
        raise InputError("depth and slot bounds must be positive")
    top = min(max_slots, alphabet_size)
    prev = [0] * (top + 1)
    if top:
        prev[1] = 1
    below = prev[:]
    total = alphabet_size
    for _ in range(2, max_depth + 1):
        if total > cap:
            break
        level = [0] * (top + 1)
        for u in range(1, top + 1):
            both = mixed = 0
            for i in range(1, u + 1):
                for j in range(u - i, u + 1):
                    pairs = comb(u, i) * comb(i, i + j - u) * prev[i]
                    both += pairs * prev[j]
                    mixed += pairs * (below[j] - prev[j])
            # negations, then conjunctions and disjunctions, then implications
            level[u] = prev[u] + (both + prev[u] + 2 * mixed) + (both + 2 * mixed)
        total += sum(comb(alphabet_size, u) * level[u] for u in range(1, top + 1))
        prev = level
        below = [b + c for b, c in zip(below, level)]
    return total


def enumerate_formulas(
    alphabet: tuple[str, ...],
    max_depth: int,
    max_slots: int,
    cap: int = DEFAULT_FORMULA_CAP,
) -> list[Formula]:
    """All formulas over the alphabet up to the given depth.

    Depth counts tree levels (a bare slot has depth 1).  Formulas may use at
    most ``max_slots`` distinct slots.  Operand order of the commutative
    connectives is canonicalized, which prunes the enumeration without losing
    semantic coverage.  More than ``cap`` formulas raise ``BudgetError``,
    decided by :func:`count_formulas` before any formula is built.
    """
    if count_formulas(len(set(alphabet)), max_depth, max_slots, cap) > cap:
        raise BudgetError(f"formula enumeration exceeds the cap of {cap}")
    # hash-consing: every admitted formula gets an integer id, and candidate
    # identity is the (operator, child ids) tuple, so duplicates are skipped
    # before any node is built; child ids also give the canonical operand
    # order of the commutative operators.  Slot sets are alphabet bit masks.
    levels: list[list[tuple[Formula, int, int]]] = []
    seen: set[tuple] = set()

    def admit(bucket, key, slots, ctor, *children):
        if key in seen:
            return
        seen.add(key)
        bucket.append((ctor(*children), slots, len(seen)))

    first: list[tuple[Formula, int, int]] = []
    for i, name in enumerate(alphabet):
        admit(first, ("slot", name), 1 << i, Slot, name)
    levels.append(first)

    for depth in range(2, max_depth + 1):
        bucket: list[tuple[Formula, int, int]] = []
        prev = levels[depth - 2]
        below = [entry for level in levels for entry in level]
        for f, fs, fi in prev:
            admit(bucket, ("~", fi), fs, Not, f)
        for f, fs, fi in prev:
            for g, gs, gi in below:
                union = fs | gs
                if union.bit_count() > max_slots:
                    continue
                (left, li), (right, ri) = sorted(
                    ((f, fi), (g, gi)), key=lambda e: e[1]
                )
                admit(bucket, ("&", li, ri), union, And, left, right)
                admit(bucket, ("|", li, ri), union, Or, left, right)
                admit(bucket, ("->", fi, gi), union, Implies, f, g)
                admit(bucket, ("->", gi, fi), union, Implies, g, f)
        levels.append(bucket)

    return [f for level in levels for f, _, _ in level]
