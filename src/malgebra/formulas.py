"""Propositional formulas: AST, text parser, truth tables, enumeration.

The surface syntax uses ``~`` (not), ``&`` (and), ``|`` (or) and ``->``
(implies) with precedence ``~ > & > | > ->``; implication associates to the
right, the other binary operators to the left.  Slot names are ordinary
identifiers.  This module is purely syntactic/semantic and knows nothing
about algebras; it serves as the independent truth-table oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .errors import BudgetError, InputError

DEFAULT_FORMULA_CAP = 10**6
# Deeper trees would overflow the recursive walkers (and the parser itself).
MAX_FORMULA_DEPTH = 100


@dataclass(frozen=True)
class Slot:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Slot | Not | And | Or | Implies

_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Slot: 5}
_SYMBOL = {And: "&", Or: "|", Implies: "->"}


def format_formula(f: Formula, compact: bool = False) -> str:
    """Render with the fewest parentheses that reparse to the same tree."""
    pad = "" if compact else " "

    def render(node):
        prec = _PRECEDENCE[type(node)]
        if isinstance(node, Slot):
            return node.name
        if isinstance(node, Not):
            inner = render(node.operand)
            if _PRECEDENCE[type(node.operand)] < prec:
                inner = "(" + inner + ")"
            return "~" + inner
        sym = _SYMBOL[type(node)]
        assoc_right = isinstance(node, Implies)
        left = render(node.left)
        right = render(node.right)
        if _PRECEDENCE[type(node.left)] < prec or (
            _PRECEDENCE[type(node.left)] == prec and assoc_right
        ):
            left = "(" + left + ")"
        if _PRECEDENCE[type(node.right)] < prec or (
            _PRECEDENCE[type(node.right)] == prec and not assoc_right
        ):
            right = "(" + right + ")"
        return left + pad + sym + pad + right

    return render(f)


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
    names: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Slot):
            names.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return tuple(sorted(names))


def slot_masks(slot_order: tuple[str, ...]) -> dict[str, int]:
    """Each slot's column of the truth table: the bitmask of the rows where
    it is true, in the row order of :func:`truth_mask`."""
    k = len(slot_order)
    full = (1 << (1 << k)) - 1
    masks = {}
    for j, s in enumerate(slot_order):
        # runs of ``run`` false rows then ``run`` true rows, repeated: the
        # quotient has one bit at the start of every period
        run = 1 << (k - 1 - j)
        period = (1 << (2 * run)) - 1
        masks[s] = full // period * (period ^ ((1 << run) - 1))
    return masks


def truth_mask(f: Formula, slot_order: tuple[str, ...]) -> int:
    """Truth table as an integer: bit ``row`` is the value under that assignment.

    Row ``i`` assigns slot ``j`` the bit ``(i >> (k-1-j)) & 1``, matching the
    binary counting order of assignments.  Every row is evaluated at once:
    each slot is its column from :func:`slot_masks` and the connectives are
    bit operations.  A slot missing from ``slot_order`` raises.
    """
    return _walk(f, slot_masks(slot_order), (1 << (1 << len(slot_order))) - 1)


def _walk(f: Formula, columns: dict[str, int], full: int) -> int:
    """The truth mask of ``f`` with each slot read as its column in ``columns``."""

    def walk(node):
        if isinstance(node, Slot):
            try:
                return columns[node.name]
            except KeyError:
                raise InputError(f"unbound slot {node.name!r}") from None
        if isinstance(node, Not):
            return full ^ walk(node.operand)
        if isinstance(node, And):
            return walk(node.left) & walk(node.right)
        if isinstance(node, Or):
            return walk(node.left) | walk(node.right)
        return (full ^ walk(node.left)) | walk(node.right)

    return walk(f)


def essential_function(f: Formula) -> tuple[tuple[str, ...], int]:
    """Boolean function of ``f`` with irrelevant slots removed.

    Returns the sorted tuple of slots the value actually depends on, and the
    truth mask over those slots.  Logically equivalent formulas yield the
    same pair, whatever slots they mention syntactically.

    Slot ``j`` of ``k`` is irrelevant exactly when the table on the rows where
    it is true, shifted down ``2**(k-1-j)`` rows, equals the table on the rows
    where it is false; one more walk with those slots held false reduces it.
    """
    slots = slots_of(f)
    k = len(slots)
    columns = slot_masks(slots)
    full = (1 << (1 << k)) - 1
    mask = truth_mask(f, slots)
    kept = tuple(s for j, s in enumerate(slots)
                 if (mask & columns[s]) >> (1 << (k - 1 - j)) != mask & (full ^ columns[s]))
    if len(kept) == k:
        return slots, mask
    held = dict.fromkeys(slots, 0) | slot_masks(kept)
    return kept, _walk(f, held, (1 << (1 << len(kept))) - 1)


def entails(fn_a: tuple[tuple[str, ...], int], fn_b: tuple[tuple[str, ...], int]) -> bool:
    """Whether the first essential function logically implies the second:
    the truth mask of the second covers the shadow of the first on its slots."""
    slots_b, mask_b = fn_b
    shadow = shadow_on(fn_a, slots_b)
    return mask_b & shadow == shadow


def shadow_on(fn: tuple[tuple[str, ...], int], slots: tuple[str, ...]) -> int:
    """The rows of the truth table over ``slots`` that agree, on the slots
    both mention, with some row where the essential function ``fn`` is true.

    A function over ``slots`` is entailed by ``fn`` exactly when its truth
    mask covers this one, so no table over the union of the slots is built.
    """
    own, mask = fn
    full = (1 << (1 << len(slots))) - 1
    shared = [(j, s) for j, s in enumerate(own) if s in slots]
    if not shared:
        return full if mask else 0
    columns = slot_masks(slots)
    k = len(own)
    shadow = 0
    for row in range(1 << k):
        if mask >> row & 1:
            agreeing = full
            for j, s in shared:
                agreeing &= columns[s] if row >> (k - 1 - j) & 1 else full ^ columns[s]
            shadow |= agreeing
    return shadow


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
    # before any node is even constructed; child ids also give the canonical
    # operand order for the commutative operators
    levels: list[list[tuple[Formula, frozenset, int]]] = []
    seen: set[tuple] = set()

    def admit(bucket, key, slots, ctor, *children):
        if key in seen:
            return
        seen.add(key)
        bucket.append((ctor(*children), slots, len(seen)))

    first: list[tuple[Formula, frozenset, int]] = []
    for name in alphabet:
        admit(first, ("slot", name), frozenset([name]), Slot, name)
    levels.append(first)

    for depth in range(2, max_depth + 1):
        bucket: list[tuple[Formula, frozenset, int]] = []
        prev = levels[depth - 2]
        below = [entry for level in levels for entry in level]
        for f, fs, fi in prev:
            admit(bucket, ("~", fi), fs, Not, f)
        for f, fs, fi in prev:
            for g, gs, gi in below:
                union = fs | gs
                if len(union) > max_slots:
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


def minimal_formula_names(atoms: tuple[str, ...]) -> dict[int, Formula]:
    """Smallest formula for every boolean function over the given atoms.

    Keys are truth masks over the binary counting order of assignments (the
    same convention as :func:`truth_mask`).  Minimality is by node count,
    ties broken by discovery order, so the naming is deterministic.
    """
    n_rows = 1 << len(atoms)
    full = (1 << n_rows) - 1
    atom_mask = slot_masks(atoms)

    best: dict[int, Formula] = {}
    by_size: list[list[tuple[Formula, int]]] = [[]]

    def record(size_bucket, mask, make, *children):  # builds the node only for a new mask
        if mask not in best:
            node = best[mask] = make(*children)
            size_bucket.append((node, mask))

    bucket = []
    for name in atoms:
        record(bucket, atom_mask[name], Slot, name)
    by_size.append(bucket)

    size = 1
    while len(best) < (1 << n_rows) and size < 25:
        size += 1
        bucket = []
        for f, m in by_size[size - 1]:
            record(bucket, full ^ m, Not, f)
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            if right_size < 1 or right_size >= len(by_size):
                continue
            for f, fm in by_size[left_size]:
                for g, gm in by_size[right_size]:
                    record(bucket, fm & gm, And, f, g)
                    record(bucket, fm | gm, Or, f, g)
                    record(bucket, (full ^ fm) | gm, Implies, f, g)
        by_size.append(bucket)
    if len(best) < (1 << n_rows):
        raise RuntimeError("formula naming search did not converge")
    return best
