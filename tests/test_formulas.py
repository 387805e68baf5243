"""Parser, printer, truth tables and formula enumeration."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgebra import formulas, syntax
from malgebra.errors import BudgetError, InputError
from malgebra.formulas import (
    And,
    Implies,
    Not,
    Or,
    ParseError,
    Slot,
    count_formulas,
    entails,
    enumerate_formulas,
    essential_function,
    fold,
    format_node,
    parse_formula,
    slots_of,
)
from malgebra.models import build_propositional
from malgebra.syntax import _formula_names
from conftest import is_tautology, slot_masks, truth_mask


P, Q = Slot("p"), Slot("q")


def format_formula(f, compact=False):
    """Render with the fewest parentheses that reparse to the same tree."""
    return fold(f, partial(format_node, pad="" if compact else " "))


@pytest.mark.parametrize("node,text", [
    (P, "Slot(name='p')"),
    (Not(P), "Not(operand=Slot(name='p'))"),
    (And(P, Q), "And(left=Slot(name='p'), right=Slot(name='q'))"),
    (Or(P, Not(Q)), "Or(left=Slot(name='p'), right=Not(operand=Slot(name='q')))"),
    (Implies(P, Or(P, Q)),
     "Implies(left=Slot(name='p'), right=Or(left=Slot(name='p'), right=Slot(name='q')))"),
])
def test_nodes_print_as_their_constructor_calls(node, text):
    assert repr(node) == text


def test_nodes_are_equal_by_class_and_fields():
    # equal trees built apart are equal and hash equal; a node never equals
    # one of another class, nor a tuple or a string of its fields
    twins = [(Slot("p"), Slot("p")), (Not(P), Not(Slot("p"))),
             (And(P, Q), And(Slot("p"), Slot("q"))), (Or(Q, P), Or(Q, Slot("p"))),
             (Implies(Not(P), Q), Implies(Not(Slot("p")), Q))]
    for a, b in twins:
        assert a == b and not a != b and hash(a) == hash(b)
    assert And(P, Q) != Or(P, Q) and Or(P, Q) != Implies(P, Q) and And(P, Q) != And(Q, P)
    assert Not(P) != Not(Q) and Slot("p") != Slot("q")
    assert P != "p" and And(P, Q) != (P, Q) and Not(P) != P
    assert len({And(P, Q), And(P, Q), Or(P, Q), Implies(P, Q), Implies(Q, P)}) == 4


def test_node_hashes_tell_the_connectives_apart():
    # the hash mixes in the class, so And, Or and Implies over one operand
    # pair hash apart: 3,772 formulas, 3,772 hashes (580 without the class)
    fs = enumerate_formulas(("bot", "p", "q", "top"), 3, 3)
    assert len(fs) == len(set(map(hash, fs))) == 3772


@pytest.mark.parametrize("node,field", [
    (P, "name"), (Not(P), "operand"), (And(P, Q), "left"), (Or(P, Q), "right"),
    (Implies(P, Q), "left"), (P, "other"),
])
def test_nodes_refuse_assignment_and_deletion(node, field):
    before = repr(node)
    with pytest.raises(AttributeError):
        setattr(node, field, Q)
    with pytest.raises(AttributeError):
        delattr(node, field)
    assert repr(node) == before


def reference_evaluate(f, assignment):
    """The value of ``f`` under one assignment, node by node: the oracle that
    ``truth_mask`` is tested against."""
    if isinstance(f, Slot):
        return assignment[f.name]
    if isinstance(f, Not):
        return not reference_evaluate(f.operand, assignment)
    if isinstance(f, And):
        return reference_evaluate(f.left, assignment) and reference_evaluate(f.right, assignment)
    if isinstance(f, Or):
        return reference_evaluate(f.left, assignment) or reference_evaluate(f.right, assignment)
    return (not reference_evaluate(f.left, assignment)) or reference_evaluate(f.right, assignment)


def test_implication_is_right_associative():
    assert parse_formula("a -> b -> c") == Implies(
        Slot("a"), Implies(Slot("b"), Slot("c"))
    )


def test_negation_and_parens():
    assert parse_formula("~(a & ~b)") == Not(And(Slot("a"), Not(Slot("b"))))


def test_and_binds_tighter_than_or():
    assert parse_formula("a | b & c") == Or(Slot("a"), And(Slot("b"), Slot("c")))


def test_not_binds_tightest():
    assert parse_formula("~a & b") == And(Not(Slot("a")), Slot("b"))
    assert parse_formula("~~a") == Not(Not(Slot("a")))


def test_left_associativity_of_and_or():
    assert parse_formula("a & b & c") == And(And(Slot("a"), Slot("b")), Slot("c"))
    assert parse_formula("a | b | c") == Or(Or(Slot("a"), Slot("b")), Slot("c"))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("a &")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_formula("(a")
    with pytest.raises(ParseError) as err:
        parse_formula("a $ b")
    assert "$" in str(err.value)
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("a b")


def test_whitespace_is_insignificant():
    assert parse_formula("a->b") == parse_formula("  a  ->  b ")


formula_strategy = st.recursive(
    st.sampled_from(["a", "b", "c", "x1"]).map(Slot),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda p: And(*p)),
        st.tuples(children, children).map(lambda p: Or(*p)),
        st.tuples(children, children).map(lambda p: Implies(*p)),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(formula_strategy)
def test_printer_parser_round_trip(f):
    assert parse_formula(format_formula(f)) == f
    assert parse_formula(format_formula(f, compact=True)) == f


def reference_format_formula(f, compact=False):
    """The former recursive printer, kept as the reference for the per-node
    text rule."""
    pad = "" if compact else " "
    precedence = {Implies: 1, Or: 2, And: 3, Not: 4, Slot: 5}
    symbol = {And: "&", Or: "|", Implies: "->"}

    def render(node):
        prec = precedence[type(node)]
        if isinstance(node, Slot):
            return node.name
        if isinstance(node, Not):
            inner = render(node.operand)
            if precedence[type(node.operand)] < prec:
                inner = "(" + inner + ")"
            return "~" + inner
        assoc_right = isinstance(node, Implies)
        left, right = render(node.left), render(node.right)
        if precedence[type(node.left)] < prec or (
                precedence[type(node.left)] == prec and assoc_right):
            left = "(" + left + ")"
        if precedence[type(node.right)] < prec or (
                precedence[type(node.right)] == prec and not assoc_right):
            right = "(" + right + ")"
        return left + pad + symbol[type(node)] + pad + right

    return render(f)


@settings(max_examples=150, deadline=None)
@given(formula_strategy)
def test_format_formula_matches_the_recursive_printer(f):
    assert format_formula(f) == reference_format_formula(f)
    assert format_formula(f, compact=True) == reference_format_formula(f, compact=True)


def test_tautology_verdicts():
    assert is_tautology("a -> (b -> a)").is_tautology
    assert is_tautology("(~b -> ~a) -> ((~b -> a) -> b)").is_tautology
    verdict = is_tautology("a -> b")
    assert not verdict.is_tautology
    assert verdict.falsifying == {"a": True, "b": False}
    assert reference_evaluate(verdict.formula, verdict.falsifying) is False


def test_truth_mask_convention():
    # rows count assignments in binary, first slot is the most significant bit
    assert truth_mask(Slot("a"), ("a", "b")) == 0b1100
    assert truth_mask(Slot("b"), ("a", "b")) == 0b1010


@settings(max_examples=150, deadline=None)
@given(formula_strategy, st.permutations(["a", "b", "c", "x1"]), st.integers(0, 4))
def test_truth_mask_matches_row_by_row_evaluation(f, order, extra):
    # any slot order that covers the formula, with unused slots mixed in
    slot_order = tuple(sorted(slots_of(f), key=order.index)) + tuple(
        s for s in order[:extra] if s not in slots_of(f))
    k = len(slot_order)
    rows = 0
    for row in range(1 << k):
        env = {s: bool(row >> (k - 1 - j) & 1) for j, s in enumerate(slot_order)}
        rows |= reference_evaluate(f, env) << row
    assert truth_mask(f, slot_order) == rows


@settings(max_examples=60, deadline=None)
@given(formula_strategy)
def test_truth_mask_refuses_an_unbound_slot(f):
    slots = slots_of(f)
    with pytest.raises(InputError, match="unbound slot"):
        truth_mask(f, slots[1:])


def test_essential_function_drops_irrelevant_slots():
    f = parse_formula("(a & b) | (a & ~b)")
    assert essential_function(f) == (("a",), 0b10)
    assert essential_function(parse_formula("a | ~a")) == ((), 1)
    assert essential_function(parse_formula("a & ~a")) == ((), 0)
    g = parse_formula("a & b")
    assert essential_function(g) == (("a", "b"), 0b1000)


def reference_essential_function(f):
    """The former drop-one-slot-and-restart row scan, kept as the reference."""
    slots = slots_of(f)
    mask = truth_mask(f, slots)
    changed = True
    while changed and slots:
        changed = False
        k = len(slots)
        for j in range(k):
            bit = 1 << (k - 1 - j)
            relevant = any(
                bool(mask >> row & 1) != bool(mask >> (row | bit) & 1)
                for row in range(1 << k)
                if not row & bit
            )
            if not relevant:
                new_mask = 0
                for row in range(1 << k):
                    if not row & bit and mask >> row & 1:
                        new_mask |= 1 << _drop_bit(row, k - 1 - j)
                mask = new_mask
                slots = slots[:j] + slots[j + 1:]
                changed = True
                break
    return slots, mask


def _drop_bit(value, position):
    high = value >> (position + 1)
    low = value & ((1 << position) - 1)
    return (high << position) | low


def reference_essential_walk(f):
    """The former body of ``essential_function``: the table over the
    formula's own slots, its irrelevant slots found by the shift test and
    the table read on the rows where they are false."""
    slots = slots_of(f)
    k = len(slots)
    columns = slot_masks(slots)
    full = (1 << (1 << k)) - 1
    mask = truth_mask(f, slots)
    kept = tuple(s for j, s in enumerate(slots)
                 if (mask & columns[s]) >> (1 << (k - 1 - j)) != mask & (full ^ columns[s]))
    reduced = 0
    for row in range(1 << len(kept)):
        wide = sum(1 << (k - 1 - slots.index(s))
                   for i, s in enumerate(kept) if row >> (len(kept) - 1 - i) & 1)
        reduced |= (mask >> wide & 1) << row
    return kept, reduced


def reference_shadow_on(fn, slots):
    """The former row-by-row shadow: every true row of ``fn`` contributes the
    rows over ``slots`` that agree with it on the shared slots."""
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


@settings(max_examples=200, deadline=None)
@given(formula_strategy, st.lists(st.sampled_from(["a", "b", "c", "x1"]), unique=True))
def test_per_node_rules_match_the_whole_tree_walks(f, slots):
    fn = essential_function(f)
    assert fn == reference_essential_walk(f) == reference_essential_function(f)
    slots = tuple(sorted(slots))
    assert formulas.shadow_on(fn, slots) == reference_shadow_on(fn, slots)


@pytest.mark.parametrize("alphabet,depth,max_slots,count", [
    (("a", "b", "c", "d"), 3, 3, 3772),
    (("a", "b", "c", "d", "e"), 3, 5, 8585),
], ids=["four-letters", "five-letters"])
def test_essential_function_matches_the_row_scan(alphabet, depth, max_slots, count):
    fs = enumerate_formulas(alphabet, depth, max_slots)
    assert len(fs) == count
    for f in fs:
        assert essential_function(f) == reference_essential_function(f), format_formula(f)


def test_entailment_oracle():
    a_and_b = essential_function(parse_formula("a & b"))
    a = essential_function(parse_formula("a"))
    a_or_b = essential_function(parse_formula("a | b"))
    c = essential_function(parse_formula("c"))
    top = essential_function(parse_formula("a -> a"))
    bot = essential_function(parse_formula("a & ~a"))
    assert entails(a_and_b, a)
    assert not entails(a, a_and_b)
    assert entails(a, a_or_b)
    assert entails(bot, c)
    assert entails(c, top)
    assert not entails(a, c)


def test_enumeration_counts_and_canonical_order():
    fs = enumerate_formulas(("a", "b"), max_depth=2, max_slots=2)
    texts = {format_formula(f, compact=True) for f in fs}
    assert texts == {
        "a", "b", "~a", "~b", "a&a", "a&b", "b&b", "a|a", "a|b", "b|b",
        "a->a", "a->b", "b->a", "b->b",
    }
    # commutative operands are sorted, so b&a never appears
    assert "b&a" not in texts


def test_enumeration_respects_slot_bound():
    fs = enumerate_formulas(("a", "b", "c"), max_depth=3, max_slots=2)
    assert all(len(slots_of(f)) <= 2 for f in fs)


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        enumerate_formulas(tuple("abcdef"), max_depth=4, max_slots=6, cap=2000)
    with pytest.raises(InputError):
        enumerate_formulas(("a",), max_depth=0, max_slots=1)


@pytest.mark.parametrize("size", range(0, 6))
def test_count_matches_enumeration(size):
    alphabet = tuple("abcde")[:size]
    for depth in range(1, 5):
        for slots in range(1, 6):
            count = count_formulas(size, depth, slots, 3 * 10**5)
            if count <= 3 * 10**5:
                assert count == len(enumerate_formulas(alphabet, depth, slots, cap=count))


def test_count_decides_the_cap_at_its_boundary():
    count = count_formulas(3, 3, 2, 10**6)
    assert count == len(enumerate_formulas(("a", "b", "c"), 3, 2, cap=count))
    with pytest.raises(BudgetError, match=f"exceeds the cap of {count - 1}$"):
        enumerate_formulas(("a", "b", "c"), 3, 2, cap=count - 1)
    # the count stops at the first level over the cap, so it is cheap at any depth
    assert count_formulas(3, 100, 3, 10**6) == count_formulas(3, 6, 3, 10**6) == 4593483


def test_over_budget_enumeration_builds_no_formula(monkeypatch):
    def built(*args):
        raise AssertionError("a formula node was built")

    for ctor in ("Slot", "Not", "And", "Or", "Implies"):
        monkeypatch.setattr(formulas, ctor, built)
    with pytest.raises(BudgetError, match="exceeds the cap of 1000000$"):
        enumerate_formulas(("p", "q", "top"), max_depth=6, max_slots=3)


def test_minimal_formula_names_cover_everything():
    names = _formula_names(("p", "q"))
    assert len(names) == 16
    assert (names[0b1100], names[0b1010], names[0b1000], names[0b0011]) == ("p", "q", "p&q", "~p")
    # every mask really computes its own truth table
    for mask, text in names.items():
        assert truth_mask(parse_formula(text), ("p", "q")) == mask


def test_minimal_formula_names_three_atoms():
    names = _formula_names(("p", "q", "r"))
    assert len(names) == 256
    for mask, text in names.items():
        assert truth_mask(parse_formula(text), ("p", "q", "r")) == mask


def reference_minimal_formula_names(atoms):
    """The former search, which built every candidate node before asking
    whether its mask was new; kept as the reference for the names."""
    n_rows = 1 << len(atoms)
    full = (1 << n_rows) - 1
    atom_mask = slot_masks(atoms)
    best, by_size = {}, [[]]

    def record(size_bucket, node, mask):
        if mask in best:
            return
        best[mask] = node
        size_bucket.append((node, mask))

    bucket = []
    for name in atoms:
        record(bucket, Slot(name), atom_mask[name])
    by_size.append(bucket)
    size = 1
    while len(best) < (1 << n_rows) and size < 25:
        size += 1
        bucket = []
        for f, m in by_size[size - 1]:
            record(bucket, Not(f), full ^ m)
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            if right_size < 1 or right_size >= len(by_size):
                continue
            for f, fm in by_size[left_size]:
                for g, gm in by_size[right_size]:
                    record(bucket, And(f, g), fm & gm)
                    record(bucket, Or(f, g), fm | gm)
                    record(bucket, Implies(f, g), (full ^ fm) | gm)
        by_size.append(bucket)
    return best


def compact_reference_names(atoms):
    """The reference's names in compact text, in its discovery order."""
    return [(m, format_formula(f, compact=True))
            for m, f in reference_minimal_formula_names(atoms).items()]


@pytest.mark.parametrize("atoms", [("p",), ("p", "q"), ("p", "q", "r")])
def test_minimal_formula_names_match_the_reference(atoms):
    # the same texts, in the same discovery order
    assert list(_formula_names(atoms).items()) == compact_reference_names(atoms)


def test_minimal_formula_names_build_one_node_per_mask(monkeypatch):
    # the search joins a text only for a new mask: every mask but the atoms'
    built = []
    monkeypatch.setattr(syntax, "join",
                        lambda *args, _join=syntax.join: built.append(1) or _join(*args))
    assert len(_formula_names(("p", "q", "r"))) == 256
    assert len(built) <= 256 - 3


def _joint_masks(f, g):
    union = tuple(sorted(set(slots_of(f)) | set(slots_of(g))))
    return truth_mask(f, union), truth_mask(g, union), union


@settings(max_examples=120, deadline=None)
@given(formula_strategy, formula_strategy)
def test_essential_function_matches_joint_truth_tables(f, g):
    # equivalence and entailment through the reduced functions must agree
    # with the direct joint-table computation
    mf, mg, union = _joint_masks(f, g)
    fn_f, fn_g = essential_function(f), essential_function(g)
    assert (fn_f == fn_g) == (mf == mg)
    assert entails(fn_f, fn_g) == (mf & ~mg == 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True).filter(
    lambda a: a not in ("top", "bot")), min_size=1, max_size=3, unique=True))
def test_propositional_member_names_are_the_minimal_formulas(atoms):
    expected = dict(compact_reference_names(tuple(atoms)))
    assert _formula_names(tuple(atoms)) == expected
    full = (1 << (1 << len(atoms))) - 1
    assert set(build_propositional(atoms).names) == {
        "top", "bot", *(text for m, text in expected.items() if m not in (0, full))}
