"""Parser, printer, truth tables and formula enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgebra import formulas
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
    evaluate,
    format_formula,
    is_tautology,
    minimal_formula_names,
    parse_formula,
    slots_of,
    truth_mask,
)


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


def test_tautology_verdicts():
    assert is_tautology("a -> (b -> a)").is_tautology
    assert is_tautology("(~b -> ~a) -> ((~b -> a) -> b)").is_tautology
    verdict = is_tautology("a -> b")
    assert not verdict.is_tautology
    assert verdict.falsifying == {"a": True, "b": False}
    assert evaluate(verdict.formula, verdict.falsifying) is False


def test_tautology_slot_cap():
    big = " | ".join(f"s{i}" for i in range(21))
    with pytest.raises(BudgetError):
        is_tautology(big)


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
        rows |= evaluate(f, env) << row
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
    names = minimal_formula_names(("p", "q"))
    assert len(names) == 16
    assert format_formula(names[0b1100], compact=True) == "p"
    assert format_formula(names[0b1010], compact=True) == "q"
    assert format_formula(names[0b1000], compact=True) == "p&q"
    assert format_formula(names[0b0011], compact=True) == "~p"
    # every mask really computes its own truth table
    for mask, formula in names.items():
        assert truth_mask(formula, ("p", "q")) == mask


def test_minimal_formula_names_three_atoms():
    names = minimal_formula_names(("p", "q", "r"))
    assert len(names) == 256
    for mask, formula in names.items():
        assert truth_mask(formula, ("p", "q", "r")) == mask


def reference_minimal_formula_names(atoms):
    """The former search, which built every candidate node before asking
    whether its mask was new; kept as the reference for the names."""
    n_rows = 1 << len(atoms)
    full = (1 << n_rows) - 1
    atom_mask = formulas.slot_masks(atoms)
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


@pytest.mark.parametrize("atoms", [("p",), ("p", "q"), ("p", "q", "r")])
def test_minimal_formula_names_match_the_reference(atoms):
    names = minimal_formula_names(atoms)
    reference = reference_minimal_formula_names(atoms)
    assert sorted((m, format_formula(f)) for m, f in names.items()) == \
        sorted((m, format_formula(f)) for m, f in reference.items())


def test_minimal_formula_names_build_one_node_per_mask(monkeypatch):
    built = []
    for ctor in ("Slot", "Not", "And", "Or", "Implies"):
        original = getattr(formulas, ctor)
        monkeypatch.setattr(formulas, ctor,
                            lambda *args, _ctor=original: built.append(1) or _ctor(*args))
    assert len(minimal_formula_names(("p", "q", "r"))) == 256
    assert len(built) <= 256


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
