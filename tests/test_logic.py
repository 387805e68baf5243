"""The tautology harness and the implication schemes on concrete algebras."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgebra import models
from malgebra.connectives import CommutingSet, conjunction, disjunction, implication
from malgebra.core import check_result, commutes, negation_of
from malgebra.errors import BudgetError
from malgebra.formulas import (
    And,
    Implies,
    Not,
    Or,
    Slot,
    entails,
    enumerate_formulas,
    essential_function,
)
from malgebra.logic import verify_schemes, verify_tautology_theorem
from conftest import FIXTURES, apply, formula_walker, is_tautology, load_fixture
from test_formulas import (
    format_formula,
    reference_essential_walk,
    reference_format_formula,
    reference_shadow_on,
)
from test_order import tables_with_top_and_bot


def test_harness_on_small_theory_commuting_set(t2):
    cs = CommutingSet(t2, ["p", "q", "top"])
    result = verify_tautology_theorem(t2, cs, max_depth=3, max_slots=3)
    assert result.status == "pass"
    assert result.checked_count > 100


def test_harness_on_full_theory_commuting_set(t2):
    # every measurement commutes in the theory model, so the whole family
    # forms one commuting set
    cs = CommutingSet(t2, t2.names)
    result = verify_tautology_theorem(t2, cs, max_depth=3, max_slots=2)
    assert result.status == "pass"


def test_harness_on_ray_commuting_set(r2):
    cs = CommutingSet(r2, ["bot", "px", "py", "top"])
    result = verify_tautology_theorem(r2, cs, max_depth=3, max_slots=3)
    assert result.status == "pass"


def test_harness_enumerates_a_known_tautology():
    fs = enumerate_formulas(("px", "py"), max_depth=3, max_slots=2)
    weakening = Implies(Slot("px"), Implies(Slot("py"), Slot("px")))
    assert weakening in fs
    assert is_tautology(weakening).is_tautology


def test_converse_is_not_claimed(t2):
    # a bare slot bound to the identity measurement fixes every state but is
    # not a tautology; the harness must not flag it
    cs = CommutingSet(t2, ["p", "top"])
    result = verify_tautology_theorem(t2, cs, max_depth=2, max_slots=2)
    assert result.status == "pass"
    assert not is_tautology(Slot("top")).is_tautology
    assert all(apply(t2, "top", x) == x for x in t2.states)


def test_harness_budget_error(t2):
    cs = CommutingSet(t2, ["p", "q", "top"])
    with pytest.raises(BudgetError):
        verify_tautology_theorem(t2, cs, max_depth=6, max_slots=3)


def test_harness_surfaces_missing_negation():
    # commuting set over an algebra lacking a negation: evaluating any
    # negated formula must raise the violation rather than fake a result
    from malgebra.errors import NegationViolation
    from malgebra.models import build_table

    alg = build_table(
        states=["0", "a", "b"],
        zero="0",
        measurements={
            "top": {"0": "0", "a": "a", "b": "b"},
            "bot": {"0": "0", "a": "0", "b": "0"},
            "m": {"0": "0", "a": "a", "b": "0"},
        },
    )
    cs = CommutingSet(alg, ["bot", "m", "top"])
    with pytest.raises(NegationViolation):
        verify_tautology_theorem(alg, cs, max_depth=2, max_slots=2)
    assert essential_function(Slot("a")) == (("a",), 0b10)


def test_harness_result_on_broken_order_model():
    # captured before classes were keyed by truth masks over the commuting
    # set: m2 and m2|m2 are equivalent yet evaluate to different members
    data = json.loads((Path(__file__).resolve().parent / "golden" / "broken_order.json").read_text())
    alg = models.load_model(data)
    result = verify_tautology_theorem(alg, CommutingSet(alg, ["bot", "m2", "top"]), 2, 2)
    assert result.status == "fail"
    assert result.witnesses == [("equivalent_not_equal", "m2", "m2|m2")]
    assert result.checked_count == 27
    assert result.note == "19 semantic classes"


def test_entailment_rows_ask_for_exactly_the_entailed_pairs(t2, monkeypatch):
    # the harness tests fixpoint inclusion once per member pair of classes
    # whose truth tables entail, in first-entailed text order; a pairwise loop
    # over entails is the reference
    cs = CommutingSet(t2, ["bot", "p", "q", "top", "~p"])
    walk = formula_walker(t2, {name: name for name in cs.names})
    classes = {}
    for f in enumerate_formulas(cs.names, 2, 2):
        classes.setdefault(essential_function(f), (format_formula(f, compact=True), walk(f)))
    items = sorted(classes.items(), key=lambda kv: kv[1][0])
    expected = [(m_a.name, m_b.name) for fn_a, (_, m_a) in items for fn_b, (_, m_b) in items
                if fn_a != fn_b and entails(fn_a, fn_b)]

    asked = []
    fp_subset = t2.fp_subset
    monkeypatch.setattr(t2, "fp_subset", lambda a, b: asked.append((a.name, b.name)) or fp_subset(a, b))
    verify_tautology_theorem(t2, cs, 2, 2)
    assert asked == list(dict.fromkeys(expected))
    assert len(expected) > 100


def test_harness_over_a_wide_commuting_set():
    # a truth table over all 20 members at once would have 2**20 rows; the
    # classes are keyed by functions of at most two of them
    atoms = [f"a{i}" for i in range(5)]
    alg = models.load_model({
        "kind": "table", "states": ["0", *atoms], "zero": "0",
        "measurements": {f"m{mask}": {"0": "0", **{a: a if mask >> i & 1 else "0"
                                                  for i, a in enumerate(atoms)}}
                         for mask in range(32)},
    })
    cs = CommutingSet(alg, [f"m{mask}" for mask in range(20)])
    result = verify_tautology_theorem(alg, cs, 2, 2)
    assert (result.status, result.checked_count, result.note) == ("pass", 860, "801 semantic classes")


def test_schemes_on_theory_model(t2):
    cs = CommutingSet(t2, t2.names)
    results = verify_schemes(t2, cs)
    assert {r.property_id for r in results} == {
        "modus_ponens",
        "scheme_weakening",
        "scheme_distribution",
        "scheme_contraposition",
        "conjunction_definability",
        "disjunction_definability",
    }
    assert all(r.ok for r in results)
    assert all(r.status != "vacuous" for r in results)


def test_schemes_on_ray_model(r2):
    cs = CommutingSet(r2, ["bot", "px", "py", "top"])
    results = verify_schemes(r2, cs)
    assert all(r.status == "pass" for r in results)


def test_conjunction_definability_instance(t2):
    # the conjunction of two atoms equals the negated implication chain
    cs = CommutingSet(t2, ["p", "q"])
    from malgebra.connectives import conjunction, eval_formula

    direct = conjunction(t2, "p", "q")
    via_formula = eval_formula(t2, cs, "~(a -> ~b)", {"a": "p", "b": "q"})
    assert direct == via_formula == t2.measurement("p&q")


def test_disjunction_definability_instance(t2):
    cs = CommutingSet(t2, ["p", "q"])
    from malgebra.connectives import disjunction, eval_formula

    assert disjunction(t2, "p", "q") == eval_formula(
        t2, cs, "~a -> b", {"a": "p", "b": "q"}
    )


def test_entailment_gives_fixpoint_inclusion(t2):
    # spot instance of the harness's inclusion direction
    cs = CommutingSet(t2, ["p", "q"])
    from malgebra.connectives import eval_formula

    stronger = eval_formula(t2, cs, "a & b", {"a": "p", "b": "q"})
    weaker = eval_formula(t2, cs, "a | b", {"a": "p", "b": "q"})
    assert t2.fp_mask(stronger) & ~t2.fp_mask(weaker) == 0


def test_scheme_instances_are_truth_table_tautologies():
    # the harness's scheme side and oracle side agree on the schemes themselves
    for text in (
        "a -> (b -> a)",
        "(a -> (b -> c)) -> ((a -> b) -> (a -> c))",
        "(~b -> ~a) -> ((~b -> a) -> b)",
    ):
        assert is_tautology(text).is_tautology


# the one-pass harness against the former formula-by-formula loop ------------


def reference_formula_walker(alg, binding):
    """The former walker: node results memoised by node equality, which
    hashes each node down its tree, and connective results by operand
    identity."""
    memo, applied = {}, {}
    connective = {And: conjunction, Or: disjunction, Implies: implication}

    def walk(node):
        m = memo.get(node)
        if m is None:
            if isinstance(node, Slot):
                m = alg.measurement(binding[node.name])
            elif isinstance(node, Not):
                m = negation_of(alg, walk(node.operand))
            else:
                left, right = walk(node.left), walk(node.right)
                key = (type(node), id(left), id(right))
                m = applied.get(key)
                if m is None:
                    m = applied[key] = connective[type(node)](alg, left, right)
            memo[node] = m
        return m

    return walk


def reference_verify_tautology_theorem(alg, cs, max_depth=3, max_slots=3):
    """The former harness: each formula is printed, evaluated and reduced to
    its essential function on its own, and fixpoint inclusion is asked for
    every entailed pair of classes."""
    alphabet = cs.names
    formulas_list = enumerate_formulas(alphabet, max_depth, min(max_slots, len(alphabet)))
    evaluate_member = reference_formula_walker(alg, {name: name for name in alphabet})
    witnesses = []
    classes = {}
    for f in formulas_list:
        text = reference_format_formula(f, compact=True)
        measurement = evaluate_member(f)
        fn = reference_essential_walk(f)
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
    for i, (fn_a, (text_a, m_a)) in enumerate(class_items):
        for j, ((slots_b, mask_b), (text_b, m_b)) in enumerate(class_items):
            shadow = reference_shadow_on(fn_a, slots_b)
            if j != i and mask_b & shadow == shadow and not alg.fp_subset(m_a, m_b):
                witnesses.append(("entailment_not_included", text_a, text_b))
    return check_result("tautology_theorem", witnesses, len(formulas_list),
                        note=f"{len(classes)} semantic classes")


def commuting_subset(alg, names, size):
    """The first ``size`` of ``names`` that commute with all kept before them."""
    kept = []
    for name in names:
        if len(kept) < size and all(commutes(alg, name, other) for other in kept):
            kept.append(name)
    return CommutingSet(alg, kept)


def theorem_outcome(harness, alg, cs, depth, slots):
    try:
        return harness(alg, cs, depth, slots)
    except Exception as exc:  # compared by type against the reference
        return type(exc)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", FIXTURES + ("broken", "broken_order"))
def test_harness_matches_reference_on_fixtures(name):
    alg = (models.load_model(json.loads((GOLDEN / f"{name}.json").read_text()))
           if name.startswith("broken") else load_fixture(name))
    for depth, slots, size in ((3, 3, 4), (2, 2, 5), (3, 1, 3), (1, 3, 3)):
        cs = commuting_subset(alg, alg.names, size)
        assert theorem_outcome(verify_tautology_theorem, alg, cs, depth, slots) == \
            theorem_outcome(reference_verify_tautology_theorem, alg, cs, depth, slots)


@settings(max_examples=120, deadline=None)
@given(tables_with_top_and_bot(), st.data())
def test_harness_matches_reference_on_random_tables(alg, data):
    names = data.draw(st.permutations(alg.names))
    cs = commuting_subset(alg, names, data.draw(st.integers(1, 3)))
    depth, slots = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    assert theorem_outcome(verify_tautology_theorem, alg, cs, depth, slots) == \
        theorem_outcome(reference_verify_tautology_theorem, alg, cs, depth, slots)
