"""The tautology harness and the implication schemes on concrete algebras."""

import json
from pathlib import Path

import pytest

from malgebra import models
from malgebra.connectives import CommutingSet, formula_walker
from malgebra.core import apply
from malgebra.errors import BudgetError
from malgebra.formulas import (
    Implies,
    Slot,
    entails,
    enumerate_formulas,
    essential_function,
    format_formula,
    is_tautology,
)
from malgebra.logic import verify_schemes, verify_tautology_theorem
from malgebra.models import measurement_for


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
    # the harness tests fixpoint inclusion for the class pairs whose truth
    # tables entail, in text order; a pairwise loop over entails is the reference
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
    assert asked == expected
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
    assert direct == via_formula == measurement_for(t2, "p & q")


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
