"""Connectives on commuting measurements: synthesis, refusal, closure."""

import pytest

from malgebra.connectives import (
    CommutingSet,
    conjunction,
    disjunction,
    eval_formula,
    implication,
    is_classical,
)
from malgebra.formulas import Not, Slot, enumerate_formulas
from malgebra.core import commutes, extent, negation_of, top_bot
from malgebra.errors import InputError, NotCommutingError
from malgebra.ratlin import Ray
from conftest import apply, formula_walker, load_fixture

R = Ray.from_vector


def commuting_pairs(alg):
    return [
        (a, b)
        for a in alg.names
        for b in alg.names
        if commutes(alg, a, b)
    ]


# conjunction -------------------------------------------------------------------


def test_conjunction_of_orthogonal_axes(r2):
    assert conjunction(r2, "px", "py").name == "bot"


def test_conjunction_of_atoms(t2):
    assert conjunction(t2, "p", "q").name == "p&q"


def test_conjunction_with_top_is_identity(t2, r2):
    for alg in (t2, r2):
        top, _ = top_bot(alg)
        for name in alg.names:
            assert conjunction(alg, name, top) == alg.measurement(name)


def test_conjunction_is_unique_fixpoint_intersection(t2):
    # cross-check against the measurement found by fixpoint search alone
    for a, b in commuting_pairs(t2):
        composed = conjunction(t2, a, b)
        target = t2.fp_mask(t2.measurement(a)) & t2.fp_mask(t2.measurement(b))
        matches = [m for m in t2.sorted_measurements() if t2.fp_mask(m) == target]
        assert matches == [composed]


def test_conjunction_associative_commutative_idempotent(t2):
    names = ["p", "q", "~p"]
    for a in names:
        assert conjunction(t2, a, a) == t2.measurement(a)
        for b in names:
            assert conjunction(t2, a, b) == conjunction(t2, b, a)
            for c in names:
                left = conjunction(t2, conjunction(t2, a, b), c)
                right = conjunction(t2, a, conjunction(t2, b, c))
                assert left == right


# disjunction -------------------------------------------------------------------


def test_disjunction_zeros_intersect(t2):
    assert disjunction(t2, "p", "q").name == "p|q"


def test_disjunction_of_axes_is_top_with_strictness_witness(r2):
    join = disjunction(r2, "px", "py")
    assert join.name == "top"
    witness = R([1, 1])
    assert apply(r2, join, witness) == witness
    assert apply(r2, "px", witness) != witness
    assert apply(r2, "py", witness) != witness


def test_disjunction_with_negation_is_top(t2, r2):
    for alg in (t2, r2):
        top, _ = top_bot(alg)
        for name in alg.names:
            assert disjunction(alg, name, negation_of(alg, name)) == top


def test_fixpoint_union_included_in_disjunction(t2):
    for a, b in commuting_pairs(t2):
        join = disjunction(t2, a, b)
        union = t2.fp_mask(t2.measurement(a)) | t2.fp_mask(t2.measurement(b))
        assert union & ~t2.fp_mask(join) == 0


# implication -------------------------------------------------------------------


def test_implication_to_self_is_top(t2, r2):
    for alg in (t2, r2):
        top, _ = top_bot(alg)
        for name in alg.names:
            assert implication(alg, name, name) == top


def test_implication_of_atoms(t2):
    assert implication(t2, "p", "q").name == "p->q"


def test_implication_fixpoints_are_preimages(t2):
    # fixed by a->b exactly when applying a lands in b's fixpoints
    for a, b in commuting_pairs(t2):
        imp = implication(t2, a, b)
        for x in t2.states:
            expected = apply(t2, b, apply(t2, a, x)) == apply(t2, a, x)
            assert (apply(t2, imp, x) == x) == expected


def test_implication_fixpoint_on_rays(r2):
    imp = implication(r2, "pd", "pd")
    assert imp.name == "top"
    x = R([1, 0])
    assert apply(r2, "pd", x) == R([1, 1])
    assert apply(r2, imp, x) == x


def test_modus_ponens_pointwise(t2, r2):
    r2 = load_fixture("r2", height=2)  # a height-2 window
    for alg, states in ((t2, t2.states), (r2, r2.sample_states())):
        for a, b in commuting_pairs(alg):
            imp = implication(alg, a, b)
            for x in states:
                if apply(alg, a, x) == x and apply(alg, imp, x) == x:
                    assert apply(alg, b, x) == x


def test_zeros_of_implication(t2):
    # zeros of a->b are a's fixpoints that b annihilates
    for a, b in commuting_pairs(t2):
        imp = implication(t2, a, b)
        fp_a, z_b = extent(t2, a)[0], extent(t2, b)[1]
        assert extent(t2, imp)[1] == fp_a & z_b


# refusal and commuting sets -------------------------------------------------------


def test_connectives_refuse_non_commuting_pairs(r2):
    for op in (conjunction, disjunction, implication):
        with pytest.raises(NotCommutingError) as err:
            op(r2, "px", "pd")
        assert set(err.value.pair) == {"px", "pd"}


def test_commuting_set_certificate(r2):
    cs = CommutingSet(r2, ["bot", "px", "py", "top"])
    assert len(cs) == 4
    with pytest.raises(NotCommutingError):
        CommutingSet(r2, ["px", "pd"])
    with pytest.raises(InputError):
        CommutingSet(r2, ["px", "px"])


def test_connective_results_commute_with_members(t2, r2):
    for alg, names in ((t2, list(t2.names)), (r2, ["bot", "px", "py", "top"])):
        cs = CommutingSet(alg, names)
        for a in names[:4]:
            for b in names[:4]:
                if not commutes(alg, a, b):
                    continue
                for result in (
                    conjunction(alg, a, b),
                    disjunction(alg, a, b),
                    implication(alg, a, b),
                ):
                    for member in cs.members():
                        assert commutes(alg, result, member)


# formula evaluation ----------------------------------------------------------------


def test_eval_weakening_scheme_on_rays(r2):
    cs = CommutingSet(r2, ["bot", "px", "py", "top"])
    result = eval_formula(r2, cs, "a -> (b -> a)", {"a": "px", "b": "py"})
    assert result.name == "top"


def test_eval_formula_matches_connective(t2):
    cs = CommutingSet(t2, t2.names)
    result = eval_formula(t2, cs, "~(a & ~b)", {"a": "p", "b": "q"})
    assert result == implication(t2, "p", "q")
    assert result.name == "p->q"


def test_excluded_middle_evaluates_to_top(t2, r2):
    for alg, name in ((t2, "p"), (r2, "pd")):
        cs = CommutingSet(alg, [name])
        top, _ = top_bot(alg)
        assert eval_formula(alg, cs, "a | ~a", {"a": name}) == top


def test_equivalent_formulas_evaluate_equal(t2):
    cs = CommutingSet(t2, t2.names)
    binding = {"a": "p", "b": "q"}
    one = eval_formula(t2, cs, "a -> b", binding)
    other = eval_formula(t2, cs, "~a | b", binding)
    assert one == other
    assert all(commutes(t2, other, member) for member in cs.members())


def test_walker_composes_each_operand_pair_once(monkeypatch):
    alg = load_fixture("r2")
    calls = []
    compose = alg.compose_member

    def counting(a, b):
        calls.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(alg, "compose_member", counting)
    names = ("bot", "px", "py", "top")
    formulas = enumerate_formulas(names, 3, 3)
    walk = formula_walker(alg, {n: n for n in names})
    for f in formulas:
        walk(f)
    # each connective composes once, so the distinct (connective, left,
    # right) triples bound the calls; repeated walks hit the node memo
    applications = {(type(f), id(walk(f.left)), id(walk(f.right)))
                    for f in formulas if not isinstance(f, (Slot, Not))}
    assert 0 < len(calls) <= len(applications)


def test_eval_formula_binding_errors(t2):
    cs = CommutingSet(t2, ["p", "q"])
    with pytest.raises(InputError, match="unbound slot"):
        eval_formula(t2, cs, "a & b", {"a": "p"})
    with pytest.raises(InputError, match="not"):
        eval_formula(t2, cs, "a", {"a": "~p"})


# classicality ---------------------------------------------------------------------


def test_classicality_verdicts(t2max, r2):
    assert all(is_classical(t2max, name) for name in t2max.names)
    assert not is_classical(r2, "pd")
    ray = R([1, 0])
    assert apply(r2, "pd", ray) not in (ray, r2.zero)
    assert is_classical(r2, "top") and is_classical(r2, "bot")


def test_classicality_closed_under_connectives(t2max):
    for a in t2max.names:
        assert is_classical(t2max, negation_of(t2max, a))
        for b in t2max.names:
            assert is_classical(t2max, conjunction(t2max, a, b))
            assert is_classical(t2max, disjunction(t2max, a, b))
            assert is_classical(t2max, implication(t2max, a, b))
