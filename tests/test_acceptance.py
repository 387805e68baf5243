"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact (rational arithmetic, extensional table comparison)
or deterministic sampling at the stated heights; there are no tolerances.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from contextlib import contextmanager

import pytest

from malgebra.connectives import CommutingSet, disjunction
from malgebra.core import (
    DEFINING_AXIOMS,
    check_axiom,
    check_axioms,
    lemma_suite,
    negation_of,
    point_measurement,
    preserves,
    preserves_pointwise,
    replay_witness,
)
from malgebra.logic import verify_schemes, verify_tautology_theorem
from malgebra.models import build_table
from malgebra.order import orthomodular_check, strong_sep_check
from malgebra.connectives import conjunction
from malgebra.ratlin import Ray, Subspace
from conftest import apply, load_fixture

R = Ray.from_vector


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


def theory_members(state_id):
    inner = state_id[1:-1]
    return set(inner.split(",")) if inner else set()


def test_criterion_1_axiom_suite(f1, t2, t2max, r2, r3):
    with criterion(1, "defining axioms on all fixtures"):
        start = time.perf_counter()
        for alg in (f1, t2, t2max):
            for result in check_axioms(alg, DEFINING_AXIOMS):
                assert result.status == "pass", (alg.kind, result.property_id)
        for alg in (r2, r3):
            for result in check_axioms(alg, DEFINING_AXIOMS):
                assert result.status in ("pass", "sampled_pass"), (
                    result.property_id,
                    result.witnesses,
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"


def test_criterion_2_separability_verdicts(t2, t2max, r2full, r3full):
    with criterion(2, "separability verdicts"):
        verdict = check_axiom(t2, "separability")
        assert verdict.status == "fail"
        x, y = verdict.witnesses[0]
        assert theory_members(y) < theory_members(x), "witness pair must be nested"
        assert check_axiom(t2max, "separability").status == "pass"
        assert check_axiom(t2max, "strong_separability").status == "pass"
        for alg in (r2full, r3full):
            assert check_axiom(alg, "strong_separability").status == "sampled_pass"


def test_criterion_3_lemma_suite(f1, t2, t2max, r2, r2full, r3, r3full):
    with criterion(3, "derived-law suite"):
        for alg in (f1, t2, t2max, r2, r2full, r3, r3full):
            results = lemma_suite(alg)
            assert len(results) == 12
            for result in results:
                assert result.ok, (alg.kind, result.property_id, result.witnesses)
                assert not result.advisory


COMMUTING_SETS = {
    "t2": ["p", "q", "top"],
    "r2": ["px", "py", "top"],
}


def test_criterion_4_tautology_theorem(t2, r2):
    with criterion(4, "tautology fixpoint theorem"):
        start = time.perf_counter()
        for alg, names in ((t2, COMMUTING_SETS["t2"]), (r2, COMMUTING_SETS["r2"])):
            cs = CommutingSet(alg, names)
            result = verify_tautology_theorem(alg, cs, max_depth=3, max_slots=3)
            assert result.status == "pass", result.witnesses
            assert result.checked_count > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"harness took {elapsed:.1f}s"


def test_criterion_5_schemes(t2, r2):
    with criterion(5, "implication schemes and definability"):
        for alg, names in ((t2, COMMUTING_SETS["t2"]), (r2, COMMUTING_SETS["r2"])):
            cs = CommutingSet(alg, names)
            results = verify_schemes(alg, cs)
            assert len(results) == 6
            for result in results:
                assert result.status == "pass", (result.property_id, result.witnesses)


def test_criterion_6_orthomodularity(f1, t2, t2max, r2, r2full, r3, r3full):
    with criterion(6, "orthocomplementation laws"):
        for alg in (f1, t2, t2max, r2, r2full, r3, r3full):
            for result in orthomodular_check(alg):
                assert result.status == "pass", (alg.kind, result.property_id)
        # the worked instance: axis below plane
        step = conjunction(r3, negation_of(r3, "px"), "pxy")
        assert step == r3.measurement("py")
        assert disjunction(r3, "px", step) == r3.measurement("pxy")


def test_criterion_7_point_measurement_theorems(r2full, r3full):
    with criterion(7, "point-measurement theorems"):
        for alg in (r2full, r3full):
            results = strong_sep_check(alg)
            assert [r.property_id for r in results] == [
                "pointsep_implication",
                "pointsep_uniqueness",
                "pointsep_decomposition",
            ]
            for result in results:
                assert result.status == "sampled_pass", (
                    result.property_id,
                    result.witnesses,
                )
        # the worked decomposition of the all-ones ray
        x = R([1, 1, 1])
        u = apply(r3full, "pxy", x)
        v = apply(r3full, negation_of(r3full, "pxy"), x)
        assert (u, v) == (R([1, 1, 0]), R([0, 0, 1]))
        join = disjunction(
            r3full, point_measurement(r3full, u), point_measurement(r3full, v)
        )
        assert join.subspace == Subspace.from_generators(3, [[1, 1, 0], [0, 0, 1]])
        assert apply(r3full, join, x) == x


def test_criterion_8_mutation_sensitivity():
    with criterion(8, "mutation sensitivity"):
        pristine = load_fixture("t2")
        tables = {name: dict(m.mapping) for name, m in pristine.measurements.items()}
        states = list(pristine.states)
        nonzero = [s for s in states if s != pristine.zero]
        rng = random.Random(20260810)
        mutants = set()
        while len(mutants) < 60:
            name = rng.choice(sorted(tables))
            state = rng.choice(nonzero)
            new_target = rng.choice(states)
            if new_target != tables[name][state]:
                mutants.add((name, state, new_target))
        assert len(mutants) >= 50
        for name, state, new_target in sorted(mutants):
            mutated = {n: dict(t) for n, t in tables.items()}
            mutated[name][state] = new_target
            mutant = build_table(states=states, zero=pristine.zero,
                                 measurements=mutated)
            failing = [
                r for r in check_axioms(mutant, DEFINING_AXIOMS) if r.status == "fail"
            ]
            assert failing, f"mutant {(name, state, new_target)} passed all axioms"
            for result in failing:
                assert result.witnesses
                assert replay_witness(mutant, result.property_id, result.witnesses[0]), (
                    result.property_id,
                    result.witnesses[0],
                )


def test_criterion_9_loop_cumulativity(r2, r3):
    with criterion(9, "loop cumulativity on ray models"):
        for alg in (r2, r3):
            result = check_axiom(alg, "l_cumulativity")
            assert result.status == "sampled_pass", result.witnesses


def test_criterion_10_cross_oracle_preservation(r2, r2full, r3, r3full):
    with criterion(10, "analytic vs pointwise preservation"):
        for alg in (r2, r2full, r3, r3full):
            for a in alg.names:
                for b in alg.names:
                    analytic = preserves(alg, a, b)
                    pointwise = preserves_pointwise(alg, a, b)
                    assert analytic == pointwise, (alg.dim, a, b)
