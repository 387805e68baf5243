"""Core algebra operations and the axiom engine, on the bundled fixtures."""

import json
import random
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malgebra.core import (
    ALL_AXIOMS,
    CheckResult,
    FiniteAlgebra,
    MAlgebra,
    Measurement,
    ProjectionMeasurement,
    TableMeasurement,
    bit_columns,
    check_axiom,
    check_axioms,
    check_instances,
    check_result,
    commutes,
    compose_member,
    compose_raw,
    extent,
    lemma_suite,
    membership,
    negation_of,
    point_measurement,
    preserves,
    preserves_pointwise,
    replay_witness,
    top_bot,
)
from malgebra.connectives import is_classical
from malgebra.errors import (
    ClosureViolation,
    InputError,
    NegationViolation,
    NotCommutingError,
    OrderViolation,
)
from malgebra.laws import _LAWS, _all_bfs, _bfs_path, _pair_lemmas
from malgebra.models import build_ray, build_table, load_model
from malgebra.order import bounds_check
from malgebra.ratlin import Ray, Subspace, projection_matrix, scale_to_int, zero_matrix
from malgebra.rays import RayAlgebra
from conftest import FIXTURES, apply, load_fixture
from test_order import tables_with_top_and_bot

R = Ray.from_vector


def tables_of(alg):
    return {name: dict(m.mapping) for name, m in alg.measurements.items()}


# apply ---------------------------------------------------------------------


def test_apply_projects_and_canonicalizes(r2):
    assert apply(r2, "pd", R([1, 0])) == R([1, 1])


def test_ray_action_and_projection_share_one_memo():
    alg = load_fixture("r3")  # a fresh model: its subspaces have projected nothing yet
    m = alg.measurement("pxy")
    action = alg.action(m)
    by_action, by_call = R((1, 2, 3)), R((3, 1, 1))
    assert by_action not in action and by_call not in action
    assert action[by_action] == m(by_action) == R((1, 2, 0))
    m(by_call)
    assert by_call in action
    assert action is alg.action(m) is m.subspace.ray_images
    with pytest.raises(InputError):
        action[R((1, 0))]


def test_apply_fixes_zero_everywhere(r2, t2):
    for alg in (r2, t2):
        for name in alg.names:
            assert apply(alg, name, alg.zero) == alg.zero


def test_apply_intersects_model_sets(t2):
    assert apply(t2, "p", "{v00,v11}") == "{v11}"


def test_apply_unknown_inputs(t2):
    with pytest.raises(InputError):
        apply(t2, "nope", "{}")
    with pytest.raises(InputError):
        apply(t2, "p", "not-a-state")


@pytest.mark.parametrize("call", [lambda alg: apply(alg, "p", ["x"]),
                                  lambda alg: point_measurement(alg, ["x"])],
                         ids=["apply", "point_measurement"])
def test_table_backend_refuses_unhashable_states(t2, call):
    with pytest.raises(InputError, match="state"):
        call(t2)


# extent ---------------------------------------------------------------------


def test_extent_of_identity(f1):
    fp, z, deff = extent(f1, "top")
    assert fp == {"0", "a"} and f1.exact
    assert z == {"0"}
    assert deff == {"0", "a"}


def test_extent_enumerates_theories(t2):
    fp, _, _ = extent(t2, "p")
    assert fp == {"{}", "{v10}", "{v11}", "{v10,v11}"}


def test_extent_on_rays_is_analytic(r2):
    fp, z, _ = extent(r2, "px")
    sub = r2.measurement("px").subspace
    assert all(sub.contains_ray(x) for x in fp)
    assert all(sub.orthocomplement.contains_ray(x) for x in z)
    assert fp == {Ray.zero(2), R([1, 0])}
    assert z == {Ray.zero(2), R([0, 1])}
    assert not r2.exact


# preserves / commutes --------------------------------------------------------


def test_everything_preserves_everything_in_classical_logic(t2):
    for a in t2.names:
        for b in t2.names:
            assert preserves(t2, a, b)


def test_projection_can_break_preservation(r2):
    assert not preserves(r2, "px", "pd")
    # the broken state is explicit: the diagonal ray leaves the diagonal
    assert apply(r2, "px", R([1, 1])) == R([1, 0])


def test_negation_preserves_the_original(t2, r2):
    for alg in (t2, r2):
        for name in alg.names:
            assert preserves(alg, negation_of(alg, name), name)


def test_analytic_preservation_matches_pointwise(r2, r3):
    for alg in (r2, r3):
        for a in alg.names:
            for b in alg.names:
                assert preserves(alg, a, b) == preserves_pointwise(alg, a, b)


def test_commutation_verdicts(t2, r2):
    for a in t2.names:
        for b in t2.names:
            assert commutes(t2, a, b)
    assert not commutes(r2, "px", "pd")
    assert commutes(r2, "px", "py")
    for name in r2.names:
        assert commutes(r2, name, negation_of(r2, name).name)


# compose_raw / membership ----------------------------------------------------


def test_compose_identities(t2):
    for name in t2.names:
        m = t2.measurement(name)
        assert compose_raw(t2, "top", name) == {x: m(x) for x in t2.states}
        assert compose_raw(t2, name, name) == {x: m(x) for x in t2.states}


def test_composing_orthogonal_axes_annihilates(r2):
    assert compose_raw(r2, "px", "py") == zero_matrix(2)
    assert membership(r2, compose_raw(r2, "px", "py")).name == "bot"


def test_membership_finds_identity(f1):
    assert membership(f1, {"0": "0", "a": "a"}).name == "top"


def test_membership_rejects_non_measurement_map(r2):
    assert membership(r2, compose_raw(r2, "px", "pd")) is None


def test_membership_synthesizes_on_full_lattice(r2full):
    from malgebra.ratlin import Subspace

    skew = Subspace.from_generators(2, [[1, 2]]).projection
    found = membership(r2full, skew)
    assert found is not None
    assert found.subspace.basis == ((1, 2),)


@pytest.mark.parametrize("raw", [
    ((1, 0), (0, 0)),                       # a projection of Q^2
    (),                                     # the empty matrix
    ((1, 0, 0), (0, 1, 0)),                 # too few rows
    ((1, 0, 0), (0, 1), (0, 0, 1)),         # a short row
    ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),  # too many columns
], ids=["q2", "empty", "rows", "ragged", "columns"])
@pytest.mark.parametrize("name", ["r3", "r3_full"])
def test_ray_membership_refuses_a_matrix_of_the_wrong_size(name, raw):
    # as the table backend refuses a raw map that misses a state, rather
    # than synthesize a member of another dimension
    with pytest.raises(InputError, match="raw matrix is not 3 x 3"):
        membership(load_fixture(name), raw)


# negation / top / bot --------------------------------------------------------


def test_negation_is_orthocomplement(r2):
    assert negation_of(r2, "pd").name == "pdp"
    assert negation_of(r2, "px").name == "py"


def test_negation_is_formula_negation(t2):
    assert negation_of(t2, "p").name == "~p"
    assert negation_of(t2, "p&q").name == "~(p&q)"


def test_full_lattice_synthesizes_one_measurement_per_subspace(r3full):
    # (1, 2, 3) spans no listed subspace, nor does its orthocomplement
    x = R([1, 2, 3])
    point = point_measurement(r3full, x)
    assert point.name not in r3full.measurements
    assert point_measurement(r3full, x) is point
    assert negation_of(r3full, point) is negation_of(r3full, point)


def test_top_and_bottom(f1, t2, r2):
    for alg in (f1, t2, r2):
        top, bot = top_bot(alg)
        assert negation_of(alg, top) == bot
        assert top.name == "top" and bot.name == "bot"


def test_negation_violation_carries_witness():
    broken = build_table(
        states=["0", "a"],
        zero="0",
        measurements={"top": {"0": "0", "a": "a"}, "bot": {"0": "0", "a": "a"}},
    )
    with pytest.raises(NegationViolation) as err:
        negation_of(broken, "bot")
    assert err.value.measurement == "bot"
    result = check_axiom(broken, "negation")
    assert result.status == "fail"
    assert result.witnesses[0] == ("bot",)
    assert replay_witness(broken, "negation", result.witnesses[0])


# point measurements -----------------------------------------------------------


def test_point_measurement_on_rays(r2full):
    assert point_measurement(r2full, R([1, 1])).name == "pd"
    synthesized = point_measurement(r2full, R([1, 2]))
    assert synthesized.subspace.basis == ((1, 2),)


def test_point_measurement_on_theories(t2, t2max):
    assert point_measurement(t2max, "{v11}").name == "p&q"
    assert point_measurement(t2, "{v11}").name == "p&q"
    assert point_measurement(t2, "{v10,v11}") is None


def test_point_measurement_rejects_zero(t2):
    with pytest.raises(InputError):
        point_measurement(t2, "{}")


# negation and point measurements by index, against the member scans ---------


def reference_ray_member(alg, target):
    """The first listed member by name on the subspace ``target``; failing
    that, on a full lattice, the one synthesized for it."""
    listed = next((c for c in alg.sorted_measurements() if c.subspace == target), None)
    if listed is None and alg.full_lattice:
        return membership(alg, target.projection)
    return listed


def reference_find_negation(alg, m):
    """The member scan that the finite backend's mask index replaced: the
    first member by name whose fixpoints are the zeros of ``m`` and whose
    zeros are its fixpoints.  On rays, the member of the orthocomplement."""
    if alg.kind == "ray":
        return reference_ray_member(alg, m.subspace.orthocomplement)
    hinted = alg.negation_hints.get(m.name)
    if hinted is not None:
        return alg.measurement(hinted)
    target_fp, target_z = alg.z_mask(m), alg.fp_mask(m)
    return next((c for c in alg.sorted_measurements()
                 if alg.fp_mask(c) == target_fp and alg.z_mask(c) == target_z), None)


def reference_point_measurement(alg, x):
    """The member scan that the finite backend's fixpoint index replaced: the
    first member by name fixing only zero and ``x``.  On rays, the member of
    the line through ``x``, reduced by rref."""
    if alg.kind == "ray":
        return reference_ray_member(alg, Subspace.from_generators(alg.dim, [x.direction]))
    target = (1 << alg.zero_code) | (1 << alg.state_code(x))
    return next((m for m in alg.sorted_measurements() if alg.fp_mask(m) == target), None)


def assert_indexes_match_scans(alg):
    for m in alg.sorted_measurements():
        assert alg.find_negation(m) is reference_find_negation(alg, m), m
    for code in alg.state_domain():
        if code != alg.zero_code:
            x = alg.state(code)
            assert point_measurement(alg, x) is reference_point_measurement(alg, x), x


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["broken"])
def test_indexes_match_member_scans_on_fixtures(name):
    alg = load_model(json.loads(BROKEN.read_text())) if name == "broken" else load_fixture(name)
    assert_indexes_match_scans(alg)


def test_first_member_by_name_wins_a_shared_mask():
    # "m" and its copy "c" share both masks; "p" fixes the same states as
    # "m" but sends "b" to zero, and "q" is its negation
    tables = {"top": {"0": "0", "a": "a", "b": "b"}, "bot": {"0": "0", "a": "0", "b": "0"},
              "m": {"0": "0", "a": "a", "b": "a"}, "p": {"0": "0", "a": "a", "b": "0"},
              "q": {"0": "0", "a": "0", "b": "b"}}
    alg = build_table(["0", "a", "b"], "0", {**tables, "c": tables["m"]})
    assert point_measurement(alg, "a").name == "c"
    assert alg.find_negation(alg.measurement("q")).name == "p"
    hinted = build_table(["0", "a", "b"], "0", {**tables, "n": tables["q"]},
                         negations={"p": "q", "q": "p"})
    assert negation_of(hinted, "p").name == "q"
    assert negation_of(hinted, "n").name == "p"
    assert_indexes_match_scans(alg)
    assert_indexes_match_scans(hinted)


@st.composite
def tables_with_copies(draw):
    """A table from ``tables_with_top_and_bot`` with copies of some members
    under names sorting before and after theirs, so that members share their
    masks; with or without a declared negation map pairing members whose
    masks swap."""
    alg = draw(tables_with_top_and_bot())
    tables = tables_of(alg)
    for name in alg.names:
        for copy in draw(st.lists(st.sampled_from(["a" + name, name + "'"]), unique=True)):
            tables[copy] = tables[name]
    plain = build_table(alg.states, "0", tables)
    negations = {}
    if draw(st.booleans()):
        ms = plain.sorted_measurements()
        for m in ms:
            if m.name in negations or not draw(st.booleans()):
                continue
            partners = [n.name for n in ms if n.name not in negations
                        and plain.fp_mask(n) == plain.z_mask(m)
                        and plain.z_mask(n) == plain.fp_mask(m)]
            if partners:
                n = draw(st.sampled_from(partners))
                negations[m.name], negations[n] = n, m.name
    return build_table(alg.states, "0", tables, negations=negations)


@settings(max_examples=300, deadline=None)
@given(tables_with_copies())
def test_indexes_match_member_scans_on_random_tables(alg):
    assert_indexes_match_scans(alg)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(st.integers(-20, 20), min_size=k, max_size=k).filter(any)))
def test_a_rays_direction_is_the_canonical_basis_of_its_line(v):
    k = len(v)
    assert Subspace(k, (Ray.from_vector(v).direction,)) == Subspace.from_generators(k, [v])


# axiom engine ----------------------------------------------------------------


def test_all_fixtures_pass_defining_axioms(f1, t2, t2max, r2, r3, r2full, r3full):
    for alg in (f1, t2, t2max):
        assert all(r.status == "pass" for r in check_axioms(alg))
    for alg in (r2, r3, r2full, r3full):
        for r in check_axioms(alg):
            assert r.status in ("pass", "sampled_pass")


def test_check_instances_counts_names_and_vacuity():
    a, b, c = (Measurement(name) for name in "abc")
    pairs = [(x, y) for x in (a, b, c) for y in (a, b, c)]
    result = check_instances("law", iter(pairs), lambda x, y: y is c,
                             premise=lambda x, y: x is not y)
    assert (result.status, result.checked_count) == ("fail", 9)
    assert result.witnesses == [("a", "c"), ("b", "c")]
    never = check_instances("law", pairs, lambda x, y: True, premise=lambda x, y: False)
    assert (never.status, never.checked_count, never.witnesses) == ("vacuous", 9, [])
    # without a premise a law is never vacuous, not even over no instances
    assert check_instances("law", [], lambda x: True).status == "pass"
    assert check_instances("law", [(a,)], lambda x: False).checked_count == 1


def test_idempotence_count_on_smallest_fixture(f1):
    result = check_axiom(f1, "idempotence")
    assert result.status == "pass" and result.checked_count == 4


def test_separability_fails_on_nested_theories(t2):
    result = check_axiom(t2, "separability")
    assert result.status == "fail"
    x, y = result.witnesses[0]
    assert set(y[1:-1].split(",")) < set(x[1:-1].split(","))
    assert replay_witness(t2, "separability", result.witnesses[0])


def test_separability_verdicts_elsewhere(t2max, r2full):
    assert check_axiom(t2max, "separability").status == "pass"
    assert check_axiom(t2max, "strong_separability").status == "pass"
    assert check_axiom(r2full, "separability").status == "sampled_pass"
    assert check_axiom(r2full, "strong_separability").status == "sampled_pass"


def test_full_lattice_replay_separates_by_point_measurements(r3full):
    # no listed member separates these rays, but the point measurement of
    # (1,1,1) does, so the checker can never report this pair
    assert not replay_witness(r3full, "separability", ("(1,1,1)", "(1,1,0)"))


def r4_full(height):
    """The full lattice of Q^4, listing ``bot``, ``top``, the x axis and
    its complement."""
    e = [[int(i == j) for j in range(4)] for i in range(4)]
    return build_ray(4, {"bot": [], "top": e, "px": e[:1], "pyzw": e[1:]},
                     full_lattice=True, sample_height=height)


@pytest.mark.parametrize("model,height", [("r3_full", 1), ("r3_full", 2), ("r3_full", 3),
                                          ("r4_full", 2)])
def test_full_lattice_point_separation_synthesizes_nothing(model, height):
    # the point measurement of x fixes x and no other ray, so both laws hold
    # on a full lattice without building one
    alg = r4_full(height) if model == "r4_full" else load_model(
        json.loads((FIXTURE_DIR / "r3_full.json").read_text()), height)
    results = [check_axiom(alg, pid) for pid in ("separability", "strong_separability")]
    assert all(alg.measurements.get(m.name) is m for m in alg._by_subspace.values())
    ms, states = alg.sorted_measurements(), alg.state_domain()
    nonzero = [x for x in states if x != alg.zero_code]
    assert results == [
        check_result("separability", *reference_separability(alg, ms, states), complete=False),
        check_result("strong_separability",
                     [(alg.state_label(x),) for x in nonzero if point_measurement(alg, x) is None],
                     len(nonzero), complete=False),
    ]


def test_strong_separability_fails_on_listed_rays(r2):
    result = check_axiom(r2, "strong_separability")
    assert result.status == "fail"
    assert replay_witness(r2, "strong_separability", result.witnesses[0])


def test_interference_sampled_on_rays(r2):
    assert check_axiom(r2, "interference").status == "sampled_pass"


def test_unknown_property_is_an_input_error(f1):
    with pytest.raises(InputError):
        check_axiom(f1, "entanglement")


def test_idempotence_mutant_fails_where_images_land():
    tables = tables_of(load_fixture("t2"))
    tables["p"]["{v11}"] = "{v10}"
    mutant = build_table(
        states=load_fixture("t2").states, zero="{}", measurements=tables
    )
    result = check_axiom(mutant, "idempotence")
    assert result.status == "fail"
    state, name = result.witnesses[0]
    assert name == "p"
    # applying twice differs from once exactly at the states mapping onto the
    # mutated fixpoint
    assert state in {"{v00,v01,v11}", "{v00,v11}", "{v01,v11}"}
    assert replay_witness(mutant, "idempotence", result.witnesses[0])


class _Doubled(Subspace):
    """A subspace whose scaled projection is twice its own: not idempotent.
    It equals the plain subspace on its basis, so only the doubling can fail."""

    def __eq__(self, other):
        return (self.dim, self.basis) == (other.dim, other.basis)

    __hash__ = Subspace.__hash__

    @cached_property
    def scaled_projection(self):
        n, d = scale_to_int(self.projection)
        return tuple(tuple(2 * x for x in row) for row in n), d


def test_ray_idempotence_fails_on_a_matrix_that_is_not_idempotent():
    line = {"bot": [], "px": [[1, 0]], "py": [[0, 1]], "top": [[1, 0], [0, 1]]}
    members = [ProjectionMeasurement(name, (_Doubled if name == "px" else Subspace)
                                     .from_generators(2, gens)) for name, gens in line.items()]
    alg = RayAlgebra(2, members)
    result = check_axiom(alg, "idempotence")
    assert (result.status, result.witnesses) == ("fail", [("px",)])
    assert (result.checked_count, result.note) == (4, "decided on projection matrices")
    assert replay_witness(alg, "idempotence", ("px",))
    assert not replay_witness(alg, "idempotence", ("py",))


def test_broken_negation_after_duplicating_fixpoints():
    # a second identity-like table duplicates top's fixpoint set, so neither
    # table can have a negation any more
    alg = build_table(
        states=["0", "a"],
        zero="0",
        measurements={
            "top": {"0": "0", "a": "a"},
            "bot": {"0": "0", "a": "a"},
        },
    )
    result = check_axiom(alg, "negation")
    assert result.status == "fail"
    assert [w for w in result.witnesses] == [("bot",), ("top",)]


def test_l_cumulativity_passes_on_fixtures(t2, r2, r3):
    assert check_axiom(t2, "l_cumulativity").status == "pass"
    for alg in (r2, r3):
        assert check_axiom(alg, "l_cumulativity").status == "sampled_pass"


def test_l_cumulativity_detects_cycles():
    states = ["0", "x", "s", "t", "u"]
    fix_rest = {"0": "0", "s": "s", "t": "t", "u": "u"}
    alg = build_table(
        states=states,
        zero="0",
        measurements={
            "m1": {**fix_rest, "x": "s"},
            "m2": {**fix_rest, "x": "t"},
            "m3": {**fix_rest, "x": "u"},
        },
    )
    result = check_axiom(alg, "l_cumulativity")
    assert result.status == "fail"
    witness = result.witnesses[0]
    assert witness[0] == "x"
    assert replay_witness(alg, "l_cumulativity", witness)


def ring_model(size):
    """A ring of members m0..m{size-1} at the state x: m_i sends x to s_i and
    fixes 0, s_i and s_{i-1}, and sends every other state to 0.  Only the
    cycle through all of them, in ring order, goes round."""
    ring = [f"s{i}" for i in range(size)]
    return {"kind": "table", "states": ["0", "x", *ring], "zero": "0", "measurements": {
        f"m{i}": {"0": "0", "x": ring[i],
                  **{s: s if s in (ring[i], ring[i - 1]) else "0" for s in ring}}
        for i in range(size)}}


def test_l_cumulativity_decides_a_ring_of_five():
    # each pair of the ring round-trips only in five steps; the law holds
    # for cycles of every length, so the ring breaks it
    alg = load_model(ring_model(5))
    assert check_axiom(alg, "cumulativity").status == "pass"
    result = check_axiom(alg, "l_cumulativity")
    assert result.status == "fail"
    assert result.witnesses[0] == ("x", "m0", "m1", "m2", "m3", "m4")
    assert all(replay_witness(alg, "l_cumulativity", w) for w in result.witnesses)


def test_cumulativity_mutant():
    # two measurements whose images at x satisfy each other but differ
    alg = build_table(
        states=["0", "x", "s", "t"],
        zero="0",
        measurements={
            "m1": {"0": "0", "x": "s", "s": "s", "t": "t"},
            "m2": {"0": "0", "x": "t", "s": "s", "t": "t"},
        },
    )
    result = check_axiom(alg, "cumulativity")
    assert result.status == "fail"
    assert result.witnesses[0] == ("x", "m1", "m2")
    assert replay_witness(alg, "cumulativity", result.witnesses[0])


def test_interference_mutant():
    # x satisfies a; measuring b then a lands in a state where b holds,
    # yet b(x) broke a: the interference law must flag (x, a, b)
    alg = build_table(
        states=["0", "x", "y", "w"],
        zero="0",
        measurements={
            "a": {"0": "0", "x": "x", "y": "w", "w": "w"},
            "b": {"0": "0", "x": "y", "y": "y", "w": "w"},
        },
    )
    result = check_axiom(alg, "interference")
    assert result.status == "fail"
    assert ("x", "a", "b") in result.witnesses
    assert replay_witness(alg, "interference", ("x", "a", "b"))


def test_illegitimate_mutant():
    alg = build_table(
        states=["0", "a"],
        zero="0",
        measurements={"top": {"0": "0", "a": "a"}, "weird": {"0": "a", "a": "a"}},
    )
    result = check_axiom(alg, "illegitimate")
    assert result.status == "fail" and result.witnesses == [("weird",)]
    assert replay_witness(alg, "illegitimate", ("weird",))


# check results ----------------------------------------------------------------


def test_check_results_compare_all_six_fields_and_print_them():
    fields = dict(property_id="negation", status="fail", witnesses=[("a", "b")],
                  checked_count=4, advisory=True, note="n")
    result = CheckResult(**fields)
    assert result == CheckResult(*fields.values())
    for name, other in [("property_id", "idempotence"), ("status", "pass"), ("witnesses", []),
                        ("checked_count", 5), ("advisory", False), ("note", "")]:
        assert result != CheckResult(**{**fields, name: other}), name
    assert result != fields and result != tuple(fields.values())
    assert repr(CheckResult("x", "pass", [("a",)], 3)) == (
        "CheckResult(property_id='x', status='pass', witnesses=[('a',)], checked_count=3, "
        "advisory=False, note='')")
    # results are mutable, as ``lemma_suite`` marks them advisory, so unhashable
    result.advisory, result.note = False, ""
    assert result.to_dict()["advisory"] is False
    with pytest.raises(TypeError):
        hash(result)


# lemma suite -----------------------------------------------------------------


def test_lemma_suite_passes_on_axiom_passing_fixtures(f1, t2, t2max, r2, r3):
    for alg in (f1, t2, t2max, r2, r3):
        for result in lemma_suite(alg):
            assert result.ok, (alg.kind, result.property_id, result.witnesses)
            assert not result.advisory


def test_lemma_suite_is_advisory_on_broken_algebras():
    # equal fixpoint sets but different actions off them
    alg = build_table(
        states=["0", "a", "b"],
        zero="0",
        measurements={
            "ma": {"0": "0", "a": "a", "b": "0"},
            "mb": {"0": "0", "a": "a", "b": "a"},
        },
    )
    assert not all(r.ok for r in check_axioms(alg))
    results = lemma_suite(alg)
    assert all(r.advisory for r in results)
    by_id = {r.property_id: r for r in results}
    assert by_id["fp_determines"].status == "fail"
    assert by_id["fp_determines"].witnesses == [("ma", "mb")]


def test_lemma_composition_fixpoints_instance(r2):
    # the two diagonals compose to bottom; fixpoints intersect in the zero ray
    composed = membership(r2, compose_raw(r2, "pd", "pdp"))
    assert composed.name == "bot"
    inter = r2.measurement("pd").subspace.intersect(r2.measurement("pdp").subspace)
    assert inter.is_zero


class _Pair(NamedTuple):
    a: Measurement
    b: Measurement
    ab: Measurement | None  # the member equal to "apply a, then b"
    ba: Measurement | None
    a_keeps_b: bool  # a preserves FP(b)
    b_keeps_a: bool
    fp_ab: bool  # FP(a) is included in FP(b)
    fp_ba: bool
    z_ab: bool  # Z(a) is included in Z(b)
    z_ba: bool
    commute: bool

    def flip(self):
        return _Pair(self.b, self.a, self.ba, self.ab, self.b_keeps_a, self.a_keeps_b,
                     self.fp_ba, self.fp_ab, self.z_ba, self.z_ab, self.commute)


# (id, over unordered pairs, premise or None, violation)
REFERENCE_PAIR_LAWS = (
    ("composition", False, None, lambda alg, p: p.a_keeps_b and p.ba is None),
    ("fp_determines", True, lambda alg, p: p.fp_ab and p.fp_ba, lambda alg, p: p.a != p.b),
    ("fp_zero_duality", False, None, lambda alg, p: p.fp_ab != p.z_ba),
    ("preservation_symmetry", True, None, lambda alg, p: p.a_keeps_b != p.b_keeps_a),
    ("composition_fixpoints", False, lambda alg, p: p.ab is not None,
     lambda alg, p: not (alg.fp_subset(p.ab, p.a) and alg.fp_subset(p.ab, p.b))),
    ("composition_preserves", False, lambda alg, p: p.ab is not None,
     lambda alg, p: not p.b_keeps_a),
    ("composition_iff_preservation", False, None,
     lambda alg, p: (p.ab is not None) != p.b_keeps_a),
    ("composition_order_symmetry", True, None, lambda alg, p: (p.ab is None) != (p.ba is None)),
    ("composition_iff_commutation", False, None,
     lambda alg, p: (p.ab is not None) != p.commute),
    ("fp_inclusion_absorbs", False, lambda alg, p: p.fp_ab,
     lambda alg, p: not (p.ab == p.a == p.ba)),
)


def reference_pair_lemmas(alg, ms):
    """The streaming pass over ordered pairs that ``_pair_lemmas`` replaced
    by bit rows: one fact record per pair, flipped for the reverse
    direction, and a premise and a violation predicate per law."""
    found = {pid: [] for pid, *_ in REFERENCE_PAIR_LAWS}
    fired = set()
    for i, a in enumerate(ms):
        for j in range(i, len(ms)):
            b = ms[j]
            ab, a_keeps_b = compose_member(alg, a, b), preserves(alg, a, b)
            if i == j:  # inclusion and commutation hold trivially
                p = _Pair(a, a, ab, ab, a_keeps_b, a_keeps_b, True, True, True, True, True)
                ordered, unordered = (p,), ()
            else:
                p = _Pair(a, b, ab, compose_member(alg, b, a), a_keeps_b, preserves(alg, b, a),
                          alg.fp_subset(a, b), alg.fp_subset(b, a),
                          alg.z_subset(a, b), alg.z_subset(b, a), commutes(alg, a, b))
                ordered, unordered = (p, p.flip()), (p,)
            for pid, over_unordered, premise, violation in REFERENCE_PAIR_LAWS:
                for q in unordered if over_unordered else ordered:
                    if premise is None or premise(alg, q):
                        fired.add(pid)
                        if violation(alg, q):
                            found[pid].append((q.a.name, q.b.name))
    n = len(ms)
    return {
        pid: (found[pid], n * (n - 1) // 2 if over_unordered else n * n,
              premise is not None and pid not in fired)
        for pid, over_unordered, premise, _ in REFERENCE_PAIR_LAWS
    }


def pair_outcome(pass_, alg, ms=None):
    """Each law's sorted witnesses, instance count and vacuity, or the type
    of the exception the pass raised; over every member unless ``ms`` is
    given."""
    try:
        found = pass_(alg, alg.sorted_measurements() if ms is None else ms)
    except Exception as exc:  # compared by type against the reference
        return type(exc)
    return {pid: (sorted(w), checked, vacuous) for pid, (w, checked, vacuous) in found.items()}


BROKEN = Path(__file__).resolve().parent / "golden" / "broken.json"
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
T3 = FIXTURE_DIR / "t3.json"


def test_pair_rows_match_reference_on_fixtures():
    # a full-lattice window: the two planes compose to the unlisted x axis,
    # and the diagonal line does not commute with the xz plane
    window = build_ray(3, {
        "bot": [], "top": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "pxy": [[1, 0, 0], [0, 1, 0]], "pxz": [[1, 0, 0], [0, 0, 1]], "pd": [[1, 1, 0]],
    }, full_lattice=True, sample_height=1)
    algs = [load_fixture(name) for name in sorted(FIXTURES)]
    algs += [load_model(json.loads(BROKEN.read_text())), window]
    assert len(algs) == 9
    for alg in algs:
        assert pair_outcome(_pair_lemmas, alg) == pair_outcome(reference_pair_lemmas, alg)
    assert compose_member(window, "pxy", "pxz").name == "P[(1,0,0)]"
    assert compose_member(window, "pd", "pxz") is None


@settings(max_examples=300, deadline=None)
@given(tables_with_top_and_bot())
def test_pair_rows_match_reference_on_random_tables(alg):
    assert pair_outcome(_pair_lemmas, alg) == pair_outcome(reference_pair_lemmas, alg)


@st.composite
def relations(draw):
    """The bit rows of a relation over 0-12 indices with none, a fifth,
    half, four fifths or all of its bits set: sparse and dense relations,
    which ``bit_columns`` transposes through the set bits and through the
    complement respectively."""
    n = draw(st.integers(0, 12))
    share = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [sum(1 << j for j in range(n) if rnd.random() < share) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(relations())
def test_bit_columns_is_the_transpose(rows):
    n = len(rows)
    assert bit_columns(rows) == [sum((rows[i] >> j & 1) << i for i in range(n))
                                 for j in range(n)]


# the finite pair kernel at the edges of the byte lanes ------------------------


@st.composite
def lane_edge_tables(draw):
    """A table model over exactly 1, 2, 255, 256 or 257 states (lanes are
    ``bytes`` up to 256 states, tuples above), and its members in name
    order, sometimes cut to a proper subset as replay passes them.

    A member is an idempotent map that fixes none, some or all of the
    nonzero states; an arbitrary map, mostly not idempotent; a copy of an
    earlier table under its own name; or the composite of two distinct
    earlier tables.  The composite members are always cut, so that
    composites outside the subset occur; with none, a cut drops one drawn
    member.
    """
    size = draw(st.sampled_from([1, 2, 255, 256, 257]))
    states = ["0"] + [f"s{i}" for i in range(1, size)]
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    tables, composites = {}, set()
    for k in range(draw(st.integers(1, 5))):
        earlier = list(tables.values())
        kinds = ["composite", "copy", "idempotent", "arbitrary"][max(0, 2 - len(earlier)):]
        kind = draw(st.sampled_from(kinds))
        if kind == "idempotent":
            share = draw(st.sampled_from([0.5, 0.0, 1.0]))
            fixed = ["0"] + [s for s in states[1:] if rnd.random() < share]
            table = {s: s if s in fixed else rnd.choice(fixed) for s in states}
        elif kind == "arbitrary":
            table = {s: rnd.choice(states) for s in states}
        elif kind == "copy":
            table = dict(draw(st.sampled_from(earlier)))
        else:
            a, b = draw(st.lists(st.sampled_from(earlier), min_size=2, max_size=2,
                                 unique_by=id))
            table = {s: b[a[s]] for s in states}
            composites.add(f"m{k}")
        tables[f"m{k}"] = table
    alg = build_table(states, "0", tables)
    ms = alg.sorted_measurements()
    if composites or draw(st.booleans()):
        dropped = composites or {draw(st.sampled_from(alg.names))}
        ms = [m for m in ms if m.name not in dropped] or ms
    return alg, ms


# m0 and its copy m1 both compose with m0 to m2, outside the subset: one
# row meets the same outside composite twice
TWICE = build_table(["0", "s1", "s2"], "0", {
    "m0": {"0": "0", "s1": "s2", "s2": "0"},
    "m1": {"0": "0", "s1": "s2", "s2": "0"},
    "m2": {"0": "0", "s1": "0", "s2": "0"},
})


@settings(max_examples=200, deadline=None)
@given(lane_edge_tables())
@example((TWICE, TWICE.sorted_measurements()[:2]))
def test_finite_pair_kernel_matches_the_protocol_at_lane_edges(case):
    alg, ms = case
    assert isinstance(alg.compiled(ms[0]).lane, bytes) == (len(alg.states) <= 256)
    # the default rows ask compose_member, preserves, fp_subset, z_subset
    # and commutes pair by pair
    assert alg.pair_rows(ms) == MAlgebra.pair_rows(alg, ms)
    assert pair_outcome(_pair_lemmas, alg, ms) == pair_outcome(reference_pair_lemmas, alg, ms)
    S, members = alg.states, alg.sorted_measurements()
    for a in ms:
        for b in ms:
            table = {x: b(a(x)) for x in S}
            assert compose_member(alg, a, b) is next(
                (m for m in members if m.mapping == table), None)
            assert commutes(alg, a, b) == all(table[x] == a(b(x)) for x in S)


def test_finite_pair_pass_makes_no_per_pair_call(monkeypatch):
    # the finite pair rows come from lanes and state columns; a per-pair
    # call for each of the 65,536 ordered pairs made `check t3 --axioms
    # composition` take seconds
    maximal = load_model({"kind": "propositional", "atoms": ["p", "q", "r"],
                          "variant": "maximal_theories"})
    t3 = load_model(json.loads(T3.read_text()))

    def refuse(*args):
        raise AssertionError("a per-pair protocol call")

    for name in ("preserves", "commutes", "fp_subset", "z_subset"):
        monkeypatch.setattr(FiniteAlgebra, name, refuse)
    monkeypatch.setattr("malgebra.core.compose_member", refuse)
    assert all(r.ok and not r.advisory for r in lemma_suite(maximal))
    assert check_axiom(t3, "composition").status == "pass"


# relabelling invariance -------------------------------------------------------


@st.composite
def relabelled_tables(draw):
    """A drawn table model and a copy whose state labels (the zero state
    included) and measurement names are permuted, the states declared in a
    shuffled order; plus the map from new labels back to the old ones."""
    alg = draw(tables_with_top_and_bot())
    states, names = list(alg.states), list(alg.names)
    state_to = dict(zip(states, draw(st.permutations([f"x{k}" for k in range(len(states))]))))
    name_to = dict(zip(names, draw(st.permutations([f"n{k}" for k in range(len(names))]))))
    tables = {name_to[m.name]: {state_to[s]: state_to[m(s)] for s in states}
              for m in alg.sorted_measurements()}
    declared = draw(st.permutations([state_to[s] for s in states]))
    copy = build_table(declared, state_to[alg.zero], tables)
    back = {new: old for old, new in (*state_to.items(), *name_to.items())}
    return alg, copy, back


# Laws over unordered pairs name the two measurements in name order, which a
# relabelling may swap.
UNORDERED_PAIR_LAWS = {"cumulativity", "fp_determines", "preservation_symmetry",
                       "composition_order_symmetry"}


def is_violating_cycle(alg, x, names):
    """Each image of x is fixed by the next measurement, cyclically, and
    the images differ somewhere: the definition of an l-cumulativity
    violation."""
    ms = [alg.measurement(name) for name in names]
    images = [m(x) for m in ms]
    return len(set(images)) > 1 and all(
        ms[(t + 1) % len(ms)](y) == y for t, y in enumerate(images))


def order_verdict(alg):
    """``bounds_check``'s status and count; a failing law it meets on the
    way (it stops at the first, in name order) is a property failure."""
    try:
        result = bounds_check(alg)
    except (ClosureViolation, NegationViolation, NotCommutingError, OrderViolation):
        return "property failure"
    return result.status, result.checked_count


@settings(max_examples=200, deadline=None)
@given(relabelled_tables())
def test_verdicts_are_invariant_under_relabelling(case):
    alg, copy, back = case
    results = {a: check_axioms(a, ALL_AXIOMS) + lemma_suite(a) for a in (alg, copy)}
    assert [(r.property_id, r.status, r.checked_count, r.advisory) for r in results[alg]] == \
        [(r.property_id, r.status, r.checked_count, r.advisory) for r in results[copy]]
    assert order_verdict(alg) == order_verdict(copy)
    for result in results[copy]:
        for witness in result.witnesses:
            original = [back[field] for field in witness]
            if result.property_id == "l_cumulativity":
                # the cycle through a pair comes from a search in name order,
                # so the original may report another cycle for the same pair;
                # shortest paths both ways hold at most 2(|M| - 1) members
                assert len(original) - 1 <= 2 * (len(alg.names) - 1)
                assert is_violating_cycle(alg, original[0], original[1:]), original
                continue
            if result.property_id in UNORDERED_PAIR_LAWS:
                original[-2:] = sorted(original[-2:])
            assert replay_witness(alg, result.property_id, tuple(original)), (result, original)


# deterministic reports -------------------------------------------------------


def test_checks_are_deterministic(t2):
    first = check_axiom(t2, "separability")
    second = check_axiom(t2, "separability")
    assert first.to_dict() == second.to_dict()


# random tables: every reported witness must replay -----------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_cumulativity_failure_is_an_l_cumulativity_failure(data):
    # an exchange of two measurements is a cycle of length two
    n_states = data.draw(st.integers(min_value=2, max_value=4))
    states = ["0"] + [f"s{i}" for i in range(1, n_states)]
    measurements = {
        f"m{i}": {s: data.draw(st.sampled_from(states)) for s in states}
        for i in range(data.draw(st.integers(min_value=1, max_value=3)))
    }
    alg = build_table(states=states, zero="0", measurements=measurements)
    plain = check_axiom(alg, "cumulativity")
    looped = check_axiom(alg, "l_cumulativity")
    assert plain.ok or not looped.ok


def draw_table_algebra(data):
    """A random table algebra; most break some law."""
    n_states = data.draw(st.integers(min_value=2, max_value=4))
    states = ["0"] + [f"s{i}" for i in range(1, n_states)]
    n_measurements = data.draw(st.integers(min_value=1, max_value=3))
    measurements = {}
    for i in range(n_measurements):
        measurements[f"m{i}"] = {
            s: data.draw(st.sampled_from(states)) for s in states
        }
    return build_table(states=states, zero="0", measurements=measurements)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_witnesses_replay_on_random_tables(data):
    alg = draw_table_algebra(data)
    results = [check_axiom(alg, pid) for pid in ALL_AXIOMS] + lemma_suite(alg)
    for result in results:
        for witness in result.witnesses:
            assert replay_witness(alg, result.property_id, witness), (result.property_id, witness)


# compiled finite kernels against their pointwise definitions --------------------


def pointwise_witnesses(alg, law):
    S, ms, zero = alg.states, alg.sorted_measurements(), alg.zero
    if law == "idempotence":
        found = [(x, m.name) for x in S for m in ms if m(m(x)) != m(x)]
    elif law == "interference":
        found = [(x, a.name, b.name) for a in ms for x in S if a(x) == x for b in ms
                 if b(a(b(x))) == a(b(x)) != b(x)]
    elif law == "cumulativity":
        found = [(x, a.name, b.name) for x in S for i, a in enumerate(ms) for b in ms[i + 1:]
                 if b(a(x)) == a(x) != b(x) == a(b(x))]
    elif law == "definiteness":
        found = [(x, a.name, b.name) for b in ms for x in S if b(x) == x for a in ms
                 if b(a(x)) == zero != a(x)]
    else:
        found = [(x, a.name, b.name) for b in ms for x in S if b(x) == zero for a in ms
                 if b(a(x)) == a(x) != zero]
    return sorted(found)[:10]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compiled_kernels_match_pointwise_definitions(data):
    alg = draw_table_algebra(data)
    S, ms = alg.states, alg.sorted_measurements()
    for a in ms:
        assert alg.fp_mask(a) == sum(1 << i for i, x in enumerate(S) if a(x) == x)
        assert alg.z_mask(a) == sum(1 << i for i, x in enumerate(S) if a(x) == alg.zero)
        for b in ms:
            assert preserves(alg, a, b) == all(b(a(x)) == a(x) for x in S if b(x) == x)
            assert commutes(alg, a, b) == all(b(a(x)) == a(b(x)) for x in S)
            expected = next((m for m in ms if all(m(x) == b(a(x)) for x in S)), None)
            assert compose_member(alg, a, b) is expected
    for law in ("idempotence", "interference", "cumulativity"):
        assert check_axiom(alg, law).witnesses == pointwise_witnesses(alg, law), law
    for result in lemma_suite(alg):
        if result.property_id in ("definiteness", "definiteness_dual"):
            assert result.witnesses == pointwise_witnesses(alg, result.property_id)


def test_foreign_measurement_under_a_member_name_gets_its_own_codes(t2):
    member, bot, top = t2.measurement("p"), t2.measurement("bot"), t2.measurement("top")
    foreign = TableMeasurement("p", {x: t2.zero for x in t2.states})
    assert t2.codes(foreign) == t2.codes(bot) != t2.codes(member)
    assert (t2.fp_mask(foreign), t2.z_mask(foreign)) == (t2.fp_mask(bot), t2.z_mask(bot))
    assert compose_member(t2, foreign, top) is bot
    assert compose_member(t2, member, top) is member
    # the member's own compile is untouched by the foreign lookup
    assert t2.fp_mask(member) != t2.fp_mask(bot)


# ray backend relations against their pointwise definitions --------------------


@pytest.mark.parametrize("fixture", ["r2", "r3", "r3_full"])
def test_ray_relations_match_pointwise_definitions(fixture):
    alg = load_fixture(fixture)
    window = set(alg.sample_states())
    ms = alg.sorted_measurements()
    fixed = {m.name: {x for x in window if m(x) == x} for m in ms}
    zeros = {m.name: {x for x in window if m(x) == alg.zero} for m in ms}
    for a in ms:
        assert alg.is_full(a) == (fixed[a.name] == window), a
        assert a.subspace.is_zero == (zeros[a.name] == window), a
        assert is_classical(alg, a) == (fixed[a.name] | zeros[a.name] == window), a
        for b in ms:
            assert alg.fp_subset(a, b) == (fixed[a.name] <= fixed[b.name]), (a, b)
            assert alg.z_subset(a, b) == (zeros[a.name] <= zeros[b.name]), (a, b)


@pytest.mark.parametrize("state", [Ray.zero(3), R([1, 0, 1], 3), "(1,0)", (1, 0)],
                         ids=["zero-3d", "ray-3d", "label", "tuple"])
def test_apply_on_rays_refuses_what_is_not_a_state(r2, state):
    with pytest.raises(InputError, match="not a state"):
        apply(r2, "px", state)


# the per-state laws on image classes against their member loops ---------------


def reference_interference(alg, ms, states):
    """The member-pair loop that ``_interference`` replaced by image classes."""
    witnesses, checked, label = [], 0, alg.state_label
    coded = [(m.name, alg.action(m)) for m in ms]
    for a in ms:
        A = alg.action(a)
        fixed = [x for x in states if A[x] == x]
        checked += len(fixed) * len(coded)
        for b_name, B in coded:
            for x in fixed:
                y = B[x]
                t = A[y]
                if B[t] == t and t != y:
                    witnesses.append((label(x), a.name, b_name))
    return witnesses, checked


def reference_cumulativity(alg, ms, states):
    """The member-pair loop that ``_cumulativity`` replaced by class pairs."""
    witnesses, label = [], alg.state_label
    coded = [(m.name, alg.action(m)) for m in ms]
    for i, (a_name, A) in enumerate(coded):
        later = coded[i + 1:]
        for x in states:
            ax = A[x]
            for b_name, B in later:
                bx = B[x]
                if B[ax] == ax and A[bx] == bx and ax != bx:
                    witnesses.append((label(x), a_name, b_name))
    return witnesses, len(states) * len(ms) * (len(ms) - 1) // 2


def reference_definiteness(alg, ms, states, dual=False):
    """The member loop that ``_definiteness`` replaced by image classes."""
    witnesses, checked, label = [], 0, alg.state_label
    zero = alg.zero_code
    coded = [(m.name, alg.action(m)) for m in ms]
    for b in ms:
        B = alg.action(b)
        domain = [x for x in states if B[x] == (zero if dual else x)]
        checked += len(domain) * len(coded)
        for a_name, A in coded:
            for x in domain:
                ax = A[x]
                if ax != zero and (B[ax] == ax if dual else B[ax] == zero):
                    witnesses.append((label(x), a_name, b.name))
    return witnesses, checked


def reference_separability(alg, ms, states):
    """The state-pair loop over separators that ``_separability`` replaced by
    fixpoint bit rows."""
    witnesses, checked, label = [], 0, alg.state_label
    nonzero = [x for x in states if x != alg.zero_code]
    members = [alg.action(m) for m in alg.sorted_measurements()]
    for x in nonzero:
        separators = [alg.action(point_measurement(alg, x))] if alg.full_lattice else members
        for y in nonzero:
            if x == y:
                continue
            checked += 1
            if not any(S[x] == x and S[y] != y for S in separators):
                witnesses.append((label(x), label(y)))
    return witnesses, checked


def reference_l_cumulativity(alg, ms, states):
    """The breadth-first search over members at every state that
    ``_l_cumulativity`` now runs only where the class graph has a cycle."""
    witnesses, checked = [], 0
    coded = [(m.name, alg.action(m)) for m in ms]
    names = [name for name, _ in coded]
    for x in states:
        images = {name: A[x] for name, A in coded}
        adjacency = {
            a: [b for b, B in coded if B[images[a]] == images[a]] for a in names
        }
        dist, parent = _all_bfs(names, adjacency)
        for a in names:
            for b in names:
                if a >= b or images[a] == images[b]:
                    continue
                checked += 1
                d_ab = dist[a].get(b)
                d_ba = dist[b].get(a)
                if d_ab is not None and d_ba is not None:
                    cycle = _bfs_path(parent, a, b) + _bfs_path(parent, b, a)[1:-1]
                    witnesses.append((alg.state_label(x), *cycle))
    return witnesses, checked


# property id -> (the law, its member loop)
CLASS_LAWS = {
    "interference": (_LAWS["interference"][0], reference_interference),
    "cumulativity": (_LAWS["cumulativity"][0], reference_cumulativity),
    "definiteness": (_LAWS["definiteness"][0], reference_definiteness),
    "definiteness_dual": (_LAWS["definiteness_dual"][0],
                          partial(reference_definiteness, dual=True)),
    "l_cumulativity": (_LAWS["l_cumulativity"][0], reference_l_cumulativity),
    "separability": (_LAWS["separability"][0], reference_separability),
}


def class_law_outcomes(alg, ms, states):
    """Per law, the sorted witnesses and the count of the kernel, then those
    of the member loop."""
    def outcome(law):
        found, checked = law(alg, ms, states)
        return sorted(found), checked

    return {pid: (outcome(law), outcome(reference))
            for pid, (law, reference) in CLASS_LAWS.items()}


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["broken"])
def test_class_kernel_matches_member_loops_on_fixtures(name):
    alg = load_model(json.loads(BROKEN.read_text())) if name == "broken" else load_fixture(name)
    for pid, (got, expected) in class_law_outcomes(alg, alg.sorted_measurements(),
                                                   alg.state_domain()).items():
        assert got == expected, pid
    if name == "broken":  # the member search runs where the class graph finds a cycle
        assert check_axiom(alg, "l_cumulativity").witnesses


@st.composite
def class_kernel_cases(draw):
    """A table model over 2-6 states whose members are idempotent maps that
    fix zero, or arbitrary maps; and either the state domain and every
    member, or, as replay passes them, a short list of states and a
    sub-list of the members."""
    states = ["0"] + [f"s{i}" for i in range(1, draw(st.integers(2, 6)))]
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    idempotent = draw(st.booleans())
    tables = {}
    for k in range(draw(st.integers(1, 6))):
        if idempotent:
            fixed = ["0"] + [s for s in states[1:] if rnd.random() < 0.5]
            tables[f"m{k}"] = {s: s if s in fixed else rnd.choice(fixed) for s in states}
        else:
            tables[f"m{k}"] = {s: rnd.choice(states) for s in states}
    alg = build_table(states, "0", tables)
    if not draw(st.booleans()):
        return alg, alg.sorted_measurements(), alg.state_domain()
    codes = draw(st.lists(st.sampled_from(range(len(states))), min_size=1, max_size=3,
                          unique=True))
    ms = [m for m in alg.sorted_measurements() if draw(st.booleans())]
    return alg, ms or alg.sorted_measurements()[:1], codes


@settings(max_examples=300, deadline=None)
@given(class_kernel_cases())
def test_class_kernel_matches_member_loops_on_random_tables(case):
    alg, ms, states = case
    for pid, (got, expected) in class_law_outcomes(alg, ms, states).items():
        assert got == expected, pid
        if states is alg.state_domain():
            for witness in got[0]:
                assert replay_witness(alg, pid, witness), (pid, witness)


# ray composites from integer projections, against the exact matrices --------


@pytest.mark.parametrize("name", ["r2", "r2_full", "r3", "r3_full"])
def test_ray_compose_member_matches_membership_of_the_exact_matrix(name):
    # listed members, their negations and, on full lattices, point
    # measurements and composites synthesized on the way; non-commuting
    # pairs have no member either way
    alg = load_fixture(name)
    ms = alg.sorted_measurements()
    ms += [negation_of(alg, m) for m in ms]
    ms += [m for m in (point_measurement(alg, x) for x in alg.state_domain()[1:6]) if m]
    ms = list({id(m): m for m in ms}.values())
    synthesized = []
    for a in ms:
        for b in ms:
            got = compose_member(alg, a, b)
            assert got is membership(alg, compose_raw(alg, a, b)), (a, b)
            assert compose_member(alg, a, b) is got
            if got is not None and got.name not in alg.measurements:
                synthesized.append(got)
    assert any(compose_member(alg, a, b) is None for a in ms for b in ms)
    assert bool(synthesized) == alg.full_lattice
    for m in ms + synthesized + [negation_of(alg, m) for m in synthesized]:
        seeded = m.subspace.__dict__.get("scaled_projection")
        assert seeded in (None, scale_to_int(projection_matrix(m.subspace.basis, alg.dim))), m
