"""Model builders: validation, structure, sampling, serialization."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgebra.core import ProjectionMeasurement, check_axioms, extent, negation_of
from malgebra.errors import BudgetError, InputError
from malgebra.models import (
    build_propositional,
    build_ray,
    build_table,
    load_model,
)
from malgebra.ratlin import Ray, Subspace
from malgebra.rays import RayAlgebra
from conftest import FIXTURE_DIR, FIXTURES, dump_model, load_fixture

R = Ray.from_vector


# table builder ----------------------------------------------------------------


def test_table_rejects_missing_entries():
    with pytest.raises(InputError, match="no entry for state 'a'"):
        build_table(["0", "a"], "0", {"m": {"0": "0"}})


def test_table_rejects_unknown_targets():
    with pytest.raises(InputError, match="unknown state"):
        build_table(["0", "a"], "0", {"m": {"0": "0", "a": "b"}})
    with pytest.raises(InputError, match="maps unknown state"):
        build_table(["0", "a"], "0", {"m": {"0": "0", "a": "a", "b": "a"}})


@pytest.mark.parametrize("table,message", [
    # missing s1 and s0, the table listing s2 first: the first missing in state order
    ({"s2": "s0"}, "measurement 'm' has no entry for state 's0'"),
    # a missing entry is named before an extra key
    ({"y": "s0", "s2": "s0"}, "measurement 'm' has no entry for state 's0'"),
    # extra keys y and x: the first in the table's own order
    ({"s2": "s0", "y": "s0", "s0": "s0", "x": "s1", "s1": "s1"},
     "measurement 'm' maps unknown state 'y'"),
    # unknown targets at s2 and s1, s2 listed first: the first in state order
    ({"s2": "u2", "s0": "s0", "s1": "u1"}, "measurement 'm' sends 's1' to unknown state 'u1'"),
])
def test_table_refusals_name_the_first_offender(table, message):
    with pytest.raises(InputError) as refused:
        build_table(["s0", "s1", "s2"], "s0", {"top": {"s0": "s0", "s1": "s1", "s2": "s2"},
                                               "m": table})
    assert str(refused.value) == message


def test_a_table_given_out_of_order_compiles_alike():
    states = ["0", "a", "b"]
    ordered = {"0": "0", "a": "0", "b": "b"}
    shuffled = {"b": "b", "0": "0", "a": "0"}
    first = build_table(states, "0", {"m": ordered})
    second = build_table(states, "0", {"m": shuffled})
    m, n = first.measurement("m"), second.measurement("m")
    assert first.compiled(m) == second.compiled(n) == first.compiled(n)
    assert m == n and hash(m) == hash(n)
    assert (first.fp_mask(m), first.z_mask(m)) == (0b101, 0b011)


def test_table_rejects_bad_zero_and_duplicate_states():
    with pytest.raises(InputError, match="zero state"):
        build_table(["a", "b"], "0", {"m": {"a": "a", "b": "b"}})
    with pytest.raises(InputError, match="duplicate state"):
        build_table(["0", "a", "a"], "0", {"m": {"0": "0", "a": "a"}})


def test_table_rejects_state_ids_that_are_not_strings():
    with pytest.raises(InputError, match="state ids must be strings"):
        build_table([0, 1], 0, {"top": {0: 0, 1: 1}, "bot": {0: 0, 1: 0}})


def test_table_accepts_lawless_models():
    # the builder does not prejudge the laws; checks do
    alg = build_table(["0", "a"], "0", {"m": {"0": "a", "a": "0"}})
    assert not all(r.ok for r in check_axioms(alg))


def test_explicit_negations_are_validated():
    measurements = {
        "top": {"0": "0", "a": "a"},
        "bot": {"0": "0", "a": "0"},
    }
    alg = build_table(["0", "a"], "0", measurements,
                      negations={"top": "bot", "bot": "top"})
    assert alg.negation_hints["top"] == "bot"
    with pytest.raises(InputError, match="does not swap"):
        build_table(["0", "a"], "0", measurements, negations={"top": "top"})
    with pytest.raises(InputError, match="involution"):
        build_table(
            ["0", "a"], "0",
            {**measurements, "other": {"0": "0", "a": "0"}},
            negations={"top": "bot", "bot": "other"},
        )


# propositional builder ----------------------------------------------------------


def test_two_atom_theory_space(t2):
    assert len(t2.states) == 16
    assert len(t2.measurements) == 16
    assert t2.zero == "{}"
    assert t2.kind == "propositional"


def test_maximal_variant_statespace(t2max):
    assert len(t2max.states) == 5
    assert set(t2max.states) == {"{}", "{v00}", "{v01}", "{v10}", "{v11}"}
    assert len(t2max.measurements) == 16


def test_atom_cap_and_uniqueness():
    with pytest.raises(InputError, match="1 to 3 atoms"):
        build_propositional(["p", "q", "r", "s"])
    with pytest.raises(InputError, match="1 to 3 atoms"):
        build_propositional([])
    with pytest.raises(InputError, match="unique"):
        build_propositional(["p", "p"])
    with pytest.raises(InputError, match="variant"):
        build_propositional(["p"], "some_theories")


def test_three_atoms_build():
    alg = build_propositional(["p", "q", "r"])
    assert len(alg.states) == 256
    assert len(alg.measurements) == 256


@pytest.mark.parametrize("atoms,variant", [
    (["p", "q"], "all_theories"), (["p", "q"], "maximal_theories"),
    (["p", "q", "r"], "maximal_theories"),
], ids=["t2", "t2_maximal", "t3_maximal"])
def test_propositional_negations_come_from_the_mask_index(atoms, variant):
    # no negation map is passed: the negation of m keeps the valuations of
    # a theory that m drops, and negating twice gives m back
    alg = build_propositional(atoms, variant)
    assert alg.negation_hints == {}
    for m in alg.sorted_measurements():
        n = negation_of(alg, m)
        assert all(valuations(n(s)) == valuations(s) - valuations(m(s)) for s in alg.states)
        assert negation_of(alg, n) is m


def valuations(theory):
    """The valuation names of a theory id such as ``{v00,v11}``."""
    return set(theory.strip("{}").split(",")) - {""}


def test_all_theory_measurements_commute_pairwise(t2):
    from malgebra.core import commutes

    for a in t2.names:
        for b in t2.names:
            assert commutes(t2, a, b)


def test_maximal_measurements_are_classical(t2max):
    from malgebra.connectives import is_classical

    assert all(is_classical(t2max, name) for name in t2max.names)


# ray builder --------------------------------------------------------------------


def test_ray_closure_requires_orthocomplements():
    subs = {
        "bot": [],
        "px": [[1, 0]],
        "py": [[0, 1]],
        "pd": [[1, 1]],
        "top": [[1, 0], [0, 1]],
    }
    with pytest.raises(InputError, match="orthocomplement"):
        build_ray(2, subs)


def test_ray_closure_requires_commuting_compositions():
    # diagonal-plane and xy-plane commute; their composite line must be listed
    subs = {
        "bot": [],
        "pxy": [[1, 0, 0], [0, 1, 0]],
        "pz": [[0, 0, 1]],
        "pdp": [[1, -1, 0], [0, 0, 1]],
        "pd": [[1, 1, 0]],
        "top": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    with pytest.raises(InputError, match=r"span\{\(1,-1,0\)\}"):
        build_ray(3, subs)


def test_ray_rejects_duplicate_spans():
    with pytest.raises(InputError, match="same span"):
        build_ray(2, {"a": [[1, 1]], "b": [[2, 2]], "bot": [], "top": [[1, 0], [0, 1]]})


def test_ray_rejects_bad_dimensions():
    with pytest.raises(InputError):
        build_ray(2, {"p": [[1, 0, 0]]})
    with pytest.raises(InputError):
        build_ray(0, {})
    with pytest.raises(InputError):
        build_ray(2, {"bot": [], "top": [[1, 0], [0, 1]]}, sample_height=0)


def test_full_lattice_skips_closure():
    alg = build_ray(2, {"pd": [[1, 1]]}, full_lattice=True)
    assert alg.full_lattice


def test_accepting_r3_builds_one_subspace_per_listed_entry(monkeypatch):
    # closure is asked of the algebra's integer projections, so no
    # orthocomplement or intersection is built for a closed family
    built = []
    from_generators = Subspace.from_generators.__func__

    def counted(cls, dim, generators):
        built.append(dim)
        return from_generators(cls, dim, generators)

    monkeypatch.setattr(Subspace, "from_generators", classmethod(counted))
    alg = load_fixture("r3")
    assert len(built) == len(alg.names) == 12


def reference_closure_error(dimension, subspaces):
    """The Fraction-path closure loop that ``build_ray`` ran before it asked
    the algebra's negation and composite lookups: the error text for the
    first missing subspace, or None for a closed family."""
    listed = [(name, Subspace.from_generators(dimension, gens))
              for name, gens in subspaces.items()]
    spans = {sub for _, sub in listed}
    for name, sub in listed:
        perp = sub.orthocomplement
        if perp not in spans:
            return f"listed family is not closed: the orthocomplement {perp} of {name!r} is missing"
    for (na, a), (nb, b) in itertools.combinations(listed, 2):
        if not a.commutes_with(b):
            continue
        inter = a.intersect(b)
        if inter not in spans:
            return (f"listed family is not closed: {na!r} and {nb!r} "
                    f"commute but their composition {inter} is missing")
    return None


def assert_closure_matches_reference(dimension, subspaces):
    """``build_ray`` accepts exactly the families the reference loop accepts,
    refuses the others with its text, and every family it accepts passes
    the negation and composition laws."""
    expected = reference_closure_error(dimension, subspaces)
    try:
        alg = build_ray(dimension, subspaces, sample_height=1)
    except InputError as exc:
        assert str(exc) == expected
        return False
    assert expected is None
    assert all(r.ok for r in check_axioms(alg, ["negation", "composition"]))
    return True


def listed_family_data(name):
    data = json.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    return data["dimension"], data["subspaces"]


@pytest.mark.parametrize("name", ["r2", "r3"])
def test_fixture_closure_matches_the_reference_loop(name):
    dimension, subspaces = listed_family_data(name)
    assert assert_closure_matches_reference(dimension, subspaces)
    # each fixture without one of its entries is refused alike; without an
    # entry and its orthocomplement, only a composite can be missing
    spans = {name: Subspace.from_generators(dimension, g) for name, g in subspaces.items()}
    for name, sub in spans.items():
        assert not assert_closure_matches_reference(
            dimension, {k: v for k, v in subspaces.items() if k != name})
        pair = {sub, sub.orthocomplement}
        rest = {k: v for k, v in subspaces.items() if spans[k] not in pair}
        if rest:
            assert_closure_matches_reference(dimension, rest)


def closed_under_the_laws(family):
    """The family with orthocomplements and commuting intersections added,
    for at most three rounds."""
    for _ in range(3):
        grown = list(dict.fromkeys(
            family + [s.orthocomplement for s in family]
            + [a.intersect(b) for a, b in itertools.combinations(family, 2) if a.commutes_with(b)]))
        if len(grown) == len(family):
            break
        family = grown
    return family


@st.composite
def listed_families(draw):
    """Named generator lists over Q^1..Q^3: random spans, often closed, then
    often missing one member or one member and its orthocomplement."""
    dimension = draw(st.integers(1, 3))
    vectors = st.lists(st.integers(-2, 2), min_size=dimension, max_size=dimension)
    spans = draw(st.lists(st.lists(vectors, max_size=dimension), min_size=1, max_size=3))
    family = list(dict.fromkeys(Subspace.from_generators(dimension, g) for g in spans))
    if draw(st.booleans()):
        family = closed_under_the_laws(family)
    if len(family) > 1 and draw(st.booleans()):
        gone = family[draw(st.integers(0, len(family) - 1))]
        # with its orthocomplement too, only a composite can be missing
        dropped = {gone, gone.orthocomplement} if draw(st.booleans()) else {gone}
        family = [s for s in family if s not in dropped] or family
    order = draw(st.permutations(range(len(family))))
    return dimension, {f"m{i}": [list(b) for b in family[i].basis] for i in order}


@settings(max_examples=200, deadline=None)
@given(listed_families())
def test_closure_matches_the_reference_loop_on_random_families(family):
    assert_closure_matches_reference(*family)


# sampling -----------------------------------------------------------------------


def test_sample_window_height_one(r2):
    assert load_fixture("r2", 1).sample_states() == [
        Ray.zero(2), R([0, 1]), R([1, -1]), R([1, 0]), R([1, 1])
    ]


def test_sample_monotone_in_height():
    for name in ("r2", "r3"):
        small, mid, large = (set(load_fixture(name, h).sample_states()) for h in (1, 2, 3))
        assert small <= mid <= large


def test_sample_contains_all_ones_ray():
    assert R([1, 1, 1]) in load_fixture("r3", 1).sample_states()


def test_sample_injects_listed_basis_rays():
    alg = build_ray(
        2,
        {"bot": [], "p": [[5, 7]], "pp": [[7, -5]], "top": [[1, 0], [0, 1]]},
        sample_height=1,
    )
    assert R([5, 7]) in alg.sample_states()
    assert R([7, -5]) in alg.sample_states()


def test_fixpoint_and_zero_domains_are_window_rays():
    # the basis vector (1,2,0) has an entry above the height, so integer
    # combinations of the basis reach (1,2,-1) and (1,2,1), outside the window
    top = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    alg = build_ray(3, {"bot": [], "p": [[1, 2, 0], [0, 0, 1]], "pp": [[2, -1, 0]], "top": top},
                    sample_height=1)
    window = alg.sample_states()
    assert len(window) == 16
    for m in alg.sorted_measurements():
        fp, z, _ = extent(alg, m)
        assert fp == {x for x in window if m(x) == x}
        assert z == {x for x in window if m(x) == alg.zero}
    assert extent(alg, "p")[0] == {Ray.zero(3), R([0, 0, 1], 3), R([1, 2, 0], 3)}


def test_sample_states_function(r2):
    # one window per algebra, built once, at the algebra's own height
    assert r2.sample_states() is r2.sample_states()
    assert r2.sample_states() == load_fixture("r2", r2.sample_height).sample_states()
    assert r2.state_domain() is r2.sample_states()


@pytest.mark.parametrize("height", [0, -1])
def test_ray_algebra_refuses_a_height_below_one_at_construction(r2, height):
    with pytest.raises(InputError, match="sample height must be at least 1"):
        RayAlgebra(2, r2.sorted_measurements(), sample_height=height)


def test_ray_algebra_refuses_a_window_over_the_cap_at_construction():
    # the window rule of ``build_ray`` holds for a directly built algebra too
    with pytest.raises(BudgetError, match="ray window of height 3 over 40 coordinates"):
        RayAlgebra(40, [ProjectionMeasurement("bot", Subspace.zero(40))], sample_height=3)


@pytest.mark.parametrize("atoms", [["top"], ["p", "bot"]])
def test_atom_named_like_a_trivial_measurement_is_refused(atoms):
    with pytest.raises(InputError, match=f"atom {atoms[-1]!r}"):
        load_model({"kind": "propositional", "atoms": atoms})


@pytest.mark.parametrize("atoms,bad", [
    (["a b"], "a b"),
    (["(p)"], "(p)"),
    (["p", "~p"], "~p"),
    (["p&q", "p", "q"], "p&q"),
    (["p", ""], ""),
    (["p", " q"], " q"),
])
def test_atom_that_is_no_formula_atom_is_refused(atoms, bad):
    # a formula text as an atom took the name of another class's measurement
    with pytest.raises(InputError, match=f"atom {re.escape(repr(bad))} is not a formula atom"):
        load_model({"kind": "propositional", "atoms": atoms})


def test_single_atom_build():
    alg = build_propositional(["p"])
    assert len(alg.states) == 4
    assert sorted(alg.names) == ["bot", "p", "top", "~p"]
    assert all(r.ok for r in check_axioms(alg))


# serialization ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_dump_load_round_trip(name):
    original = load_fixture(name)
    if original.kind == "propositional":
        # a propositional file names its atoms and variant, not its tables
        raw = json.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))
        rebuilt = build_propositional(raw["atoms"], raw["variant"])
    else:
        data = dump_model(original)
        rebuilt = load_model(data)
        assert dump_model(rebuilt) == data
    assert rebuilt.kind == original.kind
    assert rebuilt.names == original.names
    if isinstance(original, RayAlgebra):
        for n in original.names:
            assert rebuilt.measurement(n).subspace == original.measurement(n).subspace
    else:
        assert rebuilt.states == original.states
        for n in original.names:
            assert rebuilt.measurement(n).mapping == original.measurement(n).mapping


def test_load_model_schema_errors():
    with pytest.raises(InputError, match="kind"):
        load_model({"kind": "weird"})
    with pytest.raises(InputError, match="lacks"):
        load_model({"kind": "table", "measurements": {}})
    with pytest.raises(InputError, match="wrong shape"):
        load_model({"kind": "ray", "dimension": "two", "subspaces": {}})
    with pytest.raises(InputError, match="wrong shape"):
        load_model({"kind": "ray", "dimension": 2, "subspaces": {"a": [5]}})
    with pytest.raises(InputError, match="wrong shape"):
        load_model({"kind": "ray", "dimension": 2, "subspaces": {}, "full_lattice": "no"})
    with pytest.raises(InputError):
        load_model([1, 2])


def test_extent_example_from_maximal_fixture(t2max):
    fp, z, _ = extent(t2max, "p")
    assert fp == {"{}", "{v10}", "{v11}"}
    assert z == {"{}", "{v00}", "{v01}"}
