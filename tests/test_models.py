"""Model builders: validation, structure, sampling, serialization."""

import re

import pytest

from malgebra.core import check_axioms, extent
from malgebra.errors import InputError
from malgebra.models import (
    FIXTURES,
    build_propositional,
    build_ray,
    build_table,
    dump_model,
    load_model,
    measurement_for,
)
from malgebra.ratlin import Ray
from malgebra.rays import RayAlgebra

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


def test_measurement_lookup_by_formula(t2):
    assert measurement_for(t2, "p & q").name == "p&q"
    assert measurement_for(t2, "~(p & q)").name == "~(p&q)"
    assert measurement_for(t2, "p | ~p").name == "top"
    assert measurement_for(t2, "q & ~q").name == "bot"
    with pytest.raises(InputError, match="unknown atom"):
        measurement_for(t2, "p & r")


def test_propositional_negation_hints_are_complete(t2):
    for name in t2.names:
        assert t2.negation_hints[t2.negation_hints[name]] == name


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


# sampling -----------------------------------------------------------------------


def test_sample_window_height_one(r2):
    assert r2.sample_states(1) == [
        Ray.zero(2), R([0, 1]), R([1, -1]), R([1, 0]), R([1, 1])
    ]


def test_sample_monotone_in_height(r2, r3):
    for alg in (r2, r3):
        small, mid, large = (set(alg.sample_states(h)) for h in (1, 2, 3))
        assert small <= mid <= large


def test_sample_contains_all_ones_ray(r3):
    assert R([1, 1, 1]) in r3.sample_states(1)


def test_sample_injects_listed_basis_rays():
    alg = build_ray(
        2,
        {"bot": [], "p": [[5, 7]], "pp": [[7, -5]], "top": [[1, 0], [0, 1]]},
    )
    assert R([5, 7]) in alg.sample_states(1)
    assert R([7, -5]) in alg.sample_states(1)


def test_sample_states_function(r2):
    assert r2.sample_states() == r2.sample_states(r2.sample_height)
    with pytest.raises(InputError):
        r2.sample_states(0)


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
    original = FIXTURES[name]()
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
