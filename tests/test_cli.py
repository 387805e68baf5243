"""End-to-end command line behavior: subcommands, exit codes, report formats."""

import json
from pathlib import Path

import pytest

from malgebra import order
from malgebra.cli import main
from malgebra.core import ALL_AXIOMS, replay_witness
from malgebra.models import build_propositional, load_model
from malgebra.ratlin import Subspace
from conftest import FIXTURE_DIR, FIXTURES, dump_model, load_fixture
from test_core import ring_model


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# exit code 0: everything passes -------------------------------------------------


def test_check_passes_on_theory_fixture(capsys):
    code, out, _ = run(capsys, "check", fixture_path("t2"))
    assert code == 0
    assert "Idempotence: PASS (checked 256)" in out
    assert out.rstrip().endswith("overall: PASS")


def test_check_passes_on_ray_fixture(capsys):
    code, out, _ = run(capsys, "check", fixture_path("r3"))
    assert code == 0
    assert "Interference: PASS (sampled)" in out


def test_check_all_axioms_on_smallest_fixture(capsys):
    code, out, _ = run(capsys, "check", fixture_path("f1"), "--axioms", "all")
    assert code == 0
    assert "L-Cumulativity" in out and "Strong Separability" in out


# exit code 1: property failures --------------------------------------------------


def test_separability_failure_exits_one(capsys):
    code, out, _ = run(
        capsys, "check", fixture_path("t2"), "--axioms", "separability"
    )
    assert code == 1
    assert "Separability: FAIL" in out
    assert "witness=(" in out
    assert out.rstrip().endswith("overall: FAIL")


def test_orders_that_disagree_are_a_property_failure(tmp_path, capsys):
    # a well-formed table that breaks negation, interference and cumulativity;
    # there the fixpoint and zero-set orders need not coincide
    keep = {"0": "0", "s1": "s1", "s2": "s2", "s3": "s3"}
    model = write_model(tmp_path, {
        "kind": "table", "states": ["0", "s1", "s2", "s3"], "zero": "0",
        "measurements": {
            "top": keep,
            "bot": {"0": "0", "s1": "0", "s2": "0", "s3": "0"},
            "m0": {"0": "0", "s1": "s2", "s2": "s2", "s3": "s3"},
            "m1": keep,
            "m2": {"0": "0", "s1": "s1", "s2": "0", "s3": "s1"},
            "m3": {"0": "0", "s1": "0", "s2": "s2", "s3": "s3"},
        },
    })
    code, out, err = run(capsys, "order", model)
    assert (code, out) == (1, "")
    assert err == "property failure: the two order definitions disagree on ('m0', 'm3')\n"


def test_failing_derived_composite_is_a_property_failure(tmp_path, capsys):
    # e2 and m1 commute, so the implication is asked of a named commuting
    # pair; its composite with m1's negation (m0) is e2, which has no
    # negation.  A failure among the derived composites is a verdict on the
    # algebra (exit 1), not a refused input: m0 is no pair the user named.
    states = ["0", "s1", "s2", "s3", "s4"]

    def table(*images):
        return dict(zip(states, ("0",) + images))

    model = write_model(tmp_path, {
        "kind": "table", "states": states, "zero": "0",
        "measurements": {
            "top": table("s1", "s2", "s3", "s4"),
            "bot": table("0", "0", "0", "0"),
            "e1": table("s1", "0", "0", "0"),
            "e2": table("0", "s2", "0", "0"),
            "e3": table("0", "0", "s3", "0"),
            "e4": table("0", "0", "0", "s4"),
            "m0": table("s2", "s2", "0", "0"),
            "m1": table("s4", "0", "s3", "s4"),
            "m2": table("s2", "s2", "0", "0"),
            "m3": table("s4", "s4", "0", "s4"),
            "m4": table("s2", "s2", "s3", "s2"),
        },
    })
    code, out, err = run(capsys, "connective", model, "--expr", "a -> b", "--bind", "a=e2,b=m1")
    assert (code, out) == (1, "")
    assert err == "property failure: no negation for measurement 'e2'\n"


def test_derived_pair_that_does_not_commute_is_a_property_failure(tmp_path, capsys):
    # m1 and m2 commute, so the set the user named is sound; n1 = ~m1 is
    # derived by the formula, and a derived pair that does not commute is a
    # verdict on the algebra (exit 1), not a refused input
    model = write_model(tmp_path, {
        "kind": "table", "states": ["0", "s1", "s2", "s3"], "zero": "0",
        "measurements": {
            "m1": {"0": "0", "s1": "s1", "s2": "0", "s3": "s1"},
            "n1": {"0": "0", "s1": "0", "s2": "s2", "s3": "s2"},
            "m2": {"0": "0", "s1": "0", "s2": "s2", "s3": "0"},
        },
    })
    code, out, err = run(capsys, "connective", model, "--expr", "b & ~a", "--bind", "a=m1,b=m2")
    assert (code, out) == (1, "")
    assert err == "property failure: measurements 'm2' and 'n1' do not commute\n"


def test_failure_report_in_json(capsys):
    code, out, _ = run(
        capsys, "check", fixture_path("t2"), "--axioms", "separability",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"
    check = payload["checks"][0]
    assert check["property"] == "separability"
    assert check["witnesses"], "witness tuples must be reported"
    assert all(isinstance(w, list) for w in check["witnesses"])


def test_ring_of_five_fails_the_loop_law(tmp_path, capsys):
    code, out, _ = run(capsys, "check", write_model(tmp_path, ring_model(5)),
                       "--axioms", "l_cumulativity", "--format", "json")
    assert code == 1
    [check] = json.loads(out)["checks"]
    assert check["status"] == "fail"
    alg = load_model(ring_model(5))
    assert all(replay_witness(alg, "l_cumulativity", tuple(w)) for w in check["witnesses"])


# exit code 2: input problems ------------------------------------------------------


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "no-such-file.json")
    assert code == 2
    assert "no-such-file.json" in err


def test_invalid_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line" in err


def test_duplicate_keys_exit_two(tmp_path, capsys):
    bad = tmp_path / "dupe.json"
    bad.write_text(
        '{"kind":"table","states":["0","a"],"zero":"0",'
        '"measurements":{"m":{"0":"0","a":"a"},"m":{"0":"0","a":"0"}}}'
    )
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "duplicate" in err


def test_a_law_named_twice_runs_once_where_first_named(capsys):
    code, out, _ = run(capsys, "check", fixture_path("f1"), "--axioms",
                       "interference,Interference,all", "--format", "json")
    assert code == 0
    assert [c["property"] for c in json.loads(out)["checks"]] == [
        "interference", *(pid for pid in ALL_AXIOMS if pid != "interference")]


def test_unknown_axiom_exits_two(capsys):
    code, _, err = run(capsys, "check", fixture_path("f1"), "--axioms", "bogus")
    assert code == 2
    assert "bogus" in err


def test_empty_axiom_list_exits_two(capsys):
    assert_refused(run(capsys, "check", fixture_path("f1"), "--axioms", ""), "--axioms")


def test_non_commuting_binding_exits_two(capsys):
    code, _, err = run(
        capsys, "connective", fixture_path("r2"),
        "--expr", "a & b", "--bind", "a=px,b=pd",
    )
    assert code == 2
    assert "commute" in err


def test_a_bound_slot_the_formula_never_names_joins_no_commuting_set(capsys):
    # px and pd do not commute, but the formula names px only
    alone = run(capsys, "connective", fixture_path("r2"), "--expr", "a", "--bind", "a=px")
    both = run(capsys, "connective", fixture_path("r2"), "--expr", "a", "--bind", "a=px,b=pd")
    assert both == alone
    assert both[0] == 0
    assert both[1].startswith("result: px\n")


def test_a_bound_slot_the_formula_never_names_must_still_name_a_member(capsys):
    assert_refused(run(capsys, "connective", fixture_path("r2"), "--expr", "a",
                       "--bind", "a=px,b=nosuch"), "unknown measurement 'nosuch'")


def test_strong_sep_on_unsuitable_model_exits_two(capsys):
    code, _, err = run(capsys, "order", fixture_path("r2"), "--strong-sep")
    assert code == 2
    assert "point measurement" in err


def write_model(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return str(path)


def assert_refused(result, phrase):
    code, out, err = result
    assert (code, out) == (2, "")
    assert phrase in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b"[" * 100_000,
    b'{"kind": "table", "states": ["0", "\\ud800"], "zero": "0", "measurements": '
    b'{"top": {"0": "0", "\\ud800": "\\ud800"}, "bot": {"0": "0", "\\ud800": "0"}}}',
], ids=["not-utf8", "nested-too-deep", "lone-surrogate"])
def test_malformed_model_file_exits_two(tmp_path, capsys, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "connective", str(path), "--expr", "a", "--bind", "a=top")
    assert_refused((code, out, err), str(path))
    assert "internal error" not in err


def test_formula_text_as_atom_exits_two(tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "propositional", "atoms": ["p", "~p"]})
    assert_refused(run(capsys, "check", model), "atom '~p' is not a formula atom")


def test_lemmas_takes_no_loop_length(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lemmas", fixture_path("t2"), "--loop-n", "2"])
    assert exit_info.value.code == 2
    assert "--loop-n" in capsys.readouterr().err


def test_check_takes_no_loop_length(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", fixture_path("t2"), "--loop-n", "2"])
    assert exit_info.value.code == 2
    assert "--loop-n" in capsys.readouterr().err


@pytest.mark.parametrize("height", ["0", "-2"])
def test_height_below_one_exits_two(capsys, height):
    assert_refused(
        run(capsys, "check", fixture_path("r3"), "--axioms", "interference",
            "--height", height),
        "height",
    )


@pytest.mark.parametrize("model,height", [("t2", "0"), ("r3_full", "-1")])
def test_order_refuses_height_below_one_without_strong_sep(capsys, model, height):
    # the height only matters with --strong-sep, but a bad one is refused anyway
    assert_refused(run(capsys, "order", fixture_path(model), "--height", height), "height")


@pytest.mark.parametrize("command", ["check", "lemmas", "order"])
@pytest.mark.parametrize("model", ["f1", "t2", "r3"])
def test_bad_height_is_refused_before_the_model_is_read(capsys, monkeypatch, command, model):
    # one refusal for every model kind, made before the file is opened
    def unread(*args, **kwargs):
        raise AssertionError("the model file was read")

    monkeypatch.setattr("builtins.open", unread)
    assert_refused(run(capsys, command, fixture_path(model), "--height", "0"),
                   "sample height must be at least 1, got 0")


@pytest.mark.parametrize("command,flags,phrase", [
    ("connective", ("--expr", "a &", "--bind", "a=p"), "unexpected end of input"),
    ("connective", ("--expr", "~" * 5000 + "a", "--bind", "a=p"), "deeper than"),
    ("connective", ("--expr", "a", "--bind", "a:p"), "slot=name"),
    ("connective", ("--expr", "a", "--bind", "a=p,a=q"), "bound twice"),
    ("check", ("--axioms", "separability,bogus_law"), "unknown axiom 'bogus_law'"),
    ("tautology", ("--commuting", " , "), "--commuting needs at least one"),
    ("connective", ("--expr", "a", "--bind", "a=p,=q"), "'=q' is not of the form slot=name"),
    ("connective", ("--expr", "a", "--bind", "a=p,b="), "'b=' is not of the form slot=name"),
    ("connective", ("--expr", "a", "--bind", "a=p,1x=q"),
     "'1x=q' is not of the form slot=name"),
    ("tautology", ("--commuting", "p", "--depth", "0"), "depth and slot bounds must be positive"),
    ("tautology", ("--commuting", "p", "--slots", "0"), "depth and slot bounds must be positive"),
])
def test_bad_flags_are_refused_before_the_model_is_read(capsys, monkeypatch, command,
                                                        flags, phrase):
    def unread(*args, **kwargs):
        raise AssertionError("the model file was read")

    monkeypatch.setattr("builtins.open", unread)
    assert_refused(run(capsys, command, fixture_path("t2"), *flags), phrase)


def test_bad_height_on_a_missing_file_names_the_height(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path / "missing.json"), "--height", "0")
    assert_refused((code, out, err), "height")
    assert "missing.json" not in err


@pytest.mark.parametrize("command", ["check", "lemmas", "order"])
def test_height_with_a_model_file_that_is_not_an_object_exits_two(tmp_path, capsys, command):
    assert_refused(run(capsys, command, write_model(tmp_path, [1, 2]), "--height", "2"),
                   "must hold an object")


def test_height_replaces_a_sample_height_but_a_bad_one_is_still_refused(tmp_path, capsys):
    model = write_model(tmp_path, {
        "kind": "ray", "dimension": 2, "sample_height": "abc",
        "subspaces": {"bot": [], "top": [["1", "0"], ["0", "1"]]},
    })
    assert_refused(run(capsys, "check", model, "--height", "2"), "sample_height")


def test_report_counts_the_window_the_laws_ran_over(capsys):
    code, out, _ = run(capsys, "check", fixture_path("r3"), "--axioms", "separability",
                       "--height", "2", "--format", "json")
    assert code == 1  # the listed members separate few rays
    report = json.loads(out)
    states = report["model"]["states"]
    # separability checks ordered pairs of distinct nonzero states
    assert report["checks"][0]["checked"] == (states - 1) * (states - 2)


@pytest.mark.parametrize("height", ["abc", True, 2.5])
def test_non_integer_sample_height_exits_two(tmp_path, capsys, height):
    model = write_model(tmp_path, {
        "kind": "ray", "dimension": 2, "sample_height": height,
        "subspaces": {"bot": [], "top": [["1", "0"], ["0", "1"]]},
    })
    assert_refused(run(capsys, "check", model), "sample_height")


def test_negations_that_are_not_a_name_map_exit_two(tmp_path, capsys):
    model = write_model(tmp_path, {
        "kind": "table", "states": ["0", "a"], "zero": "0",
        "measurements": {"top": {"0": "0", "a": "a"}, "bot": {"0": "0", "a": "0"}},
        "negations": ["x"],
    })
    assert_refused(run(capsys, "check", model), "negations")


def test_non_string_atoms_exit_two(tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "propositional", "atoms": [1, 2]})
    assert_refused(run(capsys, "check", model), "atoms")


def test_atom_named_top_exits_two(tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "propositional", "atoms": ["top"]})
    assert_refused(run(capsys, "check", model), "atom 'top'")


@pytest.mark.parametrize("expr", [
    "~" * 5000 + "a",
    "(" * 5000 + "a" + ")" * 5000,
    "a" + " & a" * 5000,
    "a" + " -> a" * 5000,
], ids=["negations", "parentheses", "conjunctions", "implications"])
def test_deeply_nested_formula_exits_two(capsys, expr):
    result = run(capsys, "connective", fixture_path("t2"), "--expr", expr, "--bind", "a=p")
    assert_refused(result, "deeper than")


@pytest.mark.parametrize("argv", [
    ("check", "r2", "--height=--"),
    ("check", "r2", "--axioms=--"),
    ("order", "t2", "--format=--"),
    ("tautology", "t2", "--commuting=--"),
    ("tautology", "t2", "--commuting=p,q", "--depth=--"),
    ("connective", "t2", "--expr=a", "--bind=--"),
    ("connective", "t2", "--expr=--", "--bind=a=p"),
], ids=lambda argv: " ".join(argv))
def test_option_given_double_dash_exits_two(capsys, argv):
    # argparse reads "--opt=--" as an empty list, which no option accepts
    command, model, *options = argv
    code, out, err = run(capsys, command, fixture_path(model), *options)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("bind", ["a=p,a=q", "a=p, a =p"])
def test_slot_bound_twice_exits_two(capsys, bind):
    result = run(capsys, "connective", fixture_path("t2"), "--expr", "a", "--bind", bind)
    assert_refused(result, "bound twice")


# exit code 3: budgets -------------------------------------------------------------


def test_budget_exit_code(capsys):
    code, out, err = run(
        capsys, "tautology", fixture_path("t2"),
        "--commuting", "p,q,top", "--depth", "6", "--slots", "3",
    )
    assert (code, out) == (3, "")
    assert err == "budget exceeded: formula enumeration exceeds the cap of 1000000\n"


def test_scheme_budget_exits_three_from_the_set_size_alone(capsys):
    # all 256 members of t3 would take 256**3 distribution instances
    names = ",".join(load_fixture("t3").names)
    code, out, err = run(capsys, "tautology", fixture_path("t3"), "--commuting", names,
                         "--depth", "1", "--slots", "2")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: 256^3 scheme instances exceed the cap of 1000000\n"


def test_oversized_ray_window_exits_three(tmp_path, capsys):
    # 7**12 vectors at height 3 in dimension 12: refused before enumerating
    dim = 12
    axis = [["1" if j == i else "0" for j in range(dim)] for i in range(dim)]
    model = write_model(tmp_path, {
        "kind": "ray", "dimension": dim, "full_lattice": False, "sample_height": 3,
        "subspaces": {"bot": [], "top": axis, "p0": axis[:1], "q0": axis[1:]},
    })
    code, out, err = run(capsys, "check", model, "--axioms", "idempotence")
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: a ray window of height 3 over 12 coordinates")


def identity_generators(dim):
    return [["1" if j == i else "0" for j in range(dim)] for i in range(dim)]


@pytest.mark.parametrize("header", [
    {"dimension": 10**8, "full_lattice": True, "subspaces": {}},
    {"dimension": 600, "full_lattice": True, "subspaces": {"top": identity_generators(600)}},
    # the family is not closed either, but the window is decided first
    {"dimension": 300, "subspaces": {"bot": []}},
], ids=["1e8-dims", "600-dims-identity", "300-dims-not-closed"])
def test_window_over_the_cap_is_refused_before_any_subspace_is_built(tmp_path, capsys,
                                                                     monkeypatch, header):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a subspace was built")

    monkeypatch.setattr(Subspace, "from_generators", unbuilt)
    code, out, err = run(capsys, "check", write_model(tmp_path, {"kind": "ray", **header}))
    assert (code, out) == (3, "")
    assert err == (f"budget exceeded: a ray window of height 3 over {header['dimension']} "
                   "coordinates has more than 1000000 vectors\n")


def test_height_below_one_is_refused_before_the_window_is_counted(tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "ray", "dimension": 10**9, "sample_height": 0,
                                   "subspaces": {}})
    assert_refused(run(capsys, "check", model), "sample height must be at least 1, got 0")


# exit code 4: internal errors -----------------------------------------------------


def test_internal_error_exits_four_without_traceback(capsys, monkeypatch):
    def fault(alg):
        raise RuntimeError("no such row")

    monkeypatch.setattr(order, "bounds_check", fault)
    code, out, err = run(capsys, "order", fixture_path("t2"))
    assert (code, out) == (4, "")
    assert err == "internal error: RuntimeError: no such row\n"


# subcommands ----------------------------------------------------------------------


def test_connective_subcommand(capsys):
    code, out, _ = run(
        capsys, "connective", fixture_path("t2"),
        "--expr", "~(a & ~b)", "--bind", "a=p,b=q",
    )
    assert code == 0
    assert "result: p->q" in out


def test_connective_subcommand_on_rays(capsys):
    code, out, _ = run(
        capsys, "connective", fixture_path("r2"),
        "--expr", "a | b", "--bind", "a=px,b=py", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "top"
    assert not payload["fp_complete"]
    assert "(1,1)" in payload["fp"]


def test_connective_malformed_binding(capsys):
    code, _, err = run(
        capsys, "connective", fixture_path("t2"),
        "--expr", "a", "--bind", "a:p",
    )
    assert code == 2
    assert "slot=name" in err


def test_tautology_subcommand(capsys):
    code, out, _ = run(
        capsys, "tautology", fixture_path("r2"),
        "--commuting", "bot,px,py,top", "--depth", "3", "--slots", "3",
    )
    assert code == 0
    assert "tautology_theorem: PASS" in out
    assert "scheme_weakening: PASS" in out


def test_tautology_over_a_wide_commuting_set(tmp_path, capsys):
    # every measurement of a five-atom Boolean table commutes; truth tables
    # over all 32 members at once would need 2**32 rows
    atoms = [f"a{i}" for i in range(5)]
    measurements = {
        f"m{mask}": {"0": "0", **{a: a if mask >> i & 1 else "0" for i, a in enumerate(atoms)}}
        for mask in range(32)
    }
    model = write_model(tmp_path, {"kind": "table", "states": ["0", *atoms], "zero": "0",
                                   "measurements": measurements})
    code, out, _ = run(capsys, "tautology", model, "--commuting", ",".join(measurements),
                       "--depth", "1", "--format", "json")
    assert code == 0
    result = next(c for c in json.loads(out)["checks"] if c["property"] == "tautology_theorem")
    assert (result["status"], result["checked"]) == ("pass", 32)


def test_lemmas_subcommand(capsys):
    code, out, _ = run(capsys, "lemmas", fixture_path("t2"))
    assert code == 0
    assert "fp_determines" in out
    assert out.count("\n") >= 13


def test_order_subcommand(capsys):
    code, out, _ = run(capsys, "order", fixture_path("r3"))
    assert code == 0
    assert "ortho_orthomodular: PASS" in out


def test_order_strong_sep_subcommand(capsys):
    code, out, _ = run(capsys, "order", fixture_path("r2_full"), "--strong-sep")
    assert code == 0
    assert "pointsep_decomposition: PASS (sampled)" in out


def test_height_flag_is_honored(capsys):
    code_small, out_small, _ = run(
        capsys, "check", fixture_path("r2"), "--axioms", "interference",
        "--height", "1", "--format", "json",
    )
    code_big, out_big, _ = run(
        capsys, "check", fixture_path("r2"), "--axioms", "interference",
        "--height", "3", "--format", "json",
    )
    assert code_small == code_big == 0
    small = json.loads(out_small)["checks"][0]["checked"]
    big = json.loads(out_big)["checks"][0]["checked"]
    assert small < big


# determinism and round trips -------------------------------------------------------


def test_json_reports_are_byte_stable(capsys):
    _, first, _ = run(capsys, "check", fixture_path("r2"), "--format", "json")
    _, second, _ = run(capsys, "check", fixture_path("r2"), "--format", "json")
    assert first == second


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_files_round_trip(name):
    raw = json.loads(Path(fixture_path(name)).read_text())
    alg = load_model(raw)
    if raw["kind"] == "propositional":
        # a propositional file names its atoms and variant, not its tables
        built = build_propositional(raw["atoms"], raw["variant"])
        assert alg.names == built.names
        assert ({n: alg.measurement(n).mapping for n in alg.names}
                == {n: built.measurement(n).mapping for n in built.names})
    else:
        assert dump_model(load_model(dump_model(alg))) == dump_model(alg)
