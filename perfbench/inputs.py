"""Seeded model files and the CLI invocations of each workload.

The seed permutes the order of states, measurements and listed subspaces in
the generated files and relabels table states, measurements and atoms.  No
verdict depends on labels or order, so every seed must give the same
verdicts.  The inputs of the operations kept as known faults do not depend on
the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

# The listed subspace families of the bundled r2 and r3 fixtures (README.md,
# "Model families"); both are closed under orthocomplement and under
# composition of commuting pairs.
R2_SUBSPACES = {
    "bot": [],
    "px": [[1, 0]],
    "py": [[0, 1]],
    "pd": [[1, 1]],
    "pdp": [[1, -1]],
    "top": [[1, 0], [0, 1]],
}
R3_SUBSPACES = {
    "bot": [],
    "px": [[1, 0, 0]],
    "py": [[0, 1, 0]],
    "pz": [[0, 0, 1]],
    "pxy": [[1, 0, 0], [0, 1, 0]],
    "pxz": [[1, 0, 0], [0, 0, 1]],
    "pyz": [[0, 1, 0], [0, 0, 1]],
    "pd": [[1, 1, 0]],
    "pdp": [[1, -1, 0], [0, 0, 1]],
    "pe": [[1, -1, 0]],
    "pep": [[1, 1, 0], [0, 0, 1]],
    "top": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
}

DEFINING = ("illegitimate", "idempotence", "composition", "interference",
            "cumulativity", "negation")
ALL_LAWS = DEFINING + ("separability", "strong_separability", "l_cumulativity")
LEMMAS = ("fp_determines", "double_negation", "definiteness", "definiteness_dual",
          "fp_zero_duality", "preservation_symmetry", "composition_fixpoints",
          "composition_preserves", "composition_iff_preservation",
          "composition_order_symmetry", "composition_iff_commutation",
          "fp_inclusion_absorbs")
ORDER_CHECKS = ("order_bounds", "ortho_involution", "ortho_antitone",
                "ortho_meet_bottom", "ortho_join_top", "ortho_orthomodular",
                "pointsep_implication", "pointsep_uniqueness",
                "pointsep_decomposition")
TAUTOLOGY_CHECKS = ("tautology_theorem", "modus_ponens", "scheme_weakening",
                    "scheme_distribution", "scheme_contraposition",
                    "conjunction_definability", "disjunction_definability")

WORKLOADS = ("ray-sampled", "table-exhaustive", "order-logic", "reject")


@dataclass
class Model:
    """A generated model file plus what the oracle knows about it."""

    path: str
    kind: str  # ray | propositional | table
    states: int | None = None  # exact state count of a finite model
    measurements: int | None = None
    subspaces: dict = field(default_factory=dict)  # ray: name -> generators
    names: dict = field(default_factory=dict)  # original name -> label in the file


@dataclass
class Op:
    """One CLI invocation and its expected outcome.

    ``checks`` lists the property ids the report must hold, in order;
    ``fails`` the ones that must fail (all others must hold).  ``fault`` names
    a known fault of the program for operations that fail today.
    """

    label: str
    argv: list
    model: Model
    exit_code: int
    checks: tuple = ()
    fails: frozenset = frozenset()
    vacuous_ok: bool = False
    fault: str = ""


def _labels(rng, prefix, count):
    return [f"{prefix}{n:05x}" for n in rng.sample(range(16 ** 5), count)]


def _write(directory, name, data):
    path = os.path.join(directory, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


def ray_model(rng, directory, name, dim, family, full_lattice, height, relabel=True):
    items = list(family.items())
    if relabel:
        rng.shuffle(items)
        labels = dict(zip((k for k, _ in items), _labels(rng, "m", len(items))))
    else:
        labels = {k: k for k, _ in items}
    subspaces = {}
    for key, gens in items:
        gens = [list(g) for g in gens]
        if relabel:
            rng.shuffle(gens)
        subspaces[labels[key]] = gens
    data = {
        "kind": "ray", "dimension": dim, "full_lattice": full_lattice,
        "sample_height": height,
        "subspaces": {n: [[str(x) for x in g] for g in gens] for n, gens in subspaces.items()},
    }
    return Model(_write(directory, name, data), "ray", measurements=len(family),
                 subspaces=subspaces, names=labels)


def propositional_model(rng, directory, name, n_atoms, variant, relabel=True):
    atoms = _labels(rng, "a", n_atoms) if relabel else ["p", "q", "r"][:n_atoms]
    data = {"kind": "propositional", "atoms": atoms, "variant": variant}
    valuations = 1 << n_atoms
    states = 1 << valuations if variant == "all_theories" else valuations + 1
    names = {orig: atom for orig, atom in zip("pqr", atoms)}
    return Model(_write(directory, name, data), "propositional", states=states,
                 measurements=1 << valuations, names=names)


def boolean_table(rng, directory, name, points):
    """States are the zero state and ``points`` atoms; one measurement per set
    S of atoms keeps the atoms in S and sends the others to zero.  It passes
    all nine laws: the point measurements are those of singleton sets."""
    zero, *atoms = _labels(rng, "s", points + 1)
    masks = list(range(1 << points))
    rng.shuffle(masks)
    labels = _labels(rng, "m", len(masks))
    measurements = {}
    for label, mask in zip(labels, masks):
        table = {zero: zero}
        for i, atom in enumerate(atoms):
            table[atom] = atom if mask >> i & 1 else zero
        entries = list(table.items())
        rng.shuffle(entries)
        measurements[label] = dict(entries)
    states = [zero] + atoms
    rng.shuffle(states)
    data = {"kind": "table", "states": states, "zero": zero, "measurements": measurements}
    return Model(_write(directory, name, data), "table", states=len(states),
                 measurements=len(measurements))


def coordinate_family(dim):
    """The 2**dim coordinate subspaces of Q^dim, closed under complement and
    under composition (all of them commute)."""
    family = {}
    for mask in range(1 << dim):
        family[f"c{mask}"] = [[1 if j == i else 0 for j in range(dim)]
                              for i in range(dim) if mask >> i & 1]
    return family


def _check(model, *extra, checks, fails=(), label):
    return Op(label, ["check", model.path, "--format", "json", *extra], model,
              1 if fails else 0, tuple(checks), frozenset(fails))


def build(workload, seed, directory):
    """Write the workload's model files into ``directory``; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "ray-sampled":
        r3 = ray_model(rng, directory, "r3", 3, R3_SUBSPACES, False, 2)
        r3_full = ray_model(rng, directory, "r3_full", 3, R3_SUBSPACES, True, 2)
        r4 = ray_model(rng, directory, "r4_coord", 4, coordinate_family(4), False, 1)
        ops.append(_check(r3, "--axioms", "all", checks=ALL_LAWS,
                          fails=("separability", "strong_separability"), label="r3 check all"))
        ops.append(_check(r3_full, "--axioms", "all", checks=ALL_LAWS, label="r3_full check all"))
        ops.append(Op("r4_coord lemmas", ["lemmas", r4.path, "--format", "json"], r4, 0,
                      LEMMAS, vacuous_ok=True))
    elif workload == "table-exhaustive":
        t3 = propositional_model(rng, directory, "t3", 3, "all_theories")
        t3m = propositional_model(rng, directory, "t3_maximal", 3, "maximal_theories")
        t2 = propositional_model(rng, directory, "t2", 2, "all_theories")
        laws = ("illegitimate", "idempotence", "interference", "negation")
        ops.append(_check(t3, "--axioms", ",".join(laws), checks=laws, label="t3 check"))
        optional = ("separability", "strong_separability")
        ops.append(_check(t3m, "--axioms", ",".join(optional), checks=optional,
                          label="t3_maximal check separability"))
        ops.append(Op("t3_maximal lemmas", ["lemmas", t3m.path, "--format", "json"], t3m, 0,
                      LEMMAS, vacuous_ok=True))
        ops.append(_check(t2, "--axioms", "all", checks=ALL_LAWS,
                          fails=("separability", "strong_separability"), label="t2 check all"))
    elif workload == "order-logic":
        boolean = boolean_table(rng, directory, "boolean6", 6)
        r3_full = ray_model(rng, directory, "r3_full", 3, R3_SUBSPACES, True, 2)
        r2 = ray_model(rng, directory, "r2", 2, R2_SUBSPACES, False, 3)
        t2 = propositional_model(rng, directory, "t2", 2, "all_theories")
        for m, label in ((boolean, "boolean6 order"), (r3_full, "r3_full order")):
            ops.append(Op(label, ["order", m.path, "--strong-sep", "--format", "json"], m, 0,
                          ORDER_CHECKS))
        ray_set = ",".join(r2.names[n] for n in ("bot", "px", "py", "top"))
        prop_set = ",".join(["bot", t2.names["p"], t2.names["q"], "top"])
        for m, names, label in ((r2, ray_set, "r2 tautology"), (t2, prop_set, "t2 tautology")):
            ops.append(Op(label, ["tautology", m.path, "--commuting", names, "--depth", "3",
                                  "--slots", "3", "--format", "json"], m, 0, TAUTOLOGY_CHECKS))
    else:
        t2 = propositional_model(rng, directory, "t2", 2, "all_theories")
        r2 = ray_model(rng, directory, "r2", 2, R2_SUBSPACES, False, 3)
        ops.append(Op("t2 tautology depth 6 over budget",
                      ["tautology", t2.path, "--commuting", f"{t2.names['p']},{t2.names['q']},top",
                       "--depth", "6", "--slots", "3"], t2, 3))
        ops.append(Op("unknown --axioms name", ["check", t2.path, "--axioms", "separability,bogus_law"],
                      t2, 2))
        ops.append(Op("non-commuting connective",
                      ["connective", r2.path, "--expr", "a & b",
                       "--bind", f"a={r2.names['px']},b={r2.names['pd']}"], r2, 2))
        ops.extend(_known_faults(directory))
    return ops


def _known_faults(directory):
    """Inputs refused with exit 2 by the exit-code contract (ROADMAP item 5)
    that the program crashes on, or accepts, today.  Fixed, seed-free files."""
    t2 = propositional_model(None, directory, "fault_t2", 2, "all_theories", relabel=False)
    r2 = ray_model(None, directory, "fault_r2", 2, R2_SUBSPACES, False, 3, relabel=False)
    bad_height = Model(_write(directory, "fault_sample_height", {
        "kind": "ray", "dimension": 2, "sample_height": "abc",
        "subspaces": {"bot": [], "top": [["1", "0"], ["0", "1"]]}}), "ray")
    bad_negations = Model(_write(directory, "fault_negations", {
        "kind": "table", "states": ["0", "a"], "zero": "0",
        "measurements": {"top": {"0": "0", "a": "a"}, "bot": {"0": "0", "a": "0"}},
        "negations": ["x"]}), "table")
    bad_atoms = Model(_write(directory, "fault_atoms", {
        "kind": "propositional", "atoms": [1, 2]}), "propositional")
    deep = "~" * 5000 + "a"
    return [
        Op("sample_height \"abc\"", ["check", bad_height.path], bad_height, 2,
           fault="ValueError escapes load_model, exit 1"),
        Op("negations [\"x\"]", ["check", bad_negations.path], bad_negations, 2,
           fault="ValueError escapes load_model, exit 1"),
        Op("atoms [1, 2]", ["check", bad_atoms.path], bad_atoms, 2,
           fault="TypeError escapes load_model, exit 1"),
        Op("5000-deep negation", ["connective", t2.path, "--expr", deep, "--bind", "a=p"], t2, 2,
           fault="RecursionError in parse_formula, exit 1"),
        Op("--loop-n 0", ["check", r2.path, "--axioms", "l_cumulativity", "--loop-n", "0"], r2, 2,
           fault="accepted, exit 0 with a vacuous PASS (sampled)"),
    ]
