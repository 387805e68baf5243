"""Builders for the three concrete model families, and the model-file reader.

* ``build_table`` encodes an arbitrary finite algebra extensionally; nothing
  is assumed about it, the caller runs the checks.
* ``build_propositional`` encodes classical propositional logic over a small
  atom set.  A theory is represented by its set of models (valuations), so
  consequence closure is implicit and exact; note the order reversal this
  brings: a larger theory has a *smaller* model set, and the illegitimate
  state (the inconsistent theory) is the EMPTY valuation set.  Asserting a
  formula intersects the model set with the formula's models.
* ``build_ray`` builds the exact rational ray model: states are canonical
  rays of Q^n plus the zero ray, measurements are orthogonal projections
  onto rational subspaces.
"""

from __future__ import annotations

import itertools

from . import core, formulas, ratlin, rays
from .errors import InputError

MAX_ATOMS = 3


def build_table(states, zero, measurements, negations=None, kind="table"):
    """Finite algebra from explicit tables, given as a name -> table mapping
    or as (name, table) pairs.  No law is assumed to hold."""
    states = list(states)
    # witnesses name states by ``str``, and replay reads those names back
    if not all(isinstance(s, str) for s in states):
        raise InputError("state ids must be strings")
    known = set(states)
    if len(known) != len(states):
        dupe = next(s for s in states if states.count(s) > 1)
        raise InputError(f"duplicate state id {dupe!r}")
    if zero not in known:
        raise InputError(f"zero state {zero!r} is not among the states")
    table_measurements = []
    # whole-set comparisons; a scan in state order only names the first offender
    for name, table in measurements.items() if isinstance(measurements, dict) else measurements:
        if table.keys() != known:
            missing = next((s for s in states if s not in table), None)
            if missing is not None:
                raise InputError(f"measurement {name!r} has no entry for state {missing!r}")
            extra = next(s for s in table if s not in known)
            raise InputError(f"measurement {name!r} maps unknown state {extra!r}")
        if not known.issuperset(table.values()):
            bad = next(s for s in states if table[s] not in known)
            raise InputError(f"measurement {name!r} sends {bad!r} to unknown state {table[bad]!r}")
        table_measurements.append(core.TableMeasurement(name, table))
    alg = core.FiniteAlgebra(kind, states, zero, table_measurements, negation_hints=negations)
    if negations:
        _validate_negation_map(alg, negations)
    return alg


def _validate_negation_map(alg, negations):
    for name, other in negations.items():
        m = alg.measurement(name)
        n = alg.measurement(other)
        if negations.get(other, name) != name:
            raise InputError(f"negation map is not an involution at {name!r}")
        if alg.fp_mask(n) != alg.z_mask(m) or alg.z_mask(n) != alg.fp_mask(m):
            raise InputError(
                f"declared negation {other!r} of {name!r} does not swap "
                "fixpoints and zeros"
            )


def _valuation_name(bits: tuple[int, ...]) -> str:
    return "v" + "".join(str(b) for b in bits)


def _theory_id(mask: int, valuation_names: list[str]) -> str:
    members = [valuation_names[i] for i in range(len(valuation_names)) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


def build_propositional(atoms, variant="all_theories"):
    """Propositional algebra over at most three atoms.

    ``all_theories`` takes every theory (= every set of valuations) as a
    state; ``maximal_theories`` keeps only the maximal consistent theories
    (singleton model sets) and the inconsistent theory (the empty set).
    Measurements are one per semantic equivalence class of formulas and act
    by model-set intersection; their names are minimal formulas, except for
    the two trivial classes which are named ``top`` and ``bot``.
    """
    atoms = tuple(atoms)
    if not 1 <= len(atoms) <= MAX_ATOMS:
        raise InputError(
            f"propositional models support 1 to {MAX_ATOMS} atoms, got {len(atoms)}"
        )
    if len(set(atoms)) != len(atoms):
        raise InputError("atom names must be unique")
    reserved = [a for a in atoms if a in ("top", "bot")]
    if reserved:
        raise InputError(f"atom {reserved[0]!r} takes the name of a trivial measurement")
    for atom in atoms:
        if not formulas.is_atom(atom):
            raise InputError(f"atom {atom!r} is not a formula atom: a letter or '_', "
                             "then letters, digits or '_'")
    if variant not in ("all_theories", "maximal_theories"):
        raise InputError(f"unknown variant {variant!r}")

    k = len(atoms)
    n_valuations = 1 << k
    valuation_names = [
        _valuation_name(bits) for bits in itertools.product((0, 1), repeat=k)
    ]
    full = (1 << n_valuations) - 1

    if variant == "all_theories":
        state_masks = list(range(1 << n_valuations))
    else:
        state_masks = [0] + [1 << i for i in range(n_valuations)]
    ids = {mask: _theory_id(mask, valuation_names) for mask in state_masks}

    names_by_mask = {}
    for mask, formula in formulas.minimal_formula_names(atoms).items():
        names_by_mask[mask] = formulas.format_formula(formula, compact=True)
    names_by_mask[full] = "top"
    names_by_mask[0] = "bot"

    # the tables are built one at a time, as TableMeasurement copies each: on
    # three atoms, holding all 256 at once would double the peak memory of the load
    measurements = ((names_by_mask[m], {ids[t]: ids[t & m] for t in state_masks})
                    for m in range(1 << n_valuations))

    return build_table(
        states=[ids[m] for m in state_masks],
        zero=ids[0],
        measurements=measurements,
        kind="propositional",
    )


def build_ray(dimension, subspaces, full_lattice=False, sample_height=3):
    """Ray algebra from named subspace generator lists.

    Without ``full_lattice`` the listed family must be closed under
    orthocomplement and commuting composition, asked of the same negation
    and composite lookups that the laws use; the error names what is missing.
    """
    if dimension < 1:
        raise InputError("dimension must be positive")
    # the window is decided from the dimension and height alone, so one over
    # the budget is refused before any subspace is built
    ratlin.check_window(dimension, sample_height)
    measurements = []
    by_subspace: dict[ratlin.Subspace, str] = {}
    for name, generators in subspaces.items():
        sub = ratlin.Subspace.from_generators(dimension, generators)
        if sub in by_subspace:
            raise InputError(
                f"subspaces {by_subspace[sub]!r} and {name!r} have the same span"
            )
        by_subspace[sub] = name
        measurements.append(core.ProjectionMeasurement(name, sub))

    alg = rays.RayAlgebra(dimension, measurements, full_lattice=full_lattice,
                          sample_height=sample_height)
    if not full_lattice:  # the missing subspace is built only to be named
        for m in measurements:
            if alg.find_negation(m) is None:
                raise InputError(f"listed family is not closed: the orthocomplement "
                                 f"{m.subspace.orthocomplement} of {m.name!r} is missing")
        for a, b in itertools.combinations(measurements, 2):
            if alg.commutes(a, b) and alg.compose_member(a, b) is None:
                raise InputError(f"listed family is not closed: {a.name!r} and {b.name!r} commute "
                                 f"but their composition {a.subspace.intersect(b.subspace)} is missing")
    return alg


# ---------------------------------------------------------------------------
# model files


def load_model(data: dict, height: int | None = None):
    """Build an algebra from the structured model-file form; ``height``,
    when given, replaces a ray model's ``sample_height``."""
    if not isinstance(data, dict):
        raise InputError("model file must hold an object")
    kind = data.get("kind")
    if kind == "table":
        states = _require(data, "states", _is_str_list, "a list of state ids")
        measurements = _require(data, "measurements", dict, "an object")
        zero = _require(data, "zero", str, "a state id")
        for name, table in measurements.items():
            if not _is_str_map(table):
                raise InputError(f"measurement {name!r} must map state ids to state ids")
        return build_table(
            states=states,
            zero=zero,
            measurements=measurements,
            negations=_require(data, "negations", _is_str_map,
                               "an object mapping names to names", None),
        )
    if kind == "ray":
        subspaces = _require(data, "subspaces", _is_generator_map,
                             "an object mapping names to lists of vectors")
        file_height = _require(data, "sample_height", _is_int, "an integer", 3)
        return build_ray(
            dimension=_require(data, "dimension", _is_int, "an integer"),
            subspaces=subspaces,
            full_lattice=_require(data, "full_lattice", bool, "true or false", False),
            sample_height=file_height if height is None else height,
        )
    if kind == "propositional":
        return build_propositional(
            atoms=_require(data, "atoms", _is_str_list, "a list of atom names"),
            variant=data.get("variant", "all_theories"),
        )
    raise InputError(f"unknown model kind {kind!r}")


_REQUIRED = object()


def _require(data, key, shape, what, default=_REQUIRED):
    """The entry under ``key``, checked against a type or a predicate; an
    optional entry that is absent or null gives ``default``."""
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InputError(f"model file lacks the {key!r} entry")
        return default
    valid = isinstance(value, shape) if isinstance(shape, type) else shape(value)
    if not valid:
        raise InputError(f"model entry {key!r} has the wrong shape: expected {what}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _is_generator_map(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(vectors, list) and all(isinstance(v, list) for v in vectors)
        for vectors in value.values()
    )


def _is_str_map(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    )

