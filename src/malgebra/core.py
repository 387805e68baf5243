"""Measurement algebras and the executable form of their defining laws.

An algebra is a state space with a distinguished illegitimate state and a
family of named idempotent state transformers.  Two backends exist: finite
algebras keep every measurement as an extensional table, ray algebras act on
canonical rays of Q^n through exact rational projections.  The checking
engine is exhaustive on finite backends; on the ray backend it decides
measurement-level laws analytically through subspace arithmetic and samples
the per-state laws over a deterministic window of rays.

Everything here is pure and operates on immutable values; results list their
counterexample witnesses in a fixed canonical order (states by identifier,
rays by canonical direction, measurements by name), so reports are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ClosureViolation, InputError, NegationViolation
from .ratlin import (
    Matrix,
    Ray,
    Subspace,
    is_symmetric_idempotent,
    mat_mul,
    parse_ray,
    primitive_vectors,
    subspace_rays,
)

DEFINING_AXIOMS = (
    "illegitimate",
    "idempotence",
    "composition",
    "interference",
    "cumulativity",
    "negation",
)
OPTIONAL_AXIOMS = ("separability", "strong_separability", "l_cumulativity")
ALL_AXIOMS = DEFINING_AXIOMS + OPTIONAL_AXIOMS

LEMMA_IDS = (
    "fp_determines",
    "double_negation",
    "definiteness",
    "definiteness_dual",
    "fp_zero_duality",
    "preservation_symmetry",
    "composition_fixpoints",
    "composition_preserves",
    "composition_iff_preservation",
    "composition_order_symmetry",
    "composition_iff_commutation",
    "fp_inclusion_absorbs",
)

_WITNESS_CAP = 10


@dataclass(frozen=True)
class Budget:
    """Bounds for sampled checks: ray window height and loop length.

    ``height=None`` defers to the algebra's own sample height.
    """

    height: int | None = None
    loop_n: int = 3

    def __post_init__(self):
        if self.loop_n < 1:
            raise InputError(f"loop length must be at least 1, got {self.loop_n}")


@dataclass(frozen=True)
class StateSet:
    """An extent (fixpoint or zero set), possibly sampled.

    On the ray backend the exact extent is the attached subspace and
    ``members`` is the sampled window inside it.
    """

    members: frozenset
    complete: bool
    subspace: Subspace | None = None


@dataclass
class CheckResult:
    property_id: str
    status: str  # pass | fail | vacuous | sampled_pass
    witnesses: list[tuple[str, ...]]
    checked_count: int
    advisory: bool = False
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "property": self.property_id,
            "status": self.status,
            "witnesses": [list(w) for w in self.witnesses],
            "checked": self.checked_count,
            "advisory": self.advisory,
            "note": self.note,
        }


class Measurement:
    """A named state transformer; equality is extensional, names are labels."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, state):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class TableMeasurement(Measurement):
    def __init__(self, name: str, mapping: dict):
        super().__init__(name)
        self.mapping = dict(mapping)

    def __call__(self, state):
        return self.mapping[state]

    def __eq__(self, other):
        return isinstance(other, TableMeasurement) and self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))


class ProjectionMeasurement(Measurement):
    def __init__(self, name: str, subspace: Subspace):
        super().__init__(name)
        self.subspace = subspace

    @property
    def matrix(self) -> Matrix:
        return self.subspace.projection

    def __call__(self, state: Ray) -> Ray:
        return self.subspace.project_ray(state)

    def __eq__(self, other):
        return isinstance(other, ProjectionMeasurement) and self.subspace == other.subspace

    def __hash__(self):
        return hash(self.subspace)


class MAlgebra:
    """Base class: named measurements over a state space with a zero state.

    The measurements never change after construction, so their sorted names
    are computed once.
    """

    kind = "abstract"

    def __init__(self, measurements):
        self._measurements: dict[str, Measurement] = {}
        for m in measurements:
            if m.name in self._measurements:
                raise InputError(f"duplicate measurement name {m.name!r}")
            self._measurements[m.name] = m
        self._names = tuple(sorted(self._measurements))
        self._sorted = tuple(self._measurements[n] for n in self._names)

    @property
    def measurements(self) -> dict[str, Measurement]:
        return self._measurements

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def measurement(self, name: str) -> Measurement:
        try:
            return self._measurements[name]
        except KeyError:
            raise InputError(f"unknown measurement {name!r}") from None

    def sorted_measurements(self) -> list[Measurement]:
        return list(self._sorted)


class Compiled(NamedTuple):
    """A finite measurement as integers over the declared state order."""

    codes: tuple[int, ...]  # codes[i] is the index of the image of state i
    fp: int  # fixpoint bitmask
    z: int  # zero bitmask
    fixed: tuple[int, ...]  # fixpoint indices, ascending


class FiniteAlgebra(MAlgebra):
    """Extensional backend: states are identifier strings, actions are tables.

    Each member is compiled once, at construction, to its codes; its masks
    and the table index (codes to the first member by name) derive from them.
    """

    def __init__(self, kind, states, zero, measurements, negation_hints=None, meta=None):
        super().__init__(measurements)
        self.kind = kind
        self.states = tuple(states)
        self.zero = zero
        self.negation_hints = dict(negation_hints or {})
        self.meta = dict(meta or {})
        self._state_index = {s: i for i, s in enumerate(self.states)}
        self.zero_index = self._state_index.get(zero)
        self.full_mask = (1 << len(self.states)) - 1
        # Keyed by object identity: while a member is alive no other object
        # shares its id, so a foreign measurement never hits this cache.
        self._compiled = {id(m): self._compile(m) for m in self._sorted}
        self._table_index: dict[tuple, Measurement] = {}
        for m in self._sorted:
            self._table_index.setdefault(self._compiled[id(m)].codes, m)
        self._negations: dict[str, Measurement] = {}

    def sorted_states(self) -> list[str]:
        return sorted(self.states)

    def has_state(self, state) -> bool:
        return state in self._state_index

    def _compile(self, m: Measurement) -> Compiled:
        try:
            codes = tuple(map(self._state_index.__getitem__, map(m, self.states)))
        except KeyError as exc:
            raise InputError(
                f"measurement {m.name!r} does not act on the states: {exc.args[0]!r}"
            ) from None
        fixed = tuple(i for i, c in enumerate(codes) if c == i)
        fp = sum(1 << i for i in fixed)
        z = sum(1 << i for i, c in enumerate(codes) if c == self.zero_index)
        return Compiled(codes, fp, z, fixed)

    def compiled(self, m: Measurement) -> Compiled:
        """The cached compile of a member; a measurement that is not the
        algebra's own object (even under a member's name) is compiled anew."""
        return self._compiled.get(id(m)) or self._compile(m)

    # The three accessors below repeat the lookup of ``compiled`` inline:
    # they run in the innermost loops of the law checks and the order.

    def codes(self, m: Measurement) -> tuple[int, ...]:
        return (self._compiled.get(id(m)) or self._compile(m)).codes

    def fp_mask(self, m: Measurement) -> int:
        """Fixpoint set as a bitmask over the declared state order."""
        return (self._compiled.get(id(m)) or self._compile(m)).fp

    def z_mask(self, m: Measurement) -> int:
        """Zero set as a bitmask over the declared state order."""
        return (self._compiled.get(id(m)) or self._compile(m)).z

    def table_index(self) -> dict[tuple, Measurement]:
        return self._table_index


class RayAlgebra(MAlgebra):
    """Ray backend: canonical rays of Q^n acted on by exact projections.

    With ``full_lattice`` the listed measurements are just a named window:
    membership and negation may synthesize projections onto any rational
    subspace on demand.
    """

    kind = "ray"

    def __init__(self, dim, measurements, full_lattice=False, sample_height=3):
        super().__init__(measurements)
        self.dim = dim
        self.full_lattice = full_lattice
        self.sample_height = sample_height
        self.zero = Ray.zero(dim)
        self._samples: dict[int, list[Ray]] = {}
        self._subspace_names: dict[Subspace, str] = {
            m.subspace: m.name for m in reversed(self.sorted_measurements())
        }
        self._negations: dict[str, Measurement] = {}

    def sample_states(self, height: int | None = None) -> list[Ray]:
        """Deterministic ray window: primitive vectors up to the height bound,
        every basis ray of a listed subspace, and the zero ray."""
        h = self.sample_height if height is None else height
        if h < 1:
            raise InputError("sample height must be at least 1")
        if h not in self._samples:
            rays = {Ray.zero(self.dim)}
            for v in primitive_vectors(self.dim, h):
                rays.add(Ray(self.dim, v))
            for m in self._measurements.values():
                for row in m.subspace.basis:
                    rays.add(Ray.from_vector(row, self.dim))
            self._samples[h] = sorted(rays, key=lambda r: r.sort_key)
        return self._samples[h]

    def fp_sample(self, m: Measurement, height: int | None = None) -> list[Ray]:
        """Sampled fixpoint rays: the zero ray plus rays inside the subspace."""
        h = self.sample_height if height is None else height
        return [Ray.zero(self.dim)] + subspace_rays(m.subspace, h)

    def measurement_for_subspace(self, sub: Subspace) -> Measurement | None:
        name = self._subspace_names.get(sub)
        if name is not None:
            return self._measurements[name]
        if self.full_lattice:
            return ProjectionMeasurement(_subspace_label(sub), sub)
        return None


def _subspace_label(sub: Subspace) -> str:
    if sub.is_zero:
        return "P[0]"
    if sub.is_full:
        return "P[full]"
    return "P[" + ";".join("(" + ",".join(str(x) for x in b) + ")" for b in sub.basis) + "]"


def _resolve(alg: MAlgebra, m) -> Measurement:
    if isinstance(m, Measurement):
        return m
    return alg.measurement(m)


def state_id(alg: MAlgebra, state) -> str:
    return str(state)


def state_from_id(alg: MAlgebra, sid: str):
    if isinstance(alg, RayAlgebra):
        return parse_ray(sid, alg.dim)
    if not alg.has_state(sid):
        raise InputError(f"unknown state {sid!r}")
    return sid


def apply(alg: MAlgebra, m, state):
    """Act on a state with a measurement; deterministic and total."""
    m = _resolve(alg, m)
    if isinstance(alg, RayAlgebra):
        if not isinstance(state, Ray) or state.dim != alg.dim:
            raise InputError(f"not a state of this algebra: {state!r}")
        return m(state)
    if not alg.has_state(state):
        raise InputError(f"unknown state {state!r}")
    return m(state)


def extent(alg: MAlgebra, m) -> tuple[StateSet, StateSet, StateSet]:
    """Fixpoint set, zero set and their union (the states with a definite value)."""
    m = _resolve(alg, m)
    if isinstance(alg, RayAlgebra):
        sub = m.subspace
        perp = sub.orthocomplement
        zero = Ray.zero(alg.dim)
        fp_members = frozenset([zero]) | frozenset(subspace_rays(sub, alg.sample_height))
        z_members = frozenset([zero]) | frozenset(subspace_rays(perp, alg.sample_height))
        fp = StateSet(fp_members, complete=False, subspace=sub)
        z = StateSet(z_members, complete=False, subspace=perp)
        deff = StateSet(fp_members | z_members, complete=False)
        return fp, z, deff
    c = alg.compiled(m)
    fp = frozenset(alg.states[i] for i in c.fixed)
    z = frozenset(s for i, s in enumerate(alg.states) if c.z >> i & 1)
    return (
        StateSet(fp, complete=True),
        StateSet(z, complete=True),
        StateSet(fp | z, complete=True),
    )


def preserves(alg: MAlgebra, a, b) -> bool:
    """Whether ``a`` maps the fixpoint set of ``b`` into itself.

    On the ray backend this is decided exactly: the projection of b's
    subspace under a must land inside the intersection of the two subspaces.
    """
    a, b = _resolve(alg, a), _resolve(alg, b)
    if isinstance(alg, RayAlgebra):
        inter = a.subspace.intersect(b.subspace)
        return all(
            inter.contains(a.subspace.project_vector(v))
            for v in b.subspace.basis_vectors
        )
    A, cb = alg.codes(a), alg.compiled(b)
    return all(cb.fp >> A[x] & 1 for x in cb.fixed)


def preserves_pointwise(alg: MAlgebra, a, b, height: int | None = None) -> bool:
    """The pointwise definition of preservation, sampled on the ray backend."""
    a, b = _resolve(alg, a), _resolve(alg, b)
    if isinstance(alg, RayAlgebra):
        return all(b(a(x)) == a(x) for x in alg.fp_sample(b, height))
    return all(b(a(x)) == a(x) for x in alg.states if b(x) == x)


def commutes(alg: MAlgebra, a, b) -> bool:
    a, b = _resolve(alg, a), _resolve(alg, b)
    if isinstance(alg, RayAlgebra):
        return a.subspace.commutes_with(b.subspace)
    A, B = alg.codes(a), alg.codes(b)
    return _then(A, B) == _then(B, A)


def _then(A, B):
    """Codes of "apply A, then B"."""
    return tuple(map(B.__getitem__, A))


def fp_subset(alg, a, b):
    """FP(a) is included in FP(b)."""
    if isinstance(alg, RayAlgebra):
        return b.subspace.contains_subspace(a.subspace)
    fa, fb = alg.fp_mask(a), alg.fp_mask(b)
    return fa & ~fb == 0


def z_subset(alg, a, b):
    """Z(a) is included in Z(b)."""
    if isinstance(alg, RayAlgebra):
        return b.subspace.orthocomplement.contains_subspace(a.subspace.orthocomplement)
    za, zb = alg.z_mask(a), alg.z_mask(b)
    return za & ~zb == 0


def compose_raw(alg: MAlgebra, a, b):
    """The raw map "apply a, then b", with no claim of membership in M.

    Finite backends return an extensional table, the ray backend the exact
    matrix of the composite.
    """
    a, b = _resolve(alg, a), _resolve(alg, b)
    if isinstance(alg, RayAlgebra):
        return mat_mul(b.matrix, a.matrix)
    return {x: b(a(x)) for x in alg.states}


def membership(alg: MAlgebra, raw) -> Measurement | None:
    """The measurement extensionally equal to a raw map, if there is one.

    On a full-lattice ray algebra any symmetric idempotent rational matrix
    qualifies and is resolved to a listed name when possible, otherwise a
    fresh projection measurement is synthesized.
    """
    if isinstance(alg, RayAlgebra):
        if not is_symmetric_idempotent(raw):
            return None
        sub = Subspace.from_projection(raw)
        return alg.measurement_for_subspace(sub)
    missing = [s for s in alg.states if s not in raw]
    if missing:
        raise InputError(f"raw map has no entry for state {missing[0]!r}")
    index = alg._state_index
    return alg.table_index().get(tuple(index.get(raw[s]) for s in alg.states))


def compose_member(alg: MAlgebra, a, b) -> Measurement | None:
    """The member of M equal to "apply a, then b", or None."""
    a, b = _resolve(alg, a), _resolve(alg, b)
    if isinstance(alg, RayAlgebra):
        return membership(alg, compose_raw(alg, a, b))
    B = alg.codes(b)
    return alg.table_index().get(tuple(map(B.__getitem__, alg.codes(a))))


def negation_of(alg: MAlgebra, m) -> Measurement:
    """The measurement whose fixpoints are the zeros of ``m`` and vice versa.

    Unique when it exists (measurements are determined by their fixpoints);
    raises :class:`NegationViolation` when the algebra lacks it.
    """
    m = _resolve(alg, m)
    cached = alg._negations.get(m.name)
    if cached is not None and alg.measurements.get(m.name) is m:
        return cached
    if isinstance(alg, RayAlgebra):
        result = alg.measurement_for_subspace(m.subspace.orthocomplement)
        if result is None:
            raise NegationViolation(m.name)
    else:
        hinted = alg.negation_hints.get(m.name)
        if hinted is not None:
            result = alg.measurement(hinted)
        else:
            target_fp = alg.z_mask(m)
            target_z = alg.fp_mask(m)
            result = next(
                (c for c in alg.sorted_measurements()
                 if alg.fp_mask(c) == target_fp and alg.z_mask(c) == target_z),
                None,
            )
            if result is None:
                raise NegationViolation(m.name)
    if alg.measurements.get(m.name) is m:
        alg._negations[m.name] = result
    return result


def top_bot(alg: MAlgebra) -> tuple[Measurement, Measurement]:
    """The two trivial measurements: identity on every state, and constant zero.

    Derived by composing any measurement with its negation; failures report
    which defining law (composition or negation) the algebra breaks.
    """
    ms = alg.sorted_measurements()
    if not ms:
        raise InputError("the algebra has no measurements")
    a = ms[0]
    na = negation_of(alg, a)
    bot = compose_member(alg, a, na)
    if bot is None:
        raise ClosureViolation(
            f"composing {a.name!r} with its negation leaves M; "
            "the composition law fails"
        )
    top = negation_of(alg, bot)
    if isinstance(alg, RayAlgebra):
        ok = bot.subspace.is_zero and top.subspace.is_full
    else:
        ok = alg.z_mask(bot) == alg.fp_mask(top) == alg.full_mask
    if not ok:
        raise ClosureViolation(
            "the derived bottom/top measurements misbehave; the composition "
            "or negation law fails"
        )
    return top, bot


def point_measurement(alg: MAlgebra, x) -> Measurement | None:
    """The measurement whose only fixpoints are the zero state and ``x``."""
    if isinstance(alg, RayAlgebra):
        if not isinstance(x, Ray) or x.is_zero:
            raise InputError("point measurements exist only for nonzero states")
        return alg.measurement_for_subspace(
            Subspace.from_generators(alg.dim, [x.direction])
        )
    if not alg.has_state(x) or x == alg.zero:
        raise InputError("point measurements exist only for nonzero states")
    target = (1 << alg.zero_index) | (1 << alg._state_index[x])
    for m in alg.sorted_measurements():
        if alg.fp_mask(m) == target:
            return m
    return None


# ---------------------------------------------------------------------------
# axiom checks


def _per_state_domain(alg: MAlgebra, budget: Budget):
    """States a per-state law ranges over, and whether that range is complete."""
    if isinstance(alg, RayAlgebra):
        return alg.sample_states(budget.height), False
    return alg.sorted_states(), True


def _result(property_id, witnesses, checked, complete, vacuous=False, note=""):
    witnesses = sorted(witnesses)[:_WITNESS_CAP]
    if witnesses:
        status = "fail"
    elif vacuous:
        status = "vacuous"
    else:
        status = "pass" if complete else "sampled_pass"
    return CheckResult(property_id, status, witnesses, checked, note=note)


def _check_illegitimate(alg, budget):
    witnesses, checked = [], 0
    for m in alg.sorted_measurements():
        checked += 1
        if m(alg.zero) != alg.zero:
            witnesses.append((m.name,))
    return _result("illegitimate", witnesses, checked, complete=True)


def _check_idempotence(alg, budget):
    witnesses, checked = [], 0
    if isinstance(alg, RayAlgebra):
        for m in alg.sorted_measurements():
            checked += 1
            if mat_mul(m.matrix, m.matrix) != m.matrix:
                witnesses.append((m.name,))
        return _result("idempotence", witnesses, checked, complete=True,
                       note="decided on projection matrices")
    for m in alg.sorted_measurements():
        M = alg.codes(m)
        checked += len(M)
        witnesses.extend((alg.states[x], m.name) for x, y in enumerate(M) if M[y] != y)
    return _result("idempotence", witnesses, checked, complete=True)


def _check_composition(alg, budget):
    witnesses, checked = [], 0
    for a in alg.sorted_measurements():
        for b in alg.sorted_measurements():
            checked += 1
            if preserves(alg, a, b) and compose_member(alg, b, a) is None:
                witnesses.append((a.name, b.name))
    return _result("composition", witnesses, checked, complete=True)


def _check_interference(alg, budget):
    witnesses, checked = [], 0
    ms = alg.sorted_measurements()
    if isinstance(alg, RayAlgebra):
        for a in ms:
            for x in alg.fp_sample(a, budget.height):
                for b in ms:
                    checked += 1
                    y = b(x)
                    t = a(y)
                    if b(t) == t and t != y:
                        witnesses.append((state_id(alg, x), a.name, b.name))
        return _result("interference", witnesses, checked, complete=False)
    coded = [(m.name, alg.codes(m)) for m in ms]
    for a in ms:
        c = alg.compiled(a)
        A, fixed = c.codes, c.fixed
        checked += len(fixed) * len(coded)
        for b_name, B in coded:
            for x in fixed:
                y = B[x]
                t = A[y]
                if B[t] == t and t != y:
                    witnesses.append((alg.states[x], a.name, b_name))
    return _result("interference", witnesses, checked, complete=True)


def _check_cumulativity(alg, budget):
    witnesses, checked = [], 0
    ms = alg.sorted_measurements()
    if isinstance(alg, RayAlgebra):
        for x in alg.sample_states(budget.height):
            for i, a in enumerate(ms):
                ax = a(x)
                for b in ms[i + 1:]:
                    checked += 1
                    bx = b(x)
                    if b(ax) == ax and a(bx) == bx and ax != bx:
                        witnesses.append((state_id(alg, x), a.name, b.name))
        return _result("cumulativity", witnesses, checked, complete=False)
    coded = [(m.name, alg.codes(m)) for m in ms]
    for i, (a_name, A) in enumerate(coded):
        later = coded[i + 1:]
        checked += len(later) * len(alg.states)
        for x, ax in enumerate(A):
            for b_name, B in later:
                bx = B[x]
                if B[ax] == ax and A[bx] == bx and ax != bx:
                    witnesses.append((alg.states[x], a_name, b_name))
    return _result("cumulativity", witnesses, checked, complete=True)


def _check_negation(alg, budget):
    witnesses, checked = [], 0
    for m in alg.sorted_measurements():
        checked += 1
        try:
            negation_of(alg, m)
        except NegationViolation:
            witnesses.append((m.name,))
    return _result("negation", witnesses, checked, complete=True)


def _check_separability(alg, budget):
    witnesses, checked = [], 0
    states, complete = _per_state_domain(alg, budget)
    nonzero = [x for x in states if x != alg.zero]
    by_point = isinstance(alg, RayAlgebra) and alg.full_lattice
    for x in nonzero:
        # One point measurement per x, so its ray memo serves the whole y loop.
        e = point_measurement(alg, x) if by_point else None
        for y in nonzero:
            if x == y:
                continue
            checked += 1
            if by_point:
                if e(x) == x and e(y) != y:
                    continue
                witnesses.append((state_id(alg, x), state_id(alg, y)))
            elif not any(m(x) == x and m(y) != y for m in alg.sorted_measurements()):
                witnesses.append((state_id(alg, x), state_id(alg, y)))
    return _result("separability", witnesses, checked, complete=complete)


def _check_strong_separability(alg, budget):
    witnesses, checked = [], 0
    states, complete = _per_state_domain(alg, budget)
    for x in states:
        if x == alg.zero:
            continue
        checked += 1
        if point_measurement(alg, x) is None:
            witnesses.append((state_id(alg, x),))
    return _result("strong_separability", witnesses, checked, complete=complete)


def _check_l_cumulativity(alg, budget):
    """Cyclic strengthening of the two-measurement exchange law.

    A violation is a cyclic sequence of measurements, each image of the state
    fixed by the next one, whose images nevertheless differ somewhere.  A
    violating cycle of length at most n+1 through two differing measurements
    exists exactly when their round-trip distance in the "image fixed by"
    digraph is at most n+1, so shortest paths decide the bound exactly.
    """
    witnesses, checked = [], 0
    states, complete = _per_state_domain(alg, budget)
    ms = alg.sorted_measurements()
    names = [m.name for m in ms]
    max_len = budget.loop_n + 1
    for x in states:
        images = {m.name: m(x) for m in ms}
        adjacency = {
            a.name: [b.name for b in ms if b(images[a.name]) == images[a.name]]
            for a in ms
        }
        dist, parent = _all_bfs(names, adjacency)
        for a in names:
            for b in names:
                if a >= b or images[a] == images[b]:
                    continue
                checked += 1
                d_ab = dist[a].get(b)
                d_ba = dist[b].get(a)
                if d_ab is not None and d_ba is not None and d_ab + d_ba <= max_len:
                    cycle = _bfs_path(parent, a, b) + _bfs_path(parent, b, a)[1:-1]
                    witnesses.append((state_id(alg, x), *cycle))
    return _result("l_cumulativity", witnesses, checked, complete=complete)


def _all_bfs(names, adjacency):
    dist = {}
    parent = {}
    for source in names:
        d = {source: 0}
        p = {}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in d:
                        d[v] = d[u] + 1
                        p[v] = u
                        nxt.append(v)
            frontier = nxt
        dist[source] = d
        parent[source] = p
    return dist, parent


def _bfs_path(parent, source, target):
    path = [target]
    while path[-1] != source:
        path.append(parent[source][path[-1]])
    return path[::-1]


_AXIOM_CHECKS = {
    "illegitimate": _check_illegitimate,
    "idempotence": _check_idempotence,
    "composition": _check_composition,
    "interference": _check_interference,
    "cumulativity": _check_cumulativity,
    "negation": _check_negation,
    "separability": _check_separability,
    "strong_separability": _check_strong_separability,
    "l_cumulativity": _check_l_cumulativity,
}


def check_axiom(alg: MAlgebra, property_id: str, budget: Budget | None = None) -> CheckResult:
    """Decide one of the nine named laws, with replayable witnesses on failure."""
    if property_id not in _AXIOM_CHECKS:
        raise InputError(f"unknown property {property_id!r}")
    return _AXIOM_CHECKS[property_id](alg, budget or Budget())


def check_axioms(alg, property_ids=DEFINING_AXIOMS, budget=None) -> list[CheckResult]:
    return [check_axiom(alg, pid, budget) for pid in property_ids]


def replay_witness(alg: MAlgebra, property_id: str, witness: tuple[str, ...]) -> bool:
    """Re-evaluate a witness tuple; True iff it still exhibits the violation."""
    if property_id == "illegitimate":
        (m,) = witness
        return apply(alg, m, alg.zero) != alg.zero
    if property_id == "idempotence":
        if len(witness) == 1:
            m = _resolve(alg, witness[0])
            return mat_mul(m.matrix, m.matrix) != m.matrix
        x = state_from_id(alg, witness[0])
        m = witness[1]
        return apply(alg, m, apply(alg, m, x)) != apply(alg, m, x)
    if property_id == "composition":
        a, b = witness
        return preserves(alg, a, b) and compose_member(alg, b, a) is None
    if property_id == "interference":
        x = state_from_id(alg, witness[0])
        a, b = witness[1], witness[2]
        if apply(alg, a, x) != x:
            return False
        y = apply(alg, b, x)
        t = apply(alg, a, y)
        return apply(alg, b, t) == t and t != y
    if property_id == "cumulativity":
        x = state_from_id(alg, witness[0])
        a, b = witness[1], witness[2]
        ax, bx = apply(alg, a, x), apply(alg, b, x)
        return apply(alg, b, ax) == ax and apply(alg, a, bx) == bx and ax != bx
    if property_id == "negation":
        (m,) = witness
        try:
            negation_of(alg, m)
        except NegationViolation:
            return True
        return False
    if property_id == "separability":
        x = state_from_id(alg, witness[0])
        y = state_from_id(alg, witness[1])
        return not any(
            apply(alg, m, x) == x and apply(alg, m, y) != y
            for m in alg.sorted_measurements()
        )
    if property_id == "strong_separability":
        x = state_from_id(alg, witness[0])
        return point_measurement(alg, x) is None
    if property_id == "l_cumulativity":
        x = state_from_id(alg, witness[0])
        cycle = witness[1:]
        images = [apply(alg, m, x) for m in cycle]
        closes = all(
            apply(alg, cycle[(i + 1) % len(cycle)], images[i]) == images[i]
            for i in range(len(cycle))
        )
        return closes and len(set(images)) > 1
    raise InputError(f"no replay rule for property {property_id!r}")


# ---------------------------------------------------------------------------
# derived laws


def lemma_suite(alg: MAlgebra, budget: Budget | None = None) -> list[CheckResult]:
    """The twelve derived laws, instantiated over all measurement pairs.

    They are consequences of the six defining laws, so a failure on an
    algebra that passes those signals a bug in this library; when the
    prerequisites fail the results are marked advisory instead.
    """
    budget = budget or Budget()
    prereq_ok = all(r.ok for r in check_axioms(alg, DEFINING_AXIOMS, budget))
    results = [
        _lemma_fp_determines(alg, budget),
        _lemma_double_negation(alg, budget),
        _lemma_definiteness(alg, budget, dual=False),
        _lemma_definiteness(alg, budget, dual=True),
        _lemma_fp_zero_duality(alg, budget),
        _lemma_preservation_symmetry(alg, budget),
        _lemma_composition_fixpoints(alg, budget),
        _lemma_composition_preserves(alg, budget),
        _lemma_composition_iff_preservation(alg, budget),
        _lemma_composition_order_symmetry(alg, budget),
        _lemma_composition_iff_commutation(alg, budget),
        _lemma_fp_inclusion_absorbs(alg, budget),
    ]
    if not prereq_ok:
        for r in results:
            r.advisory = True
            r.note = (r.note + "; " if r.note else "") + \
                "defining laws fail, result is advisory"
    return results


def _fp_eq(alg, a, b):
    if isinstance(alg, RayAlgebra):
        return a.subspace == b.subspace
    return alg.fp_mask(a) == alg.fp_mask(b)


def _lemma_fp_determines(alg, budget):
    witnesses, checked, fired = [], 0, False
    ms = alg.sorted_measurements()
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            checked += 1
            if _fp_eq(alg, a, b):
                fired = True
                if a != b:
                    witnesses.append((a.name, b.name))
    return _result("fp_determines", witnesses, checked, complete=True,
                   vacuous=not fired)


def _lemma_double_negation(alg, budget):
    witnesses, checked = [], 0
    for a in alg.sorted_measurements():
        checked += 1
        try:
            if negation_of(alg, negation_of(alg, a)) != a:
                witnesses.append((a.name,))
        except NegationViolation:
            witnesses.append((a.name,))
    return _result("double_negation", witnesses, checked, complete=True)


def _lemma_definiteness(alg, budget, dual):
    # Straight form: a state satisfying b cannot be sent by any measurement
    # to a state where b is impossible.  Dual form swaps fixpoints and zeros.
    pid = "definiteness_dual" if dual else "definiteness"
    witnesses, checked = [], 0
    ms = alg.sorted_measurements()
    if isinstance(alg, RayAlgebra):
        for b in ms:
            base = b.subspace.orthocomplement if dual else b.subspace
            domain = [Ray.zero(alg.dim)] + subspace_rays(base, budget.height or alg.sample_height)
            for x in domain:
                for a in ms:
                    checked += 1
                    ax = a(x)
                    hits = b(ax) == ax if dual else b(ax) == alg.zero
                    if hits and ax != alg.zero:
                        witnesses.append((state_id(alg, x), a.name, b.name))
        return _result(pid, witnesses, checked, complete=False)
    zero = alg.zero_index
    coded = [(m.name, alg.codes(m)) for m in ms]
    for b in ms:
        c = alg.compiled(b)
        domain = [x for x, y in enumerate(c.codes) if y == zero] if dual else c.fixed
        # a(x) hits when b fixes it (dual form) or sends it to zero
        hit = c.fp if dual else c.z
        checked += len(domain) * len(coded)
        for a_name, A in coded:
            for x in domain:
                ax = A[x]
                if hit >> ax & 1 and ax != zero:
                    witnesses.append((alg.states[x], a_name, b.name))
    return _result(pid, witnesses, checked, complete=True)


def _lemma_fp_zero_duality(alg, budget):
    witnesses, checked = [], 0
    ms = alg.sorted_measurements()
    for a in ms:
        for b in ms:
            checked += 1
            if fp_subset(alg, a, b) != z_subset(alg, b, a):
                witnesses.append((a.name, b.name))
    return _result("fp_zero_duality", witnesses, checked, complete=True)


def _lemma_preservation_symmetry(alg, budget):
    witnesses, checked = [], 0
    ms = alg.sorted_measurements()
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            checked += 1
            if preserves(alg, a, b) != preserves(alg, b, a):
                witnesses.append((a.name, b.name))
    return _result("preservation_symmetry", witnesses, checked, complete=True)


def _lemma_composition_fixpoints(alg, budget):
    witnesses, checked, fired = [], 0, False
    ms = alg.sorted_measurements()
    for a in ms:
        for b in ms:
            checked += 1
            c = compose_member(alg, a, b)
            if c is None:
                continue
            fired = True
            if isinstance(alg, RayAlgebra):
                good = c.subspace == a.subspace.intersect(b.subspace)
            else:
                good = alg.fp_mask(c) == alg.fp_mask(a) & alg.fp_mask(b)
            if not good:
                witnesses.append((a.name, b.name))
    return _result("composition_fixpoints", witnesses, checked, complete=True,
                   vacuous=not fired)


def _lemma_composition_preserves(alg, budget):
    witnesses, checked, fired = [], 0, False
    ms = alg.sorted_measurements()
    for a in ms:
        for b in ms:
            checked += 1
            if compose_member(alg, a, b) is not None:
                fired = True
                if not preserves(alg, b, a):
                    witnesses.append((a.name, b.name))
    return _result("composition_preserves", witnesses, checked, complete=True,
                   vacuous=not fired)


def _lemma_composition_iff_preservation(alg, budget):
    witnesses, checked = [], 0
    ms = alg.sorted_measurements()
    for a in ms:
        for b in ms:
            checked += 1
            if (compose_member(alg, a, b) is not None) != preserves(alg, b, a):
                witnesses.append((a.name, b.name))
    return _result("composition_iff_preservation", witnesses, checked, complete=True)


def _lemma_composition_order_symmetry(alg, budget):
    witnesses, checked = [], 0
    ms = alg.sorted_measurements()
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            checked += 1
            ab = compose_member(alg, a, b) is not None
            if ab != (compose_member(alg, b, a) is not None):
                witnesses.append((a.name, b.name))
    return _result("composition_order_symmetry", witnesses, checked, complete=True)


def _lemma_composition_iff_commutation(alg, budget):
    witnesses, checked = [], 0
    ms = alg.sorted_measurements()
    for a in ms:
        for b in ms:
            checked += 1
            if (compose_member(alg, a, b) is not None) != commutes(alg, a, b):
                witnesses.append((a.name, b.name))
    return _result("composition_iff_commutation", witnesses, checked, complete=True)


def _lemma_fp_inclusion_absorbs(alg, budget):
    witnesses, checked, fired = [], 0, False
    ms = alg.sorted_measurements()
    for a in ms:
        for b in ms:
            checked += 1
            if not fp_subset(alg, a, b):
                continue
            fired = True
            if isinstance(alg, RayAlgebra):
                good = compose_raw(alg, a, b) == compose_raw(alg, b, a) == a.matrix
            else:
                A, B = alg.codes(a), alg.codes(b)
                good = _then(A, B) == _then(B, A) == A
            if not good:
                witnesses.append((a.name, b.name))
    return _result("fp_inclusion_absorbs", witnesses, checked, complete=True,
                   vacuous=not fired)
