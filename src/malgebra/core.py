"""Measurement algebras and the executable form of their defining laws.

An algebra is a state space with a distinguished illegitimate state and a
family of named idempotent state transformers.  Two backends implement the
:class:`MAlgebra` protocol: :class:`FiniteAlgebra`, here, keeps every
measurement as an extensional table, and ``rays.RayAlgebra`` acts on
canonical rays of Q^n through exact rational projections.  The checking
engine is exhaustive on finite backends; on the ray backend it decides
measurement-level laws analytically through subspace arithmetic and samples
the per-state laws over a deterministic window of rays.  The laws ask the
protocol only, so this module never imports ``rays``; both measurement
classes stay here, where code that wraps them by name finds them.

Everything here is pure and operates on immutable values; results list their
counterexample witnesses in a fixed canonical order (states by identifier,
rays by canonical direction, measurements by name), so reports are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import and_, or_
from typing import NamedTuple

from .errors import ClosureViolation, InputError, NegationViolation
from .ratlin import Matrix, Ray, Subspace

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
        if self.height is not None and self.height < 1:
            raise InputError(f"sample height must be at least 1, got {self.height}")
        if self.loop_n < 1:
            raise InputError(f"loop length must be at least 1, got {self.loop_n}")


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


class PairRows(NamedTuple):
    """Every pair fact over a list of members ``ms``, as bit rows.

    Bit j of ``has[i]`` holds "ms[i], then ms[j]" is in M, ``keeps[i]``
    "ms[i] preserves FP(ms[j])", ``fp[i]`` "FP(ms[i]) within FP(ms[j])",
    ``z[i]`` "Z(ms[i]) within Z(ms[j])" and ``commute[i]`` "ms[i] and ms[j]
    commute".

    ``composite[i][j]`` indexes the member equal to "ms[i], then ms[j]", or
    is None.  Equal members share the least index, ``own[i]`` being that of
    ms[i]; a composite outside ``ms`` gets an index past them, with an
    ``fp`` row of its own.
    """

    composite: list[list[int | None]]
    own: list[int]
    has: list[int]
    keeps: list[int]
    fp: list[int]
    z: list[int]
    commute: list[int]


class MAlgebra:
    """Base class: named measurements over a state space with a zero state.

    The measurements never change after construction, so their sorted names
    are computed once.

    Each backend implements one protocol; code outside the two backend
    classes never asks which backend it runs on.  The law checks handle
    states as codes: declared-order indices on finite backends, the rays
    themselves on the ray backend.  Both backends define:

    * ``action(m)``: a mapping from each state code to the code of its image;
    * ``state_domain(budget)``, ``fixpoint_domain(m, budget)`` and
      ``zero_domain(m, budget)``: the state codes a law ranges over;
    * ``zero_code``, ``exact`` (whether those domains are complete),
      ``state(code)`` and ``state_code(label)``;
    * ``has_state(state)``: whether ``apply`` accepts the state;
    * ``commutes(a, b)``, ``fp_subset(a, b)``, ``z_subset(a, b)``, and
      ``compose_raw(a, b)`` and ``membership(raw)``: the raw map "a, then
      b" and the member equal to a raw map, or None;
    * ``find_negation(m)`` and ``point_measurement(x)``: the member with
      swapped fixpoints and zeros, the one fixing only zero and ``x``, or None;
    * ``is_full(m)``, ``is_zero(m)`` and ``is_classical(m)``: whether ``m``
      fixes every state, annihilates every state, or one of the two each.

    The rest have a default here, over those; the override is named:

    * ``summary()``: kind and sizes for a report (rays add the dimension);
    * ``state_label(code)``: ``str`` of the code's state (none);
    * ``preserves(a, b)``: the pointwise rule of ``preserves_pointwise``,
      exact on an exact backend (rays test the subspaces);
    * ``compose_member(a, b)``: ``membership`` of ``compose_raw`` (the
      finite backend reads its lanes);
    * ``commutation_probes(m)``: the unlisted members a full lattice adds
      when asking whether ``m`` commutes with every member (rays);
    * ``pair_rows(ms)``: the pair facts of :class:`PairRows`, asked pair by
      pair (the finite backend reads its lanes).

    Measurement-level methods take resolved measurements; the module
    functions of the same names resolve names first.  ``extent`` is a module
    function only, read off the domains.
    """

    kind = "abstract"
    full_lattice = False

    def __init__(self, measurements):
        self._measurements: dict[str, Measurement] = {}
        for m in measurements:
            if m.name in self._measurements:
                raise InputError(f"duplicate measurement name {m.name!r}")
            self._measurements[m.name] = m
        self._names = tuple(sorted(self._measurements))
        self._sorted = tuple(self._measurements[n] for n in self._names)
        self._negations: dict[str, Measurement] = {}

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

    def resolve(self, m) -> Measurement:
        """A measurement, or the member of that name."""
        return m if isinstance(m, Measurement) else self.measurement(m)

    def sorted_measurements(self) -> list[Measurement]:
        return list(self._sorted)

    def summary(self) -> dict:
        return {"kind": self.kind, "states": len(self.state_domain(Budget())),
                "sampled": not self.exact, "measurements": len(self._measurements)}

    def state_label(self, code) -> str:
        return str(self.state(code))

    def preserves(self, a: Measurement, b: Measurement) -> bool:
        return preserves_pointwise(self, a, b)

    def compose_member(self, a: Measurement, b: Measurement) -> Measurement | None:
        # through the module functions, so that their per-layer spans count it
        return membership(self, compose_raw(self, a, b))

    def commutation_probes(self, m: Measurement) -> list[Measurement]:
        """Unlisted measurements that ``m`` must commute with if it commutes
        with every measurement; only a full lattice has any."""
        return []

    def pair_rows(self, ms: list[Measurement]) -> PairRows:
        """The pair facts asked of the protocol pair by pair, row by row."""
        n = len(ms)
        composites = [[compose_member(self, a, b) for b in ms] for a in ms]
        keeps = bit_rows(n, lambda i, j: preserves(self, ms[i], ms[j]))
        fp = bit_rows(n, lambda i, j: self.fp_subset(ms[i], ms[j]))
        z = bit_rows(n, lambda i, j: self.z_subset(ms[i], ms[j]))
        # commutation is asked once per unordered pair and holds on the diagonal
        above = bit_rows(n, lambda i, j: i < j and commutes(self, ms[i], ms[j]))
        # equal measurements share the least index; a composite outside ms
        # gets the next free one and its own fp row
        index: dict[Measurement, int] = {}
        own = [index.setdefault(m, i) for i, m in enumerate(ms)]

        def slot(c):
            if c not in index:
                index[c] = len(fp)
                fp.append(sum(1 << j for j, b in enumerate(ms) if self.fp_subset(c, b)))
            return index[c]

        composite = [[None if c is None else slot(c) for c in row] for row in composites]
        has = [sum(1 << j for j, k in enumerate(row) if k is not None) for row in composite]
        return PairRows(composite, own, has, keeps, fp, z,
                        [row | col | 1 << i for i, (row, col)
                         in enumerate(zip(above, bit_columns(above)))])

    def negation(self, m: Measurement) -> Measurement:
        """``find_negation``, cached for members; raises when there is none."""
        member = self._measurements.get(m.name) is m
        cached = self._negations.get(m.name) if member else None
        if cached is None:
            cached = self.find_negation(m)
            if cached is None:
                raise NegationViolation(m.name)
            if member:
                self._negations[m.name] = cached
        return cached


class Compiled(NamedTuple):
    """A finite measurement as integers over the declared state order.

    ``lane`` holds the codes again, as ``bytes`` over at most 256 states and
    as a :class:`_TupleLane` above that.  ``table`` is the lane padded to
    256 entries with ``bytes(range(|X|, 256))``, each padding entry its own
    image (above 256 states there is no padding), so "a, then b" is
    ``lane_a.translate(table_b)`` on both lane types.  The lanes stay
    unpadded, so a composite over few states is short to build and hash.
    The law loops index ``codes``: a tuple indexes faster than ``bytes``.
    """

    codes: tuple[int, ...]  # codes[i] is the index of the image of state i
    lane: bytes | _TupleLane
    table: bytes | _TupleLane
    fp: int  # fixpoint bitmask
    z: int  # zero bitmask
    fixed: tuple[int, ...]  # fixpoint indices, ascending


class _TupleLane(tuple):
    """The codes of a measurement over more than 256 states, with the
    ``bytes.translate`` call of the byte lanes."""

    def translate(self, table):
        return _TupleLane(map(table.__getitem__, self))


class FiniteAlgebra(MAlgebra):
    """Extensional backend: states are identifier strings, actions are tables.

    Each member is compiled once, at construction, to its codes, lane and
    translate table (see :class:`Compiled`); its masks and the table index
    (lanes to the first member by name) derive from them.  Composition,
    commutation, membership and the pair rows run on the lanes.
    """

    def __init__(self, kind, states, zero, measurements, negation_hints=None, meta=None):
        super().__init__(measurements)
        self.kind = kind
        self.states = tuple(states)
        self.zero = zero
        self.negation_hints = dict(negation_hints or {})
        self.meta = dict(meta or {})
        self._state_index = {s: i for i, s in enumerate(self.states)}
        self._sorted_codes = tuple(sorted(range(len(self.states)), key=self.states.__getitem__))
        self.zero_code = self._state_index.get(zero)
        self.full_mask = (1 << len(self.states)) - 1
        # the one size branch: the lane type (past 256 states the padding is empty)
        self._lane = bytes if len(self.states) <= 256 else _TupleLane
        self._pad = tuple(range(len(self.states), 256))
        # Keyed by object identity: while a member is alive no other object
        # shares its id, so a foreign measurement never hits this cache.
        self._compiled = {id(m): self._compile(m) for m in self._sorted}
        self._table_index: dict[bytes | _TupleLane, Measurement] = {}
        for m in self._sorted:
            self._table_index.setdefault(self._compiled[id(m)].lane, m)

    def _compile(self, m: Measurement) -> Compiled:
        try:
            codes = tuple(map(self._state_index.__getitem__, map(m, self.states)))
        except KeyError as exc:
            raise InputError(
                f"measurement {m.name!r} does not act on the states: {exc.args[0]!r}"
            ) from None
        fixed = tuple(i for i, c in enumerate(codes) if c == i)
        fp = sum(1 << i for i in fixed)
        z = sum(1 << i for i, c in enumerate(codes) if c == self.zero_code)
        return Compiled(codes, self._lane(codes), self._lane(codes + self._pad), fp, z, fixed)

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

    # law-check protocol (see MAlgebra)

    exact = True
    action = codes

    def state_domain(self, budget: Budget) -> tuple[int, ...]:
        """Every state, in identifier order: ``strong_sep_check`` names the
        first state that has no point measurement."""
        return self._sorted_codes

    def fixpoint_domain(self, m: Measurement, budget: Budget) -> tuple[int, ...]:
        return self.compiled(m).fixed

    def zero_domain(self, m: Measurement, budget: Budget) -> list[int]:
        return [x for x, y in enumerate(self.codes(m)) if y == self.zero_code]

    def state(self, code: int) -> str:
        return self.states[code]

    def state_code(self, label: str) -> int:
        try:
            return self._state_index[label]
        except KeyError:
            raise InputError(f"unknown state {label!r}") from None

    # measurement-level operations (see MAlgebra), read off the codes

    def has_state(self, state) -> bool:
        try:
            return state in self._state_index
        except TypeError:  # an unhashable value is no state
            return False

    def commutes(self, a: Measurement, b: Measurement) -> bool:
        ca, cb = self.compiled(a), self.compiled(b)
        return ca.lane.translate(cb.table) == cb.lane.translate(ca.table)

    def fp_subset(self, a: Measurement, b: Measurement) -> bool:
        return self.fp_mask(a) & ~self.fp_mask(b) == 0

    def z_subset(self, a: Measurement, b: Measurement) -> bool:
        return self.z_mask(a) & ~self.z_mask(b) == 0

    def compose_raw(self, a: Measurement, b: Measurement) -> dict:
        return {x: b(a(x)) for x in self.states}

    def membership(self, raw: dict) -> Measurement | None:
        missing = [s for s in self.states if s not in raw]
        if missing:
            raise InputError(f"raw map has no entry for state {missing[0]!r}")
        codes = [self._state_index.get(raw[s]) for s in self.states]
        return None if None in codes else self._table_index.get(self._lane(codes))

    def compose_member(self, a: Measurement, b: Measurement) -> Measurement | None:
        return self._table_index.get(self.compiled(a).lane.translate(self.compiled(b).table))

    def pair_rows(self, ms: list[Measurement]) -> PairRows:
        """The pair facts from the lanes and from per-state member columns.

        Row i composes ms[i] with every member both ways, one translate
        each; the dict lookup of "ms[i], then ms[j]" gives ``has``, and the
        equality of the two composites commutation.  Bit i of ``fixers[x]``
        (of ``zeroers[x]``) holds "ms[i] fixes x" ("sends x to zero").  So
        ms[i] preserves FP(ms[j]) unless some x fixed by ms[j] moves to a
        state ms[j] does not fix, and FP(ms[i]) lies within FP(ms[j]) when
        ms[j] fixes every x that ms[i] fixes.
        """
        every = (1 << len(ms)) - 1
        compiled = [self.compiled(m) for m in ms]
        lanes = [c.lane for c in compiled]
        index: dict[bytes | _TupleLane, int] = {}
        own = [index.setdefault(lane, i) for i, lane in enumerate(lanes)]
        fps = [c.fp for c in compiled]  # then the composites outside ms
        members = self._table_index
        tables = [c.table for c in compiled]
        composite, has, commute = [], [], []
        for A, T in zip(lanes, tables):
            ab = [A.translate(U) for U in tables]
            ba = [B.translate(T) for B in lanes]
            row = [index.get(c) for c in ab]
            if None in row:
                for j, c in enumerate(ab):
                    if row[j] is None and c in members:
                        if c not in index:
                            index[c] = len(fps)
                            fps.append(self.compiled(members[c]).fp)
                        row[j] = index[c]
            composite.append(row)
            has.append(sum(1 << j for j, k in enumerate(row) if k is not None))
            commute.append(sum(1 << j for j, (x, y) in enumerate(zip(ab, ba)) if x == y))

        fixers, zeroers = [0] * len(self.states), [0] * len(self.states)
        for i, c in enumerate(compiled):
            for x in c.fixed:
                fixers[x] |= 1 << i
            for x in bit_positions(c.z):
                zeroers[x] |= 1 << i
        keeps = [every & ~reduce(or_, (fixers[x] & ~fixers[y]
                                       for x, y in enumerate(c.codes) if x != y), 0)
                 for c in compiled]
        fp = [reduce(and_, map(fixers.__getitem__, bit_positions(mask)), every) for mask in fps]
        z = [reduce(and_, map(zeroers.__getitem__, bit_positions(c.z)), every) for c in compiled]
        return PairRows(composite, own, has, keeps, fp, z, commute)

    def find_negation(self, m: Measurement) -> Measurement | None:
        hinted = self.negation_hints.get(m.name)
        if hinted is not None:
            return self.measurement(hinted)
        target_fp, target_z = self.z_mask(m), self.fp_mask(m)
        return next((c for c in self._sorted
                     if self.fp_mask(c) == target_fp and self.z_mask(c) == target_z), None)

    def point_measurement(self, x: str) -> Measurement | None:
        target = (1 << self.zero_code) | (1 << self._state_index[x])
        return next((m for m in self._sorted if self.fp_mask(m) == target), None)

    def is_full(self, m: Measurement) -> bool:
        return self.fp_mask(m) == self.full_mask

    def is_zero(self, m: Measurement) -> bool:
        return self.z_mask(m) == self.full_mask

    def is_classical(self, m: Measurement) -> bool:
        return self.fp_mask(m) | self.z_mask(m) == self.full_mask


def state_id(alg: MAlgebra, state) -> str:
    return str(state)


def apply(alg: MAlgebra, m, state):
    """Act on a state with a measurement; deterministic and total."""
    m = alg.resolve(m)
    if not alg.has_state(state):
        raise InputError(f"not a state of this algebra: {state!r}")
    return m(state)


def extent(alg: MAlgebra, m) -> tuple[frozenset, frozenset, frozenset]:
    """Fixpoint set, zero set and their union (the states with a definite
    value), over the backend's domains: complete exactly when ``alg.exact``."""
    m = alg.resolve(m)
    fp = frozenset(map(alg.state, alg.fixpoint_domain(m, Budget())))
    z = frozenset(map(alg.state, alg.zero_domain(m, Budget())))
    return fp, z, fp | z


def preserves(alg: MAlgebra, a, b) -> bool:
    """Whether ``a`` maps the fixpoint set of ``b`` into itself (exact on
    both backends)."""
    return alg.preserves(alg.resolve(a), alg.resolve(b))


def preserves_pointwise(alg: MAlgebra, a, b, height: int | None = None) -> bool:
    """The pointwise definition of preservation, sampled on the ray backend."""
    a, b = alg.resolve(a), alg.resolve(b)
    A, B = alg.action(a), alg.action(b)
    return all(B[A[x]] == A[x] for x in alg.fixpoint_domain(b, Budget(height=height)))


def commutes(alg: MAlgebra, a, b) -> bool:
    return alg.commutes(alg.resolve(a), alg.resolve(b))


def compose_raw(alg: MAlgebra, a, b):
    """The raw map "apply a, then b", with no claim of membership in M.

    Finite backends return an extensional table, the ray backend the exact
    matrix of the composite.
    """
    return alg.compose_raw(alg.resolve(a), alg.resolve(b))


def membership(alg: MAlgebra, raw) -> Measurement | None:
    """The measurement extensionally equal to a raw map, if there is one."""
    return alg.membership(raw)


def compose_member(alg: MAlgebra, a, b) -> Measurement | None:
    """The member of M equal to "apply a, then b", or None."""
    return alg.compose_member(alg.resolve(a), alg.resolve(b))


def negation_of(alg: MAlgebra, m) -> Measurement:
    """The measurement whose fixpoints are the zeros of ``m`` and vice versa.

    Unique when it exists (measurements are determined by their fixpoints);
    raises :class:`NegationViolation` when the algebra lacks it.
    """
    return alg.negation(alg.resolve(m))


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
    if not (alg.is_zero(bot) and alg.is_full(top)):
        raise ClosureViolation(
            "the derived bottom/top measurements misbehave; the composition "
            "or negation law fails"
        )
    return top, bot


def point_measurement(alg: MAlgebra, x) -> Measurement | None:
    """The measurement whose only fixpoints are the zero state and ``x``."""
    if not alg.has_state(x) or x == alg.zero:
        raise InputError("point measurements exist only for nonzero states")
    return alg.point_measurement(x)


# ---------------------------------------------------------------------------
# results


def bit_positions(mask: int):
    """The positions of the set bits of a bit row, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_rows(n: int, fact) -> list[int]:
    """The bit rows of a relation over the indices ``range(n)``, asked row
    by row: bit j of ``rows[i]`` holds ``fact(i, j)``."""
    return [sum(1 << j for j in range(n) if fact(i, j)) for i in range(n)]


def bit_columns(rows: list[int]) -> list[int]:
    """The transpose of the bit rows of a relation over ``range(len(rows))``:
    bit i of ``cols[j]`` is bit j of ``rows[i]``.  It sets bits one by one,
    so a relation with more than half its bits set is transposed through
    its complement."""
    n = len(rows)
    every = (1 << n) - 1
    flip = every if sum(row.bit_count() for row in rows) * 2 > n * n else 0
    cols = [0] * n
    for i, row in enumerate(rows):
        for j in bit_positions(row ^ flip):
            cols[j] |= 1 << i
    return [col ^ flip for col in cols]


def check_result(property_id, witnesses, checked, complete=True, vacuous=False,
                 note="") -> CheckResult:
    """The one status rule: any witness fails; otherwise a law whose premise
    never held is vacuous, and a pass over a sampled domain is sampled.
    Witnesses are sorted and capped."""
    witnesses = sorted(witnesses)[:_WITNESS_CAP]
    if witnesses:
        status = "fail"
    elif vacuous:
        status = "vacuous"
    else:
        status = "pass" if complete else "sampled_pass"
    return CheckResult(property_id, status, witnesses, checked, note=note)


def check_instances(property_id, instances, violation, premise=None) -> CheckResult:
    """One law over its instances, each a tuple of measurements.

    Every instance counts as checked; one whose premise holds and that
    violates the law is a witness, named by its measurements.  A law whose
    premise never holds is vacuous.
    """
    witnesses, checked, fired = [], 0, False
    for ms in instances:
        checked += 1
        if premise is None or premise(*ms):
            fired = True
            if violation(*ms):
                witnesses.append(tuple(m.name for m in ms))
    return check_result(property_id, witnesses, checked,
                        vacuous=premise is not None and not fired)


# ---------------------------------------------------------------------------
# laws
#
# A law is one function ``law(alg, ms, dom, budget)`` that returns its
# witnesses and the number of instances it checked.  Its instances range over
# the measurements ``ms`` and over states drawn from the domains of ``dom``.
# The checker passes every member and the algebra itself; replay passes the
# measurements and the states named in one witness.  Actions and domains come
# from the backend protocol, so the same loop runs on table codes and on ray
# memos.


def _illegitimate(alg, ms, dom, budget):
    z = alg.zero_code
    return [(m.name,) for m in ms if alg.action(m)[z] != z], len(ms)


def _idempotence(alg, ms, dom, budget):
    if not alg.exact:
        return [(m.name,) for m in ms if compose_member(alg, m, m) != m], len(ms)
    witnesses, states, label = [], dom.state_domain(budget), alg.state_label
    for m in ms:
        M = alg.action(m)
        witnesses.extend((label(x), m.name) for x in states if M[M[x]] != M[x])
    return witnesses, len(ms) * len(states)


def _interference(alg, ms, dom, budget):
    witnesses, checked, label = [], 0, alg.state_label
    coded = [(m.name, alg.action(m)) for m in ms]
    for a in ms:
        A, fixed = alg.action(a), dom.fixpoint_domain(a, budget)
        checked += len(fixed) * len(coded)
        for b_name, B in coded:
            for x in fixed:
                y = B[x]
                t = A[y]
                if B[t] == t and t != y:
                    witnesses.append((label(x), a.name, b_name))
    return witnesses, checked


def _cumulativity(alg, ms, dom, budget):
    witnesses, label = [], alg.state_label
    states = dom.state_domain(budget)
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


def _negation(alg, ms, dom, budget):
    witnesses = []
    for m in ms:
        try:
            negation_of(alg, m)
        except NegationViolation:
            witnesses.append((m.name,))
    return witnesses, len(ms)


def _separability(alg, ms, dom, budget):
    # The separators are every member, or on a full lattice the point
    # measurement of x (there states and their codes are the same rays).
    witnesses, checked, label = [], 0, alg.state_label
    nonzero = [x for x in dom.state_domain(budget) if x != alg.zero_code]
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


def _strong_separability(alg, ms, dom, budget):
    nonzero = [x for x in dom.state_domain(budget) if x != alg.zero_code]
    witnesses = [(alg.state_label(x),) for x in nonzero
                 if point_measurement(alg, alg.state(x)) is None]
    return witnesses, len(nonzero)


def _l_cumulativity(alg, ms, dom, budget):
    """Cyclic strengthening of the two-measurement exchange law.

    A violation is a cyclic sequence of measurements, each image of the state
    fixed by the next one, whose images nevertheless differ somewhere.  A
    violating cycle of length at most n+1 through two differing measurements
    exists exactly when their round-trip distance in the "image fixed by"
    digraph is at most n+1, so shortest paths decide the bound exactly.
    """
    witnesses, checked = [], 0
    coded = [(m.name, alg.action(m)) for m in ms]
    names = [name for name, _ in coded]
    max_len = budget.loop_n + 1
    for x in dom.state_domain(budget):
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
                if d_ab is not None and d_ba is not None and d_ab + d_ba <= max_len:
                    cycle = _bfs_path(parent, a, b) + _bfs_path(parent, b, a)[1:-1]
                    witnesses.append((alg.state_label(x), *cycle))
    return witnesses, checked


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


def _double_negation(alg, ms, dom, budget):
    witnesses = []
    for a in ms:
        try:
            if negation_of(alg, negation_of(alg, a)) != a:
                witnesses.append((a.name,))
        except NegationViolation:
            witnesses.append((a.name,))
    return witnesses, len(ms)


def _definiteness(alg, ms, dom, budget, dual=False):
    # Straight form: a state satisfying b cannot be sent by any measurement
    # to a state where b is impossible.  Dual form swaps fixpoints and zeros.
    witnesses, checked, label = [], 0, alg.state_label
    zero = alg.zero_code
    coded = [(m.name, alg.action(m)) for m in ms]
    for b in ms:
        B = alg.action(b)
        domain = dom.zero_domain(b, budget) if dual else dom.fixpoint_domain(b, budget)
        checked += len(domain) * len(coded)
        for a_name, A in coded:
            for x in domain:
                ax = A[x]
                if ax != zero and (B[ax] == ax if dual else B[ax] == zero):
                    witnesses.append((label(x), a_name, b.name))
    return witnesses, checked


# (id, over unordered pairs, has a premise); a law whose premise never holds
# is vacuous.  ``_pair_lemmas`` lists their rows in this order.  The
# composition axiom rides along, so the lemma suite reads its prerequisite
# from the same pass.
_PAIR_LAWS = (
    ("composition", False, False),
    ("fp_determines", True, True),
    ("fp_zero_duality", False, False),
    ("preservation_symmetry", True, False),
    ("composition_fixpoints", False, True),
    ("composition_preserves", False, True),
    ("composition_iff_preservation", False, False),
    ("composition_order_symmetry", True, False),
    ("composition_iff_commutation", False, False),
    ("fp_inclusion_absorbs", False, True),
)


def _pair_lemmas(alg, ms) -> dict[str, tuple[list, int, bool]]:
    """Every pair law, read off the backend's pair rows over the member
    indices (see :class:`PairRows`): each law is a premise row and a
    violation row per member.  Returns each law's witnesses, instance count
    and vacuity.
    """
    n = len(ms)
    every = (1 << n) - 1
    r = alg.pair_rows(ms)
    composite, own, fp = r.composite, r.own, r.fp
    # the facts with i and j swapped: bit j of z_t[i] holds "Z(ms[j]) within Z(ms[i])"
    has_t, keeps_t, fp_t, z_t = map(bit_columns, (r.has, r.keeps, fp[:n], r.z))

    def where(row, test):
        return sum(1 << j for j in bit_positions(row) if test(j))

    found = {pid: [] for pid, *_ in _PAIR_LAWS}
    held = dict.fromkeys(found, 0)
    for i, a in enumerate(ms):
        later = every >> (i + 1) << (i + 1)  # the unordered pairs (i, j > i)
        has, keeps = r.has[i], r.keeps[i]
        both_fp, ab = fp[i] & fp_t[i] & later, composite[i]
        # (premise, violation); a law without a premise has its pairs as
        # premise.  A composite fixes every common fixpoint, so only FP(ab)
        # within FP(a) and FP(b) can fail.
        rows = (
            (every, keeps & ~has_t[i]),
            (both_fp, where(both_fp, lambda j: own[j] != own[i])),
            (every, fp[i] ^ z_t[i]),
            (later, (keeps ^ keeps_t[i]) & later),
            (has, sum(1 << j for j, k in enumerate(ab)
                      if k is not None and ~fp[k] & (1 << i | 1 << j))),
            (has, has & ~keeps_t[i]),
            (every, has ^ keeps_t[i]),
            (later, (has ^ has_t[i]) & later),
            (every, has ^ r.commute[i]),
            (fp[i], where(fp[i], lambda j: not (ab[j] == own[i] == composite[j][i]))),
        )
        for (pid, *_), (premise, violation) in zip(_PAIR_LAWS, rows):
            held[pid] |= premise
            found[pid] += [(a.name, ms[j].name) for j in bit_positions(violation)]
    return {pid: (found[pid], n * (n - 1) // 2 if unordered else n * n, premised and not held[pid])
            for pid, unordered, premised in _PAIR_LAWS}


def _pair_lemma(pid, alg, ms, dom, budget):
    return _pair_lemmas(alg, ms)[pid][:2]


# property id -> (law, number of leading state fields in its witnesses).  A
# law with state fields is exact only on an exact backend.  Idempotence has
# its state field on an exact backend only (None: all fields but the last);
# elsewhere it asks whether each member, composed with itself, is itself,
# which on rays decides it on the projection matrices.
_LAWS = {
    "illegitimate": (_illegitimate, 0),
    "idempotence": (_idempotence, None),
    "interference": (_interference, 1),
    "cumulativity": (_cumulativity, 1),
    "negation": (_negation, 0),
    "separability": (_separability, 2),
    "strong_separability": (_strong_separability, 1),
    "l_cumulativity": (_l_cumulativity, 1),
    "double_negation": (_double_negation, 0),
    "definiteness": (_definiteness, 1),
    "definiteness_dual": (partial(_definiteness, dual=True), 1),
    **{pid: (partial(_pair_lemma, pid), 0) for pid, *_ in _PAIR_LAWS},
}


def _check(alg, property_id, budget) -> CheckResult:
    law, fields = _LAWS[property_id]
    witnesses, checked = law(alg, alg.sorted_measurements(), alg, budget)
    note = ("decided on projection matrices"
            if property_id == "idempotence" and not alg.exact else "")
    return check_result(property_id, witnesses, checked,
                        complete=alg.exact or not fields, note=note)


def check_axiom(alg: MAlgebra, property_id: str, budget: Budget | None = None) -> CheckResult:
    """Decide one of the nine named laws, with replayable witnesses on failure."""
    if property_id not in ALL_AXIOMS:
        raise InputError(f"unknown property {property_id!r}")
    return _check(alg, property_id, budget or Budget())


def check_axioms(alg, property_ids=DEFINING_AXIOMS, budget=None) -> list[CheckResult]:
    return [check_axiom(alg, pid, budget) for pid in property_ids]


def lemma_suite(alg: MAlgebra, budget: Budget | None = None) -> list[CheckResult]:
    """The twelve derived laws, instantiated over all measurement pairs.

    They are consequences of the six defining laws, so a failure on an
    algebra that passes those signals a bug in this library; when the
    prerequisites fail the results are marked advisory instead.
    """
    budget = budget or Budget()
    prereq = check_axioms(alg, [p for p in DEFINING_AXIOMS if p != "composition"], budget)
    pairs = _pair_lemmas(alg, alg.sorted_measurements())
    prereq_ok = all(r.ok for r in prereq) and not pairs["composition"][0]
    results = [
        check_result(pid, *pairs[pid][:2], vacuous=pairs[pid][2]) if pid in pairs
        else _check(alg, pid, budget)
        for pid in LEMMA_IDS
    ]
    if not prereq_ok:
        for r in results:
            r.advisory = True
            r.note = (r.note + "; " if r.note else "") + \
                "defining laws fail, result is advisory"
    return results


class _Pinned:
    """The protocol's state domains cut down to the states of one witness."""

    def __init__(self, alg: MAlgebra, states: list):
        self.alg = alg
        self.states = states

    def state_domain(self, budget):
        return self.states

    def fixpoint_domain(self, m, budget):
        M = self.alg.action(m)
        return [x for x in self.states if M[x] == x]

    def zero_domain(self, m, budget):
        M = self.alg.action(m)
        return [x for x in self.states if M[x] == self.alg.zero_code]


def replay_witness(alg: MAlgebra, property_id: str, witness: tuple[str, ...]) -> bool:
    """Re-run the law that reported a witness on the witness's own states and
    measurements; True iff the law reports that witness again."""
    if property_id not in _LAWS:
        raise InputError(f"no replay rule for property {property_id!r}")
    law, fields = _LAWS[property_id]
    k = len(witness) - 1 if fields is None else fields
    states = [alg.state_code(sid) for sid in witness[:k]]
    named = {name: alg.measurement(name) for name in witness[k:]}
    ms = [named[name] for name in sorted(named)]
    # a cycle of n measurements needs loop length n - 1
    budget = Budget(loop_n=max(1, len(witness) - 2))
    found, _ = law(alg, ms, _Pinned(alg, states), budget)
    return (*map(alg.state_label, states), *witness[k:]) in found
