"""Measurement algebras, their operations, and the entry points of the law checks.

An algebra is a state space with a distinguished illegitimate state and a
family of named idempotent state transformers.  Two backends implement the
:class:`MAlgebra` protocol: :class:`FiniteAlgebra`, here, keeps every
measurement as an extensional table, and ``rays.RayAlgebra`` acts on
canonical rays of Q^n through exact rational projections.  Both measurement
classes stay here, where code that wraps them by name finds them.

The law and lemma bodies live in ``laws``; they ask the protocol only, so
neither module imports ``rays``.  ``check_axiom``, ``check_axioms``,
``lemma_suite`` and ``replay_witness`` stay here and import ``laws`` when
called, so a run that checks no law (a load, ``order``, ``connective``,
``tautology`` or a refusal) never compiles the law bodies.

Everything here is pure and operates on immutable values; results list their
counterexample witnesses in a fixed canonical order (states by identifier,
rays by canonical direction, measurements by name), so reports are stable.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress, count, repeat
from operator import and_, eq, or_
from typing import NamedTuple

from .errors import ClosureViolation, InputError, NegationViolation

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


class CheckResult:
    """One law's verdict; equal to a result with the same six fields."""

    def __init__(self, property_id: str, status: str, witnesses: list[tuple[str, ...]],
                 checked_count: int, advisory: bool = False, note: str = ""):
        self.property_id, self.status = property_id, status  # pass | fail | vacuous | sampled_pass
        self.witnesses, self.checked_count = witnesses, checked_count
        self.advisory, self.note = advisory, note

    def __eq__(self, other):
        return other.__class__ is CheckResult and vars(self) == vars(other)

    def __repr__(self):
        return f"CheckResult({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

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
    """A finite measurement as codes: ``codes[i]``, a lane (see :class:`Compiled`), indexes
    the image of ``states[i]``; from a table ``mapping`` the states are its keys, then its
    other images.  ``mapping`` is built when first read; ``==`` reads the codes."""

    def __init__(self, name: str, mapping: dict | None = None, states=(), codes=()):
        super().__init__(name)
        if mapping is not None:
            self.mapping = mapping = dict(mapping)
            states = tuple(dict.fromkeys([*mapping, *mapping.values()]))
            codes = map({s: i for i, s in enumerate(states)}.__getitem__, mapping.values())
        self.states = states
        self.codes = (bytes if len(states) <= 256 else _TupleLane)(codes)

    @cached_property
    def mapping(self) -> dict:
        return dict(zip(self.states, map(self.states.__getitem__, self.codes)))

    def __call__(self, state):
        return self.mapping[state]

    def __eq__(self, other):
        if not isinstance(other, TableMeasurement):
            return False
        return self.codes == other.codes if self.states == other.states else self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(compress(self.states, map(eq, self.codes, count()))))


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
    * ``state_domain()``: the state codes the laws range over (on rays, the
      algebra's one window); fixpoints and zeros are read off ``action``;
    * ``zero_code``, ``exact`` (whether that domain is complete),
      ``state(code)`` and ``state_code(label)``;
    * ``has_state(state)``: whether a value is one of the algebra's states;
    * ``commutes(a, b)``, ``fp_subset(a, b)``, ``z_subset(a, b)``, and
      ``compose_raw(a, b)`` and ``membership(raw)``: the raw map "a, then
      b" and the member equal to a raw map, or None;
    * ``find_negation(m)`` and ``point_measurement(x)``: the member with
      swapped fixpoints and zeros, the one fixing only zero and ``x``, or None
      (``negation_of`` raises where ``find_negation`` finds none);
    * ``is_full(m)``: whether ``m`` fixes every state.

    The rest have a default here, over those; the override is named:

    * ``state_count()``: the size of the domain (rays count an unbuilt window);
    * ``summary()``: kind and sizes for a report (rays add the dimension);
    * ``state_label(code)``: ``str`` of the code's state (none);
    * ``preserves(a, b)``: the pointwise rule of ``preserves_pointwise``,
      exact on an exact backend (rays test the subspaces);
    * ``compose_member(a, b)``: ``membership`` of ``compose_raw`` (the
      finite backend reads its lanes; rays multiply the members' integer
      matrices and keep the member per ordered pair);
    * ``pair_rows(ms)``: the pair facts of :class:`PairRows`, asked pair by
      pair (the finite backend reads its lanes).

    Measurement-level methods take resolved measurements; the module
    functions of the same names resolve names first.  ``extent`` is a module
    function only, read off the actions over the domain.
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

    def state_count(self) -> int:
        return len(self.state_domain())

    def summary(self) -> dict:
        return {"kind": self.kind, "states": self.state_count(),
                "sampled": not self.exact, "measurements": len(self._measurements)}

    def state_label(self, code) -> str:
        return str(self.state(code))

    def preserves(self, a: Measurement, b: Measurement) -> bool:
        return preserves_pointwise(self, a, b)

    def compose_member(self, a: Measurement, b: Measurement) -> Measurement | None:
        # through the module functions, so that their per-layer spans count it
        return membership(self, compose_raw(self, a, b))

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


class Compiled(NamedTuple):
    """A finite measurement as integers over the declared state order.

    ``lane`` holds the codes again, as ``bytes`` over at most 256 states and
    as a :class:`_TupleLane` above (a member's own codes).  ``table`` is the
    lane padded to 256 entries with ``bytes(range(|X|, 256))``, each padding
    entry its own image (above 256 states there is no padding), so "a, then
    b" is ``lane_a.translate(table_b)`` on both lane types.  The lanes stay
    unpadded, so a composite over few states is short to build and hash.
    The law loops index ``codes``: a tuple indexes faster than ``bytes``.
    """

    codes: tuple[int, ...]  # codes[i] is the index of the image of state i
    lane: bytes | _TupleLane
    table: bytes | _TupleLane
    fp: int  # fixpoint bitmask
    z: int  # zero bitmask


class _TupleLane(tuple):
    """The codes of a measurement over more than 256 states, with the
    ``bytes.translate`` call of the byte lanes."""

    def translate(self, table):
        return _TupleLane(map(table.__getitem__, self))


class FiniteAlgebra(MAlgebra):
    """Extensional backend: states are identifier strings, actions are codes.

    Each member is compiled once, at construction, to its codes, lane and
    translate table (see :class:`Compiled`), its codes taken as given; any
    other measurement is called once per state.  Its masks and three indexes
    derive from them, each to the first member by name: by lane, by
    fixpoint mask and by the pair of fixpoint and zero masks.  Composition,
    commutation, membership and the pair rows run on the lanes; negation
    and point measurements are one lookup in the mask indexes.
    """

    def __init__(self, kind, states, zero, measurements, negation_hints=None):
        super().__init__(measurements)
        self.kind = kind
        self.states = tuple(states)
        self.zero = zero
        self.negation_hints = dict(negation_hints or {})
        self._state_index = {s: i for i, s in enumerate(self.states)}
        self._sorted_codes = tuple(sorted(range(len(self.states)), key=self.states.__getitem__))
        self.zero_code = self._state_index.get(zero)
        self.full_mask = (1 << len(self.states)) - 1
        # the one size branch: the lane type (past 256 states the padding is empty)
        self._lane = bytes if len(self.states) <= 256 else _TupleLane
        self._pad = tuple(range(len(self.states), 256))
        self._bits = tuple(1 << i for i in range(len(self.states)))  # the masks sum these
        # Keyed by object identity: while a member is alive no other object
        # shares its id, so a foreign measurement never hits this cache.
        self._compiled = {id(m): self._compile(m, own=True) for m in self._sorted}
        self._table_index: dict[bytes | _TupleLane, Measurement] = {}
        self._by_fp: dict[int, Measurement] = {}
        self._by_masks: dict[tuple[int, int], Measurement] = {}
        for m in self._sorted:
            c = self._compiled[id(m)]
            self._table_index.setdefault(c.lane, m)
            self._by_fp.setdefault(c.fp, m)
            self._by_masks.setdefault((c.fp, c.z), m)

    def _compile(self, m: Measurement, own=False) -> Compiled:
        if own and isinstance(m, TableMeasurement) and m.states == self.states:
            lane = m.codes  # a member over the declared order: its codes as given
        else:
            try:
                lane = self._lane(map(self._state_index.__getitem__, map(m, self.states)))
            except KeyError as exc:
                raise InputError(
                    f"measurement {m.name!r} does not act on the states: {exc.args[0]!r}"
                ) from None
        codes = tuple(lane)
        fp = sum(compress(self._bits, map(eq, codes, range(len(codes)))))
        z = sum(compress(self._bits, map(eq, codes, repeat(self.zero_code))))
        return Compiled(codes, lane, self._lane(codes + self._pad), fp, z)

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

    def state_domain(self) -> tuple[int, ...]:
        """Every state, in identifier order: ``strong_sep_check`` names the
        first state that has no point measurement."""
        return self._sorted_codes

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
            for x in bit_positions(c.fp):
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
        c = self.compiled(m)
        return self._by_masks.get((c.z, c.fp))

    def point_measurement(self, x: str) -> Measurement | None:
        return self._by_fp.get(1 << self.zero_code | 1 << self._state_index[x])

    def is_full(self, m: Measurement) -> bool:
        return self.fp_mask(m) == self.full_mask


def extent(alg: MAlgebra, m) -> tuple[frozenset, frozenset, frozenset]:
    """Fixpoint set, zero set and their union (the states with a definite
    value), over the backend's domain: complete exactly when ``alg.exact``."""
    M, domain = alg.action(alg.resolve(m)), alg.state_domain()
    fp = frozenset(alg.state(x) for x in domain if M[x] == x)
    z = frozenset(alg.state(x) for x in domain if M[x] == alg.zero_code)
    return fp, z, fp | z


def preserves(alg: MAlgebra, a, b) -> bool:
    """Whether ``a`` maps the fixpoint set of ``b`` into itself (exact on
    both backends)."""
    return alg.preserves(alg.resolve(a), alg.resolve(b))


def preserves_pointwise(alg: MAlgebra, a, b) -> bool:
    """The pointwise definition of preservation, sampled on the ray backend."""
    a, b = alg.resolve(a), alg.resolve(b)
    A, B = alg.action(a), alg.action(b)
    return all(B[A[x]] == A[x] for x in alg.state_domain() if B[x] == x)


def commutes(alg: MAlgebra, a, b) -> bool:
    return alg.commutes(alg.resolve(a), alg.resolve(b))


def compose_raw(alg: MAlgebra, a, b):
    """The raw map "a, then b", with no claim of membership in M.

    Finite backends return an extensional table, the ray backend the exact
    matrix of the composite.
    """
    return alg.compose_raw(alg.resolve(a), alg.resolve(b))


def membership(alg: MAlgebra, raw) -> Measurement | None:
    """The measurement extensionally equal to a raw map, if there is one."""
    return alg.membership(raw)


def compose_member(alg: MAlgebra, a, b) -> Measurement | None:
    """The member of M equal to "a, then b", or None."""
    return alg.compose_member(alg.resolve(a), alg.resolve(b))


def negation_of(alg: MAlgebra, m) -> Measurement:
    """The measurement whose fixpoints are the zeros of ``m`` and vice versa.

    Unique when it exists (measurements are determined by their fixpoints);
    raises :class:`NegationViolation` when the algebra lacks it.
    """
    m = alg.resolve(m)
    found = alg.find_negation(m)
    if found is None:
        raise NegationViolation(m.name)
    return found


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
    # top's fixpoints are bot's zeros, so top fixes everything exactly when
    # bot annihilates everything
    top = negation_of(alg, bot)
    if not alg.is_full(top):
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
    The least witnesses are kept, up to the cap, in order."""
    if len(witnesses) > _WITNESS_CAP:
        # heapq is loaded only where there is a tail to drop: its import adds
        # about 0.1 MB to the peak RSS of every run that makes it
        from heapq import nsmallest
        witnesses = nsmallest(_WITNESS_CAP, witnesses)
    else:
        witnesses = sorted(witnesses)
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
# checks: the law bodies are in ``laws``, compiled on the first check


def check_axiom(alg: MAlgebra, property_id: str) -> CheckResult:
    """Decide one of the nine named laws, with replayable witnesses on failure."""
    if property_id not in ALL_AXIOMS:
        raise InputError(f"unknown property {property_id!r}")
    from .laws import check
    return check(alg, property_id)


def check_axioms(alg, property_ids=DEFINING_AXIOMS) -> list[CheckResult]:
    return [check_axiom(alg, pid) for pid in property_ids]


def lemma_suite(alg: MAlgebra) -> list[CheckResult]:
    """The twelve derived laws, instantiated over all measurement pairs.

    They are consequences of the six defining laws, so a failure on an
    algebra that passes those signals a bug in this library; when the
    prerequisites fail the results are marked advisory instead.
    """
    from .laws import lemmas
    # the prerequisites go through ``check_axiom`` one law at a time;
    # composition is read off the lemmas' own pair pass
    return lemmas(alg, check_axioms(alg, [p for p in DEFINING_AXIOMS if p != "composition"]))


def replay_witness(alg: MAlgebra, property_id: str, witness: tuple[str, ...]) -> bool:
    """Re-run the law that reported a witness on the witness's own states and
    measurements; True iff the law reports that witness again."""
    from .laws import replay
    return replay(alg, property_id, witness)
