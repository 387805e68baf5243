"""The nine laws and twelve derived lemmas of a measurement algebra, as code.

Each law asks only the backend protocol of ``core.MAlgebra``, so this module
never imports ``rays``.  The checks are exhaustive on finite backends; on the
ray backend they decide measurement-level laws analytically through subspace
arithmetic and sample the per-state laws over a deterministic window of rays.

The entry points stay in ``core`` (``check_axiom``, ``check_axioms``,
``lemma_suite`` and ``replay_witness``) and import this module when first
called, so a run that only loads a model, orders it, evaluates a connective
or a tautology, or refuses its input never compiles the law bodies.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import and_

from .core import (
    LEMMA_IDS,
    CheckResult,
    bit_columns,
    bit_positions,
    check_result,
    compose_member,
    point_measurement,
)
from .errors import InputError

# A law is one function ``law(alg, ms, states)`` that returns its witnesses
# and the number of instances it checked.  Its instances range over the
# measurements ``ms`` and the state codes ``states``.  The checker passes every
# member and ``alg.state_domain()``, on rays the one window, so a report's
# state count is the window every law ran over; replay passes the
# measurements and the states named in one witness.  Actions come from the
# backend protocol, so the same loop runs on table codes and on ray memos.
#
# The per-state laws are stated pointwise: at a state x each member a sends x
# to a(x), and the law asks which members fix that image.  So at one state,
# members with the same image are interchangeable.  ``_class_kernel`` groups
# them: ``classes(x)`` maps each image v of x to the bit row (over the indices
# of ``ms``) of the members with image v, and ``fixing(v)`` is the bit row of
# the members that fix v, memoised per image.  The members that fix x are the
# class of image x, and those that send x to zero the class of the zero
# image.  A law then reads one AND of two rows per class or per pair of
# classes, not a pair of members (only l-cumulativity searches members, at a
# state that violates it).  Only one state's classes are alive at a time, so
# a law holds one state's classes and the memo besides its witnesses.
# Separability reads the same kind of row the other way round: per
# separator, the bit row of the states it fixes.


def _class_kernel(alg, ms):
    """``classes(x)`` and ``fixing(v)`` over the members ``ms`` (see above)."""
    actions = [(1 << i, alg.action(m)) for i, m in enumerate(ms)]
    rows = {}

    def classes(x):
        found = {}
        for bit, A in actions:
            v = A[x]
            found[v] = found.get(v, 0) | bit
        return found

    def fixing(v):
        row = rows.get(v)
        if row is None:
            row = rows[v] = sum(bit for bit, A in actions if A[v] == v)
        return row

    return classes, fixing


def _illegitimate(alg, ms, states):
    z = alg.zero_code
    return [(m.name,) for m in ms if alg.action(m)[z] != z], len(ms)


def _idempotence(alg, ms, states):
    if not alg.exact:
        return [(m.name,) for m in ms if compose_member(alg, m, m) != m], len(ms)
    witnesses, label = [], alg.state_label
    for m in ms:
        M = alg.action(m)
        witnesses.extend((label(x), m.name) for x in states if M[M[x]] != M[x])
    return witnesses, len(ms) * len(states)


def _interference(alg, ms, states):
    # a fixes x; b in the class of y = b(x) violates when it fixes t = a(y) != y
    witnesses, checked = [], 0
    classes, fixing = _class_kernel(alg, ms)
    for x in states:
        found = classes(x)
        fixers = found.get(x, 0)
        checked += fixers.bit_count() * len(ms)
        label = alg.state_label(x)
        for i in bit_positions(fixers):
            a, A = ms[i].name, alg.action(ms[i])
            for y, C in found.items():
                t = A[y]
                if t != y:
                    witnesses += [(label, a, ms[j].name) for j in bit_positions(C & fixing(t))]
    return witnesses, checked


def _cumulativity(alg, ms, states):
    # a in the class of v and b in that of w != v violate when each fixes
    # the other's image
    witnesses = []
    classes, fixing = _class_kernel(alg, ms)
    for x in states:
        label, found = alg.state_label(x), list(classes(x).items())
        for k, (v, Cv) in enumerate(found):
            fix_v = fixing(v)
            for w, Cw in found[k + 1:]:
                w_fix_v, v_fix_w = Cw & fix_v, Cv & fixing(w)
                if w_fix_v and v_fix_w:
                    witnesses += [(label, ms[min(i, j)].name, ms[max(i, j)].name)
                                  for i in bit_positions(v_fix_w) for j in bit_positions(w_fix_v)]
    return witnesses, len(states) * len(ms) * (len(ms) - 1) // 2


def _negation(alg, ms, states):
    return [(m.name,) for m in ms if alg.find_negation(m) is None], len(ms)


def _separability(alg, ms, states):
    # The separators are every member.  A witness of x is a state that every
    # separator fixing x fixes too.  A full lattice has none: the point
    # measurement of x fixes x and no other ray.  A replayed witness may name
    # one state twice; it is one state.
    nonzero = list(dict.fromkeys(x for x in states if x != alg.zero_code))
    checked = len(nonzero) * (len(nonzero) - 1)
    if alg.full_lattice:
        return [], checked
    labels, every = list(map(alg.state_label, nonzero)), (1 << len(nonzero)) - 1
    rows = [sum(1 << j for j, y in enumerate(nonzero) if S[y] == y)
            for S in map(alg.action, alg.sorted_measurements())]
    witnesses = []
    for i in range(len(nonzero)):
        left = reduce(and_, (r for r in rows if r >> i & 1), every) & ~(1 << i)
        witnesses += [(labels[i], labels[j]) for j in bit_positions(left)]
    return witnesses, checked


def _strong_separability(alg, ms, states):
    # a full lattice has the point measurement of every nonzero ray
    nonzero = [x for x in states if x != alg.zero_code]
    witnesses = [] if alg.full_lattice else [
        (alg.state_label(x),) for x in nonzero if point_measurement(alg, alg.state(x)) is None]
    return witnesses, len(nonzero)


def _l_cumulativity(alg, ms, states):
    """Cyclic strengthening of the two-measurement exchange law.

    A violation is a cyclic sequence of measurements, of any length, each
    image of the state fixed by the next one, whose images nevertheless
    differ somewhere.  Such a cycle through two differing measurements
    exists exactly when each reaches the other in the "image fixed by"
    digraph, and shortest paths in both directions give the cycle reported.

    A member's out-edges depend on its image only, so each state is decided
    on the graph of its image classes first: image v points to image u when
    a member with image u fixes v.  Members of classes v != w reach each
    other for some choice of members exactly when v and w do, so only a
    state whose classes do searches its members, in name order, for the
    cycles it reports.
    """
    witnesses, checked, n = [], 0, len(ms)
    names = [m.name for m in ms]
    classes, fixing = _class_kernel(alg, ms)
    for x in states:
        found = classes(x)
        checked += sum(c * (n - c) for c in map(int.bit_count, found.values())) // 2
        dist, _ = _all_bfs(found, {v: [u for u, C in found.items() if C & fixing(v)] for v in found})
        if not _round_trips(dist):
            continue
        image = {names[j]: v for v, C in found.items() for j in bit_positions(C)}
        dist, parent = _all_bfs(names, {a: [names[j] for j in bit_positions(fixing(image[a]))]
                                        for a in names})
        witnesses += [(alg.state_label(x), *_bfs_path(parent, a, b), *_bfs_path(parent, b, a)[1:-1])
                      for a, b in _round_trips(dist) if a < b and image[a] != image[b]]
    return witnesses, checked


def _round_trips(dist):
    """The pairs u != v that shortest paths ``dist`` join both ways."""
    return [(u, v) for u in dist for v in dist[u] if u != v and u in dist[v]]


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


def _double_negation(alg, ms, states):
    # a missing negation, at either step, is a witness
    return [(a.name,) for a in ms
            if (na := alg.find_negation(a)) is None or alg.find_negation(na) != a], len(ms)


def _definiteness(alg, ms, states, dual=False):
    # Straight form: a state satisfying b cannot be sent by any measurement
    # to a state where b is impossible.  Dual form swaps fixpoints and zeros.
    # b is each member of the class of image x (of image zero); every member
    # of a class whose image v != zero b sends to zero (fixes) is a witness.
    witnesses, checked, zero = [], 0, alg.zero_code
    classes, _ = _class_kernel(alg, ms)
    for x in states:
        found = classes(x)
        bs = found.get(zero if dual else x, 0)
        checked += bs.bit_count() * len(ms)
        label = alg.state_label(x)
        for i in bit_positions(bs):
            B = alg.action(ms[i])
            for v, C in found.items():
                if v != zero and B[v] == (v if dual else zero):
                    witnesses += [(label, ms[j].name, ms[i].name) for j in bit_positions(C)]
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


def _pair_lemma(pid, alg, ms, states):
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


def check(alg, property_id) -> CheckResult:
    law, fields = _LAWS[property_id]
    witnesses, checked = law(alg, alg.sorted_measurements(), alg.state_domain())
    note = ("decided on projection matrices"
            if property_id == "idempotence" and not alg.exact else "")
    return check_result(property_id, witnesses, checked,
                        complete=alg.exact or not fields, note=note)


def lemmas(alg, prereq: list[CheckResult]) -> list[CheckResult]:
    """The twelve derived laws in ``LEMMA_IDS`` order; advisory unless the
    defining laws ``prereq`` and composition, read off the pair pass, hold."""
    pairs = _pair_lemmas(alg, alg.sorted_measurements())
    prereq_ok = all(r.ok for r in prereq) and not pairs["composition"][0]
    results = [
        check_result(pid, *pairs[pid][:2], vacuous=pairs[pid][2]) if pid in pairs
        else check(alg, pid)
        for pid in LEMMA_IDS
    ]
    if not prereq_ok:
        for r in results:
            r.advisory = True
            r.note = (r.note + "; " if r.note else "") + \
                "defining laws fail, result is advisory"
    return results


def replay(alg, property_id: str, witness: tuple[str, ...]) -> bool:
    """Re-run the law that reported a witness on the witness's own states and
    measurements; True iff the law reports that witness again."""
    if property_id not in _LAWS:
        raise InputError(f"no replay rule for property {property_id!r}")
    law, fields = _LAWS[property_id]
    k = len(witness) - 1 if fields is None else fields
    states = [alg.state_code(sid) for sid in witness[:k]]
    named = {name: alg.measurement(name) for name in witness[k:]}
    ms = [named[name] for name in sorted(named)]
    found, _ = law(alg, ms, states)
    return (*map(alg.state_label, states), *witness[k:]) in found
