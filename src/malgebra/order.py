"""The induced partial order on measurements and its orthostructure.

A measurement lies below another when its fixpoint set is included in the
other's; equivalently (and this equivalence is itself checked) when the zero
sets are included the other way around.  Commuting pairs have exact bounds
in M; the order is not a lattice in general, and no bounds are demanded for
non-commuting pairs.
"""

from __future__ import annotations

from .connectives import _composite, _join, conjunction, disjunction, implication, is_classical
from .core import (
    Budget,
    CheckResult,
    MAlgebra,
    bit_positions,
    bit_rows,
    check_instances,
    check_result,
    commutes,
    negation_of,
    point_measurement,
    top_bot,
)
from .errors import NotStronglySeparable, OrderViolation


def leq(alg: MAlgebra, a, b) -> bool:
    """Order by fixpoint inclusion; the dual zero-set route must agree, or
    ``OrderViolation`` is raised."""
    a, b = alg.resolve(a), alg.resolve(b)
    by_fp = alg.fp_subset(a, b)
    by_z = alg.z_subset(b, a)
    if by_fp != by_z:
        raise OrderViolation(
            f"the two order definitions disagree on "
            f"({a.name!r}, {b.name!r})"
        )
    return by_fp


def bounds_check(alg: MAlgebra) -> CheckResult:
    """Partial-order laws plus exact bounds for commuting pairs.

    Verifies reflexivity, antisymmetry (up to extensional equality),
    transitivity, that the trivial measurements bound everything, and that
    for every commuting pair the conjunction is the greatest lower bound and
    the disjunction the least upper bound within M.  Non-commuting pairs are
    skipped: no bound is claimed for them.
    """
    ms = alg.sorted_measurements()
    top, bot = top_bot(alg)
    # the order as bit rows over the member indices: bit j of up[i] holds
    # ms[i] <= ms[j], bit i of down[j] the same fact
    n = len(ms)
    up, down = bit_rows(n, lambda i, j: leq(alg, ms[i], ms[j]))
    index = {id(m): i for i, m in enumerate(ms)}

    def rows(m):
        """The rows of a member; a bound outside M (a full lattice
        synthesizes such bounds) gets its rows from ``leq``."""
        i = index.get(id(m))
        if i is not None:
            return up[i], down[i]
        return (sum(1 << j for j, b in enumerate(ms) if leq(alg, m, b)),
                sum(1 << j for j, b in enumerate(ms) if leq(alg, b, m)))

    witnesses = []
    checked = n + n * n
    up_bot, down_top = rows(bot)[0], rows(top)[1]
    for i, a in enumerate(ms):
        if not up[i] >> i & 1:
            witnesses.append(("reflexivity", a.name))
        if not (up_bot >> i & 1 and down_top >> i & 1):
            witnesses.append(("bounded", a.name))
        for j in bit_positions(up[i] & down[i]):
            if a != ms[j]:
                witnesses.append(("antisymmetry", a.name, ms[j].name))
        for j in bit_positions(up[i]):
            checked += n
            for k in bit_positions(up[j] & ~up[i]):
                witnesses.append(("transitivity", a.name, ms[j].name, ms[k].name))

    for i, a in enumerate(ms):
        for j in range(i, n):
            b = ms[j]
            if not commutes(alg, a, b):
                continue
            checked += 1
            pair = 1 << i | 1 << j
            glb_up, glb_down = rows(_composite(alg, a, b))
            lub_up, lub_down = rows(_join(alg, a, b))
            if glb_up & pair != pair:
                witnesses.append(("glb_below", a.name, b.name))
            if lub_down & pair != pair:
                witnesses.append(("lub_above", a.name, b.name))
            # common lower bounds not below the glb, upper ones not above the lub
            stray_lower = down[i] & down[j] & ~glb_down
            stray_upper = up[i] & up[j] & ~lub_up
            for k in bit_positions(stray_lower | stray_upper):
                if stray_lower >> k & 1:
                    witnesses.append(("glb_greatest", a.name, b.name, ms[k].name))
                if stray_upper >> k & 1:
                    witnesses.append(("lub_least", a.name, b.name, ms[k].name))

    return check_result("order_bounds", witnesses, checked)


def orthomodular_check(alg: MAlgebra) -> list[CheckResult]:
    """The five orthocomplementation laws, with negation as the complement:
    involution, antitonicity, meet and join with the complement, and the
    orthomodular law itself."""
    ms = alg.sorted_measurements()
    top, bot = top_bot(alg)
    neg = {m.name: negation_of(alg, m) for m in ms}
    singles = [(a,) for a in ms]
    return [
        check_instances("ortho_involution", singles,
                        lambda a: negation_of(alg, neg[a.name]) != a),
        check_instances("ortho_antitone", ((a, b) for a in ms for b in ms),
                        lambda a, b: leq(alg, a, b) and not leq(alg, neg[b.name], neg[a.name])),
        check_instances("ortho_meet_bottom", singles,
                        lambda a: conjunction(alg, a, neg[a.name]) != bot),
        check_instances("ortho_join_top", singles,
                        lambda a: disjunction(alg, a, neg[a.name]) != top),
        # the law speaks of pairs with a below b only: they are its instances
        check_instances("ortho_orthomodular",
                        ((a, b) for a in ms for b in ms if leq(alg, a, b)),
                        lambda a, b: disjunction(alg, a, conjunction(alg, neg[a.name], b)) != b),
    ]


def strong_sep_check(alg: MAlgebra, budget: Budget | None = None) -> list[CheckResult]:
    """Point-measurement laws of strongly separable algebras.

    For every (sampled) nonzero state x and measurement a with a(x) nonzero:

    * x satisfies the implication from a to the point measurement of a(x);
    * a(x) is the only fixpoint y of a (among sampled candidates) whose
      point measurement has that property — on the ray backend the fixpoint
      set is infinite, so uniqueness is checked over the sampled window only;
    * when the negation's image is also nonzero, x satisfies the disjunction
      of the two point measurements (the orthogonal decomposition of x).

    Raises :class:`NotStronglySeparable` on the first state that has no
    point measurement.
    """
    budget = budget or Budget()
    zero, label = alg.zero_code, alg.state_label
    nonzero = [x for x in alg.state_domain(budget) if x != zero]

    points = {}

    def point(x):  # on the ray backend, also for images outside the window
        e = points.get(x)
        if e is None:
            e = point_measurement(alg, alg.state(x))
            if e is None:
                raise NotStronglySeparable(label(x))
            points[x] = e
        return e

    for x in nonzero:
        point(x)

    coded = [(a, alg.action(a)) for a in alg.sorted_measurements()]
    fixed_by = {a.name: [y for y in nonzero if A[y] == y] for a, A in coded}
    implications = {}  # (member name, state code) -> action of the implication

    def impl_to_point(a, y):
        key = (a.name, y)
        if key not in implications:
            implications[key] = alg.action(implication(alg, a, point(y)))
        return implications[key]

    wit_a, wit_b, wit_c = [], [], []
    checked_a = checked_b = checked_c = 0
    for x in nonzero:
        for a, A in coded:
            ax = A[x]
            if ax == zero:
                continue
            checked_a += 1
            if impl_to_point(a, ax)[x] != x:
                wit_a.append((label(x), a.name))

            checked_b += 1
            candidates = fixed_by[a.name]
            if ax not in candidates:
                candidates = candidates + [ax]
            hits = [y for y in candidates if impl_to_point(a, y)[x] == x]
            if set(hits) != {ax}:
                wit_b.append((label(x), a.name))

            nax = alg.action(negation_of(alg, a))[x]
            if nax == zero:
                continue
            checked_c += 1
            decomposition = disjunction(alg, point(ax), point(nax))
            if alg.action(decomposition)[x] != x:
                wit_c.append((label(x), a.name))

    return [
        check_result("pointsep_implication", wit_a, checked_a, alg.exact),
        check_result("pointsep_uniqueness", wit_b, checked_b, alg.exact),
        check_result("pointsep_decomposition", wit_c, checked_c, alg.exact),
    ]


def classical_commutation_agree(alg: MAlgebra) -> CheckResult:
    """On separable algebras classicality coincides with commuting with
    every measurement; both directions are checked.

    On a full lattice the commutation side quantifies over an infinite
    family, so besides the listed window each member is also tested against
    the backend's ``commutation_probes``, which makes the verdict exact.
    """
    ms = alg.sorted_measurements()
    return check_instances(
        "classical_commutation", [(m,) for m in ms],
        lambda m: all(commutes(alg, m, k) for k in ms + alg.commutation_probes(m))
        != is_classical(alg, m))
