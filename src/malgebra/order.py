"""The induced partial order on measurements and its orthostructure.

A measurement lies below another when its fixpoint set is included in the
other's; equivalently (and this equivalence is itself checked) when the zero
sets are included the other way around.  Commuting pairs have exact bounds
in M; the order is not a lattice in general, and no bounds are demanded for
non-commuting pairs.
"""

from __future__ import annotations

from .connectives import conjunction, disjunction, implication, is_classical
from .core import (
    Budget,
    CheckResult,
    MAlgebra,
    Measurement,
    apply,
    check_result,
    commutes,
    negation_of,
    point_measurement,
    state_id,
    top_bot,
)
from .errors import NotStronglySeparable


def leq(alg: MAlgebra, a, b) -> bool:
    """Order by fixpoint inclusion; the dual zero-set route must agree."""
    a, b = alg.resolve(a), alg.resolve(b)
    by_fp = alg.fp_subset(a, b)
    by_z = alg.z_subset(b, a)
    if by_fp != by_z:
        raise RuntimeError(
            f"internal error: the two order definitions disagree on "
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
    witnesses = []
    checked = 0
    top, bot = top_bot(alg)

    for a in ms:
        checked += 1
        if not leq(alg, a, a):
            witnesses.append(("reflexivity", a.name))
        if not leq(alg, bot, a) or not leq(alg, a, top):
            witnesses.append(("bounded", a.name))
    for a in ms:
        for b in ms:
            checked += 1
            if leq(alg, a, b) and leq(alg, b, a) and a != b:
                witnesses.append(("antisymmetry", a.name, b.name))
    for a in ms:
        for b in ms:
            if not leq(alg, a, b):
                continue
            for c in ms:
                checked += 1
                if leq(alg, b, c) and not leq(alg, a, c):
                    witnesses.append(("transitivity", a.name, b.name, c.name))

    for i, a in enumerate(ms):
        for b in ms[i:]:
            if not commutes(alg, a, b):
                continue
            checked += 1
            glb = conjunction(alg, a, b)
            lub = disjunction(alg, a, b)
            if not (leq(alg, glb, a) and leq(alg, glb, b)):
                witnesses.append(("glb_below", a.name, b.name))
            if not (leq(alg, a, lub) and leq(alg, b, lub)):
                witnesses.append(("lub_above", a.name, b.name))
            for m in ms:
                if leq(alg, m, a) and leq(alg, m, b) and not leq(alg, m, glb):
                    witnesses.append(("glb_greatest", a.name, b.name, m.name))
                if leq(alg, a, m) and leq(alg, b, m) and not leq(alg, lub, m):
                    witnesses.append(("lub_least", a.name, b.name, m.name))

    return check_result("order_bounds", witnesses, checked)


def orthomodular_check(alg: MAlgebra) -> list[CheckResult]:
    """The five orthocomplementation laws, with negation as the complement:
    involution, antitonicity, meet and join with the complement, and the
    orthomodular law itself."""
    ms = alg.sorted_measurements()
    top, bot = top_bot(alg)
    neg = {m.name: negation_of(alg, m) for m in ms}
    results = []

    witnesses, checked = [], 0
    for a in ms:
        checked += 1
        if negation_of(alg, neg[a.name]) != a:
            witnesses.append((a.name,))
    results.append(check_result("ortho_involution", witnesses, checked))

    witnesses, checked = [], 0
    for a in ms:
        for b in ms:
            checked += 1
            if leq(alg, a, b) and not leq(alg, neg[b.name], neg[a.name]):
                witnesses.append((a.name, b.name))
    results.append(check_result("ortho_antitone", witnesses, checked))

    witnesses, checked = [], 0
    for a in ms:
        checked += 1
        if conjunction(alg, a, neg[a.name]) != bot:
            witnesses.append((a.name,))
    results.append(check_result("ortho_meet_bottom", witnesses, checked))

    witnesses, checked = [], 0
    for a in ms:
        checked += 1
        if disjunction(alg, a, neg[a.name]) != top:
            witnesses.append((a.name,))
    results.append(check_result("ortho_join_top", witnesses, checked))

    witnesses, checked = [], 0
    for a in ms:
        for b in ms:
            if not leq(alg, a, b):
                continue
            checked += 1
            step = conjunction(alg, neg[a.name], b)
            if disjunction(alg, a, step) != b:
                witnesses.append((a.name, b.name))
    results.append(check_result("ortho_orthomodular", witnesses, checked))

    return results


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
    nonzero = [alg.state(x) for x in alg.state_domain(budget) if x != alg.zero_code]

    points = {}

    def point(x):
        key = state_id(alg, x)
        if key not in points:
            e = point_measurement(alg, x)
            if e is None:
                raise NotStronglySeparable(key)
            points[key] = e
        return points[key]

    for x in nonzero:
        point(x)

    ms = alg.sorted_measurements()
    fixed_by = {a.name: [y for y in nonzero if apply(alg, a, y) == y] for a in ms}
    implications: dict[tuple, Measurement] = {}

    def impl_to_point(a, y):
        key = (a.name, state_id(alg, y))
        if key not in implications:
            implications[key] = implication(alg, a, point(y))
        return implications[key]

    wit_a, wit_b, wit_c = [], [], []
    checked_a = checked_b = checked_c = 0
    for x in nonzero:
        for a in ms:
            ax = apply(alg, a, x)
            if ax == alg.zero:
                continue
            checked_a += 1
            if apply(alg, impl_to_point(a, ax), x) != x:
                wit_a.append((state_id(alg, x), a.name))

            checked_b += 1
            candidates = fixed_by[a.name]
            if ax not in candidates:
                candidates = candidates + [ax]
            hits = [y for y in candidates if apply(alg, impl_to_point(a, y), x) == x]
            if set(hits) != {ax}:
                wit_b.append((state_id(alg, x), a.name))

            nax = apply(alg, negation_of(alg, a), x)
            if nax == alg.zero:
                continue
            checked_c += 1
            decomposition = disjunction(alg, point(ax), point(nax))
            if apply(alg, decomposition, x) != x:
                wit_c.append((state_id(alg, x), a.name))

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
    witnesses, checked = [], 0
    for m in ms:
        checked += 1
        commutes_all = all(commutes(alg, m, k) for k in ms + alg.commutation_probes(m))
        if is_classical(alg, m) != commutes_all:
            witnesses.append((m.name,))
    return check_result("classical_commutation", witnesses, checked)
