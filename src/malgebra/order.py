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
    RayAlgebra,
    apply,
    commutes,
    fp_subset,
    negation_of,
    point_measurement,
    state_id,
    top_bot,
    z_subset,
)
from .errors import NotStronglySeparable
from .ratlin import Ray

_WITNESS_CAP = 10


def leq(alg: MAlgebra, a, b) -> bool:
    """Order by fixpoint inclusion; the dual zero-set route must agree."""
    a = a if isinstance(a, Measurement) else alg.measurement(a)
    b = b if isinstance(b, Measurement) else alg.measurement(b)
    by_fp = fp_subset(alg, a, b)
    by_z = z_subset(alg, b, a)
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

    witnesses = sorted(witnesses)[:_WITNESS_CAP]
    return CheckResult("order_bounds", "fail" if witnesses else "pass",
                       witnesses, checked)


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
    results.append(_ortho_result("ortho_involution", witnesses, checked))

    witnesses, checked = [], 0
    for a in ms:
        for b in ms:
            checked += 1
            if leq(alg, a, b) and not leq(alg, neg[b.name], neg[a.name]):
                witnesses.append((a.name, b.name))
    results.append(_ortho_result("ortho_antitone", witnesses, checked))

    witnesses, checked = [], 0
    for a in ms:
        checked += 1
        if conjunction(alg, a, neg[a.name]) != bot:
            witnesses.append((a.name,))
    results.append(_ortho_result("ortho_meet_bottom", witnesses, checked))

    witnesses, checked = [], 0
    for a in ms:
        checked += 1
        if disjunction(alg, a, neg[a.name]) != top:
            witnesses.append((a.name,))
    results.append(_ortho_result("ortho_join_top", witnesses, checked))

    witnesses, checked = [], 0
    for a in ms:
        for b in ms:
            if not leq(alg, a, b):
                continue
            checked += 1
            step = conjunction(alg, neg[a.name], b)
            if disjunction(alg, a, step) != b:
                witnesses.append((a.name, b.name))
    results.append(_ortho_result("ortho_orthomodular", witnesses, checked))

    return results


def _ortho_result(property_id, witnesses, checked):
    witnesses = sorted(witnesses)[:_WITNESS_CAP]
    return CheckResult(property_id, "fail" if witnesses else "pass",
                       witnesses, checked)


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
    if isinstance(alg, RayAlgebra):
        states = alg.sample_states(budget.height)
        complete = False
    else:
        states = alg.sorted_states()
        complete = True
    nonzero = [x for x in states if x != alg.zero]

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

    def result(pid, witnesses, checked):
        witnesses = sorted(witnesses)[:_WITNESS_CAP]
        if witnesses:
            status = "fail"
        else:
            status = "pass" if complete else "sampled_pass"
        return CheckResult(pid, status, witnesses, checked)

    return [
        result("pointsep_implication", wit_a, checked_a),
        result("pointsep_uniqueness", wit_b, checked_b),
        result("pointsep_decomposition", wit_c, checked_c),
    ]


def classical_commutation_agree(alg: MAlgebra) -> CheckResult:
    """On separable algebras classicality coincides with commuting with
    every measurement; both directions are checked.

    On a full-lattice ray algebra the commutation side quantifies over an
    infinite family, so besides the listed window each proper subspace is
    also tested against the point measurement of a ray mixing it with its
    complement; such a ray always exists and never commutes, which makes
    the verdict exact.
    """
    ms = alg.sorted_measurements()
    witnesses, checked = [], 0
    for m in ms:
        checked += 1
        partners = list(ms)
        if isinstance(alg, RayAlgebra) and alg.full_lattice:
            sub = m.subspace
            if not sub.is_zero and not sub.is_full:
                mix = [
                    a + b
                    for a, b in zip(
                        sub.basis_vectors[0],
                        sub.orthocomplement.basis_vectors[0],
                    )
                ]
                partners.append(
                    point_measurement(alg, Ray.from_vector(mix, alg.dim))
                )
        commutes_all = all(commutes(alg, m, k) for k in partners)
        if is_classical(alg, m) != commutes_all:
            witnesses.append((m.name,))
    witnesses = sorted(witnesses)[:_WITNESS_CAP]
    return CheckResult("classical_commutation", "fail" if witnesses else "pass",
                       witnesses, checked)
