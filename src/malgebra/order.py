"""The induced partial order on measurements and its orthostructure.

A measurement lies below another when its fixpoint set is included in the
other's; equivalently (and this equivalence is itself checked) when the zero
sets are included the other way around.  Commuting pairs have exact bounds
in M; the order is not a lattice in general, and no bounds are demanded for
non-commuting pairs.
"""

from __future__ import annotations

from .connectives import _composite, _join, conjunction, disjunction, implication, indefinite_state
from .core import (
    CheckResult,
    MAlgebra,
    bit_columns,
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

    Only antisymmetry (up to extensional equality) is searched.  The other
    laws follow from the definitions, with no idempotence or commutation,
    and are counted.  The ``up`` rows make the two order definitions agree
    on every member pair, and negation swaps fixpoints and zeros:

    * reflexivity and transitivity: the order is fixpoint inclusion;
    * ``bounded``: ``top_bot`` makes ``bot`` send every state to zero, so a
      member that does not fix zero makes the ``up`` rows raise
      :class:`OrderViolation` at (bot, a), before any witness is kept;
    * ``glb_below``: p ∘ q sends Z(p) to zero, so FP(p ∘ q) ⊆ FP(p), and it
      fixes x only where q does: FP(a ∘ b) ⊆ FP(a) ∩ FP(b).  Likewise
      ``lub_above``: Z(a ∨ b) = FP(¬a ∘ ¬b) ⊆ Z(a) ∩ Z(b);
    * ``glb_greatest`` and ``lub_least``: a composite fixes every common
      fixpoint, so m <= a, b gives FP(m) ⊆ FP(a ∘ b), and a, b <= m gives
      Z(m) ⊆ FP(¬a ∘ ¬b) = Z(a ∨ b).

    Off a full lattice each commuting pair's bounds are still built, so that
    an undefined one raises; on a full lattice they project onto A ∩ B and
    A + B, and none is built.
    """
    ms = alg.sorted_measurements()
    if not alg.full_lattice:  # a full lattice has both, and projections fix zero
        top_bot(alg)
    # the order as bit rows over the member indices: bit j of up[i] holds
    # ms[i] <= ms[j], bit i of down[j] the same fact
    n = len(ms)
    up = bit_rows(n, lambda i, j: leq(alg, ms[i], ms[j]))
    down = bit_columns(up)
    witnesses = [("antisymmetry", a.name, ms[j].name)
                 for i, a in enumerate(ms) for j in bit_positions(up[i] & down[i]) if a != ms[j]]
    checked = n + n * n + n * sum(row.bit_count() for row in up)
    for i, a in enumerate(ms):
        for b in ms[i:]:
            if commutes(alg, a, b):
                checked += 1
                if not alg.full_lattice:
                    _composite(alg, a, b)
                    _join(alg, a, b)

    return check_result("order_bounds", witnesses, checked)


def orthomodular_check(alg: MAlgebra) -> list[CheckResult]:
    """The five orthocomplementation laws, with negation as the complement:
    involution, antitonicity, meet and join with the complement, and the
    orthomodular law itself.

    Involution and orthomodularity are searched.  Past the ``up`` rows the
    rest are counted, as in :func:`bounds_check`: negation swaps fixpoints and
    zeros (antitonicity), and FP(a ∘ ¬a) ⊆ FP(a) ∩ Z(a) = {0}, so a ∧ ¬a is
    ``bot``; so is ¬a ∘ ¬¬a, and a ∨ ¬a is ``top``.  Each is still built.
    """
    ms = alg.sorted_measurements()
    top_bot(alg)
    neg = {m.name: negation_of(alg, m) for m in ms}
    involution = check_instances("ortho_involution", [(a,) for a in ms],
                                 lambda a: negation_of(alg, neg[a.name]) != a)
    # leq may still raise, so it is asked once per ordered pair, row by row,
    # and the pairs below are the orthomodular instances
    up = bit_rows(len(ms), lambda i, j: leq(alg, ms[i], ms[j]))
    for a in ms:
        conjunction(alg, a, neg[a.name])
    for a in ms:
        disjunction(alg, a, neg[a.name])
    return [
        involution,
        check_result("ortho_antitone", [], len(ms) ** 2),
        check_result("ortho_meet_bottom", [], len(ms)),
        check_result("ortho_join_top", [], len(ms)),
        check_instances("ortho_orthomodular",
                        ((a, ms[j]) for i, a in enumerate(ms) for j in bit_positions(up[i])),
                        lambda a, b: disjunction(alg, a, conjunction(alg, neg[a.name], b)) != b),
    ]


def strong_sep_check(alg: MAlgebra) -> list[CheckResult]:
    """Point-measurement laws of strongly separable algebras.

    For every (sampled) nonzero state x and measurement a with a(x) nonzero:

    * x satisfies the implication from a to the point measurement of a(x);
    * a(x) is the only fixpoint y of a whose point measurement has that
      property;
    * when the negation's image is also nonzero, x satisfies the disjunction
      of the two point measurements (the orthogonal decomposition of x).

    The first two follow from the definitions: a → P_y is ¬(a ∘ ¬P_y), which
    fixes x exactly when ¬P_y sends a(x) to zero, that is, when a(x) lies in
    Fix(P_y) = {0, y}.  So they have no witness, and uniqueness holds over
    every fixpoint, not only the window's.

    On a full lattice every line P_y is a member, and a's projection P puts
    x = Px + (I − P)x in the plane of a(x) and ¬a(x) that their lines' join
    projects onto; so the decomposition is counted, building no line or join.

    Raises :class:`NotStronglySeparable` on the first state that has no
    point measurement.
    """
    zero, label = alg.zero_code, alg.state_label
    nonzero = [x for x in alg.state_domain() if x != zero]

    def point(x):  # on the ray backend, also for images outside the window
        e = point_measurement(alg, alg.state(x))
        if e is None:
            raise NotStronglySeparable(label(x))
        return e

    listed = not alg.full_lattice
    for x in nonzero if listed else ():
        point(x)

    coded = [(a, alg.action(a)) for a in alg.sorted_measurements()]
    fixed_by = {a.name: [y for y in nonzero if A[y] == y] for a, A in coded}
    built = set()  # (member name, state code) of the implications built

    def build(a, y):  # none on a full lattice: P_y is a member commuting with a
        if listed and (a.name, y) not in built:
            built.add((a.name, y))
            implication(alg, a, point(y))

    wit_c, checked, checked_c = [], 0, 0
    for x in nonzero:
        for a, A in coded:
            ax = A[x]
            if ax == zero:
                continue
            checked += 1
            # the image's implication, then at a's first such state every
            # window fixpoint's, built only so that an undefined one raises
            build(a, ax)
            for y in fixed_by.pop(a.name, ()):
                build(a, y)

            nax = alg.action(negation_of(alg, a))[x]
            if nax == zero:
                continue
            checked_c += 1
            if listed and alg.action(disjunction(alg, point(ax), point(nax)))[x] != x:
                wit_c.append((label(x), a.name))

    return [
        check_result("pointsep_implication", [], checked, alg.exact),
        check_result("pointsep_uniqueness", [], checked, alg.exact),
        check_result("pointsep_decomposition", wit_c, checked_c, alg.exact),
    ]


def classical_commutation_agree(alg: MAlgebra) -> CheckResult:
    """On separable algebras classicality coincides with commuting with
    every measurement; both directions are checked.

    Each member is also tested against the paper's probe: a non-classical
    ``m`` leaves some state x indefinite, and the point measurement of x
    does not commute with ``m``.  The probe is a member or None on a listed
    family; on a full lattice it is the line through x, so the verdict is
    exact.  The zero state has no point measurement, hence no probe.
    """
    ms = alg.sorted_measurements()

    def disagrees(m):
        x = indefinite_state(alg, m)
        probe = None if x in (None, alg.zero_code) else point_measurement(alg, alg.state(x))
        return all(commutes(alg, m, k) for k in ms + [probe] if k is not None) != (x is None)

    return check_instances("classical_commutation", [(m,) for m in ms], disagrees)
