"""Induced order, bounds, orthostructure, and point-measurement laws."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgebra import models, order
from malgebra.cli import main
from malgebra.connectives import (
    conjunction,
    disjunction,
    implication,
    indefinite_state,
    is_classical,
)
from malgebra.core import (
    check_result,
    check_instances,
    commutes,
    negation_of,
    point_measurement,
    top_bot,
)
from malgebra.errors import ClosureViolation, NotStronglySeparable
from malgebra.order import (
    bounds_check,
    classical_commutation_agree,
    leq,
    orthomodular_check,
    strong_sep_check,
)
from malgebra.ratlin import Ray, Subspace
from conftest import FIXTURES, apply, load_fixture

R = Ray.from_vector


def test_trivial_bounds(f1, t2, r2, r3):
    for alg in (f1, t2, r2, r3):
        top, bot = top_bot(alg)
        for name in alg.names:
            assert leq(alg, bot, name)
            assert leq(alg, name, top)


def test_axis_below_plane(r3):
    assert leq(r3, "px", "pxy")
    assert not leq(r3, "pxy", "px")


def test_distinct_lines_are_incomparable(r2):
    assert not leq(r2, "px", "pd")
    assert not leq(r2, "pd", "px")


def test_order_implies_commutation(t2, r2, r3):
    for alg in (t2, r2, r3):
        for a in alg.names:
            for b in alg.names:
                if leq(alg, a, b):
                    assert commutes(alg, a, b)


def test_bounds_check_passes_everywhere(f1, t2, t2max, r2, r3):
    for alg in (f1, t2, t2max, r2, r3):
        result = bounds_check(alg)
        assert result.status == "pass", result.witnesses


def reference_bounds_check(alg):
    """The triple loop over members that ``bounds_check`` replaced by bit
    rows; every instance asks ``leq`` directly."""
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


def outcome(check, alg):
    """The result of a check, or the type of the exception it raised."""
    try:
        return check(alg)
    except Exception as exc:  # compared by type against the reference
        return type(exc)


BROKEN_ORDER = Path(__file__).resolve().parent / "golden" / "broken_order.json"
R4_FULL = BROKEN_ORDER.with_name("r4_full.json")


def planes_window():
    """A full-lattice window of Q^3 that does not list the x axis, the glb
    of its two planes."""
    return models.build_ray(3, {
        "bot": [], "top": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "pxy": [[1, 0, 0], [0, 1, 0]], "pxz": [[1, 0, 0], [0, 0, 1]],
    }, full_lattice=True, sample_height=1)


def test_bit_rows_match_reference_on_fixtures(f1, t2, t2max, r2, r2full, r3, r3full):
    broken = models.load_model(json.loads(BROKEN_ORDER.read_text()))
    window = planes_window()
    for alg in (f1, t2, t2max, r2, r2full, r3, r3full, broken, window):
        assert bounds_check(alg) == reference_bounds_check(alg)
    assert bounds_check(broken).status == "fail"


def test_bounds_check_builds_no_bound_on_a_full_lattice(monkeypatch):
    # the bounds of projections are projections, so the pairs are only
    # counted: nothing is composed and no member is synthesized
    window = planes_window()
    calls = []
    compose = window.compose_member
    monkeypatch.setattr(window, "compose_member",
                        lambda a, b: calls.append((a, b)) or compose(a, b))
    assert bounds_check(window).status == "pass"
    assert calls == [] and len(window._by_subspace) == 4


STATES = ["0", "s1", "s2", "s3"]


@st.composite
def tables_with_top_and_bot(draw):
    """A table model over 2-4 states with identity and constant-zero members
    and up to five idempotent ones: each fixes the zero state and a drawn
    set of states, and sends every other state to one of its fixpoints."""
    states = STATES[:draw(st.integers(2, len(STATES)))]
    tables = {
        "top": {s: s for s in states},
        "bot": {s: "0" for s in states},
    }
    for k in range(draw(st.integers(0, 5))):
        fixed = ["0"] + [s for s in states[1:] if draw(st.booleans())]
        image = st.sampled_from(fixed)
        tables[f"m{k}"] = {s: s if s in fixed else draw(image) for s in states}
    return models.build_table(states, "0", tables)


@settings(max_examples=300, deadline=None)
@given(tables_with_top_and_bot())
def test_bit_rows_match_reference_on_random_tables(alg):
    assert outcome(bounds_check, alg) == outcome(reference_bounds_check, alg)


def test_bounds_check_tests_each_pair_once(monkeypatch):
    alg = load_fixture("t2")
    calls = []
    tested = alg.commutes
    monkeypatch.setattr(alg, "commutes", lambda a, b: calls.append((a, b)) or tested(a, b))
    assert bounds_check(alg).status == "pass"
    n = len(alg.names)
    assert len(calls) == n * (n + 1) // 2 == 136


def test_bound_instances(f1, t2, r2):
    assert conjunction(r2, "pd", "pdp").name == "bot"
    assert disjunction(r2, "pd", "pdp").name == "top"
    assert conjunction(t2, "p", "q").name == "p&q"
    assert conjunction(f1, "top", "bot").name == "bot"


def test_orthomodular_laws_pass(f1, t2, t2max, r2, r3):
    for alg in (f1, t2, t2max, r2, r3):
        results = orthomodular_check(alg)
        assert [r.property_id for r in results] == [
            "ortho_involution",
            "ortho_antitone",
            "ortho_meet_bottom",
            "ortho_join_top",
            "ortho_orthomodular",
        ]
        assert all(r.status == "pass" for r in results), alg.kind


def test_orthomodular_axis_plane_instance(r3):
    # axis below plane: the complement-within-the-plane joins back to the plane
    step = conjunction(r3, negation_of(r3, "px"), "pxy")
    assert step.name == "py"
    rejoined = disjunction(r3, "px", step)
    assert rejoined == r3.measurement("pxy")


def reference_orthomodular_check(alg):
    """The five laws as ``orthomodular_check`` searched them before it read
    antitonicity off the definition of negation: every ordered pair asks
    ``leq`` for the law and again for the orthomodular law's instances."""
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
        check_instances("ortho_orthomodular",
                        ((a, b) for a in ms for b in ms if leq(alg, a, b)),
                        lambda a, b: disjunction(alg, a, conjunction(alg, neg[a.name], b)) != b),
    ]


@pytest.mark.parametrize("name", [*FIXTURES, "broken_order", "misbehaving"])
def test_orthomodular_check_matches_reference_on_fixtures(name):
    if name == "broken_order":
        alg = models.load_model(json.loads(BROKEN_ORDER.read_text()))
    elif name == "misbehaving":
        alg = models.load_model(MISBEHAVING)
    else:
        alg = load_fixture(name)
    assert (sep_outcome(orthomodular_check, alg)
            == sep_outcome(reference_orthomodular_check, alg))


@settings(max_examples=300, deadline=None)
@given(tables_with_top_and_bot())
def test_orthomodular_check_matches_reference_on_random_tables(alg):
    assert (sep_outcome(orthomodular_check, alg)
            == sep_outcome(reference_orthomodular_check, alg))


@st.composite
def tables_with_arbitrary_members(draw):
    """A table model over 2-4 nonzero states with ``top``, ``bot`` and 1-3
    drawn maps that fix zero and need not be idempotent: each other state is
    fixed, zeroed or sent anywhere.  Three rounds each add a negation
    candidate for every member m, which fixes Z(m), zeroes FP(m) and sends
    each other state into Z(m), and then the composites of the members so
    far; only new tables are added, up to 24.  Sometimes one member is
    copied under a second name."""
    states = ["0"] + [f"s{k}" for k in range(1, draw(st.integers(2, 4)) + 1)]
    anywhere = st.sampled_from(states)
    tables = [{s: s for s in states}, {s: "0" for s in states}]
    for _ in range(draw(st.integers(1, 3))):
        tables.append({s: draw(st.sampled_from(["0", s]) | anywhere) if s != "0" else s
                       for s in states})

    def add(table):
        if table not in tables and len(tables) < 24:
            tables.append(table)

    for _ in range(3):
        for m in list(tables):
            zeroed = st.sampled_from([s for s in states if m[s] == "0"])
            add({s: s if m[s] == "0" else "0" if m[s] == s else draw(zeroed) for s in states})
        for a in list(tables):
            for b in list(tables):
                add({s: b[a[s]] for s in states})
    named = {"top": tables[0], "bot": tables[1]}
    named.update((f"m{k}", table) for k, table in enumerate(tables[2:]))
    if draw(st.booleans()):
        named["copy"] = draw(st.sampled_from(tables))
    return models.build_table(states, "0", named)


@settings(max_examples=300, deadline=None)
@given(tables_with_arbitrary_members())
def test_order_checks_match_references_on_members_that_are_not_idempotent(alg):
    # the counted laws' proofs need neither idempotence nor commutation
    assert outcome(bounds_check, alg) == outcome(reference_bounds_check, alg)
    assert (sep_outcome(orthomodular_check, alg)
            == sep_outcome(reference_orthomodular_check, alg))


# drawn from that strategy: m1 and m2 share their fixpoints and zeros, and
# m0 is the negation of both; no drawn table had one of the three searched
# witnesses without the other two
TWIN_NEGATIONS = {
    "top": {"0": "0", "s1": "s1", "s2": "s2", "s3": "s3", "s4": "s4"},
    "bot": {"0": "0", "s1": "0", "s2": "0", "s3": "0", "s4": "0"},
    "m0": {"0": "0", "s1": "s2", "s2": "s2", "s3": "0", "s4": "0"},
    "m1": {"0": "0", "s1": "s4", "s2": "0", "s3": "s3", "s4": "s4"},
    "m2": {"0": "0", "s1": "s3", "s2": "0", "s3": "s3", "s4": "s4"},
}


def test_searched_order_laws_fail_on_a_drawn_table():
    alg = models.build_table(["0", "s1", "s2", "s3", "s4"], "0", TWIN_NEGATIONS)
    bounds, ortho = bounds_check(alg), orthomodular_check(alg)
    assert bounds == reference_bounds_check(alg)
    assert ortho == reference_orthomodular_check(alg)
    assert bounds.witnesses == [("antisymmetry", "m1", "m2"), ("antisymmetry", "m2", "m1")]
    assert ortho[0].witnesses == [("m2",)]
    assert ortho[4].witnesses == [("bot", "m2"), ("m1", "m2"), ("m2", "m2")]
    assert [r.status for r in ortho[1:4]] == ["pass"] * 3


def test_orthomodular_check_asks_leq_once_per_ordered_pair(monkeypatch):
    # antitonicity needs no second leq per pair, and the orthomodular law's
    # instances are the pairs that first pass found below each other
    from malgebra import order

    alg = load_fixture("r3_full")
    asked = []
    monkeypatch.setattr(order, "leq", lambda *args: asked.append(args[1:]) or leq(*args))
    assert all(r.status == "pass" for r in orthomodular_check(alg))
    n = len(alg.names)
    assert len(asked) == n * n == 144


def test_strong_sep_projects_no_ray_per_fixpoint_pair(monkeypatch):
    # an implication to a point measurement is built, never applied: the law
    # makes |M|·|W| projections on r3_full at height 3, not |M|·|W|^2
    calls = []
    project = Subspace.project_ray
    monkeypatch.setattr(Subspace, "project_ray",
                        lambda self, ray: calls.append(ray) or project(self, ray))
    alg = load_fixture("r3_full", 3)
    assert all(r.status == "sampled_pass" for r in strong_sep_check(alg))
    assert 0 < len(calls) < 3000


def test_strong_sep_on_a_full_lattice_builds_no_point_implication_or_join(monkeypatch):
    # every line is a member, every implication to one exists, and x =
    # Px + (I - P)x lies in the plane of its two parts: nothing is built only
    # to confirm it, so no member is synthesized
    calls = []
    for name in ("point_measurement", "implication", "disjunction"):
        real = getattr(order, name)
        monkeypatch.setattr(order, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    alg = models.load_model(json.loads(R4_FULL.read_text()), 3)
    results = strong_sep_check(alg)
    assert [r.status for r in results] == ["sampled_pass"] * 3
    assert results[2].checked_count > 0
    assert calls == [] and len(alg._by_subspace) == 4


def test_strong_sep_on_maximal_theories(t2max):
    results = strong_sep_check(t2max)
    assert [r.status for r in results] == ["pass", "pass", "pass"]


def test_strong_sep_on_full_ray_models(r2full, r3full):
    for alg in (r2full, r3full):
        results = strong_sep_check(alg)
        assert [r.property_id for r in results] == [
            "pointsep_implication",
            "pointsep_uniqueness",
            "pointsep_decomposition",
        ]
        assert all(r.status == "sampled_pass" for r in results)


def test_strong_sep_precondition(r2):
    with pytest.raises(NotStronglySeparable) as err:
        strong_sep_check(r2)
    assert err.value.state


def reference_strong_sep_check(alg):
    """The state-level loop that ``strong_sep_check`` replaced by a loop over
    state codes: every image comes from ``apply`` and every memo is keyed by
    the state's ``str``."""
    nonzero = [alg.state(x) for x in alg.state_domain() if x != alg.zero_code]

    points = {}

    def point(x):
        key = str(x)
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
    implications = {}

    def impl_to_point(a, y):
        key = (a.name, str(y))
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
                wit_a.append((str(x), a.name))

            checked_b += 1
            candidates = fixed_by[a.name]
            if ax not in candidates:
                candidates = candidates + [ax]
            hits = [y for y in candidates if apply(alg, impl_to_point(a, y), x) == x]
            if set(hits) != {ax}:
                wit_b.append((str(x), a.name))

            nax = apply(alg, negation_of(alg, a), x)
            if nax == alg.zero:
                continue
            checked_c += 1
            decomposition = disjunction(alg, point(ax), point(nax))
            if apply(alg, decomposition, x) != x:
                wit_c.append((str(x), a.name))

    return [
        check_result("pointsep_implication", wit_a, checked_a, alg.exact),
        check_result("pointsep_uniqueness", wit_b, checked_b, alg.exact),
        check_result("pointsep_decomposition", wit_c, checked_c, alg.exact),
    ]


def sep_outcome(check, alg):
    """The results of a point-separation check, or the type and message of
    the exception it raised."""
    try:
        return check(alg)
    except Exception as exc:  # compared by type and message against the reference
        return type(exc), str(exc)


def test_strong_sep_matches_reference_on_fixtures(f1, t2, t2max, r2):
    assert strong_sep_check(t2max) == reference_strong_sep_check(t2max)
    # t2 and r2 lack point measurements: the same state must be named first
    for alg in (f1, t2, r2):
        assert sep_outcome(strong_sep_check, alg) == sep_outcome(reference_strong_sep_check, alg)
    for name in ("r2_full", "r3_full"):
        for height in (1, 2, 3):
            alg = load_fixture(name, height)
            assert strong_sep_check(alg) == reference_strong_sep_check(alg)
    r4full = models.load_model(json.loads(R4_FULL.read_text()), 1)
    assert strong_sep_check(r4full) == reference_strong_sep_check(r4full)


@st.composite
def tables_with_points(draw):
    """A drawn table model plus, for every nonzero state s, a point
    measurement: it fixes only zero and s, and sends each other state to
    one of the two.  The drawn members need not obey the laws, so the
    connectives may raise inside the check."""
    alg = draw(tables_with_top_and_bot())
    tables = {m.name: {s: m(s) for s in alg.states} for m in alg.sorted_measurements()}
    for s in alg.states[1:]:
        image = st.sampled_from(["0", s])
        tables[f"e_{s}"] = {t: t if t in ("0", s) else draw(image) for t in alg.states}
    return models.build_table(alg.states, "0", tables)


@settings(max_examples=300, deadline=None)
@given(tables_with_points())
def test_strong_sep_matches_reference_on_random_tables(alg):
    assert sep_outcome(strong_sep_check, alg) == sep_outcome(reference_strong_sep_check, alg)


def test_worked_decomposition(r3full):
    # the projection of the all-ones ray onto the xy plane and onto the z
    # axis give two orthogonal point measurements whose join recovers it
    x = R([1, 1, 1])
    u = apply(r3full, "pxy", x)
    v = apply(r3full, negation_of(r3full, "pxy"), x)
    assert (u, v) == (R([1, 1, 0]), R([0, 0, 1]))
    join = disjunction(r3full, point_measurement(r3full, u), point_measurement(r3full, v))
    assert join.subspace == Subspace.from_generators(3, [[1, 1, 0], [0, 0, 1]])
    assert apply(r3full, join, x) == x


def test_implication_to_point_of_image(r2full):
    # projecting the x axis onto the diagonal: the implication from the
    # diagonal projection to that image's point measurement fixes the start
    x = R([1, 0])
    image = apply(r2full, "pd", x)
    e = point_measurement(r2full, image)
    assert e.name == "pd"
    from malgebra.connectives import implication

    imp = implication(r2full, "pd", e)
    assert imp.name == "top"
    assert apply(r2full, imp, x) == x


def test_classical_commutation_agreement(t2max, r2full, r3full):
    for alg in (t2max, r2full, r3full):
        assert classical_commutation_agree(alg).status == "pass"


# classicality read off the action, against the backend probes it replaced ------


def reference_commutation_probes(alg, m):
    """On a full lattice, the point measurement of a ray mixing a proper
    subspace with its complement: the first basis vector of each, summed."""
    if not alg.full_lattice or m.subspace.is_zero or m.subspace.is_full:
        return []
    sub = m.subspace
    mix = [a + b for a, b in zip(sub.basis[0], sub.orthocomplement.basis[0])]
    return [point_measurement(alg, Ray.from_vector(mix, alg.dim))]


def reference_is_classical(alg, m):
    """Classicality as the backends decided it: the zero or full subspace on
    rays, fixpoint and zero masks covering every state on tables."""
    if alg.kind == "ray":
        return m.subspace.is_zero or m.subspace.is_full
    return alg.fp_mask(m) | alg.z_mask(m) == alg.full_mask


def reference_classical_commutation_agree(alg):
    ms = alg.sorted_measurements()
    return check_instances(
        "classical_commutation", [(m,) for m in ms],
        lambda m: all(commutes(alg, m, k) for k in ms + reference_commutation_probes(alg, m))
        != reference_is_classical(alg, m))


BROKEN = Path(__file__).resolve().parent / "golden" / "broken.json"


@pytest.mark.parametrize("name", [*FIXTURES, "broken"])
def test_classical_commutation_matches_reference_on_fixtures(name):
    alg = (models.load_model(json.loads(BROKEN.read_text())) if name == "broken"
           else load_fixture(name))
    assert classical_commutation_agree(alg) == reference_classical_commutation_agree(alg)


def test_an_indefinite_zero_state_has_no_probe():
    # ``m`` breaks the illegitimate law: the zero state is its first
    # indefinite state, and the zero state has no point measurement
    alg = models.build_table(["0", "s"], "0", {"m": {"0": "s", "s": "s"},
                                                "top": {"0": "0", "s": "s"}})
    assert indefinite_state(alg, alg.measurement("m")) == alg.zero_code
    assert classical_commutation_agree(alg) == reference_classical_commutation_agree(alg)


@settings(max_examples=200, deadline=None)
@given(tables_with_top_and_bot())
def test_classical_commutation_matches_reference_on_random_tables(alg):
    assert classical_commutation_agree(alg) == reference_classical_commutation_agree(alg)


@st.composite
def full_lattice_families(draw):
    """A full lattice of Q^1 to Q^4 at window height 1 or 2, listing ``bot``,
    ``top`` and up to three subspaces spanned by drawn integer generators;
    a drawn span equal to one already listed is left out."""
    dim = draw(st.integers(1, 4))
    vectors = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    subspaces = {"bot": [], "top": [[int(i == j) for j in range(dim)] for i in range(dim)]}
    spans = {Subspace.from_generators(dim, g) for g in subspaces.values()}
    for k in range(draw(st.integers(0, 3))):
        generators = draw(st.lists(vectors, min_size=1, max_size=dim))
        span = Subspace.from_generators(dim, generators)
        if span not in spans:
            spans.add(span)
            subspaces[f"m{k}"] = generators
    return models.build_ray(dim, subspaces, full_lattice=True,
                            sample_height=draw(st.integers(1, 2)))


@settings(max_examples=60, deadline=None)
@given(full_lattice_families())
def test_classicality_is_exact_on_full_lattices(alg):
    # every window holds each e_i and e_i + e_j, and a proper subspace
    # leaves one of them indefinite; its line never commutes with the member
    for m in alg.sorted_measurements():
        trivial = m.subspace.is_zero or m.subspace.is_full
        x = indefinite_state(alg, m)
        assert is_classical(alg, m) == trivial == (x is None), m
        if x is not None:
            assert not commutes(alg, m, point_measurement(alg, alg.state(x))), (m, x)
    assert classical_commutation_agree(alg) == reference_classical_commutation_agree(alg)
    assert classical_commutation_agree(alg).status == "pass"


@settings(max_examples=60, deadline=None)
@given(full_lattice_families())
def test_strong_sep_matches_reference_on_full_lattices(alg):
    assert sep_outcome(strong_sep_check, alg) == sep_outcome(reference_strong_sep_check, alg)


# composing ``a`` with its negation ``na`` gives ``a`` again, which is no bottom
MISBEHAVING = {
    "kind": "table", "states": ["0", "u", "w"], "zero": "0",
    "measurements": {"a": {"0": "0", "u": "w", "w": "0"},
                     "na": {"0": "0", "u": "w", "w": "w"}},
}


@pytest.mark.parametrize("check", [top_bot, bounds_check, orthomodular_check],
                         ids=lambda check: check.__name__)
def test_derived_bounds_that_misbehave_raise(check):
    with pytest.raises(ClosureViolation, match="misbehave"):
        check(models.load_model(MISBEHAVING))


def test_order_on_misbehaving_bounds_is_a_property_failure(tmp_path, capsys):
    path = tmp_path / "misbehaving.json"
    path.write_text(json.dumps(MISBEHAVING), encoding="utf-8")
    assert main(["order", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("property failure: ") and "misbehave" in err
