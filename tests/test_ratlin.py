"""Exact linear algebra, checked against frozen values and a sympy oracle.

The sympy routes (Gram-Schmidt projector assembly, sympy nullspace) are
algorithmically independent of the package's Gauss-Jordan implementation.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from malgebra.errors import BudgetError, InputError
from malgebra.ratlin import (
    MAX_WINDOW_VECTORS,
    Ray,
    Subspace,
    check_window,
    lowest_projection,
    mat_mul,
    parse_ray,
    primitive,
    primitive_vectors,
    projection_matrix,
    rational,
    scale_to_int,
    subspace_rays,
    zero_matrix,
)

F = Fraction


def is_symmetric_idempotent(m):
    """The definition of a projection, on the rational matrix itself."""
    return m == tuple(zip(*m)) and mat_mul(m, m) == m


def frac_matrix(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def identity_matrix(n):
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


def sympy_projector(basis, dim):
    """Independent oracle: Gram-Schmidt, then sum of rank-one projectors."""
    vecs = [sympy.Matrix([sympy.Rational(x) for x in b]) for b in basis]
    ortho = []
    for v in vecs:
        u = v[:, :]
        for q in ortho:
            u = u - (q.dot(v) / q.dot(q)) * q
        if any(x != 0 for x in u):
            ortho.append(u)
    p = sympy.zeros(dim, dim)
    for q in ortho:
        p = p + (q * q.T) / q.dot(q)
    return p


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m])


# frozen examples ----------------------------------------------------------


def test_projection_of_diagonal_line():
    assert projection_matrix([[1, 1]], 2) == frac_matrix(
        [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    )


def test_projection_of_empty_basis_is_zero():
    assert projection_matrix([], 2) == zero_matrix(2)


def test_projection_of_standard_basis_is_identity():
    assert projection_matrix([[1, 0], [0, 1]], 2) == identity_matrix(2)


def test_projection_reduces_dependent_generators():
    dependent = projection_matrix([[1, 1], [2, 2], [3, 3]], 2)
    assert dependent == projection_matrix([[1, 1]], 2)


def test_projection_dimension_mismatch():
    with pytest.raises(InputError):
        projection_matrix([[1, 0], [0, 1, 0]])
    with pytest.raises(InputError):
        projection_matrix([], dim=None)


def test_orthocomplement_of_diagonal():
    s = Subspace.from_generators(2, [[1, 1]])
    assert s.orthocomplement.basis == ((1, -1),)


def test_orthocomplement_of_zero_is_full():
    assert Subspace.zero(2).orthocomplement == Subspace.full(2)


def test_orthocomplement_in_three_dimensions():
    s = Subspace.from_generators(3, [[1, 1, 0]])
    assert s.orthocomplement == Subspace.from_generators(3, [[1, -1, 0], [0, 0, 1]])


def test_intersect_orthogonal_axes_is_zero():
    x = Subspace.from_generators(2, [[1, 0]])
    y = Subspace.from_generators(2, [[0, 1]])
    assert x.intersect(y) == Subspace.zero(2)


def test_intersect_with_full_space_is_identity():
    d = Subspace.from_generators(2, [[1, 1]])
    assert d.intersect(Subspace.full(2)) == d


def test_intersect_planes():
    xy = Subspace.from_generators(3, [[1, 0, 0], [0, 1, 0]])
    other = Subspace.from_generators(3, [[1, 1, 0], [0, 0, 1]])
    assert xy.intersect(other) == Subspace.from_generators(3, [[1, 1, 0]])


def test_contains_scalar_multiple():
    d = Subspace.from_generators(2, [[1, 1]])
    assert d.contains_ray(Ray.from_vector([F(3), F(3)]))
    assert d.contains_ray(Ray.from_vector([F(-1, 2), F(-1, 2)]))
    assert not d.contains_ray(Ray.from_vector([F(1), F(0)]))


def test_contains_combination():
    s = Subspace.from_generators(3, [[1, 1, 0], [0, 0, 1]])
    assert s.contains_ray(Ray.from_vector([F(1), F(1), F(1)]))
    assert s.contains_ray(Ray.from_vector([F(2, 3), F(2, 3), F(-5, 7)]))


def test_contains_dimension_mismatch():
    with pytest.raises(InputError):
        Subspace.from_generators(2, [[1, 1]]).contains_ray(Ray.from_vector([1, 1, 1]))


def test_rational_parsing_and_formatting():
    assert rational("3/4") == F(3, 4)
    assert rational("-2") == F(-2)
    assert rational(5) == F(5)
    with pytest.raises(InputError):
        rational("x")
    with pytest.raises(InputError):
        rational("1/0")


@pytest.mark.parametrize("text,value", [(" -3/4 ", F(-3, 4)), ("+2", F(2)), ("\t07\n", F(7)),
                                        ("4/6", F(2, 3))])
def test_rational_reads_a_signed_p_over_q_or_p(text, value):
    assert rational(text) == value


@pytest.mark.parametrize("text", ["1e3", "1E-3", "0.5", ".5", "1_000", "1/2.0", "1/-2",
                                  "- 1", "", "/2", "1/", "inf", "nan", "\u0661"])
def test_rational_refuses_the_other_forms_that_fraction_reads(text):
    with pytest.raises(InputError, match="not a rational"):
        rational(text)


def test_ray_canonicalization():
    assert Ray.from_vector([F(-1, 2), F(-1, 2)]).direction == (1, 1)
    assert Ray.from_vector([0, -3]).direction == (0, 1)
    assert Ray.from_vector([0, 0]).is_zero
    assert str(Ray.from_vector([2, -4])) == "(1,-2)"
    assert parse_ray("(1,-2)", 2) == Ray.from_vector([1, -2])
    assert parse_ray("0", 2) == Ray.zero(2)
    with pytest.raises(InputError):
        parse_ray("garbage", 2)


def test_primitive_rejects_zero():
    with pytest.raises(ValueError):
        primitive((F(0), F(0)))


def test_primitive_vectors_window():
    window = primitive_vectors(2, 1)
    assert window == [(0, 1), (1, -1), (1, 0), (1, 1)]


def reference_primitive_vectors(dim, height):
    """The window as a set of canonical vectors, then sorted: the former body
    of ``primitive_vectors``."""
    seen = set()
    for entries in itertools.product(range(-height, height + 1), repeat=dim):
        if all(e == 0 for e in entries):
            continue
        g = math.gcd(*entries)
        if g != 1:
            continue
        if next(e for e in entries if e) < 0:
            continue
        seen.add(entries)
    return sorted(seen)


@pytest.mark.parametrize("dim", range(1, 6))
@pytest.mark.parametrize("height", range(1, 4))
def test_primitive_vectors_match_the_reference(dim, height):
    assert primitive_vectors(dim, height) == reference_primitive_vectors(dim, height)


def test_subspace_rays_are_inside():
    s = Subspace.from_generators(3, [[1, 1, 0], [0, 0, 1]])
    rays = subspace_rays(s, 2)
    assert rays
    assert all(s.contains_ray(r) for r in rays)
    assert Ray.from_vector([1, 1, 1]) in rays


def test_windows_over_the_cap_are_refused():
    # 1001**2 = 1,002,001 vectors at height 500 over two coordinates
    assert 1001**2 > MAX_WINDOW_VECTORS >= 999**2
    message = f"height 500 over 2 coordinates has more than {MAX_WINDOW_VECTORS} vectors$"
    with pytest.raises(BudgetError, match=message):
        primitive_vectors(2, 500)
    plane = Subspace.from_generators(3, [[1, 1, 0], [0, 0, 1]])
    with pytest.raises(BudgetError, match=message):
        subspace_rays(plane, 500)
    check_window(2, 499)


@pytest.mark.parametrize("k,height", [(10**9, 1), (10**7, 3), (600, 3), (1, 10**9)])
def test_window_budget_stops_at_the_first_factor_past_the_cap(k, height):
    # (2h+1)^k is never formed: 3^13 already passes the cap
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"height {height} over {k} coordinates has more than"):
        check_window(k, height)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("height", [0, -1, -10**9])
def test_window_refuses_a_height_below_one_before_counting(height):
    with pytest.raises(InputError, match=f"sample height must be at least 1, got {height}"):
        check_window(10**9, height)
    with pytest.raises(InputError, match="sample height must be at least 1"):
        primitive_vectors(2, height)


def test_subspaces_are_frozen_values():
    line = Subspace.from_generators(2, [[2, 0]])
    assert repr(line) == "Subspace(dim=2, basis=((1, 0),))"
    assert repr(Subspace.zero(3)) == "Subspace(dim=3, basis=())"
    twin = Subspace(2, ((1, 0),))
    assert line == twin and hash(line) == hash(twin) and not line != twin
    # the same basis in another dimension, or a bare tuple of the fields, is not equal
    assert Subspace.zero(2) != Subspace.zero(3) and line != (2, ((1, 0),))
    line.projection  # a cached property stores past the frozen fields
    assert line == twin and repr(line) == repr(twin)
    for field in ("dim", "basis", "projection"):
        with pytest.raises(AttributeError):
            setattr(line, field, None)
    with pytest.raises(AttributeError):
        del line.basis
    assert line.basis == ((1, 0),)


@pytest.mark.parametrize("dim", range(1, 7))
def test_full_subspace_is_the_reduced_identity(dim):
    assert Subspace.full(dim) == Subspace.from_generators(dim, identity_matrix(dim))


# sympy oracle -------------------------------------------------------------

ORACLE_CASES = [
    (2, [[1, 2]]),
    (2, [[3, -5]]),
    (3, [[1, 2, 3]]),
    (3, [[1, 0, 1], [0, 1, 1]]),
    (3, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]),
    (4, [[1, 1, 0, 0], [0, 0, 1, -1]]),
    (4, [[1, 2, 3, 4], [4, 3, 2, 1], [1, 1, 1, 1]]),
]


@pytest.mark.parametrize("dim,basis", ORACLE_CASES)
def test_projection_against_gram_schmidt_oracle(dim, basis):
    ours = to_sympy(projection_matrix(basis, dim))
    assert ours == sympy_projector(basis, dim)


def sympy_orthocomplement(basis, dim):
    """Independent oracle: sympy's nullspace of the generators as rows."""
    oracle = sympy.Matrix(len(basis), dim, [sympy.Rational(x) for row in basis for x in row])
    null_basis = [[F(int(x.p), int(x.q)) for x in v] for v in oracle.nullspace()]
    return Subspace.from_generators(dim, null_basis)


@pytest.mark.parametrize("dim,basis", ORACLE_CASES)
def test_orthocomplement_against_sympy_nullspace(dim, basis):
    s = Subspace.from_generators(dim, basis)
    assert s.orthocomplement == sympy_orthocomplement(basis, dim)


# properties ---------------------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def subspace_strategy(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda dim: st.lists(
            st.lists(small_fractions, min_size=dim, max_size=dim),
            min_size=0,
            max_size=dim + 1,
        ).map(lambda gens: Subspace.from_generators(dim, gens))
    )


def generators_strategy(max_dim):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda dim: st.tuples(st.just(dim), st.lists(
            st.lists(small_fractions, min_size=dim, max_size=dim), max_size=dim + 1))
    )


@settings(max_examples=100, deadline=None)
@given(generators_strategy(5))
def test_orthocomplement_matches_sympy_nullspace(case):
    dim, gens = case
    assert Subspace.from_generators(dim, gens).orthocomplement == sympy_orthocomplement(gens, dim)


@settings(max_examples=100, deadline=None)
@given(generators_strategy(5))
def test_projection_matches_gram_schmidt_oracle(case):
    dim, gens = case
    s = Subspace.from_generators(dim, gens)
    assert to_sympy(s.projection) == sympy_projector(gens, dim)


@settings(max_examples=60, deadline=None)
@given(subspace_strategy())
def test_projection_is_symmetric_idempotent(s):
    assert is_symmetric_idempotent(s.projection)


@settings(max_examples=60, deadline=None)
@given(subspace_strategy())
def test_double_orthocomplement_is_identity(s):
    assert s.orthocomplement.orthocomplement == s


@settings(max_examples=60, deadline=None)
@given(subspace_strategy())
def test_complementary_projections_sum_to_identity(s):
    p, q = s.projection, s.orthocomplement.projection
    total = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(p, q))
    assert total == identity_matrix(s.dim)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda dim: st.tuples(
            st.lists(st.lists(small_fractions, min_size=dim, max_size=dim), max_size=dim),
            st.lists(st.lists(small_fractions, min_size=dim, max_size=dim), max_size=dim),
        ).map(
            lambda pair: (
                Subspace.from_generators(dim, pair[0]),
                Subspace.from_generators(dim, pair[1]),
            )
        )
    )
)
def test_intersection_commutative_idempotent(pair):
    a, b = pair
    assert a.intersect(b) == b.intersect(a)
    assert a.intersect(a) == a


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda dim: st.tuples(
            st.lists(st.lists(small_fractions, min_size=dim, max_size=dim), max_size=dim),
            st.lists(small_fractions, min_size=dim, max_size=dim),
        ).map(lambda pair: (Subspace.from_generators(dim, pair[0]), tuple(pair[1])))
    )
)
def test_projection_splits_vector(case):
    # P = N/d splits d*u into the image N u inside S and a residue orthogonal to S
    s, v = case
    u = primitive(v) if any(v) else (0,) * s.dim
    n, d = s.scaled_projection
    image = tuple(sum(a * b for a, b in zip(row, u)) for row in n)
    residue = tuple(d * a - b for a, b in zip(u, image))
    assert s.contains_ray(Ray.from_vector(image, s.dim))
    assert all(sum(a * b for a, b in zip(residue, row)) == 0 for row in s.basis)
    assert s.project_ray(Ray.from_vector(v, s.dim)) == Ray.from_vector(image, s.dim)


def test_basis_vectors_project_to_themselves():
    s = Subspace.from_generators(3, [[1, 2, 3], [0, 1, 1]])
    for b in s.basis:
        assert s.project_ray(Ray(3, b)) == Ray(3, b)
    for v in s.orthocomplement.basis:
        assert s.project_ray(Ray(3, v)) == Ray.zero(3)


def test_matrix_shape_errors():
    with pytest.raises(InputError):
        mat_mul(identity_matrix(2), identity_matrix(3))


# integer kernels ------------------------------------------------------------


def sympy_ray_image(s, direction):
    """Reference image of a ray: the Gram-Schmidt projector applied to it."""
    if direction is None:
        return Ray.zero(s.dim)
    image = sympy_projector(s.basis, s.dim) * sympy.Matrix(direction)
    return Ray.from_vector([F(int(x.p), int(x.q)) for x in image], s.dim)


def ray_strategy(dim):
    """Nonzero directions of either sign (not canonicalised), plus the zero ray."""
    return st.lists(st.integers(min_value=-5, max_value=5), min_size=dim, max_size=dim).map(
        lambda v: Ray.from_vector(v, dim) if any(v) else Ray.zero(dim)
    )


def subspace_with_rays():
    return subspace_strategy().flatmap(
        lambda s: st.tuples(st.just(s), st.lists(ray_strategy(s.dim), min_size=1, max_size=6))
    )


@settings(max_examples=80, deadline=None)
@given(subspace_with_rays())
def test_integer_project_ray_matches_sympy_projector(case):
    s, rays = case
    for ray in rays:
        assert s.project_ray(ray) == sympy_ray_image(s, ray.direction)


@settings(max_examples=60, deadline=None)
@given(subspace_with_rays())
def test_project_ray_repeats_and_ignores_instance(case):
    s, rays = case
    twin = Subspace.from_generators(s.dim, s.basis)
    assert twin == s and twin is not s and hash(twin) == hash(s)
    for ray in rays:
        first = s.project_ray(ray)
        assert s.project_ray(ray) == first
        assert twin.project_ray(ray) == first
    assert twin == s and hash(twin) == hash(s)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_project_ray_on_rank_zero_and_full_subspaces(dim):
    zero, full = Subspace.zero(dim), Subspace.full(dim)
    for v in primitive_vectors(dim, 2):
        ray = Ray(dim, v)
        assert zero.project_ray(ray) == Ray.zero(dim)
        assert full.project_ray(ray) == ray
    assert zero.project_ray(Ray.zero(dim)) == Ray.zero(dim)
    assert full.project_ray(Ray.zero(dim)) == Ray.zero(dim)


def test_project_ray_negative_direction_and_orthogonal_ray():
    d = Subspace.from_generators(2, [[1, -1]])
    assert d.project_ray(Ray.from_vector([-3, 1])) == Ray.from_vector([1, -1])
    assert d.project_ray(Ray.from_vector([1, 1])) == Ray.zero(2)
    with pytest.raises(InputError):
        d.project_ray(Ray.from_vector([1, 1, 1]))


def naive_mat_mul(a, b):
    """Reference product: the textbook Fraction triple loop."""
    inner = len(b)
    width = len(b[0]) if b else 0
    return tuple(
        tuple(sum((F(row[k]) * F(b[k][j]) for k in range(inner)), F(0)) for j in range(width))
        for row in a
    )


def matrix_strategy(rows, cols):
    return st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda m: tuple(tuple(r) for r in m))


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(*(st.integers(min_value=1, max_value=4),) * 3).flatmap(
        lambda shape: st.tuples(matrix_strategy(shape[0], shape[1]),
                                matrix_strategy(shape[1], shape[2]))
    )
)
def test_mat_mul_matches_naive_triple_loop(pair):
    a, b = pair
    product = mat_mul(a, b)
    assert product == naive_mat_mul(a, b)
    assert all(isinstance(x, Fraction) for row in product for x in row)


def test_mat_mul_rectangular_non_integer_and_empty_shapes():
    a = frac_matrix([[F(1, 2), F(-2, 3), 3]])
    b = frac_matrix([[F(3, 4)], [F(1, 5)], [F(-7, 6)]])
    assert mat_mul(a, b) == naive_mat_mul(a, b) == ((F(3, 8) - F(2, 15) - F(7, 2),),)
    assert mat_mul(b, a) == naive_mat_mul(b, a)
    assert mat_mul((), ()) == ()
    assert mat_mul((), frac_matrix([[1, 2]])) == ()
    assert mat_mul(frac_matrix([[1, 2]]), ()) == ((),)
    with pytest.raises(InputError):
        mat_mul(a, a)


def test_ray_hash_and_equality_run_in_c():
    assert Ray.__hash__ is tuple.__hash__
    assert Ray.__eq__ is tuple.__eq__
    assert Ray(2, (1, 0)) == Ray.from_vector([3, 0]) and Ray.zero(2) != Ray(2, (1, 0))


@settings(max_examples=80, deadline=None)
@given(subspace_strategy(), st.integers(1, 6))
def test_seeded_scaled_projections_match_the_projection_matrix(s, k):
    # a projection however scaled is brought to lowest terms; the subspace
    # built from it keeps that form, and I - N/d is its orthocomplement's
    n, d = s.scaled_projection
    key = lowest_projection(tuple(tuple(k * x for x in row) for row in n), k * d)
    assert key == (n, d) == scale_to_int(projection_matrix(s.basis, s.dim))
    built = Subspace.from_scaled_projection(*key)
    assert built == s and built.__dict__["scaled_projection"] == key
    comp = s.orthocomplement
    assert s.complement_projection == scale_to_int(projection_matrix(comp.basis, s.dim))


@settings(max_examples=80, deadline=None)
@given(subspace_strategy(3), subspace_strategy(3))
def test_integer_projection_test_matches_the_rational_definition(s, t):
    products = [mat_mul(s.projection, s.projection)]
    if s.dim == t.dim:
        products.append(mat_mul(s.projection, t.projection))
    for product in products:
        key = lowest_projection(*scale_to_int(product))
        assert (key is not None) == is_symmetric_idempotent(product)
        assert key in (None, scale_to_int(product))
