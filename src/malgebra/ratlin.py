"""Exact linear algebra over the rationals.

Vectors are tuples of ``Fraction``, matrices are tuples of row tuples.  Every
operation is exact, so equality checks carry no tolerance.  A ``Subspace`` of
Q^n stores one thing, its basis in canonical form: the reduced row echelon
rows, each scaled to coprime integers with positive leading entry.  Span
equality is then a plain ``==`` and subspaces serve as dict keys.

``rref`` is the one elimination routine.  ``from_generators`` reduces the
generators with it; the orthocomplement is read off the reduced rows (each
free column f gives e_f - sum of (row[f] / row[p]) e_p over the rows, p a
row's pivot); the projection onto the span of the rows B solves G X = B for
the Gram matrix G = B B^T by reducing [G | B] and returns B^T X; and an
intersection is the complement of the span of the two complements.

The hot kernels run on integers rather than on ``Fraction``.  A rational
matrix M is scaled to an integer matrix N and a positive denominator d (the
lcm of M's denominators) with M = N/d; ``mat_mul`` multiplies the scaled
operands in ``int`` and builds each output ``Fraction`` once.  Each
``Subspace`` caches the scaled form of its projection, so projecting a ray is
an integer mat-vec followed by a gcd and sign normalisation (d never matters
for a direction), and membership tests compare N·u with d·u.  Composites run
in ``int`` too: ``lowest_projection`` tests a product N/d for N = N^T and
N N = d N and reduces it, and ``from_scaled_projection`` keeps that form.
Projected rays are memoised per ``Subspace`` instance in one ``Ray``-keyed memo,
``ray_images``, which the ray backend hands out as a measurement's action; the
memo lives as long as that instance and takes no part in its equality or hash.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import cache, cached_property
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetError, InputError

Rational = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]

# Most integer vectors a ray window may enumerate: (2h+1)^k for height h over
# k coordinates.  The largest window in use, dimension 4 at height 5, has
# 11^4 = 14,641.
MAX_WINDOW_VECTORS = 10**6


def rational(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" / "p" strings, signed and spaced, to an
    exact rational: not the exponents, decimals or underscores Fraction reads."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", value):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    raise InputError(f"not a rational: {value!r}")


def vector(values: Iterable, dim: int | None = None) -> Vector:
    v = tuple(rational(x) for x in values)
    if dim is not None and len(v) != dim:
        raise InputError(f"vector {values!r} does not have dimension {dim}")
    return v


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def zero_matrix(n: int) -> Matrix:
    return tuple((Fraction(0),) * n for _ in range(n))


def scale_to_int(m: Matrix) -> tuple[IntMatrix, int]:
    """An integer matrix N and the positive lcm d of m's denominators, m = N/d."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m), d


def int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise InputError("incompatible matrix shapes")
    (na, da), (nb, db) = scale_to_int(a), scale_to_int(b)
    d = da * db
    return tuple(tuple(Fraction(x, d) for x in row) for row in int_mat_mul(na, nb))


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    n_cols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        lead = m[r][c]
        m[r] = [e / lead for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, leading entry positive."""
    if is_zero_vector(v):
        raise ValueError("cannot canonicalize the zero vector")
    scale = math.lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def projection_matrix(basis: Sequence[Sequence], dim: int | None = None) -> Matrix:
    """Orthogonal projection onto the span of the given generators.

    Dependent generators are reduced away first; an empty span projects to
    the zero matrix (``dim`` is then required to fix the ambient dimension).
    """
    gens = [vector(b) for b in basis]
    if dim is None:
        if not gens:
            raise InputError("projection of an empty generator list needs an explicit dimension")
        dim = len(gens[0])
    for g in gens:
        if len(g) != dim:
            raise InputError(f"generator {g} does not have dimension {dim}")
    rows, _ = rref(gens)
    if not rows:
        return zero_matrix(dim)
    # P = B^T X with the reduced basis stacked as rows of B, where X solves
    # G X = B for the Gram matrix G = B B^T.  G of independent rows is
    # invertible over Q, so reducing [G | B] leaves [I | X].
    b = tuple(rows)
    bt = tuple(zip(*b))
    reduced, _ = rref(g + r for g, r in zip(mat_mul(b, bt), b))
    return mat_mul(bt, tuple(row[len(b):] for row in reduced))


def lowest_projection(n: IntMatrix, d: int) -> tuple[IntMatrix, int] | None:
    """N/d in lowest terms when it is symmetric and idempotent (N = N^T and
    N N = d N), else None."""
    if n != tuple(zip(*n)) or int_mat_mul(n, n) != tuple(tuple(d * x for x in row) for row in n):
        return None
    g = math.gcd(d, *(x for row in n for x in row))
    return tuple(tuple(x // g for x in row) for row in n), d // g


def coordinates_text(values: Sequence[int]) -> str:
    """"(a,b,...)"; a coordinate past the interpreter's int-to-text digit
    limit is refused as input, as one past it is when a file is read."""
    try:
        return "(" + ",".join(map(str, values)) + ")"
    except ValueError as exc:
        raise InputError("a coordinate has too many digits to print") from exc


class Ray(NamedTuple):
    """A one-dimensional subspace of Q^dim in canonical integer form.

    ``direction`` is a coprime integer tuple whose first nonzero entry is
    positive; ``None`` marks the distinguished zero ray.  Two rays are equal
    iff their canonical directions are identical.  A tuple, so its hash and
    equality run in C.
    """

    dim: int
    direction: tuple[int, ...] | None = None

    @classmethod
    def zero(cls, dim: int) -> "Ray":
        return cls(dim, None)

    @classmethod
    def from_vector(cls, values: Iterable, dim: int | None = None) -> "Ray":
        v = vector(values, dim)
        if dim is None:
            dim = len(v)
        if is_zero_vector(v):
            return cls.zero(dim)
        return cls(dim, primitive(v))

    @property
    def is_zero(self) -> bool:
        return self.direction is None

    @property
    def sort_key(self):
        return (0,) if self.direction is None else (1, self.direction)

    def __str__(self) -> str:
        return "0" if self.direction is None else coordinates_text(self.direction)


def parse_ray(text: str, dim: int) -> Ray:
    """Inverse of ``str(ray)``: "0" or "(a,b,...)" with integer entries."""
    text = text.strip()
    if text == "0":
        return Ray.zero(dim)
    if not (text.startswith("(") and text.endswith(")")):
        raise InputError(f"not a ray: {text!r}")
    try:
        entries = [int(p) for p in text[1:-1].split(",")]
    except ValueError as exc:
        raise InputError(f"not a ray: {text!r}") from exc
    return Ray.from_vector(entries, dim)


class Subspace:
    """A linear subspace of Q^dim held as a canonical basis: a frozen value,
    equal to a subspace with the same ``dim`` and ``basis``.

    Construct through :meth:`from_generators`, which reduces arbitrary
    (possibly dependent) generators to the canonical form.  The projection
    matrix is symmetric and idempotent; the orthocomplement projector is its
    complement to the identity.
    """

    def __init__(self, dim: int, basis: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, *value):  # the cached properties write past it
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return other.__class__ is Subspace and (self.dim, self.basis) == (other.dim, other.basis)

    def __hash__(self):
        return hash((self.dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim!r}, basis={self.basis!r})"

    @classmethod
    def from_generators(cls, dim: int, generators: Iterable[Sequence]) -> "Subspace":
        vecs = []
        for g in generators:
            v = vector(g)
            if len(v) != dim:
                raise InputError(f"generator {g!r} does not have dimension {dim}")
            vecs.append(v)
        rows, _ = rref(vecs)
        return cls(dim, tuple(primitive(r) for r in rows))

    @classmethod
    def zero(cls, dim: int) -> "Subspace":
        return cls(dim, ())

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        return cls(dim, tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_full(self) -> bool:
        return len(self.basis) == self.dim

    @cached_property
    def projection(self) -> Matrix:
        return projection_matrix(self.basis, self.dim)

    @cached_property
    def scaled_projection(self) -> tuple[IntMatrix, int]:
        """The projection as an integer matrix N and a positive d, P = N/d."""
        return scale_to_int(self.projection)

    @cached_property
    def complement_projection(self) -> tuple[IntMatrix, int]:
        """The orthocomplement's scaled projection: I - N/d is (d I - N)/d."""
        n, d = self.scaled_projection
        return tuple(tuple(d * (i == j) - x for j, x in enumerate(row))
                     for i, row in enumerate(n)), d

    @cached_property
    def ray_images(self) -> "RayImages":
        """Memo of ``project_ray``: ray -> image ray."""
        return RayImages(self)

    @cached_property
    def orthocomplement(self) -> "Subspace":
        """The kernel of the reduced basis, one generator per free column."""
        if not self.basis:
            return Subspace.full(self.dim)
        rows = {next(c for c, x in enumerate(row) if x): row for row in self.basis}
        kernel = [[Fraction(-rows[c][f], rows[c][c]) if c in rows else int(c == f)
                   for c in range(self.dim)]
                  for f in range(self.dim) if f not in rows]
        return Subspace.from_generators(self.dim, kernel)

    def project_ray(self, ray: Ray) -> Ray:
        if ray.dim != self.dim:
            raise InputError(f"ray of dimension {ray.dim} in Q^{self.dim}")
        if ray.is_zero:
            return ray
        image = self.ray_images.get(ray)
        if image is None:
            w = [sum(map(mul, row, ray.direction)) for row in self.scaled_projection[0]]
            g = math.gcd(*w)
            if g == 0:
                image = Ray.zero(self.dim)
            else:
                if next(x for x in w if x) < 0:
                    g = -g
                image = Ray(self.dim, tuple(x // g for x in w))
            self.ray_images[ray] = image
        return image

    def _fixes(self, u: Sequence[int]) -> bool:
        """Whether the projection fixes the integer vector u: N u = d u."""
        n, d = self.scaled_projection
        return all(sum(map(mul, row, u)) == d * x for row, x in zip(n, u))

    def contains_ray(self, ray: Ray) -> bool:
        if ray.dim != self.dim:
            raise InputError(f"ray of dimension {ray.dim} in Q^{self.dim}")
        return ray.is_zero or self._fixes(ray.direction)

    def commutes_with(self, other: "Subspace") -> bool:
        """Whether the two projections commute, compared on their integer forms."""
        if other.dim != self.dim:
            raise InputError("ambient dimensions differ")
        # (A B)^T = B A for symmetric A and B, so they commute when A B is symmetric
        ab = int_mat_mul(self.scaled_projection[0], other.scaled_projection[0])
        return ab == tuple(zip(*ab))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.dim != self.dim:
            raise InputError("ambient dimensions differ")
        return all(self._fixes(b) for b in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, via the complement of the span of the two complements."""
        if other.dim != self.dim:
            raise InputError("ambient dimensions differ")
        perps = self.orthocomplement.basis + other.orthocomplement.basis
        return Subspace.from_generators(self.dim, perps).orthocomplement

    @classmethod
    def from_scaled_projection(cls, n: IntMatrix, d: int) -> "Subspace":
        """Column space of the projection N/d, which it keeps as its scaled
        projection; N/d is in lowest terms, as ``lowest_projection`` gives it."""
        sub = cls.from_generators(len(n), [col for col in zip(*n) if any(col)])
        sub.__dict__["scaled_projection"] = n, d
        return sub

    def __str__(self) -> str:
        return "span{" + ";".join(map(coordinates_text, self.basis)) + "}"


class RayImages(dict):
    """Images of rays under one subspace's projection, the zero ray's
    included; a missing ray is projected through ``Subspace.project_ray``,
    which checks its dimension."""

    def __init__(self, subspace: Subspace):
        zero = Ray.zero(subspace.dim)
        super().__init__({zero: zero})
        self._project = subspace.project_ray

    def __missing__(self, ray: Ray) -> Ray:
        return self._project(ray)


def check_window(k: int, height: int) -> None:
    """Refuse, before enumerating, a height below 1 and a window of more than
    MAX_WINDOW_VECTORS; the product stops at the first factor past the cap."""
    if height < 1:
        raise InputError(f"sample height must be at least 1, got {height}")
    size = 1
    for _ in range(k):
        size *= 2 * height + 1
        if size > MAX_WINDOW_VECTORS:
            raise BudgetError(f"a ray window of height {height} over {k} coordinates "
                              f"has more than {MAX_WINDOW_VECTORS} vectors")


def primitive_vectors(dim: int, height: int) -> list[tuple[int, ...]]:
    """All canonical primitive integer vectors with entries of magnitude <= height,
    in ascending order: ``product`` counts in that order, and the zero vector
    has gcd 0."""
    check_window(dim, height)
    return [v for v in itertools.product(range(-height, height + 1), repeat=dim)
            if math.gcd(*v) == 1 and next(e for e in v if e) > 0]


def primitive_count(dim: int, height: int) -> int:
    """How many vectors ``primitive_vectors`` lists, without listing them:
    a nonzero vector of the box is its gcd d times a primitive vector of the
    box of height h // d, so P(h), both signs, is (2h + 1)^n - 1 less the
    P(h // d) of every d >= 2, counted once per quotient."""
    @cache
    def both_signs(h):
        total, d = (2 * h + 1) ** dim - 1, 2
        while d <= h:  # every d up to h // (h // d) has the quotient q = h // d
            q = h // d
            total, d = total - (h // q - d + 1) * both_signs(q), h // q + 1
        return total
    return both_signs(height) // 2


def subspace_rays(sub: Subspace, height: int) -> list[Ray]:
    """Rays inside a subspace: bounded integer combinations of its basis."""
    if sub.is_zero:
        return []
    k = sub.rank
    check_window(k, height)
    seen = set()
    for coeffs in itertools.product(range(-height, height + 1), repeat=k):
        if all(c == 0 for c in coeffs):
            continue
        v = [0] * sub.dim
        for c, row in zip(coeffs, sub.basis):
            if c:
                for i, x in enumerate(row):
                    v[i] += c * x
        seen.add(Ray.from_vector(v, sub.dim))
    return sorted(seen, key=lambda r: r.sort_key)
