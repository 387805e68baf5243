"""The ray backend: canonical rays of Q^n acted on by exact projections.

:class:`RayAlgebra` implements the :class:`~malgebra.core.MAlgebra`
protocol on the subspaces of its members.  This module imports from
``core`` and ``core`` never imports it: the laws ask the protocol, never
this class.  :class:`~malgebra.core.ProjectionMeasurement` stays in
``core`` beside the table measurement, since code that wraps the
measurement classes by name finds both there.
"""

from __future__ import annotations

from functools import cached_property

from .core import MAlgebra, Measurement, ProjectionMeasurement
from .errors import InputError
from .ratlin import Matrix, Ray, RayImages, Subspace, check_window, coordinates_text, int_mat_mul
from .ratlin import lowest_projection, mat_mul, parse_ray, primitive_vectors, scale_to_int


class RayAlgebra(MAlgebra):
    """Ray backend: canonical rays of Q^n acted on by exact projections.

    Measurement-level relations are decided exactly on the subspaces; the
    per-state laws range over one window of rays of height ``sample_height``,
    checked against the window cap at construction and built on first use.
    With ``full_lattice`` the listed measurements are just a named window:
    membership and negation may synthesize projections onto any rational
    subspace on demand.
    """

    kind = "ray"

    def __init__(self, dim, measurements, full_lattice=False, sample_height=3):
        check_window(dim, sample_height)
        super().__init__(measurements)
        self.dim = dim
        self.full_lattice = full_lattice
        self.sample_height = sample_height
        self.zero = self.zero_code = Ray.zero(dim)
        self._window: list[Ray] | None = None
        # (id(a), id(b)) -> (a, b, compose_member); each entry keeps its
        # measurements, and so their ids
        self._composites = {}

    def summary(self) -> dict:
        return {**super().summary(), "dimension": self.dim, "full_lattice": self.full_lattice}

    def sample_states(self) -> list[Ray]:
        """Deterministic ray window: primitive vectors up to the sample
        height, every basis ray of a listed subspace, and the zero ray."""
        if self._window is None:
            rays = {Ray(self.dim, v) for v in primitive_vectors(self.dim, self.sample_height)}
            rays.update(Ray.from_vector(b, self.dim) for m in self._sorted for b in m.subspace.basis)
            rays.add(self.zero)
            self._window = sorted(rays, key=lambda r: r.sort_key)
        return self._window

    @cached_property
    def _by_subspace(self) -> dict[tuple, Measurement]:
        """Members by their subspace's scaled projection, first listed by name."""
        return {m.subspace.scaled_projection: m for m in reversed(self._sorted)}

    def _member_on(self, key: tuple | None) -> Measurement | None:
        """The member whose subspace has the scaled projection ``key``; on a
        full lattice, one synthesized on that subspace when none is listed."""
        if key is None:
            return None
        m = self._by_subspace.get(key)
        if m is None and self.full_lattice:
            sub = Subspace.from_scaled_projection(*key)
            m = self._by_subspace[key] = ProjectionMeasurement(_subspace_label(sub), sub)
        return m

    # law-check protocol (see MAlgebra)

    exact = False

    def action(self, m: Measurement) -> RayImages:
        """The memo of ray images that the measurement's subspace keeps."""
        return m.subspace.ray_images

    state_domain = sample_states

    def state(self, code: Ray) -> Ray:
        return code

    def state_code(self, label: str) -> Ray:
        return parse_ray(label, self.dim)

    # measurement-level operations (see MAlgebra), decided on the subspaces

    def has_state(self, state) -> bool:
        return isinstance(state, Ray) and state.dim == self.dim

    def preserves(self, a: Measurement, b: Measurement) -> bool:
        """The projection of b's subspace under a lands inside both subspaces;
        a's projection always lands inside a's, so only b's is tested, one
        basis ray at a time: containment does not depend on scale."""
        return all(b.subspace.contains_ray(a.subspace.project_ray(Ray(self.dim, v)))
                   for v in b.subspace.basis)

    def commutes(self, a: Measurement, b: Measurement) -> bool:
        return a.subspace.commutes_with(b.subspace)

    def fp_subset(self, a: Measurement, b: Measurement) -> bool:
        return b.subspace.contains_subspace(a.subspace)

    def z_subset(self, a: Measurement, b: Measurement) -> bool:
        return b.subspace.orthocomplement.contains_subspace(a.subspace.orthocomplement)

    def compose_raw(self, a: Measurement, b: Measurement) -> Matrix:
        return mat_mul(b.matrix, a.matrix)

    def compose_member(self, a: Measurement, b: Measurement) -> Measurement | None:
        """``membership`` of "a, then b", multiplied in integers from the
        scaled projections of the operands' subspaces; kept per ordered pair."""
        key = (id(a), id(b))
        entry = self._composites.get(key)
        if entry is None:
            (na, da), (nb, db) = a.subspace.scaled_projection, b.subspace.scaled_projection
            product = lowest_projection(int_mat_mul(nb, na), da * db)
            entry = self._composites[key] = (a, b, self._member_on(product))
        return entry[2]

    def membership(self, raw: Matrix) -> Measurement | None:
        """A listed projection equal to ``raw``; on a full lattice any
        symmetric idempotent rational matrix, synthesized when unlisted.  A
        matrix that is not dim x dim is refused."""
        if len(raw) != self.dim or any(len(row) != self.dim for row in raw):
            raise InputError(f"raw matrix is not {self.dim} x {self.dim}")
        return self._member_on(lowest_projection(*scale_to_int(raw)))

    def find_negation(self, m: Measurement) -> Measurement | None:
        return self._member_on(m.subspace.complement_projection)

    def point_measurement(self, x: Ray) -> Measurement | None:
        # the line through a primitive v projects by v v^T / v.v, in lowest terms
        v = x.direction
        return self._member_on((tuple(tuple(a * b for b in v) for a in v), sum(a * a for a in v)))

    def is_full(self, m: Measurement) -> bool:
        return m.subspace.is_full


def _subspace_label(sub: Subspace) -> str:
    if sub.is_zero:
        return "P[0]"
    if sub.is_full:
        return "P[full]"
    return "P[" + ";".join(map(coordinates_text, sub.basis)) + "]"
