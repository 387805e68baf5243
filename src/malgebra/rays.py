"""The ray backend: canonical rays of Q^n acted on by exact projections.

:class:`RayAlgebra` implements the :class:`~malgebra.core.MAlgebra`
protocol on the subspaces of its members.  This module imports from
``core`` and ``core`` never imports it: the laws ask the protocol, never
this class.  :class:`~malgebra.core.ProjectionMeasurement` stays in
``core`` beside the table measurement, since code that wraps the
measurement classes by name finds both there.
"""

from __future__ import annotations

from .core import MAlgebra, Measurement, ProjectionMeasurement, point_measurement
from .errors import InputError
from .ratlin import Matrix, Ray, RayImages, Subspace, is_symmetric_idempotent, mat_mul
from .ratlin import parse_ray, primitive_vectors


class RayAlgebra(MAlgebra):
    """Ray backend: canonical rays of Q^n acted on by exact projections.

    Measurement-level relations are decided exactly on the subspaces; the
    per-state laws range over one window of rays of height ``sample_height``,
    built on first use.  With ``full_lattice`` the listed measurements are
    just a named window: membership and negation may synthesize projections
    onto any rational subspace on demand.
    """

    kind = "ray"

    def __init__(self, dim, measurements, full_lattice=False, sample_height=3):
        if sample_height < 1:
            raise InputError(f"sample height must be at least 1, got {sample_height}")
        super().__init__(measurements)
        self.dim = dim
        self.full_lattice = full_lattice
        self.sample_height = sample_height
        self.zero = self.zero_code = Ray.zero(dim)
        self._window: list[Ray] | None = None
        # the listed member (first by name), or the one a full lattice synthesized
        self._by_subspace: dict[Subspace, Measurement] = {
            m.subspace: m for m in reversed(self.sorted_measurements())
        }

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

    def measurement_for_subspace(self, sub: Subspace) -> Measurement | None:
        m = self._by_subspace.get(sub)
        if m is None and self.full_lattice:
            m = self._by_subspace[sub] = ProjectionMeasurement(_subspace_label(sub), sub)
        return m

    # law-check protocol (see MAlgebra)

    exact = False

    def action(self, m: Measurement) -> RayImages:
        """The memo of ray images that the measurement's subspace keeps."""
        return m.subspace.ray_images

    state_domain = sample_states

    def fixpoint_domain(self, m: Measurement) -> list[Ray]:
        """The window's rays inside the subspace, the zero ray first."""
        return [x for x in self.sample_states() if m.subspace.contains_ray(x)]

    def zero_domain(self, m: Measurement) -> list[Ray]:
        """The window's rays inside the orthocomplement, the zero ray first."""
        return [x for x in self.sample_states() if m.subspace.orthocomplement.contains_ray(x)]

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

    def membership(self, raw: Matrix) -> Measurement | None:
        """A listed projection equal to ``raw``; on a full lattice any
        symmetric idempotent rational matrix, synthesized when unlisted."""
        if not is_symmetric_idempotent(raw):
            return None
        return self.measurement_for_subspace(Subspace.from_projection(raw))

    def find_negation(self, m: Measurement) -> Measurement | None:
        return self.measurement_for_subspace(m.subspace.orthocomplement)

    def point_measurement(self, x: Ray) -> Measurement | None:
        return self.measurement_for_subspace(Subspace.from_generators(self.dim, [x.direction]))

    def commutation_probes(self, m: Measurement) -> list[Measurement]:
        """On a full lattice, the point measurement of a ray mixing a proper
        subspace with its complement: such a ray always exists and never
        commutes with the subspace."""
        sub = m.subspace
        if not self.full_lattice or sub.is_zero or sub.is_full:
            return []
        mix = [a + b for a, b in zip(sub.basis[0], sub.orthocomplement.basis[0])]
        return [point_measurement(self, Ray.from_vector(mix, self.dim))]

    def is_full(self, m: Measurement) -> bool:
        return m.subspace.is_full

    def is_zero(self, m: Measurement) -> bool:
        return m.subspace.is_zero

    def is_classical(self, m: Measurement) -> bool:
        return m.subspace.is_zero or m.subspace.is_full


def _subspace_label(sub: Subspace) -> str:
    if sub.is_zero:
        return "P[0]"
    if sub.is_full:
        return "P[full]"
    return "P[" + ";".join("(" + ",".join(str(x) for x in b) + ")" for b in sub.basis) + "]"
