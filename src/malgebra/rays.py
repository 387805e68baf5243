"""The ray backend: canonical rays of Q^n acted on by exact projections.

:class:`RayAlgebra` implements the :class:`~malgebra.core.MAlgebra`
protocol on the subspaces of its members.  This module imports from
``core`` and ``core`` never imports it: the laws ask the protocol, never
this class.  :class:`~malgebra.core.ProjectionMeasurement` stays in
``core`` beside the table measurement, since code that wraps the
measurement classes by name finds both there.
"""

from __future__ import annotations

from .core import Budget, MAlgebra, Measurement, ProjectionMeasurement, point_measurement
from .errors import InputError
from .ratlin import Matrix, Ray, RayImages, Subspace, is_symmetric_idempotent, mat_mul
from .ratlin import parse_ray, primitive_vectors, subspace_rays


class RayAlgebra(MAlgebra):
    """Ray backend: canonical rays of Q^n acted on by exact projections.

    Measurement-level relations are decided exactly on the subspaces; the
    fixpoint and zero domains list the sampled window inside them.  With
    ``full_lattice`` the listed measurements are just a named window:
    membership and negation may synthesize projections onto any rational
    subspace on demand.
    """

    kind = "ray"

    def __init__(self, dim, measurements, full_lattice=False, sample_height=3):
        super().__init__(measurements)
        self.dim = dim
        self.full_lattice = full_lattice
        self.sample_height = sample_height
        self.zero = self.zero_code = Ray.zero(dim)
        self._samples: dict[int, list[Ray]] = {}
        # the listed member (first by name), or the one a full lattice synthesized
        self._by_subspace: dict[Subspace, Measurement] = {
            m.subspace: m for m in reversed(self.sorted_measurements())
        }

    def summary(self) -> dict:
        return {**super().summary(), "dimension": self.dim, "full_lattice": self.full_lattice}

    def sample_states(self, height: int | None = None) -> list[Ray]:
        """Deterministic ray window: primitive vectors up to the height bound,
        every basis ray of a listed subspace, and the zero ray."""
        h = self.sample_height if height is None else height
        if h < 1:
            raise InputError("sample height must be at least 1")
        if h not in self._samples:
            rays = {Ray.zero(self.dim)}
            for v in primitive_vectors(self.dim, h):
                rays.add(Ray(self.dim, v))
            for m in self._measurements.values():
                for row in m.subspace.basis:
                    rays.add(Ray.from_vector(row, self.dim))
            self._samples[h] = sorted(rays, key=lambda r: r.sort_key)
        return self._samples[h]

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

    def state_domain(self, budget: Budget) -> list[Ray]:
        return self.sample_states(budget.height)

    def fixpoint_domain(self, m: Measurement, budget: Budget) -> list[Ray]:
        """The zero ray plus the window's rays inside the subspace."""
        return [self.zero] + subspace_rays(m.subspace, self._height(budget))

    def zero_domain(self, m: Measurement, budget: Budget) -> list[Ray]:
        return [self.zero] + subspace_rays(m.subspace.orthocomplement, self._height(budget))

    def _height(self, budget: Budget) -> int:
        return self.sample_height if budget.height is None else budget.height

    def state(self, code: Ray) -> Ray:
        return code

    def state_code(self, label: str) -> Ray:
        return parse_ray(label, self.dim)

    # measurement-level operations (see MAlgebra), decided on the subspaces

    def has_state(self, state) -> bool:
        return isinstance(state, Ray) and state.dim == self.dim

    def preserves(self, a: Measurement, b: Measurement) -> bool:
        """The projection of b's subspace under a lands inside both subspaces;
        a's projection always lands inside a's, so only b's is tested."""
        return all(b.subspace.contains(a.subspace.project_vector(v))
                   for v in b.subspace.basis_vectors)

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
        mix = [a + b for a, b in zip(sub.basis_vectors[0], sub.orthocomplement.basis_vectors[0])]
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
