"""Surface groups as structured groups.

Free and virtually abelian families delegate their arithmetic to core
constructions (free groups, Z^2, the Klein bottle group, Z/2).  Closed
surfaces of negative Euler characteristic keep their decision-level data but
have no implemented normal form; element arithmetic raises.
"""

from __future__ import annotations

from typing import Optional

from .base import INFINITE, GroupUsageError, NotEnumerableError, StructuredGroup
from .cyclic import FiniteCyclic
from .free_product import free_group
from .semidirect import SemidirectZnByZ


class SurfaceGroup(StructuredGroup):
    """pi1 of a compact surface (genus = cross-cap count when non-orientable)."""

    def __init__(self, genus: int, orientable: bool, boundary_components: int = 0):
        if genus < 0 or boundary_components < 0:
            raise GroupUsageError("genus and boundary count must be nonnegative")
        if not orientable and genus < 1:
            raise GroupUsageError("a non-orientable surface has genus >= 1")
        self.genus = genus
        self.orientable = orientable
        self.boundary_components = boundary_components
        self._realization = self._build_realization()

    def _build_realization(self) -> Optional[StructuredGroup]:
        g, b = self.genus, self.boundary_components
        if b > 0:
            rank = 2 * g + b - 1 if self.orientable else g + b - 1
            return free_group([f"x{i + 1}" for i in range(rank)])
        if self.orientable:
            if g == 0:
                return FiniteCyclic(1)
            if g == 1:
                return SemidirectZnByZ(1, [[1]])  # Z^2
            return None
        if g == 1:
            return FiniteCyclic(2)  # projective plane
        if g == 2:
            return SemidirectZnByZ(1, [[-1]])  # Klein bottle
        return None

    def realization(self) -> Optional[StructuredGroup]:
        return self._realization

    def _carrier(self) -> StructuredGroup:
        if self._realization is None:
            raise NotEnumerableError(
                "this surface group has no implemented normal form (closed, "
                "negative Euler characteristic)"
            )
        return self._realization

    def signature(self):
        return ("surface", self.genus, self.orientable, self.boundary_components)

    def identity_payload(self):
        return self._carrier().identity_payload()

    def multiply_payloads(self, a, b):
        return self._carrier().multiply_payloads(a, b)

    def invert_payload(self, a):
        return self._carrier().invert_payload(a)

    def generator_payloads(self):
        return self._carrier().generator_payloads()

    def payload_key(self, payload):
        return self._carrier().payload_key(payload)

    def render_payload(self, payload):
        return self._carrier().render_payload(payload)

    def payload_str(self, payload):
        return self._carrier().payload_str(payload)

    def order(self):
        return INFINITE if self._realization is None else self._realization.order()

    def describe(self):
        kind = "orientable" if self.orientable else "non-orientable"
        return f"Surface(genus={self.genus}, {kind}, boundary={self.boundary_components})"
