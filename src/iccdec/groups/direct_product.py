"""Direct products H x F with F a finite table group."""

from __future__ import annotations

from .base import (
    INFINITE,
    FiniteGroupTable,
    GroupElement,
    GroupUsageError,
    StructuredGroup,
    unique_names,
)


class DirectWithFinite(StructuredGroup):
    """H x F.  Payload: (h payload, finite index).  The designated generating
    set is H's generators plus every nontrivial element of F."""

    def __init__(self, h: StructuredGroup, f: FiniteGroupTable):
        self.h = h
        self.f = f
        unique_names([h.generator_names(), f.names[1:]])

    def signature(self):
        return ("direct_with_finite", self.h.signature(), self.f.signature())

    def identity_payload(self):
        return (self.h.identity_payload(), 0)

    def multiply_payloads(self, a, b):
        return (self.h.multiply_payloads(a[0], b[0]), self.f.mul(a[1], b[1]))

    def invert_payload(self, a):
        return (self.h.invert_payload(a[0]), self.f.inv(a[1]))

    def finite_element(self, index: int) -> GroupElement:
        if not (0 <= index < self.f.size):
            raise GroupUsageError("finite factor index out of range")
        return self.element((self.h.identity_payload(), index))

    def generator_payloads(self):
        out = [(name, (p, 0)) for name, p in self.h.generator_payloads()]
        for idx in range(1, self.f.size):
            out.append((self.f.names[idx], (self.h.identity_payload(), idx)))
        return out

    def generator_names(self):
        return self.h.generator_names() + list(self.f.names[1:])

    def payload_key(self, payload):
        return (self.h.payload_key(payload[0]), payload[1])

    def render_payload(self, payload):
        letters = list(self.h.render_payload(payload[0]))
        if payload[1]:
            letters.append((self.f.names[payload[1]], 1))
        return letters

    def payload_str(self, payload):
        h_str = self.h.payload_str(payload[0])
        f_str = self.f.names[payload[1]]
        return f"({h_str}, {f_str})"

    def order(self):
        base = self.h.order()
        return INFINITE if base == INFINITE else base * self.f.size

    def describe(self):
        return f"({self.h.describe()} x F{self.f.size})"
