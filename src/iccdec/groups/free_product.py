"""Free products with alternating-syllable normal forms."""

from __future__ import annotations

from .base import INFINITE, GroupElement, GroupUsageError, StructuredGroup, unique_names


class FreeProduct(StructuredGroup):
    """G1 * G2.  Payload: tuple of (side, factor payload), sides alternating,
    every factor payload nontrivial."""

    def __init__(self, left: StructuredGroup, right: StructuredGroup):
        self.factors = (left, right)
        unique_names([[n for n, _ in g.generator_payloads()] for g in self.factors])

    def signature(self):
        return ("free_product", self.factors[0].signature(), self.factors[1].signature())

    def identity_payload(self):
        return ()

    def multiply_payloads(self, a, b):
        # Only the junction can change: a's last syllable meets b's first,
        # and only when they cancel do the next two meet.
        i, j = 0, len(a)
        while j and i < len(b) and a[j - 1][0] == b[i][0]:
            side = b[i][0]
            factor = self.factors[side]
            merged = factor.multiply_payloads(a[j - 1][1], b[i][1])
            if merged != factor.identity_payload():
                return a[: j - 1] + ((side, merged),) + b[i + 1 :]
            i, j = i + 1, j - 1
        return a[:j] + b[i:]

    def invert_payload(self, a):
        return tuple((side, self.factors[side].invert_payload(p)) for side, p in reversed(a))

    def embed(self, side: int, g: GroupElement) -> GroupElement:
        """A factor element as an element of the free product."""
        if g.group != self.factors[side]:
            raise GroupUsageError("element does not belong to the requested factor")
        if g.is_identity():
            return self.identity()
        return self.element(((side, g.payload),))

    def generator_payloads(self):
        out = []
        for side, factor in enumerate(self.factors):
            for name, payload in factor.generator_payloads():
                trivial = payload == factor.identity_payload()
                out.append((name, () if trivial else ((side, payload),)))
        return out

    def payload_key(self, payload):
        return (
            len(payload),
            tuple((side, self.factors[side].payload_key(p)) for side, p in payload),
        )

    def render_payload(self, payload):
        letters = []
        for side, p in payload:
            letters.extend(self.factors[side].render_payload(p))
        return letters

    def payload_str(self, payload):
        if not payload:
            return "1"
        return "".join(self.factors[side].payload_str(p) for side, p in payload)

    def order(self):
        left, right = (f.order() for f in self.factors)
        if left == 1:
            return right
        if right == 1:
            return left
        return INFINITE

    def describe(self):
        return f"({self.factors[0].describe()} * {self.factors[1].describe()})"


def free_group(names: list[str]) -> StructuredGroup:
    """A free group of rank len(names), as an iterated free product of Z."""
    from .cyclic import InfiniteCyclic

    if not names:
        from .cyclic import FiniteCyclic

        return FiniteCyclic(1)
    acc: StructuredGroup = InfiniteCyclic(names[0])
    for name in names[1:]:
        acc = FreeProduct(acc, InfiniteCyclic(name))
    return acc
