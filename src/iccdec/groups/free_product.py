"""Free products of any number of factors, with alternating-syllable normal
forms ordered as in the left-nested product ((G0 * G1) * G2) * ..."""

from __future__ import annotations

from functools import cached_property
from itertools import groupby

from .base import (
    INFINITE,
    GroupElement,
    GroupUsageError,
    StructuredGroup,
    syllable_key_memo,
    unique_names,
)
from .cyclic import FiniteCyclic, InfiniteCyclic


class FreeProduct(StructuredGroup):
    """G0 * G1 * ... * Gn-1, n >= 2.  Payload: tuple of (side, factor
    payload), adjacent sides distinct, every factor payload nontrivial.

    payload_key orders words as the left-nested product ((G0 * G1) * G2)
    * ... orders them, so the descriptors [A, B, C] and [[A, B], C] list
    their words in the same order."""

    def __init__(self, *factors: StructuredGroup):
        self.factors = factors
        unique_names([g.generator_names() for g in self.factors])

    def signature(self):
        return ("free_product", *(f.signature() for f in self.factors))

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

    def generator_names(self):
        return [name for factor in self.factors for name in factor.generator_names()]

    @cached_property
    def _syllable_keys(self):
        return syllable_key_memo(self.factors)

    def payload_key(self, payload):
        if len(self.factors) == 2:
            return (len(payload), tuple(map(self._syllable_keys.__getitem__, payload)))
        return self._top_key(payload)

    def _top_key(self, payload):
        """(top, item count, items), top the highest side of payload: its
        items are the syllables of side top, keyed (top, key), and the
        maximal runs of lower sides between them, keyed 0 and then the run's
        own key; the empty payload keys ().  This orders words as the
        left-nested product does, where a word whose highest side is lower
        sorts first, and a key nests at most one level per distinct side."""
        if not payload:
            return ()
        top = max(side for side, _ in payload)
        items = [
            (0, self._top_key(tuple(run))) if lower else self._syllable_keys[next(run)]
            for lower, run in groupby(payload, lambda syllable: syllable[0] < top)
        ]
        return (top, len(items), tuple(items))

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
        orders = [order for order in (f.order() for f in self.factors) if order != 1]
        return INFINITE if len(orders) > 1 else orders[0] if orders else 1

    def describe(self):
        rest = "".join(f" * {f.describe()})" for f in self.factors[1:])
        return "(" * (len(self.factors) - 1) + self.factors[0].describe() + rest


def free_group(names: list[str]) -> StructuredGroup:
    """A free group of rank len(names): the free product of one Z per name."""
    if len(names) > 1:
        return FreeProduct(*map(InfiniteCyclic, names))
    return InfiniteCyclic(names[0]) if names else FiniteCyclic(1)
