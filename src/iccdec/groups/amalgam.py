"""Amalgamated free products over finite edge subgroups.

Normal form: g = t1 t2 ... tk * e where e lies in the edge subgroup and the
ti are canonical nontrivial left-coset representatives, alternating between
the two factors.  The representative of a coset gE is the coset member with
the least payload key ("lexicographically least under the factor's
enumeration order"), which is computable because E is finite.
"""

from __future__ import annotations

from functools import cached_property

from .base import (
    INFINITE,
    FiniteEdge,
    FiniteGroupTable,
    GroupElement,
    GroupUsageError,
    KeyMemo,
    StructuredGroup,
    syllable_key_memo,
    unique_names,
)


class AmalgamEdge(FiniteEdge):
    """A finite subgroup embedded in both factors of an amalgam."""

    def __init__(self, table: FiniteGroupTable, embed_left: list, embed_right: list):
        super().__init__(table, (embed_left, embed_right))

    def signature(self):
        return ("edge", self.table.signature(), self.embeds)


def _step_memo(factor: StructuredGroup, edge: AmalgamEdge, side: int) -> KeyMemo:
    """The reduction step of an amalgam on one side, memoized.  It refers to
    the factor and the edge, never to the amalgam, so the amalgam is freed
    by reference count."""
    multiply = factor.multiply_payloads
    images, lookup = edge.embeds[side], edge.lookups[side]

    def step(part):
        edge_idx, top, payload = part
        current = multiply(images[edge_idx], payload)
        if current in lookup:
            return False, None, lookup[current]
        if top is not None:
            current = multiply(top, current)
            if current in lookup:
                return True, None, lookup[current]
        return (top is not None, *edge.coset_step(factor, side, current))

    return KeyMemo(step)


class Amalgam(StructuredGroup):
    """G1 *_E G2 with E finite.  Payload: (syllables, edge index) where
    syllables is a tuple of (side, representative payload)."""

    def __init__(self, left: StructuredGroup, right: StructuredGroup, edge: AmalgamEdge):
        self.factors = (left, right)
        self.edge = edge
        edge.check_homomorphisms(self.factors)
        unique_names([g.generator_names() for g in self.factors])

    def signature(self):
        return ("amalgam", *(f.signature() for f in self.factors), self.edge.signature())

    def identity_payload(self):
        return ((), 0)

    def factor_index(self, side: int) -> float:
        """[G_side : E], or INFINITE."""
        return self.edge.index(self.factors[side])

    @cached_property
    def _steps(self) -> tuple[KeyMemo, KeyMemo]:
        """The memo of one reduction step, per side: (edge index, same-side
        top payload or None, factor payload) -> (pop the top, representative
        pushed or None, edge index carried on)."""
        return tuple(_step_memo(f, self.edge, side) for side, f in enumerate(self.factors))

    def _absorb(self, stack: list, edge_idx: int, side: int, payload) -> int:
        """Multiply the normal form (stack, edge_idx) by a factor element."""
        top = stack[-1][1] if stack and stack[-1][0] == side else None
        pop, rep, edge_idx = self._steps[side][edge_idx, top, payload]
        if pop:
            stack.pop()
        if rep is not None:
            stack.append((side, rep))
        return edge_idx

    def multiply_payloads(self, a, b):
        syllables_a, edge_idx = a
        syllables_b, edge_b = b
        stack = list(syllables_a)
        for i, (side, rep) in enumerate(syllables_b):
            count = len(stack)
            edge_idx = self._absorb(stack, edge_idx, side, rep)
            if edge_idx == 0 and len(stack) >= count:
                # The syllable stayed on the stack (appended or merged, not
                # cancelled into the edge) and carries the identity edge
                # element on.  b's next syllable lies in the other factor and
                # is a canonical representative outside E, so it is appended
                # unchanged with edge index 0, and so on to the end.
                return (tuple(stack) + syllables_b[i + 1 :], edge_b)
        return (tuple(stack), self.edge.table.mul(edge_idx, edge_b))

    def invert_payload(self, a):
        syllables, edge_idx = a
        stack: list = []
        acc = self.edge.table.inv(edge_idx)
        for side, rep in reversed(syllables):
            acc = self._absorb(stack, acc, side, self.factors[side].invert_payload(rep))
        return (tuple(stack), acc)

    def embed(self, side: int, g: GroupElement) -> GroupElement:
        if g.group != self.factors[side]:
            raise GroupUsageError("element does not belong to the requested factor")
        stack: list = []
        edge_idx = self._absorb(stack, 0, side, g.payload)
        return self.element((tuple(stack), edge_idx))

    def generator_payloads(self):
        out = []
        for side, factor in enumerate(self.factors):
            for name, payload in factor.generator_payloads():
                stack: list = []
                edge_idx = self._absorb(stack, 0, side, payload)
                out.append((name, (tuple(stack), edge_idx)))
        return out

    @cached_property
    def _syllable_keys(self):
        return syllable_key_memo(self.factors)

    def payload_key(self, payload):
        syllables, edge_idx = payload
        return (len(syllables), tuple(map(self._syllable_keys.__getitem__, syllables)), edge_idx)

    def render_payload(self, payload):
        syllables, edge_idx = payload
        letters = []
        for side, rep in syllables:
            letters.extend(self.factors[side].render_payload(rep))
        # render the trailing edge element through its left-factor image
        letters.extend(self.factors[0].render_payload(self.edge.embeds[0][edge_idx]))
        return letters

    def payload_str(self, payload):
        syllables, edge_idx = payload
        parts = [self.factors[side].payload_str(rep) for side, rep in syllables]
        if edge_idx:
            parts.append(self.factors[0].payload_str(self.edge.embeds[0][edge_idx]))
        return "".join(parts) if parts else "1"

    def order(self):
        for side in (0, 1):
            if self.factor_index(side) == 1:
                return self.factors[1 - side].order()
        return INFINITE

    def describe(self):
        return (
            f"({self.factors[0].describe()} *_(E, |E|={self.edge.table.size}) "
            f"{self.factors[1].describe()})"
        )
