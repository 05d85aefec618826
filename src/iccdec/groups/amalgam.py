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
    FiniteGroupTable,
    GroupElement,
    GroupUsageError,
    StructuredGroup,
    least_coset_rep,
    syllable_key_memo,
    unique_names,
)


class AmalgamEdge:
    """A finite subgroup embedded in both factors of an amalgam."""

    def __init__(
        self,
        table: FiniteGroupTable,
        embed_left: list,
        embed_right: list,
    ):
        self.table = table
        self.embeds = (tuple(embed_left), tuple(embed_right))
        for side_name, images in (("left", embed_left), ("right", embed_right)):
            if len(images) != table.size:
                raise GroupUsageError(f"{side_name} embedding must list one image per edge element")
            if len(set(images)) != table.size:
                raise GroupUsageError(f"{side_name} embedding is not injective")

    def validate_against(self, factors: tuple[StructuredGroup, StructuredGroup]) -> None:
        for side, factor in enumerate(factors):
            images = self.embeds[side]
            if images[0] != factor.identity_payload():
                raise GroupUsageError("edge identity must embed to the factor identity")
            for i in range(self.table.size):
                for j in range(self.table.size):
                    lhs = factor.multiply_payloads(images[i], images[j])
                    if lhs != images[self.table.mul(i, j)]:
                        raise GroupUsageError("edge embedding is not a homomorphism")

    def signature(self):
        return ("edge", self.table.signature(), self.embeds)


class Amalgam(StructuredGroup):
    """G1 *_E G2 with E finite.  Payload: (syllables, edge index) where
    syllables is a tuple of (side, representative payload)."""

    def __init__(self, left: StructuredGroup, right: StructuredGroup, edge: AmalgamEdge):
        self.factors = (left, right)
        self.edge = edge
        edge.validate_against(self.factors)
        unique_names([[n for n, _ in g.generator_payloads()] for g in self.factors])
        # payload -> edge index, per side
        self._edge_lookup = (
            {p: i for i, p in enumerate(edge.embeds[0])},
            {p: i for i, p in enumerate(edge.embeds[1])},
        )
        # payload -> (coset representative, edge index), per finite factor;
        # filled on first use, so it never holds more than |factor| entries
        # and a large finite factor costs nothing until it is multiplied
        self._coset_tables = tuple(None if f.order() == INFINITE else {} for f in self.factors)

    def signature(self):
        return (
            "amalgam",
            self.factors[0].signature(),
            self.factors[1].signature(),
            self.edge.signature(),
        )

    def identity_payload(self):
        return ((), 0)

    def factor_index(self, side: int) -> float:
        """[G_side : E], or INFINITE."""
        total = self.factors[side].order()
        if total == INFINITE:
            return INFINITE
        return total // self.edge.table.size

    def _coset_rep(self, side: int, payload):
        table = self._coset_tables[side]
        if table is None:
            return least_coset_rep(self.factors[side], payload, self.edge.embeds[side])
        if payload not in table:
            table[payload] = least_coset_rep(self.factors[side], payload, self.edge.embeds[side])
        return table[payload]

    def _absorb(self, stack: list, edge_idx: int, side: int, payload) -> int:
        """Multiply the normal form (stack, edge_idx) by a factor element."""
        factor = self.factors[side]
        lookup = self._edge_lookup[side]
        current = factor.multiply_payloads(self.edge.embeds[side][edge_idx], payload)
        if current in lookup:
            return lookup[current]
        if stack and stack[-1][0] == side:
            current = factor.multiply_payloads(stack.pop()[1], current)
            if current in lookup:
                return lookup[current]
        rep, idx = self._coset_rep(side, current)
        stack.append((side, rep))
        # rep = current * images[idx], so current = rep * images[idx]^-1
        return self.edge.table.inv(idx)

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
        left_index = self.factor_index(0)
        right_index = self.factor_index(1)
        if left_index == 1:
            return self.factors[1].order()
        if right_index == 1:
            return self.factors[0].order()
        return INFINITE

    def describe(self):
        return (
            f"({self.factors[0].describe()} *_(E, |E|={self.edge.table.size}) "
            f"{self.factors[1].describe()})"
        )
