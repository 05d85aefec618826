"""Extensions of free products of cyclics by a distinguished fiber generator.

Realizes groups presented as

    < h, x1, ..., xr |  xj^(alpha_j) = h^(c_j)   (torsion generators),
                        xj h xj^-1 = h^(s_j)     (s_j = +-1, torsion parts +1) >

whose quotient by <h> is a free product of cyclic groups.  Bounded-base
circle-fibered presentations (trefoil-type knot groups, solid tori, and
their relatives) land exactly in this family, with h the fiber generator.

Normal form: h^k * lift(w) with w a reduced syllable word of the quotient
free product; the pair (k, w) is unique because the group is an iterated
amalgam/HNN over the infinite cyclic subgroup generated by h, with the
lifted powers xj^0..xj^(alpha_j - 1) as coset representatives.
"""

from __future__ import annotations

from functools import cached_property

from .base import INFINITE, GroupElement, GroupUsageError, Record, StructuredGroup, unique_names


class TorsionPart(Record):
    """Generator x with x^order = h^fiber_carry; commutes with h."""

    name: str
    order: int
    fiber_carry: int

    def __post_init__(self):
        if self.order < 2:
            raise GroupUsageError("torsion part order must be >= 2")


class FreePart(Record):
    """Infinite-order generator x with x h x^-1 = h^sign."""

    name: str
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise GroupUsageError("free part sign must be +1 or -1")


Part = TorsionPart | FreePart


class FiberExtension(StructuredGroup):
    """Payload: (k, word) with word a tuple of (part index, exponent)."""

    def __init__(self, parts: list[Part], fiber_name: str = "h"):
        self.parts = tuple(parts)
        self.fiber_name = fiber_name
        unique_names([[fiber_name], [p.name for p in self.parts]])

    def signature(self):
        return ("fiber_extension", self.parts, self.fiber_name)

    def identity_payload(self):
        return (0, ())

    def fiber(self) -> GroupElement:
        return self.element((1, ()))

    @cached_property
    def _tables(self) -> tuple:
        """By part index: whether the part inverts h (None when none does),
        and a torsion part's (order, fiber_carry), else None."""
        parts = self.parts
        flips = tuple(isinstance(p, FreePart) and p.sign == -1 for p in parts)
        torsion = tuple((p.order, p.fiber_carry) if isinstance(p, TorsionPart) else None for p in parts)
        return (flips if any(flips) else None), torsion

    def _chi(self, word) -> int:
        """The sign h picks up crossing word; read when a part inverts h."""
        flips = self._tables[0]
        return -1 if sum(e for j, e in word if flips[j]) % 2 else 1

    def multiply_payloads(self, a, b):
        k1, w1 = a
        k2, w2 = b
        flips, torsion = self._tables
        # h^k2 moves to the front across w1, picking up its sign character
        # chi(w1); the carry h^c of a torsion relation crosses only w1[:end],
        # whose character is chi(w1) * sign, sign being the character of the
        # syllables taken off w1's end.  shift collects both, so chi(w1) is
        # computed once, and only if something crosses and a part inverts h.
        shift, sign, end = k2, 1, len(w1)
        for i, (j, e) in enumerate(w2):
            if end and w1[end - 1][0] == j:
                end -= 1
                if flips and flips[j] and w1[end][1] % 2:
                    sign = -sign
                e += w1[end][1]
            if t := torsion[j]:
                carry, e = divmod(e, t[0])
                shift += t[1] * carry * sign
            if e:
                # w2's next syllable is another part's, already reduced: the
                # rest of w2 is appended unchanged
                word = w1[:end] + ((j, e),) + w2[i + 1 :]
                break
        else:
            word = w1[:end]
        return (k1 + shift * self._chi(w1) if shift and flips else k1 + shift, word)

    def invert_payload(self, a):
        k, w = a
        flips, torsion = self._tables
        # (h^k x1^e1 ... xm^em)^-1 = xm^-em ... x1^-e1 h^-k.  Neighbouring
        # syllables belong to different parts, so none merge.  A torsion
        # syllable x^-e is x^(order - e) x^-order, and x^-order = h^-c moves
        # to the front across the syllables already written; h^-k crosses
        # all of them.
        shift, sign, out = 0, 1, []
        for j, e in reversed(w):
            e = -e
            if t := torsion[j]:
                carry, e = divmod(e, t[0])
                shift += t[1] * carry * sign
            if flips and flips[j] and e % 2:
                sign = -sign
            out.append((j, e))
        return (shift - k * sign, tuple(out))

    def generator_payloads(self):
        out = [(p.name, (0, ((j, 1),))) for j, p in enumerate(self.parts)]
        out.append((self.fiber_name, (1, ())))
        return out

    def payload_key(self, payload):
        k, w = payload
        return (len(w), abs(k), 0 if k >= 0 else 1, w)

    def render_payload(self, payload):
        k, w = payload
        letters = []
        if k:
            letters.append((self.fiber_name, k))
        letters.extend((self.parts[j].name, e) for j, e in w)
        return letters

    def payload_str(self, payload):
        k, w = payload
        parts = []
        if k:
            parts.append(self.fiber_name if k == 1 else f"{self.fiber_name}^{k}")
        for j, e in w:
            name = self.parts[j].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def order(self):
        return INFINITE

    def fiber_is_central(self) -> bool:
        return all(not (isinstance(p, FreePart) and p.sign == -1) for p in self.parts)

    def describe(self):
        return f"FiberExtension({len(self.parts)} parts)"
