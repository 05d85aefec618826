"""HNN extensions with Britton-reduced coset-representative normal forms.

The stable letter t satisfies  t a t^-1 = phi(a)  for a in the domain
subgroup A; equivalently  t^-1 b t = phi^-1(b)  for b in the range subgroup
B.  Normal form: g = c1 t^(e1) c2 t^(e2) ... ck t^(ek) * gamma with gamma an
arbitrary base element, ci a canonical representative of a left coset of B
(when ei = +1) or of A (when ei = -1), and no pinch  t^-1 (b in B) t  or
t (a in A) t^-1  remaining.

Two edge kinds are supported: finite subgroups with explicit tables, and
powers of the generator inside an infinite cyclic base (so that
Baumslag-Solitar style instances are representable; membership and coset
representatives are decidable by divisibility).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property, partial

from .base import (
    INFINITE,
    FiniteEdge,
    FiniteGroupTable,
    GroupUsageError,
    KeyMemo,
    StructuredGroup,
    unique_names,
)
from .cyclic import InfiniteCyclic


class HnnEdge(ABC):
    """Associated subgroup pair A, B of the base, with iso phi: A -> B.

    Its operations are indexed by side, as a FiniteEdge's are: side 0 is the
    domain A, where t^-1 pinches, and side 1 is the range B, where t pinches.
    """

    @abstractmethod
    def validate_against(self, base: StructuredGroup) -> None:
        ...

    @abstractmethod
    def signature(self) -> tuple:
        ...

    @abstractmethod
    def contains(self, side: int, payload) -> bool:
        """Whether payload lies in the side's subgroup."""

    @abstractmethod
    def carry(self, side: int, payload):
        """phi(a) for a in A on side 0, phi^-1(b) for b in B on side 1."""

    @abstractmethod
    def rep(self, base, side: int, payload):
        """(rep, residual) with payload = rep * residual, residual in the
        side's subgroup."""

    @abstractmethod
    def proper_sides(self, base) -> tuple[bool, bool]:
        """(A proper in base, B proper in base)."""


class FiniteHnnEdge(FiniteEdge, HnnEdge):
    """A and B are copies of a finite table group inside the base.

    iso[i] gives the index of phi(domain[i]) among the range images, i.e.
    phi(embeds[0][i]) = embeds[1][iso[i]].
    """

    SIDES = ("domain", "range")
    OWNER = "base"

    def __init__(self, table: FiniteGroupTable, embed_domain: list, embed_range: list, iso=None):
        iso = tuple(range(table.size) if iso is None else iso)
        if sorted(iso) != list(range(table.size)):
            raise GroupUsageError("iso must be a permutation of the edge indices")
        # isos[side] takes an element's index on the side to its image's
        # index on the other side: phi, then phi^-1
        self.isos = (iso, tuple(map(iso.index, range(table.size))))
        super().__init__(table, (embed_domain, embed_range))

    def validate_against(self, base):
        self.check_homomorphisms((base, base))
        # phi must be an isomorphism of the abstract edge group
        iso = self.isos[0]
        for i in range(self.table.size):
            for j in range(self.table.size):
                if iso[self.table.mul(i, j)] != self.table.mul(iso[i], iso[j]):
                    raise GroupUsageError("iso is not an automorphism of the edge group")

    def signature(self):
        return ("finite_edge", self.table.signature(), *self.embeds, self.isos[0])

    def contains(self, side, payload):
        return payload in self.lookups[side]

    def carry(self, side, payload):
        return self.embeds[1 - side][self.isos[side][self.lookups[side][payload]]]

    def rep(self, base, side, payload):
        rep, idx = self.coset_step(base, side, payload)
        return rep, self.embeds[side][idx]

    def proper_sides(self, base):
        return (self.index(base) > 1,) * 2


class CyclicPowerEdge(HnnEdge):
    """Base Z = <a>; A = <a^m>, B = <a^n> with phi(a^(m k)) = a^(n k).

    domain_power m >= 1 and range_power n != 0 (a negative n encodes an
    orientation-reversing identification, as in Klein-bottle style groups).
    The powers are also the moduli of the sides: x % n == 0 exactly when
    x % |n| == 0, and a coset of B has the same two balanced candidates
    under n as under |n|.
    """

    def __init__(self, domain_power: int, range_power: int):
        if not isinstance(domain_power, int) or domain_power < 1:
            raise GroupUsageError("domain power must be an integer >= 1")
        if not isinstance(range_power, int) or range_power == 0:
            raise GroupUsageError("range power must be a nonzero integer")
        self.powers = (domain_power, range_power)
        self.m, self.n = self.powers

    def validate_against(self, base):
        if not isinstance(base, InfiniteCyclic):
            raise GroupUsageError("cyclic power edges require an infinite cyclic base")

    def signature(self):
        return ("cyclic_power_edge", self.m, self.n)

    def contains(self, side, payload):
        return payload % self.powers[side] == 0

    def carry(self, side, payload):
        return payload // self.powers[side] * self.powers[1 - side]

    def rep(self, base, side, payload):
        modulus = self.powers[side]
        r = payload % modulus
        candidates = [r, r - modulus] if r else [0]
        rep = min(candidates, key=base.payload_key)
        return rep, payload - rep

    def proper_sides(self, base):
        return (self.m != 1, abs(self.n) != 1)


class Hnn(StructuredGroup):
    """HNN extension of a base group.  Payload: (syllables, tail base
    payload) with syllables a tuple of (coset representative payload, eps)."""

    def __init__(self, base: StructuredGroup, edge: HnnEdge, stable_letter: str = "t"):
        self.base = base
        self.edge = edge
        self.stable_letter = stable_letter
        edge.validate_against(base)
        unique_names([base.generator_names(), [stable_letter]])

    def signature(self):
        return ("hnn", self.base.signature(), self.edge.signature(), self.stable_letter)

    def identity_payload(self):
        return ((), self.base.identity_payload())

    @cached_property
    def _reps(self) -> tuple[KeyMemo, KeyMemo]:
        """The memos of a tail's (representative, residual), one per side.
        They refer to the base and the edge, never to the extension, so the
        extension is freed by reference count."""
        return tuple(KeyMemo(partial(self.edge.rep, self.base, side)) for side in (0, 1))

    def _absorb_t(self, payload, eps: int):
        """Multiply the normal form payload by t^eps: t works on the range
        (side 1), t^-1 on the domain (side 0)."""
        syllables, tail = payload
        edge, side = self.edge, 1 if eps == 1 else 0
        if syllables and syllables[-1][1] == -eps and edge.contains(side, tail):
            rep = syllables[-1][0]
            return (syllables[:-1], self.base.multiply_payloads(rep, edge.carry(side, tail)))
        rep, residual = self._reps[side][tail]
        return (syllables + ((rep, eps),), edge.carry(side, residual))

    def multiply_payloads(self, a, b):
        mul = self.base.multiply_payloads
        identity = self.base.identity_payload()
        syllables, tail = a
        syllables_b, tail_b = b
        for i, (rep, eps) in enumerate(syllables_b):
            count = len(syllables)
            syllables, tail = self._absorb_t((syllables, mul(tail, rep)), eps)
            if tail == identity and len(syllables) > count:
                # The syllable was appended, not pinched, and carries nothing
                # on.  b is Britton-reduced (Britton's lemma: a reduced word
                # has no pinch), so its next representative is canonical for
                # its coset and forms no pinch with the t-letter just
                # appended, which is b's own: it is appended unchanged with
                # an identity residual, and so on to the end.
                return (syllables + syllables_b[i + 1 :], tail_b)
        return (syllables, mul(tail, tail_b))

    def invert_payload(self, a):
        syllables, tail = a
        base = self.base
        acc = ((), base.invert_payload(tail))
        for rep, eps in reversed(syllables):
            acc_syllables, acc_tail = self._absorb_t(acc, -eps)
            acc = (acc_syllables, base.multiply_payloads(acc_tail, base.invert_payload(rep)))
        return acc

    def generator_payloads(self):
        out = [(name, ((), p)) for name, p in self.base.generator_payloads()]
        out.append((self.stable_letter, self._absorb_t(self.identity_payload(), +1)))
        return out

    @cached_property
    def _keys(self) -> tuple[KeyMemo, KeyMemo]:
        """The memos of a tail's base key and of a syllable's key."""
        key = self.base.payload_key
        return KeyMemo(key), KeyMemo(lambda syllable: (key(syllable[0]), syllable[1]))

    def payload_key(self, payload):
        syllables, tail = payload
        tail_keys, syllable_keys = self._keys
        return (len(syllables), tail_keys[tail], tuple(map(syllable_keys.__getitem__, syllables)))

    def render_payload(self, payload):
        syllables, tail = payload
        letters = []
        for rep, eps in syllables:
            letters.extend(self.base.render_payload(rep))
            letters.append((self.stable_letter, eps))
        letters.extend(self.base.render_payload(tail))
        return letters

    def payload_str(self, payload):
        syllables, tail = payload
        parts = []
        for rep, eps in syllables:
            if rep != self.base.identity_payload():
                parts.append(self.base.payload_str(rep))
            parts.append(self.stable_letter if eps == 1 else f"{self.stable_letter}^-1")
        if tail != self.base.identity_payload():
            parts.append(self.base.payload_str(tail))
        return "".join(parts) if parts else "1"

    def order(self):
        return INFINITE

    def describe(self):
        return f"HNN({self.base.describe()})"
