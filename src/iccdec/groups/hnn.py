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
from functools import cached_property

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
    """Associated subgroup pair A, B of the base, with iso phi: A -> B."""

    @abstractmethod
    def validate_against(self, base: StructuredGroup) -> None:
        ...

    @abstractmethod
    def signature(self) -> tuple:
        ...

    @abstractmethod
    def domain_contains(self, base, payload) -> bool:
        ...

    @abstractmethod
    def range_contains(self, base, payload) -> bool:
        ...

    @abstractmethod
    def iso_image(self, base, payload):
        """phi(a) for a in A."""

    @abstractmethod
    def iso_preimage(self, base, payload):
        """phi^-1(b) for b in B."""

    @abstractmethod
    def domain_rep(self, base, payload):
        """(rep, residual) with payload = rep * residual, residual in A."""

    @abstractmethod
    def range_rep(self, base, payload):
        """(rep, residual) with payload = rep * residual, residual in B."""

    @abstractmethod
    def proper_sides(self, base) -> tuple[bool, bool]:
        """(A proper in base, B proper in base)."""


class FiniteHnnEdge(FiniteEdge, HnnEdge):
    """A and B are copies of a finite table group inside the base.

    iso[i] gives the index of phi(domain[i]) among the range images, i.e.
    phi(embed_domain[i]) = embed_range[iso[i]].
    """

    SIDES = ("domain", "range")
    OWNER = "base"

    def __init__(self, table: FiniteGroupTable, embed_domain: list, embed_range: list, iso=None):
        self.iso = tuple(range(table.size) if iso is None else iso)
        if sorted(self.iso) != list(range(table.size)):
            raise GroupUsageError("iso must be a permutation of the edge indices")
        self.iso_inv = tuple(self.iso.index(i) for i in range(table.size))
        super().__init__(table, (embed_domain, embed_range))
        self.embed_domain, self.embed_range = self.embeds
        self._domain_lookup, self._range_lookup = self.lookups

    def validate_against(self, base):
        self.check_homomorphisms((base, base))
        # phi must be an isomorphism of the abstract edge group
        for i in range(self.table.size):
            for j in range(self.table.size):
                if self.iso[self.table.mul(i, j)] != self.table.mul(self.iso[i], self.iso[j]):
                    raise GroupUsageError("iso is not an automorphism of the edge group")

    def signature(self):
        return ("finite_edge", self.table.signature(), self.embed_domain, self.embed_range, self.iso)

    def domain_contains(self, base, payload):
        return payload in self._domain_lookup

    def range_contains(self, base, payload):
        return payload in self._range_lookup

    def iso_image(self, base, payload):
        return self.embed_range[self.iso[self._domain_lookup[payload]]]

    def iso_preimage(self, base, payload):
        return self.embed_domain[self.iso_inv[self._range_lookup[payload]]]

    def domain_rep(self, base, payload):
        rep, idx = self.coset_step(base, 0, payload)
        return rep, self.embed_domain[idx]

    def range_rep(self, base, payload):
        rep, idx = self.coset_step(base, 1, payload)
        return rep, self.embed_range[idx]

    def proper_sides(self, base):
        return (self.index(base) > 1,) * 2


class CyclicPowerEdge(HnnEdge):
    """Base Z = <a>; A = <a^m>, B = <a^n> with phi(a^(m k)) = a^(n k).

    domain_power m >= 1 and range_power n != 0 (a negative n encodes an
    orientation-reversing identification, as in Klein-bottle style groups).
    """

    def __init__(self, domain_power: int, range_power: int):
        if not isinstance(domain_power, int) or domain_power < 1:
            raise GroupUsageError("domain power must be an integer >= 1")
        if not isinstance(range_power, int) or range_power == 0:
            raise GroupUsageError("range power must be a nonzero integer")
        self.m = domain_power
        self.n = range_power

    def validate_against(self, base):
        if not isinstance(base, InfiniteCyclic):
            raise GroupUsageError("cyclic power edges require an infinite cyclic base")

    def signature(self):
        return ("cyclic_power_edge", self.m, self.n)

    def domain_contains(self, base, payload):
        return payload % self.m == 0

    def range_contains(self, base, payload):
        return payload % abs(self.n) == 0

    def iso_image(self, base, payload):
        return (payload // self.m) * self.n

    def iso_preimage(self, base, payload):
        return (payload // self.n) * self.m

    @staticmethod
    def _balanced_rep(base, payload, modulus):
        r = payload % modulus
        candidates = [r, r - modulus] if r else [0]
        rep = min(candidates, key=base.payload_key)
        return rep, payload - rep

    def domain_rep(self, base, payload):
        return self._balanced_rep(base, payload, self.m)

    def range_rep(self, base, payload):
        return self._balanced_rep(base, payload, abs(self.n))

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
        """The memos of a tail's (representative, residual) for the domain A
        and for the range B.  They refer to the base and the edge, never to
        the extension, so the extension is freed by reference count."""
        base, edge = self.base, self.edge
        return (
            KeyMemo(lambda tail: edge.domain_rep(base, tail)),
            KeyMemo(lambda tail: edge.range_rep(base, tail)),
        )

    def _absorb_t(self, payload, eps: int):
        syllables, tail = payload
        base, edge = self.base, self.edge
        if eps == +1:
            if syllables and syllables[-1][1] == -1 and edge.range_contains(base, tail):
                rep = syllables[-1][0]
                return (syllables[:-1], base.multiply_payloads(rep, edge.iso_preimage(base, tail)))
            rep, residual = self._reps[1][tail]
            return (syllables + ((rep, +1),), edge.iso_preimage(base, residual))
        if syllables and syllables[-1][1] == +1 and edge.domain_contains(base, tail):
            rep = syllables[-1][0]
            return (syllables[:-1], base.multiply_payloads(rep, edge.iso_image(base, tail)))
        rep, residual = self._reps[0][tail]
        return (syllables + ((rep, -1),), edge.iso_image(base, residual))

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
