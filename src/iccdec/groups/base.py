"""Core abstractions: structured groups, elements, finite multiplication tables.

Every group construction reduces elements to a canonical payload: two
elements are equal iff their payloads are equal.  All values are immutable
after construction and all operations are pure, so groups and elements can
be shared freely across threads.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from functools import cached_property
from typing import Any, Iterable, Iterator, Optional, Sequence


class GroupUsageError(ValueError):
    """Raised when an operation is applied outside its contract."""


class NotEnumerableError(GroupUsageError):
    """Raised when a construction has no implemented element arithmetic."""


class Record:
    """A frozen value type.  Its fields are the names annotated in the class
    body, in order, and a class attribute is a field's default.  Instances
    are equal when their types and fields are, and hash as their fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # one __init__ per class, which sets each field and then calls
        # __post_init__ when the class has one
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        params = ["self"] + [f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in cls._fields]
        body = [f"_set(self, {n!r}, {n})" for n in cls._fields] or ["pass"]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__({', '.join(params)}):\n    {'; '.join(body)}", namespace)
        cls.__init__ = namespace["__init__"]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


INFINITE = math.inf

Letter = tuple[str, int]  # generator name, exponent


class GroupElement:
    """An element of a StructuredGroup, held in canonical normal form."""

    __slots__ = ("group", "payload")

    def __init__(self, group: "StructuredGroup", payload: Any):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((type(self.group).__name__, self.payload))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __invert__(self) -> "GroupElement":
        return invert(self)

    def __pow__(self, n: int) -> "GroupElement":
        if not isinstance(n, int):
            raise GroupUsageError("exponent must be an integer")
        if n < 0:
            return invert(self) ** (-n)
        # square-and-multiply, with no product by the identity and no
        # squaring after the last bit
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else multiply(result, base)
            n >>= 1
            if n:
                base = multiply(base, base)
        return self.group.identity() if result is None else result

    def is_identity(self) -> bool:
        return self.payload == self.group.identity_payload()

    def __repr__(self):
        try:
            return self.group.payload_str(self.payload)
        except ValueError as exc:
            # only Python's limit on the digits of an int-to-str conversion
            # is renamed; a GroupUsageError passes unchanged
            if "integer string conversion" not in str(exc):
                raise
        limit = sys.get_int_max_str_digits()
        raise GroupUsageError(
            f"element has an integer of more than {limit} digits, too long to print"
        )


class StructuredGroup(ABC):
    """A group described by construction, with computable normal forms."""

    @abstractmethod
    def signature(self) -> tuple:
        """Structural identity; equal signatures mean the same group."""

    @abstractmethod
    def identity_payload(self):
        ...

    @abstractmethod
    def multiply_payloads(self, a, b):
        ...

    @abstractmethod
    def invert_payload(self, a):
        ...

    @abstractmethod
    def generator_payloads(self) -> list[tuple[str, Any]]:
        """The designated finite generating set, as (name, payload) pairs."""

    def generator_names(self) -> list[str]:
        """The generator names, which need no normal form (see SurfaceGroup)."""
        return [name for name, _ in self.generator_payloads()]

    @abstractmethod
    def payload_key(self, payload) -> tuple:
        """Total order key; the identity payload must be minimal."""

    @abstractmethod
    def render_payload(self, payload) -> list[Letter]:
        """A generator word evaluating back to the payload."""

    @abstractmethod
    def payload_str(self, payload) -> str:
        ...

    @abstractmethod
    def order(self) -> float:
        """Group order as an int, or INFINITE."""

    # -- derived API ------------------------------------------------------

    @cached_property
    def _hashed_signature(self) -> tuple:
        """(hash, signature), computed once, on first use: groups are
        immutable, so equality and hashing never rebuild the recursive
        signature, and a group only ever decided never builds it."""
        signature = self.signature()
        return hash(signature), signature

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, StructuredGroup)
            and self._hashed_signature == other._hashed_signature
        )

    def __hash__(self):
        return self._hashed_signature[0]

    def identity(self) -> GroupElement:
        return GroupElement(self, self.identity_payload())

    def element(self, payload) -> GroupElement:
        return GroupElement(self, payload)

    def generators(self) -> list[tuple[str, GroupElement]]:
        return [(name, GroupElement(self, p)) for name, p in self.generator_payloads()]

    def generator_element(self, name: str) -> GroupElement:
        return self.reduce_letters([(name, 1)])

    def reduce_letters(self, letters: Iterable[Letter]) -> GroupElement:
        """Evaluate a sequence of (generator name, exponent) pairs."""
        table = dict(self.generators())
        acc = None
        for name, exp in letters:
            if name not in table:
                raise GroupUsageError(
                    f"unknown generator {name!r}; this group has {sorted(table)}"
                )
            power = table[name] ** exp
            acc = power if acc is None else multiply(acc, power)
        return self.identity() if acc is None else acc

    def __repr__(self):
        return self.describe()

    def describe(self) -> str:
        return type(self).__name__


def _check_same_owner(a: GroupElement, b: GroupElement) -> None:
    if a.group != b.group:
        raise GroupUsageError("elements belong to different groups")


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Product g*h in canonical normal form."""
    _check_same_owner(g, h)
    return GroupElement(g.group, g.group.multiply_payloads(g.payload, h.payload))


def invert(g: GroupElement) -> GroupElement:
    return GroupElement(g.group, g.group.invert_payload(g.payload))


def conjugate(g: GroupElement, by: GroupElement) -> GroupElement:
    """by * g * by^-1 in canonical normal form."""
    _check_same_owner(g, by)
    return multiply(multiply(by, g), invert(by))


def commutes_with_generators(g: GroupElement) -> bool:
    """Exact centrality test: g commutes with every designated generator.

    Because generators generate, a True result proves g is central.
    """
    return all(conjugate(g, gen) == g for _, gen in g.group.generators())


def reduce_word(group: StructuredGroup, letters: Sequence[Letter]) -> GroupElement:
    """Canonical normal form of a generator word."""
    return group.reduce_letters(letters)


def render_word(g: GroupElement) -> list[Letter]:
    """A generator word that reduce_word maps back to g."""
    return g.group.render_payload(g.payload)


def generator_steps(group: StructuredGroup) -> list[tuple[Any, Any, int, int]]:
    """The letters of a word of length one, each distinct payload once: the
    generators and their inverses, as (payload, inverse payload, bit,
    inverse bit).  The bit of step i is 1 << i, and the inverse bit is the
    bit of the step whose payload is the inverse, so a search can mark on a
    found element the step that leads back to where it was found from."""
    letters: dict[Any, Any] = {}
    for _, payload in group.generator_payloads():
        inverse = group.invert_payload(payload)
        letters.setdefault(payload, inverse)
        letters.setdefault(inverse, payload)
    bits = {s: 1 << i for i, s in enumerate(letters)}
    return [(s, s_inv, bits[s], bits[s_inv]) for s, s_inv in letters.items()]


def search_levels(group: StructuredGroup, start, conjugate: bool, seen=None, cut=0) -> Iterator[list]:
    """Level 0, 1, 2, ... of a breadth-first search from the payload start,
    whose step by a letter s is x -> x * s (a ball, when start is the
    identity) or, with conjugate, x -> s x s^-1 (a conjugation orbit), for s
    over generator_steps.  Level r holds the payloads first reached by r
    steps; it is built from level r - 1 alone, since every word of length r
    is a word of length r - 1 and one more letter.  Ends after the last
    nonempty level, or, with cut = r >= 1, at the first payload found on
    level r, which comes as a level of its own.  A ball level comes sorted
    and is expanded in payload-key order; an orbit level comes in the order
    found, which its readers sort or only count.  Each search owns its
    generator; the group keeps nothing.

    Each edge between found payloads is crossed once.  The value of a found
    payload in `seen` (new, or the caller's empty dict) is a one-item list,
    so that marking it hashes nothing more, holding a bit mask of its steps
    that lead to a found payload: when the step s from g reaches x, found
    before or just now, x marks the step s^-1, which leads from x back to g
    (x * s^-1 = g, or s^-1 x s = g), and x never takes a marked step.  A
    skipped step only lands on a found payload, so every level is the same
    set, in the same order, as without skipping.  While level r is yielded,
    its payloads have marked exactly the steps that lead to level r - 1.
    """
    mul = group.multiply_payloads
    steps = generator_steps(group)
    seen = {} if seen is None else seen
    seen[start] = [0]
    level = [start]
    while level:
        yield level
        cut -= 1
        fresh = []
        for g in level:
            skip = seen[g][0]
            for s, s_inv, bit, back in steps:
                if skip & bit:
                    continue
                x = mul(mul(s, g), s_inv) if conjugate else mul(g, s)
                marks = seen.get(x)
                if marks is None:
                    if not cut:
                        yield [x]
                        return
                    seen[x] = [back]
                    fresh.append(x)
                else:
                    marks[0] |= back
        level = fresh if conjugate else sorted(fresh, key=group.payload_key)


def ball_levels(group: StructuredGroup, seen=None) -> Iterator[list]:
    """The levels of the ball, as payloads: level r holds the payloads of
    word length r in payload-key order (see search_levels)."""
    return search_levels(group, group.identity_payload(), False, seen)


def ball_with_lengths(group: StructuredGroup, radius: int) -> tuple[list[GroupElement], list[int]]:
    """All elements of word length <= radius over the designated generators,
    and the word length of each.

    Inverses of generators count as single letters.  Order: breadth-first by
    length, then by payload key; deterministic across runs.
    """
    if radius < 0:
        raise GroupUsageError("radius must be nonnegative")
    elements: list[GroupElement] = []
    lengths: list[int] = []
    for depth, level in zip(range(radius + 1), ball_levels(group)):
        elements.extend(GroupElement(group, p) for p in level)
        lengths.extend([depth] * len(level))
    return elements, lengths


class FiniteGroupTable:
    """A finite group given by an explicit multiplication table.

    Index 0 is the identity.  table[i][j] is the index of element i*j.
    Optional element names default to "1", "f1", "f2", ...
    """

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None):
        n = len(table)
        if n < 1:
            raise GroupUsageError("multiplication table must be nonempty")
        for row in table:
            if len(row) != n or any(not isinstance(x, int) or not (0 <= x < n) for x in row):
                raise GroupUsageError("multiplication table is not square over valid indices")
        self.size = n
        self.table = tuple(tuple(row) for row in table)
        if names is None:
            names = ["1"] + [f"f{i}" for i in range(1, n)]
        if len(names) != n or len(set(names)) != n:
            raise GroupUsageError("element names must be distinct and match the table size")
        self.names = tuple(names)
        self._validate()
        self.inverse = tuple(self._find_inverse(i) for i in range(n))

    def _validate(self):
        n = self.size
        t = self.table
        for i in range(n):
            if t[0][i] != i or t[i][0] != i:
                raise GroupUsageError("index 0 must be the identity of the table")
        for i in range(n):
            if sorted(t[i]) != list(range(n)) or sorted(t[j][i] for j in range(n)) != list(range(n)):
                raise GroupUsageError("table rows and columns must be permutations")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise GroupUsageError("multiplication table is not associative")

    def _find_inverse(self, i: int) -> int:
        for j in range(self.size):
            if self.table[i][j] == 0 and self.table[j][i] == 0:
                return j
        raise GroupUsageError(f"element {i} has no inverse in the table")

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def signature(self) -> tuple:
        return ("table", self.table, self.names)

    def subgroups(self) -> list[frozenset[int]]:
        """All subgroups, as frozensets of indices (identity included)."""
        found = {frozenset([0])}
        frontier = [frozenset([0])]
        while frontier:
            base = frontier.pop()
            for x in range(1, self.size):
                if x in base:
                    continue
                # {0} closed under right multiplication by base and x is <base, x>
                steps = [*base, x]
                closure = {0}
                reached = [0]
                for a in reached:
                    for step in steps:
                        c = self.table[a][step]
                        if c not in closure:
                            closure.add(c)
                            reached.append(c)
                extended = frozenset(closure)
                if extended not in found:
                    found.add(extended)
                    frontier.append(extended)
        return sorted(found, key=lambda s: (len(s), sorted(s)))


def cyclic_table(n: int, names: Optional[Sequence[str]] = None) -> FiniteGroupTable:
    """The multiplication table of Z/n."""
    if n < 1:
        raise GroupUsageError("cyclic table order must be >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroupTable(table, names)


# The most entries one KeyMemo stores; past it, values are computed, not stored.
KEY_MEMO_ENTRIES = 4096


class KeyMemo(dict):
    """part -> fn(part) for a pure function fn, computed on the first lookup
    and stored while the memo holds fewer than KEY_MEMO_ENTRIES entries.

    A construction keys each part of a payload (a syllable, an HNN tail)
    through one of these, so a sort does not rebuild the key of a part that
    many payloads share; amalgams and HNN extensions memoize their reduction
    steps the same way.  fn must not refer back to the owning group, so the
    group is still freed by reference count.  A concurrent miss stores the
    same value twice, which is harmless."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, part):
        value = self.fn(part)
        if len(self) < KEY_MEMO_ENTRIES:
            self[part] = value
        return value


def syllable_key_memo(factors: Sequence[StructuredGroup]) -> KeyMemo:
    """(side, payload) -> (side, key of the payload in factors[side])."""
    keys = tuple(factor.payload_key for factor in factors)
    return KeyMemo(lambda syllable: (syllable[0], keys[syllable[0]](syllable[1])))


class FiniteEdge:
    """A finite group E, given by its table, embedded in two groups (its
    sides): embeds[side] lists the image payload of each element of E, the
    identity's first, and lookups[side] maps an image back to its index.
    Amalgams and HNN extensions over a finite edge check, index and reduce
    by E through this."""

    SIDES = ("left", "right")  # the sides as error messages name them
    OWNER = "factor"  # what a side's group is called

    def __init__(self, table: FiniteGroupTable, embeds: Sequence[Sequence]):
        self.table = table
        self.embeds = tuple(map(tuple, embeds))
        for side, images in zip(self.SIDES, self.embeds):
            if len(images) != table.size:
                raise GroupUsageError(f"{side} embedding must list one image per edge element")
            if len(set(images)) != table.size:
                raise GroupUsageError(f"{side} embedding is not injective")
        self.lookups = tuple({p: i for i, p in enumerate(images)} for images in self.embeds)

    def check_homomorphisms(self, groups: Sequence[StructuredGroup]) -> None:
        """That each side's images form a homomorphic image of E in its group."""
        n, mul = self.table.size, self.table.mul
        for group, images in zip(groups, self.embeds):
            if images[0] != group.identity_payload():
                raise GroupUsageError(f"edge identity must embed to the {self.OWNER} identity")
            for i in range(n):
                for j in range(n):
                    if group.multiply_payloads(images[i], images[j]) != images[mul(i, j)]:
                        raise GroupUsageError("edge embedding is not a homomorphism")

    def index(self, group: StructuredGroup) -> float:
        """[group : E] for the group of a side, or INFINITE."""
        total = group.order()
        return INFINITE if total == INFINITE else total // self.table.size

    def coset_step(self, group: StructuredGroup, side: int, payload) -> tuple[Any, int]:
        """(rep, i) with rep the canonical representative of the coset
        payload*E in the group of the side, its member with the least
        payload key, and payload = rep * embeds[side][i]."""
        multiply, key = group.multiply_payloads, group.payload_key
        best = best_key = best_idx = None
        for idx, image in enumerate(self.embeds[side]):
            candidate = multiply(payload, image)
            candidate_key = key(candidate)
            if best_idx is None or candidate_key < best_key:
                best, best_key, best_idx = candidate, candidate_key, idx
        # best = payload * image, so payload = best * image^-1
        return best, self.table.inv(best_idx)


def unique_names(groups_names: Iterable[Iterable[str]]) -> None:
    seen: set[str] = set()
    for names in groups_names:
        for name in names:
            if name in seen:
                raise GroupUsageError(f"generator name {name!r} is not unique in the construction")
            seen.add(name)
