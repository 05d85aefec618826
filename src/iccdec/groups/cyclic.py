"""Cyclic groups: Z/n with residue payloads and Z with integer payloads."""

from __future__ import annotations

from .base import INFINITE, GroupUsageError, StructuredGroup


class _OneGenerator(StructuredGroup):
    """A cyclic group on the generator gen_name, with integer payloads: the
    power of the generator, and 0 for the identity."""

    gen_name: str

    def identity_payload(self):
        return 0

    def render_payload(self, payload):
        return [(self.gen_name, payload)] if payload else []

    def payload_str(self, payload):
        if payload == 0:
            return "1"
        if payload == 1:
            return self.gen_name
        return f"{self.gen_name}^{payload}"


class FiniteCyclic(_OneGenerator):
    """Z/n, n >= 1, written multiplicatively on one generator."""

    def __init__(self, n: int, name: str = "a"):
        if not isinstance(n, int) or n < 1:
            raise GroupUsageError("FiniteCyclic order must be an integer >= 1")
        self.n = n
        self.gen_name = name

    def signature(self):
        return ("finite_cyclic", self.n, self.gen_name)

    def multiply_payloads(self, a, b):
        return (a + b) % self.n

    def invert_payload(self, a):
        return (-a) % self.n

    def generator_payloads(self):
        if self.n == 1:
            return []
        return [(self.gen_name, 1 % self.n)]

    def payload_key(self, payload):
        return (payload,)

    def order(self):
        return self.n

    def describe(self):
        return f"Z/{self.n}"


class InfiniteCyclic(_OneGenerator):
    """Z, written multiplicatively on one generator (default name t)."""

    def __init__(self, name: str = "t"):
        self.gen_name = name

    def signature(self):
        return ("infinite_cyclic", self.gen_name)

    def multiply_payloads(self, a, b):
        return a + b

    def invert_payload(self, a):
        return -a

    def generator_payloads(self):
        return [(self.gen_name, 1)]

    def payload_key(self, payload):
        return (abs(payload), 0 if payload >= 0 else 1)

    def order(self):
        return INFINITE

    def describe(self):
        return "Z"
