"""Shared fixtures and independent mini-oracles for cross-checking.

The independent oracles deliberately avoid the package's normal-form
machinery: they reduce words over explicit local rewrite rules so that
expected values are computed along a second, unrelated code path.
"""

from __future__ import annotations

import json
from importlib import resources

import pytest

from iccdec.groups import (
    CyclicPowerEdge,
    FiniteCyclic,
    FreeProduct,
    Hnn,
    InfiniteCyclic,
    free_group,
)

# one PASS/FAIL line per acceptance criterion, printed by the terminal
# summary hook below so they survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# independent oracle 1: free products of two finite cyclic groups, reduced as
# syllable strings (local rules only, no shared code with the package)


class CyclicFreeProductOracle:
    """Words over two cyclic generators, reduced by local exponent rules."""

    def __init__(self, order_a: int, order_b: int):
        self.orders = (order_a, order_b)

    def reduce(self, letters):
        # letters: sequence of (side, exponent)
        out = []
        for side, exp in letters:
            if out and out[-1][0] == side:
                new = (out[-1][1] + exp) % self.orders[side]
                out.pop()
                if new:
                    out.append((side, new))
            else:
                exp %= self.orders[side]
                if exp:
                    out.append((side, exp))
        return tuple(out)

    def mul(self, u, v):
        return self.reduce(list(u) + list(v))

    def inv(self, u):
        return self.reduce([(side, -exp) for side, exp in reversed(u)])

    def ball(self, radius: int):
        letters = []
        for side, order in enumerate(self.orders):
            letters.append(self.reduce([(side, 1)]))
            if order != 2:
                letters.append(self.reduce([(side, -1)]))
        seen = {(): 0}
        frontier = [()]
        for depth in range(1, radius + 1):
            new = []
            for w in frontier:
                for l in letters:
                    c = self.mul(w, l)
                    if c not in seen:
                        seen[c] = depth
                        new.append(c)
            frontier = new
        return seen

    def conjugacy_counts(self, element, radius: int):
        ball = self.ball(radius)
        first = {}
        for w, depth in ball.items():
            c = self.mul(self.mul(w, element), self.inv(w))
            first[c] = min(first.get(c, radius + 1), depth)
        return [sum(1 for d in first.values() if d <= r) for r in range(radius + 1)]


# ---------------------------------------------------------------------------
# independent oracle 2: one-step pinch rewriting for the HNN of Z over
# <a> -> <a^2> (t a t^-1 = a^2), on raw letter lists


def bs12_pinch_reduce(letters):
    """Reduce a word over {a, t} letters (name, exp) by repeatedly applying
    a-exponent merging and single pinches t^-1 a^(2k) t -> a^k and
    t a^k t^-1 -> a^(2k).  Returns the reduced letter list."""
    word = [(name, exp) for name, exp in letters if exp]
    changed = True
    while changed:
        changed = False
        merged = []
        for name, exp in word:
            if merged and merged[-1][0] == name:
                total = merged[-1][1] + exp
                merged.pop()
                if total:
                    merged.append((name, total))
                changed = True
            else:
                merged.append((name, exp))
        word = merged
        for i in range(len(word) - 2):
            n0, e0 = word[i]
            n1, e1 = word[i + 1]
            n2, e2 = word[i + 2]
            if n0 == "t" and n2 == "t" and n1 == "a":
                if e0 <= -1 and e2 >= 1 and e1 % 2 == 0:
                    replacement = []
                    if e0 + 1:
                        replacement.append(("t", e0 + 1))
                    replacement.append(("a", e1 // 2))
                    if e2 - 1:
                        replacement.append(("t", e2 - 1))
                    word = word[:i] + replacement + word[i + 3 :]
                    changed = True
                    break
                if e0 >= 1 and e2 <= -1:
                    replacement = []
                    if e0 - 1:
                        replacement.append(("t", e0 - 1))
                    replacement.append(("a", e1 * 2))
                    if e2 + 1:
                        replacement.append(("t", e2 + 1))
                    word = word[:i] + replacement + word[i + 3 :]
                    changed = True
                    break
        # t^e1 t^e2 merging happens via the first pass on the next loop
    return word


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def dihedral():
    return FreeProduct(FiniteCyclic(2, "a"), FiniteCyclic(2, "b"))


@pytest.fixture(scope="session")
def z2_star_z3():
    return FreeProduct(FiniteCyclic(2, "a"), FiniteCyclic(3, "b"))


@pytest.fixture(scope="session")
def f2():
    return free_group(["x", "y"])


@pytest.fixture(scope="session")
def bs12():
    return Hnn(InfiniteCyclic("a"), CyclicPowerEdge(1, 2))


@pytest.fixture(scope="session")
def corpus_dir():
    return resources.files("iccdec") / "corpus"


@pytest.fixture(scope="session")
def manifest(corpus_dir):
    return json.loads((corpus_dir / "manifest.json").read_text())


def load_corpus_descriptor(corpus_dir, name):
    from iccdec.descriptors import parse_descriptor_data

    return parse_descriptor_data(json.loads((corpus_dir / name).read_text()))


def enumerable_corpus_groups(manifest, corpus_dir):
    """(file, descriptor, group) for every corpus file `iccdec enumerate`
    accepts whose group has designated generators, in manifest order."""
    from iccdec.cli import _enumerable_group
    from iccdec.groups import GroupUsageError

    out = []
    for section in sorted(manifest):
        for entry in manifest[section]:
            descriptor = load_corpus_descriptor(corpus_dir, entry["file"])
            try:
                group, _ = _enumerable_group(descriptor)
            except GroupUsageError:
                continue
            if group.generators():
                out.append((entry["file"], descriptor, group))
    return out
