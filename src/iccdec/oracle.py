"""Brute-force conjugacy evidence at desk scale.

Everything here is evidence, not proof, with one exception: when an element
commutes with every designated generator, that is an exact proof that its
conjugacy class is the singleton {g} (generators generate).  Class-ball
counts are lower bounds for the true class sizes, because conjugates are
distinct canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .groups.base import (
    GroupElement,
    GroupUsageError,
    StructuredGroup,
    ball_with_lengths,
    commutes_with_generators,
    conjugate,
    generator_steps,
)


@dataclass(frozen=True)
class ClassBallReport:
    """Conjugates of an element reachable with conjugators of bounded length."""

    element: GroupElement
    radius: int
    window: int
    conjugates: tuple[GroupElement, ...]
    counts_by_radius: tuple[int, ...]
    stabilized: bool
    central_proven: bool

    @property
    def count(self) -> int:
        return self.counts_by_radius[-1]

    def summary(self) -> str:
        state = "stabilized" if self.stabilized else "still growing"
        extra = ", central (proven against the generating set)" if self.central_proven else ""
        return (
            f"class ball of {self.element!r}: {self.count} conjugates within "
            f"radius {self.radius} ({state}{extra})"
        )


def _class_levels(g: GroupElement, depth: int) -> list[list[GroupElement]]:
    """Breadth-first search of the conjugation orbit c -> s c s^-1, with s
    over the generators and their distinct inverses.

    Level r holds the conjugates of g whose shortest conjugator has length r,
    sorted by payload key.  Every word of length r is s*w' with |w'| = r-1,
    and a conjugate first reached at r+1 is s c s^-1 for some c first reached
    at r, so level r+1 is built from level r alone and an empty level ends
    the orbit.  Returns the nonempty levels among 0..depth.
    """
    steps = generator_steps(g.group)
    levels = [[g]]
    seen = {g.payload}
    while len(levels) <= depth:
        fresh = {}
        for c in levels[-1]:
            for s in steps:
                x = conjugate(c, s)
                if x.payload not in seen and x.payload not in fresh:
                    fresh[x.payload] = x
        if not fresh:
            break
        seen.update(fresh)
        levels.append(sorted(fresh.values(), key=lambda e: e.key()))
    return levels


def conjugacy_class_ball(
    group: StructuredGroup, g: GroupElement, radius: int, window: int = 3
) -> ClassBallReport:
    """All distinct w g w^-1 with |w| <= radius, grouped by conjugator length.

    Computed as a breadth-first search of the conjugation orbit of g (see
    _class_levels), not by conjugating g with every element of the
    radius ball: level r of the orbit is exactly the set of conjugates first
    reached with a conjugator of length r.

    stabilized is True when the conjugate set did not change over the last
    `window` radius increments.  Deterministic output order: first radius of
    appearance, then payload key.
    """
    if g.group != group:
        raise GroupUsageError("element does not belong to the given group")
    if window < 1 or radius < window:
        raise GroupUsageError("need radius >= window >= 1")
    levels = _class_levels(g, radius)
    sizes = [len(level) for level in levels] + [0] * (radius + 1 - len(levels))
    counts_by_radius = tuple(accumulate(sizes))
    stabilized = counts_by_radius[-1] == counts_by_radius[-1 - window]
    return ClassBallReport(
        element=g,
        radius=radius,
        window=window,
        conjugates=tuple(c for level in levels for c in level),
        counts_by_radius=counts_by_radius,
        stabilized=stabilized,
        central_proven=commutes_with_generators(g),
    )


def fc_center_candidates(
    group: StructuredGroup, radius: int, window: int
) -> list[GroupElement]:
    """Nontrivial elements of ball(radius - window) whose class ball
    stabilized by `radius`: an over-approximation of the finite-class union
    restricted to the ball.  Evidence only, never proof of finiteness.

    Orbit levels are nested (an empty level stays empty), so a class ball
    stabilizes by `radius` exactly when its orbit level radius - window + 1
    is empty; each orbit search stops at that depth.
    """
    if window < 1 or radius < window:
        raise GroupUsageError("need radius >= window >= 1")
    depth = radius - window + 1
    candidates, _ = ball_with_lengths(group, radius - window)
    return [
        g
        for g in candidates
        if not g.is_identity() and len(_class_levels(g, depth)) <= depth
    ]


@dataclass(frozen=True)
class WitnessSequence:
    """Conjugators realizing pairwise-distinct conjugates for every target.

    verified is True when the sequence has the requested length and, for
    every f in the target set, the conjugates gamma_j f gamma_j^-1 are
    pairwise distinct.  A verified=False result is an exhaustion report: the
    ball was scanned completely and only len(gammas) conjugators were found.
    """

    target_set: tuple[GroupElement, ...]
    gammas: tuple[GroupElement, ...]
    verified: bool
    search_radius: int
    used_radius: int

    def summary(self) -> str:
        seq = ", ".join(repr(g) for g in self.gammas)
        if self.verified:
            return (
                f"verified sequence of length {len(self.gammas)} within radius "
                f"{self.used_radius} (searched {self.search_radius}): {seq}"
            )
        return (
            f"exhausted ball of radius {self.search_radius}; longest sequence "
            f"has length {len(self.gammas)}: {seq}"
        )


def strong_icc_witness(
    group: StructuredGroup,
    targets: Sequence[GroupElement],
    k: int,
    search_radius: int,
) -> WitnessSequence:
    """Greedy breadth-first realization of the strong-ICC property.

    Scans ball elements in the deterministic ball order and keeps gamma
    whenever, for every f in the target set, gamma f gamma^-1 differs from
    all previously kept conjugates of f.  This is the coset-avoidance step
    gamma_(m+1) not in the union of Z(f) gamma_j, tested through the
    defining inequalities rather than through explicit centralizers.
    """
    if k < 1:
        raise GroupUsageError("sequence length k must be >= 1")
    if not targets:
        raise GroupUsageError("the target set must be nonempty")
    for f in targets:
        if f.group != group:
            raise GroupUsageError("target elements must belong to the given group")
        if f.is_identity():
            raise GroupUsageError("target elements must be nontrivial")
    gammas: list[GroupElement] = []
    seen_per_target: list[set] = [set() for _ in targets]
    used_radius = 0
    # scan level by level so a successful search never enumerates deeper
    # levels; only an exhaustion report pays for the whole ball
    for depth in range(search_radius + 1):
        ball, lengths = ball_with_lengths(group, depth)
        for w, length in zip(ball, lengths):
            if length != depth:
                continue
            conjugates = [conjugate(f, w) for f in targets]
            if any(c.payload in seen for c, seen in zip(conjugates, seen_per_target)):
                continue
            gammas.append(w)
            used_radius = max(used_radius, length)
            for c, seen in zip(conjugates, seen_per_target):
                seen.add(c.payload)
            if len(gammas) == k:
                return WitnessSequence(
                    target_set=tuple(targets),
                    gammas=tuple(gammas),
                    verified=True,
                    search_radius=search_radius,
                    used_radius=used_radius,
                )
    return WitnessSequence(
        target_set=tuple(targets),
        gammas=tuple(gammas),
        verified=False,
        search_radius=search_radius,
        used_radius=used_radius,
    )
