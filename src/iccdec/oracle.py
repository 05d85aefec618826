"""Brute-force conjugacy evidence at desk scale.

Everything here is evidence, not proof, with one exception: when an element
commutes with every designated generator, that is an exact proof that its
conjugacy class is the singleton {g} (generators generate).  Class-ball
counts are lower bounds for the true class sizes, because conjugates are
distinct canonical forms.

A search radius is at most MAX_SEARCH_RADIUS, checked before any work: a
class ball lists one count per radius, so a larger radius costs memory even
when the orbit has closed.
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Sequence

from .groups.base import (
    GroupElement,
    GroupUsageError,
    Record,
    StructuredGroup,
    ball_levels,
    ball_with_lengths,
    search_levels,
)

MAX_SEARCH_RADIUS = 10_000


def _check_radius(radius: int) -> None:
    if radius > MAX_SEARCH_RADIUS:
        raise GroupUsageError(f"a search radius is at most {MAX_SEARCH_RADIUS}, not {radius}")


class ClassBallReport(Record):
    """Conjugates of an element reachable with conjugators of bounded length."""

    element: GroupElement
    radius: int
    window: int
    conjugates: tuple[GroupElement, ...]
    counts_by_radius: tuple[int, ...]
    stabilized: bool
    central_proven: bool


def _class_levels(group: StructuredGroup, g, depth: int) -> list[list]:
    """The nonempty levels among 0..depth of the conjugation orbit of the
    payload g (see search_levels): level r holds the payloads of the
    conjugates whose shortest conjugator has length r, in the order found,
    and an empty level ends the orbit.  Level depth is never expanded.

    conjugacy_class_ball sorts the levels it returns, and
    fc_center_candidates only counts them.
    """
    return list(islice(search_levels(group, g, True), depth + 1))


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
    _check_radius(radius)
    key = g.group.payload_key
    levels = [sorted(level, key=key) for level in _class_levels(g.group, g.payload, radius)]
    sizes = [len(level) for level in levels] + [0] * (radius + 1 - len(levels))
    counts_by_radius = tuple(accumulate(sizes))
    stabilized = counts_by_radius[-1] == counts_by_radius[-1 - window]
    return ClassBallReport(
        element=g,
        radius=radius,
        window=window,
        conjugates=tuple(GroupElement(g.group, c) for level in levels for c in level),
        counts_by_radius=counts_by_radius,
        stabilized=stabilized,
        # radius >= 1 builds orbit level 1, which is empty exactly when
        # every generator and every inverse fixes g, that is when g is central
        central_proven=len(levels) == 1,
    )


def fc_center_candidates(
    group: StructuredGroup, radius: int, window: int
) -> list[GroupElement]:
    """Nontrivial elements of ball(radius - window) whose class ball
    stabilized by `radius`, in ball order: an over-approximation of the
    finite-class union restricted to the ball.  Evidence only, never proof
    of finiteness.

    Orbit levels are nested (an empty level stays empty), so a class ball
    stabilizes by `radius` exactly when its orbit level radius - window + 1
    is empty, which is when _class_levels to that depth returns at most
    `depth` levels; each orbit search stops there.  Conjugation commutes
    with inversion, s g^-1 s^-1 = (s g s^-1)^-1, so the orbit of g^-1 has
    the level sizes of the orbit of g.  The ball is closed under inverses,
    and one search answers for both elements of an inverse pair.
    """
    if window < 1 or radius < window:
        raise GroupUsageError("need radius >= window >= 1")
    _check_radius(radius)
    depth = radius - window + 1
    inv = group.invert_payload
    candidates, _ = ball_with_lengths(group, radius - window)
    nontrivial = candidates[1:]  # the ball starts with the identity
    closes = {}
    for g in nontrivial:
        if g.payload not in closes:
            closes[g.payload] = closes[inv(g.payload)] = (
                len(_class_levels(group, g.payload, depth)) <= depth
            )
    return [g for g in nontrivial if closes[g.payload]]


class WitnessSequence(Record):
    """Conjugators realizing pairwise-distinct conjugates for every target.

    verified is True when the sequence has the requested length and, for
    every f in the target set, the conjugates gamma_j f gamma_j^-1 are
    pairwise distinct.  A verified=False result is an exhaustion report: no
    element of the search ball extends the len(gammas) conjugators found,
    either because the ball was scanned completely or because a target's
    conjugation orbit closed with every conjugate already taken.
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

    Scans ball elements level by level in the deterministic ball order and
    keeps gamma whenever, for every f in the target set, gamma f gamma^-1
    differs from all previously kept conjugates of f.  This is the
    coset-avoidance step gamma_(m+1) not in the union of Z(f) gamma_j, tested
    through the defining inequalities rather than through explicit
    centralizers.

    The scan stops early, with the same result as a full scan, when a level
    gives some target no new conjugate while every conjugate of it reached
    so far is kept.  Conjugates reached by words of length <= r are closed
    under the generators once level r adds none (the argument of
    search_levels), so they are the whole class of that target, and every
    later candidate would repeat a kept conjugate of it.
    """
    if k < 1:
        raise GroupUsageError("sequence length k must be >= 1")
    if search_radius < 0:
        raise GroupUsageError("search radius must be >= 0")
    _check_radius(search_radius)
    if not targets:
        raise GroupUsageError("the target set must be nonempty")
    for f in targets:
        if f.group != group:
            raise GroupUsageError("target elements must belong to the given group")
        if f.is_identity():
            raise GroupUsageError("target elements must be nontrivial")
    mul = group.multiply_payloads
    inv = group.invert_payload
    payloads = [f.payload for f in targets]
    kept = [set() for _ in targets]  # conjugates by the gammas, per target
    reached = [set() for _ in targets]  # conjugates by every scanned element
    gammas: list[GroupElement] = []
    used_radius = 0
    for depth, level in zip(range(search_radius + 1), ball_levels(group)):
        sizes = [len(r) for r in reached]
        for p in level:
            p_inv = inv(p)
            conjugates = [mul(mul(p, f), p_inv) for f in payloads]
            for c, r in zip(conjugates, reached):
                r.add(c)
            if any(c in taken for c, taken in zip(conjugates, kept)):
                continue
            gammas.append(GroupElement(group, p))
            used_radius = depth
            for c, taken in zip(conjugates, kept):
                taken.add(c)
            if len(gammas) == k:
                return WitnessSequence(
                    target_set=tuple(targets),
                    gammas=tuple(gammas),
                    verified=True,
                    search_radius=search_radius,
                    used_radius=used_radius,
                )
        if any(len(r) == size == len(taken) for r, size, taken in zip(reached, sizes, kept)):
            break
    return WitnessSequence(
        target_set=tuple(targets),
        gammas=tuple(gammas),
        verified=False,
        search_radius=search_radius,
        used_radius=used_radius,
    )
