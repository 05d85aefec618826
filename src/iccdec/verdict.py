"""Verdicts: ICC / NotICC / Unknown with citation-carrying reason chains."""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .citations import CITATIONS
from .groups.base import GroupElement, GroupUsageError, Record


class Status(Enum):
    ICC = "ICC"
    NOT_ICC = "NotICC"
    UNKNOWN = "Unknown"


class Citation(Record):
    label: str
    detail: str = ""

    def __post_init__(self):
        if self.label not in CITATIONS:
            raise GroupUsageError(f"citation label {self.label!r} is not in the fixed enumeration")

    def __str__(self):
        return f"{self.label} ({self.detail})" if self.detail else self.label


ReasonChain = tuple[Citation, ...]


class Witness(Record):
    """The finite-conjugacy-class evidence attached to a NotICC verdict.

    kind: "element" (a concrete group element), "symbolic" (a described
    element of a group with no arithmetic carrier), or "finite" (the whole
    group is finite, which already defeats ICC).
    """

    description: str
    element: Optional[GroupElement] = None
    finite: bool = False

    @property
    def kind(self) -> str:
        if self.element is not None:
            return "element"
        return "finite" if self.finite else "symbolic"


FINITE_GROUP_WITNESS = Witness(description="group is finite", finite=True)


class Verdict(Record):
    status: Status
    reasons: ReasonChain
    witness: Optional[Witness] = None

    def __post_init__(self):
        if not self.reasons:
            raise GroupUsageError("a verdict requires a nonempty reason chain")
        if self.status is Status.NOT_ICC and self.witness is None:
            raise GroupUsageError("a NotICC verdict requires a witness")

    def labels(self) -> list[str]:
        return [c.label for c in self.reasons]

    def __str__(self):
        parts = [self.status.value]
        if self.witness is not None:
            parts.append(f"witness: {self.witness.description}")
        parts.append("; ".join(str(c) for c in self.reasons))
        return " | ".join(parts)


def icc(*citations: Citation) -> Verdict:
    return Verdict(Status.ICC, tuple(citations))


def not_icc(witness: Witness, *citations: Citation) -> Verdict:
    return Verdict(Status.NOT_ICC, tuple(citations), witness)


def unknown(*citations: Citation) -> Verdict:
    return Verdict(Status.UNKNOWN, tuple(citations))
