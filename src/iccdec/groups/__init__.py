"""Structured groups with canonical normal forms."""

from .base import (
    INFINITE,
    FiniteGroupTable,
    GroupElement,
    GroupUsageError,
    NotEnumerableError,
    StructuredGroup,
    ball_with_lengths,
    commutes_with_generators,
    conjugate,
    cyclic_table,
    enumerate_ball,
    invert,
    multiply,
    reduce_word,
    render_word,
)
from .cyclic import FiniteCyclic, InfiniteCyclic
from .free_product import FreeProduct, free_group
from .amalgam import Amalgam, AmalgamEdge
from .hnn import CyclicPowerEdge, FiniteHnnEdge, Hnn, HnnEdge
from .semidirect import SemidirectZnByZ
from .direct_product import DirectWithFinite
from .fiber_extension import FiberExtension, FreePart, TorsionPart
from .surface import SurfaceGroup

__all__ = [
    "INFINITE",
    "FiniteGroupTable",
    "GroupElement",
    "GroupUsageError",
    "NotEnumerableError",
    "StructuredGroup",
    "ball_with_lengths",
    "commutes_with_generators",
    "conjugate",
    "cyclic_table",
    "enumerate_ball",
    "invert",
    "multiply",
    "reduce_word",
    "render_word",
    "FiniteCyclic",
    "InfiniteCyclic",
    "FreeProduct",
    "free_group",
    "Amalgam",
    "AmalgamEdge",
    "CyclicPowerEdge",
    "FiniteHnnEdge",
    "Hnn",
    "HnnEdge",
    "SemidirectZnByZ",
    "DirectWithFinite",
    "FiberExtension",
    "FreePart",
    "TorsionPart",
    "SurfaceGroup",
]
