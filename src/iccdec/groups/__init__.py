"""Structured groups with canonical normal forms.

The public names below are imported from their submodules on first use.
"""

from .._lazy import exports

_EXPORTS = {
    "base": (
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
        "invert",
        "multiply",
        "reduce_word",
        "render_word",
    ),
    "cyclic": ("FiniteCyclic", "InfiniteCyclic"),
    "free_product": ("FreeProduct", "free_group"),
    "amalgam": ("Amalgam", "AmalgamEdge"),
    "hnn": ("CyclicPowerEdge", "FiniteHnnEdge", "Hnn"),
    "semidirect": ("SemidirectZnByZ",),
    "direct_product": ("DirectWithFinite",),
    "fiber_extension": ("FiberExtension", "FreePart", "TorsionPart"),
    "surface": ("SurfaceGroup",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = exports(__name__, _EXPORTS)
