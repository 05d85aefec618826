"""The lazy package barrels, and which modules one CLI call executes."""

import json
import os
import subprocess
import sys

import pytest

import iccdec
from iccdec import groups

# The names the two barrels exported when they imported every submodule,
# less the API deleted since.
PACKAGE_NAMES = [
    "CITATIONS",
    "Citation", "Status", "Verdict", "Witness",
    "MonodromyClass", "classify_monodromy", "decide_structured_group", "icc_torus_bundle",
    "HomotopySpherePiece", "HyperbolicKnot", "HyperbolicPiece", "LinkDescriptor",
    "ManifoldDescriptor", "OtherIrreduciblePiece", "OtherKnot", "SeifertInvariants",
    "SeifertPiece", "SphereBundlePiece", "TorusBundlePiece", "TorusKnot",
    "decide_icc_knot", "decide_icc_link", "decide_icc_nonorientable",
    "decide_icc_orientable", "manifold_group", "poincare_variety", "seifert_group",
    "torus_knot_group",
    "ClassBallReport", "WitnessSequence", "conjugacy_class_ball", "fc_center_candidates",
    "strong_icc_witness",
    "EisensteinInt", "MatrixGroupSL2Eisenstein", "figure8_group",
    "groups",
]
GROUPS_ALL = [
    "INFINITE", "FiniteGroupTable", "GroupElement", "GroupUsageError",
    "NotEnumerableError", "StructuredGroup", "ball_with_lengths",
    "commutes_with_generators", "conjugate", "cyclic_table", "invert",
    "multiply", "reduce_word", "render_word", "FiniteCyclic", "InfiniteCyclic",
    "FreeProduct", "free_group", "Amalgam", "AmalgamEdge", "CyclicPowerEdge",
    "FiniteHnnEdge", "Hnn", "SemidirectZnByZ", "DirectWithFinite",
    "FiberExtension", "FreePart", "TorsionPart", "SurfaceGroup",
]


def _defining_module(value):
    return sys.modules[value.__module__]


def test_package_names_resolve_and_are_listed():
    assert sorted(iccdec.__all__) == sorted(PACKAGE_NAMES)
    listed = dir(iccdec)
    for name in PACKAGE_NAMES:
        value = getattr(iccdec, name)
        assert name in listed
        if name not in ("CITATIONS", "groups"):
            assert getattr(_defining_module(value), name) is value
    assert iccdec.groups is groups
    assert iccdec.CITATIONS is sys.modules["iccdec.citations"].CITATIONS


def test_groups_names_resolve_and_all_is_unchanged():
    assert groups.__all__ == GROUPS_ALL
    listed = dir(groups)
    for name in GROUPS_ALL:
        value = getattr(groups, name)
        assert name in listed
        if name != "INFINITE":
            assert getattr(_defining_module(value), name) is value
    assert groups.INFINITE is sys.modules["iccdec.groups.base"].INFINITE


def test_star_imports_give_every_name():
    for package, names in ((iccdec, PACKAGE_NAMES), (groups, GROUPS_ALL)):
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(names) <= set(namespace)


def test_unknown_names_raise_attribute_error():
    assert not hasattr(iccdec, "no_such_name")
    assert not hasattr(groups, "no_such_name")
    assert iccdec.rules is sys.modules["iccdec.rules"]
    assert groups.hnn is sys.modules["iccdec.groups.hnn"]


# ---------------------------------------------------------------------------
# modules executed by one call, each in a fresh interpreter

_PROBE = r"""
import json, runpy, sys, types

if sys.argv[1:]:
    sys.argv = ["iccdec", *sys.argv[1:]]
    try:
        runpy.run_module("iccdec.cli", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
else:
    import iccdec
ours = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "iccdec"}
unbound = []
for name, module in ours.items():
    parent, _, child = name.rpartition(".")
    if parent and vars(sys.modules[parent]).get(child) is not module:
        unbound.append(name)
executed = sorted(n for n, m in ours.items() if type(m) is types.ModuleType)
report = {"executed": executed, "unbound": unbound, "modules": sorted(sys.modules)}
print(json.dumps(report), file=sys.stderr)
"""
# What the interpreter loads by itself, with the json the probes report in.
_BARE = "import json, sys; print(json.dumps(sorted(sys.modules)), file=sys.stderr)"


def _run(program, *argv):
    src = os.path.dirname(os.path.dirname(iccdec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", program, *argv], env=env, capture_output=True, text=True
    )
    return json.loads(proc.stderr.splitlines()[-1])


def _probe(*argv) -> dict:
    report = _run(_PROBE, *argv)
    assert report["unbound"] == []
    return report


def _executed(command, corpus_dir, name) -> set:
    path = os.path.join(corpus_dir, name)
    return set(_probe(command, path, "--json")["executed"])


def test_import_executes_the_oracle_and_no_engine():
    executed = set(_probe()["executed"])
    assert "iccdec.oracle" in executed
    assert not executed & {"iccdec.descriptors", "iccdec.rules", "iccdec.manifolds"}


@pytest.mark.parametrize("command", ["decide", "explain"])
@pytest.mark.parametrize(
    "name", ["group_z2_star_z3.json", "group_bs12.json", "group_figure_eight_matrix.json"]
)
def test_group_call_never_executes_the_manifold_engine(corpus_dir, command, name):
    executed = _executed(command, corpus_dir, name)
    assert "iccdec.rules" in executed
    assert "iccdec.manifolds" not in executed
    assert ("iccdec.eisenstein" in executed) == ("matrix" in name)


@pytest.mark.parametrize("command", ["decide", "explain"])
@pytest.mark.parametrize("name", ["knot_trefoil.json", "knot_unknot.json", "link_hopf.json"])
def test_knot_and_link_calls_never_execute_the_group_rules(corpus_dir, command, name):
    executed = _executed(command, corpus_dir, name)
    assert "iccdec.manifolds" in executed
    assert not executed & {"iccdec.rules", "iccdec.eisenstein"}



@pytest.mark.parametrize(
    "name",
    ["group_bs12.json", "group_f2_as_hnn.json", "group_hnn_icc_base.json", "group_hnn_z_x_z2.json"],
)
def test_hnn_decide_never_executes_the_amalgam(corpus_dir, name):
    executed = _executed("decide", corpus_dir, name)
    assert "iccdec.groups.hnn" in executed
    assert "iccdec.groups.amalgam" not in executed


@pytest.mark.parametrize(
    "argv, construction",
    [
        (["enumerate", "group_bs12.json", "--element", "a"], "iccdec.groups.hnn"),
        (["witness", "group_z2_star_z3.json", "--set", "a b"], "iccdec.groups.free_product"),
    ],
)
def test_enumerable_group_call_never_executes_the_surface_group(corpus_dir, argv, construction):
    command, name, *option = argv
    executed = set(_probe(command, os.path.join(corpus_dir, name), *option)["executed"])
    assert construction in executed
    assert not executed & {"iccdec.groups.surface", "iccdec.groups.semidirect"}


def test_matrix_decide_executes_no_other_construction(corpus_dir):
    # the rule engine tests the matrix class last; it used to execute the
    # module of every construction class it tested first, 18 modules in all
    executed = _executed("decide", corpus_dir, "group_figure_eight_matrix.json")
    constructions = {name for name in executed if name.startswith("iccdec.groups.")}
    assert constructions == {"iccdec.groups.base", "iccdec.groups.cyclic"}
    assert "iccdec.eisenstein" in executed
    assert len(executed) < 18


# the constructions a manifold, knot or link carrier may build, and the
# parser of group descriptors
_GROUP_BUILDING = {
    "iccdec.groups.fiber_extension",
    "iccdec.groups.semidirect",
    "iccdec.groups.free_product",
    "iccdec.constructions",
}


@pytest.mark.parametrize("command", ["decide", "explain"])
@pytest.mark.parametrize(
    "name",
    ["link_hopf.json", "knot_figure_eight.json", "manifold_hyperbolic.json", "manifold_s2xs1.json"],
)
def test_a_call_that_builds_no_group_executes_no_construction(corpus_dir, command, name):
    executed = _executed(command, corpus_dir, name)
    assert "iccdec.manifolds" in executed
    assert not executed & _GROUP_BUILDING


@pytest.mark.parametrize("command", ["decide", "explain"])
@pytest.mark.parametrize("name", ["group_torus_bundle_hyperbolic.json", "group_bs12.json"])
def test_a_group_with_no_free_product_never_executes_it(corpus_dir, command, name):
    executed = _executed(command, corpus_dir, name)
    assert "iccdec.groups.free_product" not in executed
    assert "iccdec.constructions" in executed


@pytest.mark.parametrize("command", [["decide"], ["explain", "--json"]])
@pytest.mark.parametrize(
    "name", ["group_bs12.json", "manifold_trefoil_plus_sphere.json", "knot_trefoil.json"]
)
def test_a_call_loads_no_costly_standard_module(corpus_dir, command, name):
    # dataclasses pulls in inspect, ast, dis and tokenize, and fractions pulls
    # in decimal and numbers: milliseconds of every call's start-up
    loaded = set(_probe(*command, os.path.join(corpus_dir, name))["modules"])
    loaded -= set(_run(_BARE))
    assert not loaded & {"dataclasses", "inspect", "fractions"}
