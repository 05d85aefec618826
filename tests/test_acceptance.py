"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each criterion prints one PASS/FAIL line (written through the raw stdout so
the lines appear even under pytest capture).  Golden values marked FROZEN
were recorded from this implementation's first verified run and are
cross-checked against independent oracles in the module tests.
"""

import json
import random
import sys
import time
from contextlib import contextmanager

import pytest

from iccdec.cli import _decide
from iccdec.eisenstein import E_ONE, figure8_group, mat_det, mat_trace
from iccdec.groups import (
    Amalgam,
    AmalgamEdge,
    CyclicPowerEdge,
    DirectWithFinite,
    FiberExtension,
    FiniteCyclic,
    FiniteHnnEdge,
    FreePart,
    FreeProduct,
    GroupUsageError,
    Hnn,
    InfiniteCyclic,
    SemidirectZnByZ,
    SurfaceGroup,
    TorsionPart,
    ball_with_lengths,
    commutes_with_generators,
    cyclic_table,
    free_group,
    reduce_word,
    render_word,
)
from iccdec.manifolds import (
    HomotopySpherePiece,
    HyperbolicPiece,
    SeifertPiece,
    SphereBundlePiece,
    TorusBundlePiece,
    TorusKnot,
    decide_icc_knot,
    decide_icc_orientable,
    poincare_variety,
    seifert_group,
)
from iccdec.descriptors import parse_word
from iccdec.oracle import conjugacy_class_ball, strong_icc_witness
from iccdec.rules import (
    MonodromyClass,
    classify_monodromy,
    decide_structured_group,
    icc_torus_bundle,
)
from iccdec.verdict import Status
from conftest import load_corpus_descriptor

# FROZEN golden values (first verified run; see tests/test_oracle.py and
# tests/test_matrix_groups.py for the independent cross-checks)
GOLDEN_Z2Z3_AB_COUNTS = [1, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
GOLDEN_FIG8_A_COUNTS = [1, 3, 9, 27, 80, 230, 658]


@contextmanager
def criterion(number: int, name: str):
    import conftest

    start = time.monotonic()
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {number} ({name}): FAIL"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    elapsed = time.monotonic() - start
    line = f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def test_acceptance_1_dihedral_gate(dihedral):
    with criterion(1, "dihedral gate"):
        start = time.monotonic()
        verdict = decide_structured_group(dihedral)
        assert verdict.status is Status.NOT_ICC
        ab = dihedral.reduce_letters([("a", 1), ("b", 1)])
        report = conjugacy_class_ball(dihedral, ab, 10)
        assert report.counts_by_radius[3] == 2
        assert all(report.counts_by_radius[r] == 2 for r in range(3, 11))
        assert report.stabilized
        assert time.monotonic() - start < 1.0


def test_acceptance_2_free_product_growth(z2_star_z3):
    with criterion(2, "Prop 3(i) growth"):
        verdict = decide_structured_group(z2_star_z3)
        assert verdict.status is Status.ICC
        ab = z2_star_z3.reduce_letters([("a", 1), ("b", 1)])
        report = conjugacy_class_ball(z2_star_z3, ab, 10)
        assert report.counts_by_radius[-1] >= 25
        assert list(report.counts_by_radius) == GOLDEN_Z2Z3_AB_COUNTS


def test_acceptance_3_monodromy_trichotomy():
    with criterion(3, "Lemma 10 trichotomy"):
        start = time.monotonic()
        cases = [
            ([[0, -1], [1, 0]], MonodromyClass.ELLIPTIC, Status.NOT_ICC),
            ([[1, 1], [0, 1]], MonodromyClass.PARABOLIC, Status.NOT_ICC),
            ([[2, 1], [1, 1]], MonodromyClass.HYPERBOLIC, Status.ICC),
        ]
        for matrix, expected_class, expected_status in cases:
            assert classify_monodromy(matrix) is expected_class
            assert icc_torus_bundle(matrix).status is expected_status
        parabolic_group = SemidirectZnByZ(2, [[1, 1], [0, 1]])
        eigenvector = parabolic_group.element(((1, 0), 0))
        report = conjugacy_class_ball(parabolic_group, eigenvector, 10)
        assert set(report.counts_by_radius) == {1}
        assert report.stabilized
        assert [c.payload for c in report.conjugates] == [((1, 0), 0)]
        hyperbolic_group = SemidirectZnByZ(2, [[2, 1], [1, 1]])
        report = conjugacy_class_ball(hyperbolic_group, hyperbolic_group.element(((1, 0), 0)), 10)
        counts = report.counts_by_radius
        assert all(counts[r] < counts[r + 1] for r in range(1, 10))
        assert time.monotonic() - start < 5.0


def test_acceptance_4_fiber_centrality_and_knot_agreement():
    with criterion(4, "Prop 2 / Lemma 1 fiber"):
        start = time.monotonic()
        trefoil = seifert_group(
            __import__("iccdec").SeifertInvariants(0, True, 1, ((2, 1), (3, 1)))
        )
        h = trefoil.fiber_element
        assert commutes_with_generators(h)  # proof of centrality: generators generate
        x = trefoil.realization.generator_element("q1")
        manifold = __import__("iccdec").ManifoldDescriptor(
            True, (SeifertPiece(trefoil.invariants),)
        )
        seifert_verdict = decide_icc_orientable(manifold)
        assert seifert_verdict.status is Status.NOT_ICC
        assert seifert_verdict.witness.element == h
        knot_verdict = decide_icc_knot(TorusKnot(2, 3))
        assert knot_verdict.status is seifert_verdict.status is Status.NOT_ICC
        # equivalent witnesses through the generator correspondence q1 <-> x:
        # both are the central fiber, equal to the square of the first
        # generator up to inverse (the relator sign convention; see the
        # decisions ledger note on h = x^-2 vs x^2)
        assert h in (x * x, ~(x * x))
        knot_group = knot_verdict.witness.element.group
        knot_x = knot_group.generator_element("x")
        assert knot_verdict.witness.element in (knot_x * knot_x, ~(knot_x * knot_x))
        assert commutes_with_generators(knot_verdict.witness.element)
        assert time.monotonic() - start < 1.0


def test_acceptance_5_theorem13_corpus(manifest, corpus_dir):
    with criterion(5, "Theorem 13 corpus consistency"):
        orientable_entries = []
        kinds_seen = set()
        agreements = 0
        for entry in manifest["manifolds"]:
            descriptor = load_corpus_descriptor(corpus_dir, entry["file"])
            manifold = descriptor.manifold
            verdict = _decide(descriptor)
            assert verdict.status.value == entry["expected_status"], entry["file"]
            if not manifold.orientable:
                continue
            orientable_entries.append(entry["file"])
            for piece in manifold.pieces:
                kinds_seen.add(type(piece).__name__)
                if isinstance(piece, TorusBundlePiece):
                    kinds_seen.add(f"torus_bundle_{classify_monodromy(piece.monodromy).value}")
            if len(manifold.pieces) > 1:
                kinds_seen.add("multi_piece")
            # verdict invariance under Poincare-variety normalization
            normalized_verdict = decide_icc_orientable(poincare_variety(manifold))
            assert normalized_verdict.status == verdict.status, entry["file"]
            # property (ii) agreement: an infinite cyclic normal subgroup
            # exists exactly when the verdict is NotICC (100% required)
            if "property_ii" in entry:
                assert verdict.status in (Status.ICC, Status.NOT_ICC)
                assert entry["property_ii"] == (verdict.status is Status.NOT_ICC), entry["file"]
                agreements += 1
        assert len(orientable_entries) >= 12
        required_kinds = {
            "SeifertPiece",
            "HyperbolicPiece",
            "TorusBundlePiece",
            "torus_bundle_Elliptic",
            "torus_bundle_Parabolic",
            "torus_bundle_Hyperbolic",
            "SphereBundlePiece",
            "HomotopySpherePiece",
            "multi_piece",
        }
        assert required_kinds <= kinds_seen
        assert agreements >= 10


def test_acceptance_6_witness_sequences(manifest, corpus_dir):
    with criterion(6, "Prop 24 witness sequences"):
        start = time.monotonic()
        icc_checked = exhaustion_checked = 0
        for entry in manifest["groups"]:
            descriptor = load_corpus_descriptor(corpus_dir, entry["file"])
            group = descriptor.group
            verdict = decide_structured_group(group)
            assert verdict.status.value == entry["expected_status"], entry["file"]
            if verdict.status is Status.ICC:
                sample = group.reduce_letters(parse_word(entry["icc_sample"]))
                assert not sample.is_identity()
                result = strong_icc_witness(group, [sample], 5, 10)
                assert result.verified, entry["file"]
                assert result.used_radius <= 10
                icc_checked += 1
            elif verdict.status is Status.NOT_ICC:
                witness = verdict.witness
                assert witness.kind == "element", entry["file"]
                report = conjugacy_class_ball(group, witness.element, 6)
                assert report.stabilized, entry["file"]
                size = report.counts_by_radius[-1]
                result = strong_icc_witness(group, [witness.element], size + 1, 6)
                assert not result.verified, entry["file"]
                assert len(result.gammas) == size
                exhaustion_checked += 1
        assert icc_checked >= 8 and exhaustion_checked >= 7
        assert time.monotonic() - start < 30.0


def test_acceptance_7_figure_eight_evidence():
    with criterion(7, "Prop 21 matrix evidence"):
        start = time.monotonic()
        group = figure8_group()
        a = group.generator_element("A")
        elements, _ = ball_with_lengths(group, 6)
        trace_a = mat_trace(a.payload)
        for w in elements:
            assert mat_det(w.payload) == E_ONE
            assert mat_trace((w * a * ~w).payload) == trace_a
        report = conjugacy_class_ball(group, a, 6)
        counts = report.counts_by_radius
        assert all(counts[r] < counts[r + 1] for r in range(2, 6))
        assert list(counts) == GOLDEN_FIG8_A_COUNTS
        witness = strong_icc_witness(group, [a], 10, 8)
        assert witness.verified
        assert time.monotonic() - start < 60.0


def _random_word(group, rng, max_len):
    names = [name for name, _ in group.generator_payloads()]
    return [(rng.choice(names), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, max_len))]


def _suite_constructions():
    f2 = free_group(["x", "y"])
    base_with_torsion = DirectWithFinite(InfiniteCyclic("a"), cyclic_table(2, names=["1", "z"]))
    return [
        ("finite cyclic", FiniteCyclic(6, "a")),
        ("infinite cyclic", InfiniteCyclic("t")),
        ("free product", FreeProduct(FiniteCyclic(2, "a"), FiniteCyclic(3, "b"))),
        (
            "amalgam",
            Amalgam(
                FiniteCyclic(4, "p"),
                FiniteCyclic(6, "q"),
                AmalgamEdge(cyclic_table(2), [0, 2], [0, 3]),
            ),
        ),
        ("hnn cyclic-power", Hnn(InfiniteCyclic("a"), CyclicPowerEdge(1, 2))),
        (
            "hnn finite edge",
            Hnn(
                base_with_torsion,
                FiniteHnnEdge(
                    cyclic_table(2),
                    [base_with_torsion.identity_payload(), (0, 1)],
                    [base_with_torsion.identity_payload(), (0, 1)],
                ),
            ),
        ),
        ("semidirect", SemidirectZnByZ(2, [[2, 1], [1, 1]])),
        ("direct with finite", DirectWithFinite(f2, cyclic_table(2, names=["1", "w"]))),
        (
            "fiber extension",
            FiberExtension(
                [TorsionPart("u", 2, -1), TorsionPart("v", 3, -1), FreePart("c", -1)]
            ),
        ),
        ("surface", SurfaceGroup(1, True, 1)),
    ]


def test_acceptance_8_normal_form_suites(bs12):
    with criterion(8, "normal-form suites"):
        for label, group in _suite_constructions():
            rng = random.Random(hash(label) & 0xFFFF)
            identity = group.identity()
            for _ in range(1000):
                word = _random_word(group, rng, 5)
                element = reduce_word(group, word)
                # canonicity: reducing a rendered normal form is a fixpoint
                assert reduce_word(group, render_word(element)) == element, label
                u = reduce_word(group, _random_word(group, rng, 4))
                v = reduce_word(group, _random_word(group, rng, 4))
                assert (element * u) * v == element * (u * v), label
                assert element * ~element == identity, label
                assert element * identity == element, label
        # the matrix construction has no generator-word rendering; its
        # canonical form is the matrix itself, so only the group laws apply
        group = figure8_group()
        rng = random.Random(99)
        gens = [e for _, e in group.generators()]
        for _ in range(1000):
            picks = [rng.choice(gens) for _ in range(3)]
            x = picks[0] * ~picks[1] * picks[2]
            y, z = picks[1] * picks[2], ~picks[0]
            assert (x * y) * z == x * (y * z)
            assert x * ~x == group.identity()
        # Britton non-pinch on reduced outputs of the BS(1,2)-style instance
        rng = random.Random(4242)
        edge = bs12.edge
        for _ in range(1000):
            element = reduce_word(bs12, _random_word(bs12, rng, 8))
            syllables, _tail = element.payload
            if syllables:
                assert not element.is_identity()
            for (rep1, eps1), (rep2, eps2) in zip(syllables, syllables[1:]):
                if eps1 == -1 and eps2 == 1:
                    assert not edge.contains(1, rep2)
                if eps1 == 1 and eps2 == -1:
                    assert not edge.contains(0, rep2)


# ---------------------------------------------------------------------------
# supporting corpus invariants (rule/oracle agreement)


def test_corpus_rule_oracle_agreement(manifest, corpus_dir):
    # NotICC witnesses stabilize at class size <= 2 within radius 8 (window
    # 3); ICC samples grow strictly over radii 4..8 and pass 25 distinct
    # conjugates within radius 8 (counts are monotone in the radius, so the
    # radius-10 bound of the contract follows)
    for entry in manifest["groups"]:
        descriptor = load_corpus_descriptor(corpus_dir, entry["file"])
        group = descriptor.group
        verdict = decide_structured_group(group)
        if verdict.status is Status.NOT_ICC:
            report = conjugacy_class_ball(group, verdict.witness.element, 8)
            assert report.stabilized, entry["file"]
            assert report.counts_by_radius[-1] <= 2, entry["file"]
        elif verdict.status is Status.ICC:
            sample = group.reduce_letters(parse_word(entry["icc_sample"]))
            report = conjugacy_class_ball(group, sample, 8)
            counts = report.counts_by_radius
            assert all(counts[r] < counts[r + 1] for r in range(4, 8)), entry["file"]
            assert counts[-1] > 25, entry["file"]


def test_corpus_knots_links_statuses(manifest, corpus_dir):
    for entry in manifest["knots_links"]:
        descriptor = load_corpus_descriptor(corpus_dir, entry["file"])
        verdict = _decide(descriptor)
        assert verdict.status.value == entry["expected_status"], entry["file"]


def test_corpus_elliptic_symbolic_witness_realized(corpus_dir):
    # the elliptic torus-bundle verdict carries a symbolic fiber witness;
    # its coordinate realization (0, k) with phi^k = 1 has a singleton class
    descriptor = load_corpus_descriptor(corpus_dir, "manifold_torus_bundle_elliptic.json")
    verdict = _decide(descriptor)
    assert verdict.status is Status.NOT_ICC and verdict.witness.kind == "symbolic"
    group = SemidirectZnByZ(2, [[0, -1], [1, 0]])
    fiber = group.element(((0, 0), 4))
    report = conjugacy_class_ball(group, fiber, 8)
    assert report.counts_by_radius[-1] == 1 and report.central_proven
