"""Seifert presentations, Poincare-variety normalization, and the theorem
engine for manifolds, knots and links."""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest

from iccdec.cli import main
from iccdec.groups import (
    GroupUsageError,
    INFINITE,
    ball_with_lengths,
    commutes_with_generators,
    conjugate,
)
from iccdec.manifolds import (
    HomotopySpherePiece,
    HyperbolicKnot,
    HyperbolicPiece,
    LinkDescriptor,
    ManifoldDescriptor,
    OtherIrreduciblePiece,
    OtherKnot,
    SeifertInvariants,
    SeifertPiece,
    SphereBundlePiece,
    TorusBundlePiece,
    TorusKnot,
    decide_icc_knot,
    decide_icc_link,
    decide_icc_nonorientable,
    decide_icc_orientable,
    manifold_group,
    normalize,
    poincare_variety,
    seifert_group,
    torus_knot_group,
)
from iccdec.oracle import conjugacy_class_ball
from iccdec.verdict import Status

TREFOIL = SeifertInvariants(0, True, 1, ((2, 1), (3, 1)))


# ---------------------------------------------------------------------------
# Seifert invariants and presentations


def test_invariants_validation():
    with pytest.raises(GroupUsageError):
        SeifertInvariants(0, True, 0, ((2, 2),), 0)  # not coprime
    with pytest.raises(GroupUsageError):
        SeifertInvariants(0, True, 0, ())  # closed without euler obstruction
    with pytest.raises(GroupUsageError):
        SeifertInvariants(0, True, 1, (), 3)  # bounded with euler obstruction
    with pytest.raises(GroupUsageError):
        SeifertInvariants(0, False, 1)  # non-orientable base needs genus >= 1


def test_torus_base_gives_z3():
    sg = seifert_group(SeifertInvariants(1, True, 0, (), 0))
    group = sg.realization
    assert group is not None and sg.fiber_element is not None
    # Z^3: everything commutes and h is a basis vector
    assert commutes_with_generators(sg.fiber_element)
    names = [n for n, _ in group.generator_payloads()]
    assert "h" in names and len(names) == 3
    assert sg.order == INFINITE and sg.fiber_central


def test_trefoil_presentation_and_fiber():
    sg = seifert_group(TREFOIL)
    group = sg.realization
    x = group.generator_element("q1")
    y = group.generator_element("q2")
    h = sg.fiber_element
    # the emitted relators give q1^2 h = q2^3 h = 1, so x^2 = y^3 = h^-1;
    # renaming x -> x^-1, y -> y^-1 is the Tietze form < x, y | x^2 = y^3 >
    # with fiber x^2 (decisions ledger records the sign convention)
    assert x * x == y * y * y == ~h
    assert commutes_with_generators(h)
    # q h q^-1 h^-1: each generator commutes with the fiber
    for q in ("q1", "q2"):
        assert ((q, 1), ("h", 1), (q, -1), ("h", -1)) in sg.presentation.relators


def test_p2_base_realizes_infinite_dihedral():
    # the closed non-orientable genus-1 base with no exceptional fibers and
    # b = 0: the group is infinite dihedral and the fiber class has
    # conjugacy class {h, h^-1}
    sg = seifert_group(SeifertInvariants(1, False, 0, (), 0))
    group, h = sg.realization, sg.fiber_element
    assert not sg.fiber_central
    report = conjugacy_class_ball(group, h, 8)
    assert report.stabilized
    assert {c.payload for c in report.conjugates} == {h.payload, (~h).payload}
    assert sg.order == INFINITE
    # a1 h a1^-1 h: the cross-cap generator inverts the fiber
    assert (("a1", 1), ("h", 1), ("a1", -1), ("h", 1)) in sg.presentation.relators


def test_s2_two_fiber_data_is_cyclic_with_central_fiber():
    # the literal S^2(2,1)(2,1) data: with b = 1 the group is Z and h is
    # central, so its class is {h}, never {h, h^-1}
    sg = seifert_group(SeifertInvariants(0, True, 0, ((2, 1), (2, 1)), 1))
    assert sg.order == INFINITE
    assert sg.fiber_central
    report = conjugacy_class_ball(sg.realization, sg.fiber_element, 6)
    assert report.counts_by_radius[-1] == 1 and report.central_proven


def test_lens_orders_match_determinant_formula():
    rng = random.Random(31)
    for _ in range(100):
        a1, a2 = rng.randint(2, 6), rng.randint(2, 6)
        b1 = rng.choice([x for x in range(-5, 6) if x and gcd(a1, abs(x)) == 1])
        b2 = rng.choice([x for x in range(-5, 6) if x and gcd(a2, abs(x)) == 1])
        b = rng.randint(-3, 3)
        sg = seifert_group(SeifertInvariants(0, True, 0, ((a1, b1), (a2, b2)), b))
        expected = abs(a1 * a2 * b - a1 * b2 - a2 * b1)
        actual = 0 if sg.order == INFINITE else sg.order
        assert actual == expected
        if sg.realization is not None and sg.fiber_element is not None and expected:
            assert len(ball_with_lengths(sg.realization, 1)[0]) <= expected + 2


def _lens_lattice_check(fibers, b):
    """(order of Z^2 / L, order of h in it), 0 meaning infinite, found by
    brute force for the relation lattice L of the closed S^2 base.

    The relations q_i^a_i h^b_i and q1 q2 h^b on (q1, h), after
    q2 = -q1 - b h and with missing fibers as (1, 0) in front, span L =
    <(a1, b1), (-a2, b2 - a2 b)>.  The least positive first coordinate x0
    in L and the least k > 0 with (0, k) in L give the index x0 k; both are
    reached with coefficients at most max(a1, a2) in absolute value.
    """
    (a1, b1), (a2, b2) = [(1, 0)] * (2 - len(fibers)) + list(fibers)
    r1, r2 = (a1, b1), (-a2, b2 - a2 * b)
    bound = max(a1, a2)
    points = {
        (s * r1[0] + t * r2[0], s * r1[1] + t * r2[1])
        for s in range(-bound, bound + 1)
        for t in range(-bound, bound + 1)
    }
    x0 = min(x for x, _ in points if x > 0)
    h_order = min((y for x, y in points if x == 0 and y > 0), default=0)
    return x0 * h_order, h_order


def test_lens_carrier_matches_the_relation_lattice():
    fibers = [(a, c) for a in range(2, 5) for c in range(-4, 5) if gcd(a, c) == 1]
    data = [()] + [(f,) for f in fibers] + [(f, g) for f in fibers for g in fibers]
    groups_z = 0
    for b in range(-3, 4):
        for exceptional in data:
            sg = seifert_group(SeifertInvariants(0, True, 0, exceptional, b))
            order, h_order = _lens_lattice_check(exceptional, b)
            assert (0 if sg.order == INFINITE else sg.order) == order
            h = sg.fiber_element
            assert sg.realization.gen_name == ("c" if len(exceptional) == 2 else "h")
            if order:
                assert len(ball_with_lengths(sg.realization, order)[0]) == order
                assert min(k for k in range(1, order + 1) if (h ** k).is_identity()) == h_order
            else:
                groups_z += 1
                assert h_order == 0 and not h.is_identity()
    assert groups_z > 20


def test_lens_group_z_prints_the_fiber_as_the_positive_power(tmp_path, capsys):
    # fibers (3, -5), (3, -4) with b = -3: a1 = a2 and b2 = a1 b - b1, so
    # the group is Z and h = c^a1
    piece = {
        "kind": "seifert", "base_genus": 0, "base_orientable": True, "boundary_components": 0,
        "euler_obstruction": -3, "exceptional_fibers": [[3, -5], [3, -4]],
    }
    path = tmp_path / "lens.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "type": "manifold", "orientable": True, "pieces": [piece]}
    ))
    assert main(["decide", str(path)]) == 0
    assert "witness: fiber class h = c^3 (" in capsys.readouterr().out


@pytest.mark.parametrize("fibers, h", [(((2, 1), (3, 1)), "c^2"), (((3, 1), (2, 1)), "c^3")])
def test_lens_fiber_class_is_c_to_the_first_fiber_order(fibers, h):
    # h = c^a1, and Z/11 tells the two fiber orders apart; a group Z cannot,
    # since b1/a1 + b2/a2 is then an integer, which forces a1 = a2
    sg = seifert_group(SeifertInvariants(0, True, 0, fibers, -1))
    assert (sg.realization.describe(), repr(sg.fiber_element)) == ("Z/11", h)


def test_enumerate_accepts_the_fiber_name_decide_prints(tmp_path, capsys):
    # S^3 as Seifert data beside the trefoil complement: the S^3 piece is
    # dropped, so the lone kept piece's carrier is not suffixed
    s3 = {
        "kind": "seifert", "base_genus": 0, "base_orientable": True, "boundary_components": 0,
        "euler_obstruction": 1, "exceptional_fibers": [],
    }
    trefoil = {
        "kind": "seifert", "base_genus": 0, "base_orientable": True, "boundary_components": 1,
        "exceptional_fibers": [[2, 1], [3, 1]],
    }
    path = tmp_path / "s3_trefoil.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "type": "manifold", "orientable": True, "pieces": [s3, trefoil]}
    ))
    assert main(["decide", str(path), "--json"]) == 0
    fiber = json.loads(capsys.readouterr().out)["witness"]["element"]
    assert fiber == "h"
    argv = ["enumerate", str(path), "--element", fiber, "--radius", "2", "--window", "1", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["counts_by_radius"] == [1, 1, 1]


def test_finiteness_routing():
    poincare = seifert_group(SeifertInvariants(0, True, 0, ((2, 1), (3, 1), (5, 1)), -1))
    assert poincare.visibly_finite and poincare.order_class() != 1
    s3 = seifert_group(SeifertInvariants(0, True, 0, ((2, 1), (3, 1)), 1))
    assert s3.order_class() == 1
    # S^2 base with no exceptional fibers and b = 0 has infinite group Z:
    # positive orbifold Euler characteristic alone must not imply finite
    s2xs1 = seifert_group(SeifertInvariants(0, True, 0, (), 0))
    assert not s2xs1.visibly_finite and s2xs1.order == INFINITE
    flat = seifert_group(SeifertInvariants(0, True, 0, ((2, 1), (3, 1), (6, 1)), -1))
    assert not flat.visibly_finite  # orbifold Euler characteristic 0
    dicyclic = seifert_group(SeifertInvariants(1, False, 0, (), 2))
    assert dicyclic.visibly_finite and dicyclic.order_class() == "3+"


def test_solid_torus_group():
    sg = seifert_group(SeifertInvariants(0, True, 1))
    assert sg.realization is not None
    assert len(ball_with_lengths(sg.realization, 3)[0]) == 7  # Z on the fiber


@pytest.fixture
def seifert_builds(monkeypatch):
    """How many Seifert presentations and realizations have been built."""
    import iccdec.manifolds as manifolds

    counts = {}
    for name in ("_seifert_presentation", "_seifert_realization"):
        counts[name] = 0

        def counted(*args, _name=name, _build=getattr(manifolds, name)):
            counts[_name] += 1
            return _build(*args)

        monkeypatch.setattr(manifolds, name, counted)
    return counts


def test_a_decision_builds_no_seifert_presentation_or_realization(seifert_builds):
    torus_base = SeifertPiece(SeifertInvariants(1, True, 0, (), 1))
    lens2 = SeifertPiece(SeifertInvariants(0, True, 0, (), 2))
    multi = ManifoldDescriptor(True, (SeifertPiece(TREFOIL), lens2, torus_base))
    assert decide_icc_orientable(multi).status is Status.ICC
    projective_base = SeifertPiece(SeifertInvariants(1, False, 0, (), 0))
    verdict = decide_icc_nonorientable(ManifoldDescriptor(False, (projective_base,)))
    assert verdict.status is Status.NOT_ICC and verdict.witness.element is None
    assert seifert_builds == {"_seifert_presentation": 0, "_seifert_realization": 0}
    normal = normalize(multi)
    assert all("presentation" not in vars(p.seifert) for p in normal.pieces)
    assert seifert_builds == {"_seifert_presentation": 0, "_seifert_realization": 0}


def test_explain_and_manifold_group_build_what_they_read_once(seifert_builds, tmp_path, capsys):
    # a lone orientable Seifert piece's witness prints its fiber element
    lone = ManifoldDescriptor(True, (SeifertPiece(TREFOIL),))
    assert decide_icc_orientable(lone).witness.element is not None
    assert seifert_builds == {"_seifert_presentation": 0, "_seifert_realization": 1}
    sg = seifert_group(TREFOIL)
    assert sg.realization is sg.realization and sg.fiber_element is sg.fiber_element
    assert sg.presentation is sg.presentation
    assert seifert_builds == {"_seifert_presentation": 1, "_seifert_realization": 2}
    group, _ = manifold_group(lone)
    assert group.describe() == sg.realization.describe()
    assert seifert_builds == {"_seifert_presentation": 1, "_seifert_realization": 3}

    path = tmp_path / "two_seifert_pieces.json"
    pieces = [{"kind": "seifert", "base_genus": 0, "base_orientable": True,
               "boundary_components": 0, "exceptional_fibers": [[2, 1], [3, 1]],
               "euler_obstruction": b} for b in (0, 1, 2)]
    path.write_text(json.dumps({"schema_version": 1, "type": "manifold",
                                "orientable": True, "pieces": pieces}))
    assert main(["explain", str(path), "--json"]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert sum("presentation <" in line for line in trace) == 3
    assert seifert_builds == {"_seifert_presentation": 4, "_seifert_realization": 3}


# ---------------------------------------------------------------------------
# Poincare variety


def test_poincare_variety_drops_spheres():
    m = ManifoldDescriptor(True, (SeifertPiece(TREFOIL), HomotopySpherePiece()))
    normalized = poincare_variety(m)
    assert normalized.pieces == (SeifertPiece(TREFOIL),)
    assert normalized.boundary_spheres_capped


def test_poincare_variety_s3_case():
    m = ManifoldDescriptor(True, (HomotopySpherePiece(),))
    assert poincare_variety(m).pieces == (HomotopySpherePiece(),)


def test_poincare_variety_idempotent():
    m = ManifoldDescriptor(
        True,
        (SeifertPiece(TREFOIL), HomotopySpherePiece(), HyperbolicPiece(True)),
    )
    once = poincare_variety(m)
    assert poincare_variety(once) == once


# ---------------------------------------------------------------------------
# orientable decisions


def test_orientable_seifert_not_icc():
    verdict = decide_icc_orientable(ManifoldDescriptor(True, (SeifertPiece(TREFOIL),)))
    assert verdict.status is Status.NOT_ICC
    assert verdict.witness.element is not None
    assert "Theorem 12" in verdict.labels() and "Prop 2" in verdict.labels()


def test_orientable_hyperbolic_icc():
    verdict = decide_icc_orientable(ManifoldDescriptor(True, (HyperbolicPiece(True),)))
    assert verdict.status is Status.ICC
    assert verdict.labels() == ["Prop 21"]


def test_orientable_two_order_two_pieces_dihedral():
    lens2 = SeifertInvariants(0, True, 0, (), 2)
    m = ManifoldDescriptor(True, (SeifertPiece(lens2), SeifertPiece(lens2)))
    verdict = decide_icc_orientable(m)
    assert verdict.status is Status.NOT_ICC
    assert "Infinite dihedral" in verdict.labels()
    witness = verdict.witness.element
    report = conjugacy_class_ball(witness.group, witness, 8)
    assert report.stabilized and report.counts_by_radius[-1] == 2


def test_orientable_multi_piece_icc():
    lens2 = SeifertInvariants(0, True, 0, (), 2)
    lens3 = SeifertInvariants(0, True, 0, (), 3)
    m = ManifoldDescriptor(True, (SeifertPiece(lens2), SeifertPiece(lens3)))
    verdict = decide_icc_orientable(m)
    assert verdict.status is Status.ICC
    assert {"Kneser-Milnor", "Prop 3(i)"} <= set(verdict.labels())


def test_orientable_trivial_pieces_dropped_first():
    s3_data = SeifertInvariants(0, True, 0, ((2, 1), (3, 1)), 1)
    m = ManifoldDescriptor(
        True, (SeifertPiece(s3_data), SeifertPiece(TREFOIL), HomotopySpherePiece())
    )
    verdict = decide_icc_orientable(m)
    assert verdict.status is Status.NOT_ICC
    assert "Theorem 12" in verdict.labels()


def test_orientable_flag_routes():
    seifert_like = ManifoldDescriptor(
        True, (OtherIrreduciblePiece(INFINITE, normal_cyclic_infinite_subgroup=True),)
    )
    v1 = decide_icc_orientable(seifert_like)
    assert v1.status is Status.NOT_ICC
    assert "Seifert fibration conjecture" in v1.labels()
    aspherical = ManifoldDescriptor(
        True, (OtherIrreduciblePiece(INFINITE, normal_cyclic_infinite_subgroup=False),)
    )
    assert decide_icc_orientable(aspherical).status is Status.ICC
    unflagged = ManifoldDescriptor(True, (OtherIrreduciblePiece(INFINITE),))
    assert decide_icc_orientable(unflagged).status is Status.UNKNOWN
    finite = ManifoldDescriptor(True, (OtherIrreduciblePiece(12),))
    assert decide_icc_orientable(finite).witness.kind == "finite"


def test_orientable_input_validation():
    nonor = ManifoldDescriptor(False, (HyperbolicPiece(True),))
    with pytest.raises(GroupUsageError):
        decide_icc_orientable(nonor)
    with pytest.raises(GroupUsageError):
        decide_icc_orientable(
            ManifoldDescriptor(True, (TorusBundlePiece(((0, 1), (1, 0))),))
        )
    with pytest.raises(GroupUsageError):
        decide_icc_orientable(ManifoldDescriptor(True, (SphereBundlePiece(False),)))


def test_orientable_sphere_bundle():
    verdict = decide_icc_orientable(ManifoldDescriptor(True, (SphereBundlePiece(True),)))
    assert verdict.status is Status.NOT_ICC
    assert verdict.witness.element is not None


def test_verdict_invariant_under_normalization(manifest, corpus_dir):
    from conftest import load_corpus_descriptor

    for entry in manifest["manifolds"]:
        descriptor = load_corpus_descriptor(corpus_dir, entry["file"])
        m = descriptor.manifold
        decide = decide_icc_orientable if m.orientable else decide_icc_nonorientable
        assert decide(m).status == decide(poincare_variety(m)).status, entry["file"]


# ---------------------------------------------------------------------------
# non-orientable decisions


def test_nonorientable_flag_routes():
    modp = ManifoldDescriptor(
        False,
        (OtherIrreduciblePiece(INFINITE, contains_nonstandard_p2xi=False, seifert_mod_p=True),),
    )
    v = decide_icc_nonorientable(modp)
    assert v.status is Status.NOT_ICC and "Theorem 15" in v.labels()
    not_modp = ManifoldDescriptor(
        False,
        (OtherIrreduciblePiece(INFINITE, contains_nonstandard_p2xi=False, seifert_mod_p=False),),
    )
    v = decide_icc_nonorientable(not_modp)
    assert v.status is Status.ICC and "Prop 18" in v.labels()
    nonstandard = ManifoldDescriptor(
        False, (OtherIrreduciblePiece(INFINITE, contains_nonstandard_p2xi=True),)
    )
    assert decide_icc_nonorientable(nonstandard).status is Status.UNKNOWN
    missing_flag = ManifoldDescriptor(False, (OtherIrreduciblePiece(INFINITE),))
    assert decide_icc_nonorientable(missing_flag).status is Status.UNKNOWN


def test_nonorientable_seifert_piece_symbolic_witness():
    m = ManifoldDescriptor(False, (SeifertPiece(SeifertInvariants(1, False, 0, (), 0)),))
    verdict = decide_icc_nonorientable(m)
    assert verdict.status is Status.NOT_ICC
    assert verdict.witness.kind == "symbolic"
    assert "Prop 2" in verdict.labels()


def test_nonorientable_dihedral_refusal():
    lens2 = SeifertInvariants(0, True, 0, (), 2)
    m = ManifoldDescriptor(False, (SeifertPiece(lens2), SeifertPiece(lens2)))
    verdict = decide_icc_nonorientable(m)
    assert verdict.status is Status.UNKNOWN


def test_nonorientable_hyperbolic_chain():
    verdict = decide_icc_nonorientable(ManifoldDescriptor(False, (HyperbolicPiece(True),)))
    assert verdict.status is Status.ICC
    assert verdict.labels() == ["Prop 21", "Lemma 5"]


def test_nonorientable_rejects_orientable_input():
    with pytest.raises(GroupUsageError):
        decide_icc_nonorientable(ManifoldDescriptor(True, (HyperbolicPiece(True),)))


def test_nonorientable_normal_cyclic_flag_route():
    m = ManifoldDescriptor(
        False,
        (
            OtherIrreduciblePiece(
                INFINITE,
                normal_cyclic_infinite_subgroup=True,
                contains_nonstandard_p2xi=False,
            ),
        ),
    )
    verdict = decide_icc_nonorientable(m)
    assert verdict.status is Status.NOT_ICC
    assert "Theorem 19" in verdict.labels()


# ---------------------------------------------------------------------------
# fiber-class oracle agreement for Seifert realizations


def test_seifert_fiber_class_within_h_and_inverse(manifest, corpus_dir):
    from conftest import load_corpus_descriptor

    checked = 0
    for entry in manifest["manifolds"]:
        descriptor = load_corpus_descriptor(corpus_dir, entry["file"])
        m = descriptor.manifold
        if not m.orientable:
            continue
        for piece in m.pieces:
            if not isinstance(piece, SeifertPiece):
                continue
            sg = seifert_group(piece.invariants)
            if sg.realization is None or sg.fiber_element is None or sg.order_class() == 1:
                continue
            report = conjugacy_class_ball(sg.realization, sg.fiber_element, 6)
            allowed = {sg.fiber_element.payload, (~sg.fiber_element).payload}
            assert {c.payload for c in report.conjugates} <= allowed, entry["file"]
            checked += 1
    assert checked >= 4


# ---------------------------------------------------------------------------
# knots and links


def test_torus_knot_not_icc():
    verdict = decide_icc_knot(TorusKnot(2, 3))
    assert verdict.status is Status.NOT_ICC
    assert "Cor 20" in verdict.labels() and "Knot group infinite" in verdict.labels()
    witness = verdict.witness.element
    group, center = torus_knot_group(2, 3)
    x = group.generator_element("x")
    assert witness == center == x * x


def test_unknot_and_hyperbolic_knot():
    unknot = decide_icc_knot(TorusKnot(1, 1))
    assert unknot.status is Status.NOT_ICC
    fig8 = decide_icc_knot(HyperbolicKnot())
    assert fig8.status is Status.ICC
    assert "Cor 20" in fig8.labels()


def test_knot_flag_routes():
    assert decide_icc_knot(OtherKnot(is_torus=True)).status is Status.NOT_ICC
    assert decide_icc_knot(OtherKnot(is_torus=False)).status is Status.ICC


def test_torus_knot_validation():
    with pytest.raises(GroupUsageError):
        TorusKnot(2, 4)


def test_link_routes():
    assert decide_icc_link(LinkDescriptor(2, True)).status is Status.NOT_ICC
    assert decide_icc_link(LinkDescriptor(3, False)).status is Status.ICC
    assert decide_icc_link(LinkDescriptor(2, None)).status is Status.UNKNOWN


# ---------------------------------------------------------------------------
# manifold_group realizations


def test_manifold_group_realizations():
    lens2 = SeifertInvariants(0, True, 0, (), 2)
    m = ManifoldDescriptor(True, (SeifertPiece(lens2), SeifertPiece(lens2)))
    group, note = manifold_group(m)
    assert "free product" in note
    assert len(ball_with_lengths(group, 2)[0]) == 5  # infinite dihedral ball
    with pytest.raises(GroupUsageError):
        manifold_group(ManifoldDescriptor(False, (HyperbolicPiece(True),)))
    with pytest.raises(GroupUsageError):
        manifold_group(ManifoldDescriptor(True, (HyperbolicPiece(True),)))


def test_three_fiber_signs_match_exact_fractions():
    # the three-fiber case reads only the signs of the orbifold Euler
    # characteristic and the Euler number, compared here with Fraction
    pairs = [
        (alpha, beta)
        for alpha in range(2, 8)
        for beta in range(1 - alpha, alpha)
        if gcd(alpha, beta) == 1
    ]
    for fibers in combinations_with_replacement(pairs, 3):
        chi = 2 - sum(Fraction(alpha - 1, alpha) for alpha, _ in fibers)
        for b in range(-3, 4):
            euler_number = b - sum(Fraction(beta, alpha) for alpha, beta in fibers)
            expected = "finite_ge_3" if chi > 0 and euler_number != 0 else "exact"
            result = seifert_group(SeifertInvariants(0, True, 0, fibers, b))
            assert result.order_kind == expected, (fibers, b)


def test_readme_library_example_runs_as_printed(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    verdict, counts = capsys.readouterr().out.splitlines()
    assert verdict.startswith("NotICC | witness: fiber class h")
    assert verdict == str(namespace["verdict"])
    assert counts == str((1,) + (2,) * 10)
