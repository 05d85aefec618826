"""The ICC decision combinators and their contracts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iccdec.citations import CITATIONS
from iccdec.groups import (
    Amalgam,
    AmalgamEdge,
    CyclicPowerEdge,
    DirectWithFinite,
    FiniteCyclic,
    FiniteGroupTable,
    FiniteHnnEdge,
    FreeProduct,
    GroupUsageError,
    Hnn,
    INFINITE,
    InfiniteCyclic,
    SemidirectZnByZ,
    SurfaceGroup,
    ball_with_lengths,
    conjugate,
    cyclic_table,
    free_group,
    reduce_word,
)
from iccdec.oracle import conjugacy_class_ball, fc_center_candidates
from iccdec.rules import (
    MonodromyClass,
    classify_monodromy,
    decide_structured_group,
    icc_amalgam,
    icc_finite_index_descend,
    icc_free_product,
    icc_hnn,
    icc_index_two_lift,
    icc_surface,
    icc_torus_bundle,
)
from iccdec.verdict import Status, Verdict, Witness, Citation


# ---------------------------------------------------------------------------
# free products


def test_free_product_dihedral_case():
    verdict = icc_free_product(2, 2)
    assert verdict.status is Status.NOT_ICC
    assert verdict.witness is not None
    assert "Infinite dihedral" in verdict.labels()


def test_free_product_icc_cases():
    assert icc_free_product(2, 3).status is Status.ICC
    assert icc_free_product(INFINITE, 2).status is Status.ICC
    assert "Prop 3(i)" in icc_free_product(3, 2).labels()


def test_free_product_order_one_rejected():
    with pytest.raises(GroupUsageError):
        icc_free_product(1, 5)


def test_free_product_symmetry():
    rng = random.Random(2)
    for _ in range(50):
        left = rng.choice([2, 3, 4, 7, INFINITE])
        right = rng.choice([2, 3, 4, 7, INFINITE])
        assert icc_free_product(left, right).status is icc_free_product(right, left).status


# Z/n for n in 1..4, or Z for None
_LEAF = st.sampled_from([1, 2, 3, 4, None])


@st.composite
def _free_products(draw):
    """A product of 2 to 4 factors, one of them itself a product of 2 or 3."""
    kinds = draw(st.lists(_LEAF, min_size=2, max_size=4))
    nested_at = draw(st.integers(0, len(kinds) - 1))
    inner = draw(st.lists(_LEAF, min_size=2, max_size=3))
    names = iter(range(8))

    def leaf(n):
        name = f"g{next(names)}"
        return InfiniteCyclic(name) if n is None else FiniteCyclic(n, name)

    factors = [leaf(n) for n in kinds[:nested_at]]
    factors.append(FreeProduct(*map(leaf, inner)))
    factors += [leaf(n) for n in kinds[nested_at + 1 :]]
    return FreeProduct(*factors)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(group=_free_products())
def test_free_product_verdicts_agree_with_the_oracle(group):
    verdict = decide_structured_group(group)
    witness = verdict.witness
    if verdict.status is Status.NOT_ICC and witness.kind == "element":
        assert conjugacy_class_ball(group, witness.element, 6).stabilized
    if verdict.status is Status.ICC:
        # the finite groups here are cyclic of order at most 4, and their
        # balls are exhausted by radius 3
        _, lengths = ball_with_lengths(group, 3)
        assert lengths[-1] == 3


def _assert_icc_agrees_with_the_oracle(group):
    """An ICC group has no fc candidate at (4, 2), since an infinite class
    has no empty orbit level, and its radius-3 ball is not exhausted.  The
    rules answer no amalgam or HNN extension NotICC."""
    if decide_structured_group(group).status is Status.ICC:
        assert fc_center_candidates(group, 4, 2) == []
        _, lengths = ball_with_lengths(group, 3)
        assert lengths[-1] == 3


# Z/2k for k in 1..3, Z for None, or Z/2 * Z/3
_FACTOR = st.sampled_from([2, 4, 6, None, "Z/2 * Z/3"])


def _factor(kind, name):
    """The factor, and a word for an element of order 2 in it (None in Z)."""
    if kind is None:
        return InfiniteCyclic(name), None
    if kind == "Z/2 * Z/3":
        group = FreeProduct(FiniteCyclic(2, f"{name}2"), FiniteCyclic(3, f"{name}3"))
        return group, [(f"{name}2", 1)]
    return FiniteCyclic(kind, name), [(name, kind // 2)]


# ---------------------------------------------------------------------------
# amalgams


def psl2z_shaped():
    edge = AmalgamEdge(cyclic_table(2), [0, 2], [0, 3])
    return Amalgam(FiniteCyclic(4, "p"), FiniteCyclic(6, "q"), edge)


def test_amalgam_trivial_edge_is_icc():
    edge = AmalgamEdge(cyclic_table(1), [0], [0])
    group = Amalgam(FiniteCyclic(2, "a"), FiniteCyclic(3, "b"), edge)
    assert icc_amalgam(group).status is Status.ICC


def test_amalgam_with_central_edge_is_unknown():
    verdict = icc_amalgam(psl2z_shaped())
    assert verdict.status is Status.UNKNOWN
    assert "Prop 3(iii)" in verdict.labels()


def test_amalgam_edge_normal_in_neither_factor_is_icc(corpus_dir):
    from conftest import load_corpus_descriptor

    descriptor = load_corpus_descriptor(corpus_dir, "group_s3_amalgam_s3.json")
    verdict = icc_amalgam(descriptor.group)
    assert verdict.status is Status.ICC
    assert "Prop 3(iii)" in verdict.labels()


def test_amalgam_index_hypotheses():
    # [Z/4 : Z/2] = 2 on both sides: the (3, 2) index hypothesis fails
    edge = AmalgamEdge(cyclic_table(2), [0, 2], [0, 2])
    group = Amalgam(FiniteCyclic(4, "p"), FiniteCyclic(4, "q"), edge)
    verdict = icc_amalgam(group)
    assert verdict.status is Status.UNKNOWN
    assert "Hypotheses not met" in verdict.labels()


def test_amalgam_prop3ii_uses_factor_verdict():
    f2 = free_group(["x", "y"])
    other = FiniteCyclic(5, "c")
    edge = AmalgamEdge(cyclic_table(1), [f2.identity_payload()], [0])
    group = Amalgam(f2, other, edge)
    factor_verdicts = (decide_structured_group(f2), decide_structured_group(other))
    verdict = icc_amalgam(group, factor_verdicts)
    assert verdict.status is Status.ICC
    assert "Prop 3(ii)" in verdict.labels()


def test_amalgam_requires_amalgam():
    with pytest.raises(GroupUsageError):
        icc_amalgam(FiniteCyclic(3))


@st.composite
def _amalgams(draw):
    """Two factors over a trivial edge, or over Z/2 when both have an
    element of order 2."""
    (left, left_two), (right, right_two) = (_factor(draw(_FACTOR), name) for name in "pq")
    if left_two is not None and right_two is not None and draw(st.booleans()):
        images = [
            [side.identity_payload(), reduce_word(side, word).payload]
            for side, word in ((left, left_two), (right, right_two))
        ]
        return Amalgam(left, right, AmalgamEdge(cyclic_table(2), *images))
    edge = AmalgamEdge(cyclic_table(1), [left.identity_payload()], [right.identity_payload()])
    return Amalgam(left, right, edge)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(group=_amalgams())
def test_amalgam_verdicts_agree_with_the_oracle(group):
    _assert_icc_agrees_with_the_oracle(group)


# ---------------------------------------------------------------------------
# HNN extensions


def test_hnn_icc_base_route(z2_star_z3):
    edge = FiniteHnnEdge(cyclic_table(1), [z2_star_z3.identity_payload()], [z2_star_z3.identity_payload()])
    group = Hnn(z2_star_z3, edge)
    verdict = icc_hnn(group, decide_structured_group(z2_star_z3))
    assert verdict.status is Status.ICC
    assert verdict.labels()[-1] == "Prop 3(iv)"


def test_hnn_trivial_edge_vacuous(bs12):
    f2_shaped = Hnn(InfiniteCyclic("a"), FiniteHnnEdge(cyclic_table(1), [0], [0]))
    verdict = icc_hnn(f2_shaped)
    assert verdict.status is Status.ICC
    assert "Prop 3(v)" in verdict.labels()
    assert icc_hnn(bs12).status is Status.ICC


def test_hnn_normal_finite_edge_subgroup_unknown():
    base = DirectWithFinite(InfiniteCyclic("a"), cyclic_table(2, names=["1", "z"]))
    edge = FiniteHnnEdge(
        cyclic_table(2),
        [base.identity_payload(), (0, 1)],
        [base.identity_payload(), (0, 1)],
    )
    verdict = icc_hnn(Hnn(base, edge))
    assert verdict.status is Status.UNKNOWN
    assert "Prop 3(v)" in verdict.labels()


def test_hnn_equal_power_edges_unknown():
    klein_shaped = Hnn(InfiniteCyclic("a"), CyclicPowerEdge(2, -2))
    verdict = icc_hnn(klein_shaped)
    assert verdict.status is Status.UNKNOWN


def test_hnn_properness_precondition():
    whole = Hnn(InfiniteCyclic("a"), CyclicPowerEdge(1, 1))
    verdict = icc_hnn(whole)
    assert verdict.status is Status.UNKNOWN
    assert "Hypotheses not met" in verdict.labels()


@st.composite
def _hnn_extensions(draw):
    """BS(m, n) as a cyclic_power edge over Z, or a trivial or Z/2 finite
    edge over a free product of two factors."""
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 3)), draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        return Hnn(InfiniteCyclic("a"), CyclicPowerEdge(m, n))
    factors = [_factor(draw(_FACTOR), name) for name in "pq"]
    base = FreeProduct(*(factor for factor, _ in factors))
    order_two = [reduce_word(base, word).payload for _, word in factors if word is not None]
    identity = base.identity_payload()
    if order_two and draw(st.booleans()):
        domain, range_ = draw(st.sampled_from(order_two)), draw(st.sampled_from(order_two))
        edge = FiniteHnnEdge(cyclic_table(2), [identity, domain], [identity, range_])
    else:
        edge = FiniteHnnEdge(cyclic_table(1), [identity], [identity])
    return Hnn(base, edge)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(group=_hnn_extensions())
def test_hnn_verdicts_agree_with_the_oracle(group):
    _assert_icc_agrees_with_the_oracle(group)


# ---------------------------------------------------------------------------
# finite index up and down


def test_finite_index_descend(z2_star_z3):
    verdict = icc_finite_index_descend(decide_structured_group(z2_star_z3))
    assert verdict.status is Status.ICC
    assert verdict.labels()[-1] == "Lemma 4"


def test_finite_index_descend_matches_free_subgroup_growth(f2):
    # the rank-2 free subgroup of finite index in Z/2 * Z/3: its classes
    # grow, as the oracle confirms on F2 directly
    report = conjugacy_class_ball(f2, f2.generator_element("x"), 6)
    counts = report.counts_by_radius
    assert all(counts[i] < counts[i + 1] for i in range(len(counts) - 1))


def test_finite_index_descend_requires_icc(dihedral):
    with pytest.raises(GroupUsageError):
        icc_finite_index_descend(decide_structured_group(dihedral))


def test_index_two_lift(z2_star_z3):
    sub = decide_structured_group(z2_star_z3)
    assert icc_index_two_lift(sub, False).status is Status.ICC
    lifted = icc_index_two_lift(sub, True)
    assert lifted.status is Status.NOT_ICC
    assert lifted.witness is not None and "involution" in lifted.witness.description
    torsion_free = icc_index_two_lift(sub, True, torsion_free=True)
    assert torsion_free.status is Status.ICC
    assert torsion_free.labels()[-1] == "Lemma 5"


# ---------------------------------------------------------------------------
# monodromy classification


def test_monodromy_examples():
    assert classify_monodromy([[1, 5], [0, 1]]) is MonodromyClass.PARABOLIC
    assert classify_monodromy([[0, -1], [1, 0]]) is MonodromyClass.ELLIPTIC
    assert classify_monodromy([[2, 1], [1, 1]]) is MonodromyClass.HYPERBOLIC


def test_monodromy_determinant_checked():
    with pytest.raises(GroupUsageError):
        classify_monodromy([[2, 0], [0, 1]])


def test_monodromy_determinant_minus_one():
    assert classify_monodromy([[0, 1], [1, 0]]) is MonodromyClass.PARABOLIC
    assert classify_monodromy([[1, 1], [1, 0]]) is MonodromyClass.HYPERBOLIC


def test_monodromy_conjugation_invariant():
    rng = random.Random(23)
    basis = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((-1, 0), (0, 1))]

    def mat_mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    def mat_inv(a):
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        return tuple(
            tuple(x * det for x in row)
            for row in ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))
        )

    samples = [((1, 5), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((3, 2), (4, 3))]
    for phi in samples:
        expected = classify_monodromy(phi)
        for _ in range(30):
            g = ((1, 0), (0, 1))
            for _ in range(rng.randint(1, 6)):
                g = mat_mul(g, rng.choice(basis))
            conjugated = mat_mul(mat_mul(g, phi), mat_inv(g))
            assert classify_monodromy(conjugated) is expected


# ---------------------------------------------------------------------------
# torus bundles


def test_torus_bundle_trichotomy_verdicts():
    assert icc_torus_bundle([[2, 1], [1, 1]]).status is Status.ICC
    parabolic = icc_torus_bundle([[1, 1], [0, 1]])
    assert parabolic.status is Status.NOT_ICC
    assert parabolic.witness.element.payload == ((1, 0), 0)
    elliptic = icc_torus_bundle([[0, -1], [1, 0]])
    assert elliptic.status is Status.NOT_ICC
    assert elliptic.witness.kind == "symbolic"
    assert {"Lemma 10", "Prop 2"} <= set(elliptic.labels())


def test_torus_bundle_rejects_det_minus_one():
    with pytest.raises(GroupUsageError):
        icc_torus_bundle([[0, 1], [1, 0]])


def test_torus_bundle_trace_minus_two_witness():
    # phi v = -v: the witness class is {v, -v}, confirmed by the oracle
    phi = [[-1, 1], [0, -1]]
    verdict = icc_torus_bundle(phi)
    assert verdict.status is Status.NOT_ICC
    witness = verdict.witness.element
    group = witness.group
    report = conjugacy_class_ball(group, witness, 8)
    assert report.stabilized
    assert report.counts_by_radius[-1] == 2
    assert {c.payload for c in report.conjugates} == {((1, 0), 0), ((-1, 0), 0)}


# ---------------------------------------------------------------------------
# surfaces


def test_surface_rule_examples():
    assert icc_surface(1, True, 0).status is Status.NOT_ICC  # torus
    assert icc_surface(2, True, 0).status is Status.ICC  # closed genus 2
    disk = icc_surface(0, True, 1)
    assert disk.status is Status.NOT_ICC
    assert disk.witness.kind == "finite"


@pytest.mark.parametrize(
    "genus,orientable,boundary,expected",
    [
        (0, True, 0, Status.NOT_ICC),   # sphere
        (0, True, 1, Status.NOT_ICC),   # disk
        (0, True, 2, Status.NOT_ICC),   # annulus
        (0, True, 3, Status.ICC),       # pair of pants: free of rank 2
        (1, False, 0, Status.NOT_ICC),  # projective plane
        (1, False, 1, Status.NOT_ICC),  # Moebius band
        (1, False, 2, Status.ICC),
        (2, False, 0, Status.NOT_ICC),  # Klein bottle
        (3, False, 0, Status.ICC),
        (1, True, 1, Status.ICC),
    ],
)
def test_surface_exceptional_list(genus, orientable, boundary, expected):
    assert icc_surface(genus, orientable, boundary).status is expected


# ---------------------------------------------------------------------------
# verdict well-formedness


def test_not_icc_requires_witness():
    with pytest.raises(GroupUsageError):
        Verdict(Status.NOT_ICC, (Citation("Prop 2"),))


def test_citation_labels_fixed():
    with pytest.raises(GroupUsageError):
        Citation("Theorem 99")


def test_reason_chain_nonempty():
    with pytest.raises(GroupUsageError):
        Verdict(Status.ICC, ())


def test_corpus_verdicts_well_formed(corpus_dir, manifest):
    from conftest import load_corpus_descriptor
    from iccdec.cli import _decide

    for section in ("groups", "manifolds", "knots_links"):
        for entry in manifest[section]:
            verdict = _decide(load_corpus_descriptor(corpus_dir, entry["file"]))
            assert verdict.reasons, entry["file"]
            for citation in verdict.reasons:
                assert citation.label in CITATIONS
            if verdict.status is Status.NOT_ICC:
                assert verdict.witness is not None


# ---------------------------------------------------------------------------
# the group-level dispatcher


def test_decide_structured_group_dispatch(dihedral, z2_star_z3, f2, bs12):
    assert decide_structured_group(dihedral).status is Status.NOT_ICC
    assert decide_structured_group(z2_star_z3).status is Status.ICC
    assert decide_structured_group(f2).status is Status.ICC
    assert decide_structured_group(bs12).status is Status.ICC
    assert decide_structured_group(FiniteCyclic(7)).witness.kind == "finite"
    z = decide_structured_group(InfiniteCyclic())
    assert z.status is Status.NOT_ICC and z.witness.kind == "element"
    degenerate = FreeProduct(FiniteCyclic(1, "e"), FiniteCyclic(2, "a"))
    assert decide_structured_group(degenerate).status is Status.NOT_ICC
    surface = decide_structured_group(SurfaceGroup(2, True, 0))
    assert surface.status is Status.ICC
    matrix_unknown = decide_structured_group(__import__("iccdec").figure8_group())
    assert matrix_unknown.status is Status.UNKNOWN


def test_amalgam_index_three_two_edge_not_normal_in_large_factor():
    # S3 *_(Z/2) Z/4 with the edge a transposition on the S3 side: indices
    # (3, 2); the edge is normal in the index-2 side (index-2 subgroups
    # always are) but not in S3, so no nontrivial edge subgroup is normal in
    # both factors and the amalgam is ICC
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    index = {p: i for i, p in enumerate(perms)}
    table = FiniteGroupTable(
        [[index[compose(p, q)] for q in perms] for p in perms],
        names=["1", "s", "u", "v", "r", "w"],
    )
    s3 = DirectWithFinite(FiniteCyclic(1, "z0"), table)
    z4 = FiniteCyclic(4, "c")
    edge = AmalgamEdge(
        cyclic_table(2),
        embed_left=[s3.identity_payload(), (0, 1)],
        embed_right=[0, 2],
    )
    group = Amalgam(s3, z4, edge)
    assert (group.factor_index(0), group.factor_index(1)) == (3, 2)
    verdict = icc_amalgam(group)
    assert verdict.status is Status.ICC
    assert "Prop 3(iii)" in verdict.labels()
