"""The ICC decision rules and their contracts."""

import ast
import importlib
import inspect
import json
import pkgutil
import random
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iccdec.groups
from iccdec.citations import CITATIONS
from iccdec.groups import (
    Amalgam,
    AmalgamEdge,
    CyclicPowerEdge,
    DirectWithFinite,
    FiberExtension,
    FiniteCyclic,
    FiniteGroupTable,
    FiniteHnnEdge,
    FreePart,
    FreeProduct,
    GroupUsageError,
    Hnn,
    INFINITE,
    InfiniteCyclic,
    StructuredGroup,
    SurfaceGroup,
    TorsionPart,
    ball_with_lengths,
    conjugate,
    cyclic_table,
    free_group,
    reduce_word,
)
from iccdec.descriptors import parse_descriptor_data
from iccdec.groups.semidirect import mat_det, mat_mul
from iccdec.manifolds import decide_icc_orientable
from iccdec.oracle import conjugacy_class_ball, fc_center_candidates
from iccdec.rules import (
    MonodromyClass,
    classify_monodromy,
    decide_structured_group,
    icc_torus_bundle,
    _RULES,
    _integer_kernel_vector,
    _normal_edge_subgroup,
)
from iccdec.verdict import Status, Verdict, Citation


# ---------------------------------------------------------------------------
# free products


def _free_product_of_orders(left, right):
    """Z/left * Z/right, with Z for an INFINITE order."""
    return FreeProduct(*(
        InfiniteCyclic(name) if order == INFINITE else FiniteCyclic(order, name)
        for order, name in ((left, "a"), (right, "b"))
    ))


def test_free_product_dihedral_case():
    verdict = decide_structured_group(_free_product_of_orders(2, 2))
    assert verdict.status is Status.NOT_ICC
    assert verdict.witness is not None
    assert "Infinite dihedral" in verdict.labels()


def test_free_product_icc_cases():
    assert decide_structured_group(_free_product_of_orders(2, 3)).status is Status.ICC
    assert decide_structured_group(_free_product_of_orders(INFINITE, 2)).status is Status.ICC
    assert "Prop 3(i)" in decide_structured_group(_free_product_of_orders(3, 2)).labels()


def test_free_product_symmetry():
    rng = random.Random(2)
    for _ in range(50):
        left = rng.choice([2, 3, 4, 7, INFINITE])
        right = rng.choice([2, 3, 4, 7, INFINITE])
        forward = decide_structured_group(_free_product_of_orders(left, right))
        assert forward.status is decide_structured_group(_free_product_of_orders(right, left)).status


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
    assert decide_structured_group(group).status is Status.ICC


def test_amalgam_with_central_edge_is_unknown():
    verdict = decide_structured_group(psl2z_shaped())
    assert verdict.status is Status.UNKNOWN
    assert "Prop 3(iii)" in verdict.labels()


def test_amalgam_edge_normal_in_neither_factor_is_icc(corpus_dir):
    from conftest import load_corpus_descriptor

    descriptor = load_corpus_descriptor(corpus_dir, "group_s3_amalgam_s3.json")
    verdict = decide_structured_group(descriptor.group)
    assert verdict.status is Status.ICC
    assert "Prop 3(iii)" in verdict.labels()


def test_amalgam_index_hypotheses():
    # [Z/4 : Z/2] = 2 on both sides: the (3, 2) index hypothesis fails
    edge = AmalgamEdge(cyclic_table(2), [0, 2], [0, 2])
    group = Amalgam(FiniteCyclic(4, "p"), FiniteCyclic(4, "q"), edge)
    verdict = decide_structured_group(group)
    assert verdict.status is Status.UNKNOWN
    assert "Hypotheses not met" in verdict.labels()


def test_amalgam_prop3ii_uses_factor_verdict():
    f2 = free_group(["x", "y"])
    other = FiniteCyclic(5, "c")
    edge = AmalgamEdge(cyclic_table(1), [f2.identity_payload()], [0])
    group = Amalgam(f2, other, edge)
    verdict = decide_structured_group(group)
    assert verdict.status is Status.ICC
    assert "Prop 3(ii)" in verdict.labels()


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
    verdict = decide_structured_group(group)
    assert verdict.status is Status.ICC
    assert verdict.labels()[-1] == "Prop 3(iv)"


def test_hnn_trivial_edge_vacuous(bs12):
    f2_shaped = Hnn(InfiniteCyclic("a"), FiniteHnnEdge(cyclic_table(1), [0], [0]))
    verdict = decide_structured_group(f2_shaped)
    assert verdict.status is Status.ICC
    assert "Prop 3(v)" in verdict.labels()
    assert decide_structured_group(bs12).status is Status.ICC


def test_hnn_normal_finite_edge_subgroup_unknown():
    base = DirectWithFinite(InfiniteCyclic("a"), cyclic_table(2, names=["1", "z"]))
    edge = FiniteHnnEdge(
        cyclic_table(2),
        [base.identity_payload(), (0, 1)],
        [base.identity_payload(), (0, 1)],
    )
    verdict = decide_structured_group(Hnn(base, edge))
    assert verdict.status is Status.UNKNOWN
    assert "Prop 3(v)" in verdict.labels()


def test_hnn_equal_power_edges_unknown():
    klein_shaped = Hnn(InfiniteCyclic("a"), CyclicPowerEdge(2, -2))
    verdict = decide_structured_group(klein_shaped)
    assert verdict.status is Status.UNKNOWN


def test_hnn_properness_precondition():
    whole = Hnn(InfiniteCyclic("a"), CyclicPowerEdge(1, 1))
    verdict = decide_structured_group(whole)
    assert verdict.status is Status.UNKNOWN
    assert "Hypotheses not met" in verdict.labels()


def _s3():
    """S3 as a direct product with the trivial group: its table names the
    three transpositions s, u, v (indices 1 to 3) and the rotations r, w."""
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    index = {p: i for i, p in enumerate(perms)}
    table = FiniteGroupTable(
        [[index[compose(p, q)] for q in perms] for p in perms],
        names=["1", "s", "u", "v", "r", "w"],
    )
    return DirectWithFinite(FiniteCyclic(1, "z0"), table)


@st.composite
def _hnn_extensions(draw):
    """BS(m, n) as a cyclic_power edge over Z; a trivial or Z/2 finite edge
    over a free product of two factors or over Z/2k; or over S3, a Z/2 edge
    between two transpositions or a Z/3 edge on the rotations."""
    kind = draw(st.sampled_from(["cyclic_power", "free_product", "cyclic", "s3"]))
    if kind == "cyclic_power":
        m, n = draw(st.integers(1, 3)), draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        return Hnn(InfiniteCyclic("a"), CyclicPowerEdge(m, n))
    if kind == "s3":
        base = _s3()
        if draw(st.booleans()):
            domain, range_ = (draw(st.integers(1, 3)) for _ in "dr")
            edge = FiniteHnnEdge(cyclic_table(2), [(0, 0), (0, domain)], [(0, 0), (0, range_)])
        else:
            rotations = [(0, 0), (0, 4), (0, 5)]
            iso = draw(st.sampled_from([[0, 1, 2], [0, 2, 1]]))
            edge = FiniteHnnEdge(cyclic_table(3), rotations, rotations, iso)
        return Hnn(base, edge)
    if kind == "cyclic":
        base, word = _factor(draw(st.sampled_from([2, 4, 6])), "p")
        order_two = [reduce_word(base, word).payload]
    else:
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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(group=_hnn_extensions())
def test_hnn_verdicts_agree_with_the_oracle(group):
    _assert_icc_agrees_with_the_oracle(group)


# ---------------------------------------------------------------------------
# the finite edge's index and the normality scan, against brute force


def _order_and_conjugators(group):
    """(|group|, all its elements) when its radius-4 ball is exhausted, as
    the ball of every finite group drawn here is (Z/6 has diameter 3); else
    (INFINITE, the radius-2 ball).  Conjugating a finite subgroup by a ball
    that holds the generators keeps it in itself exactly when the
    generators do."""
    elements, lengths = ball_with_lengths(group, 4)
    if lengths[-1] < 4:
        return len(elements), elements
    return INFINITE, [e for e, n in zip(elements, lengths) if n <= 2]


def _brute_normal_edge_subgroup(table, sides):
    """The order of the first nontrivial edge subgroup, in table.subgroups()
    order, that each (ambient group, images, conjugators) of sides maps into
    itself under every conjugator; 0 when there is none."""
    for sub in table.subgroups():
        if len(sub) > 1 and all(
            {conjugate(ambient.element(images[i]), c).payload for i in sub for c in conjugators}
            == {images[i] for i in sub}
            for ambient, images, conjugators in sides
        ):
            return len(sub)
    return 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(group=_amalgams())
def test_amalgam_edge_index_and_normality_scan_agree_with_brute_force(group):
    edge = group.edge
    sides = []
    for side, (factor, images) in enumerate(zip(group.factors, edge.embeds)):
        order, conjugators = _order_and_conjugators(factor)
        assert group.factor_index(side) == (
            INFINITE if order == INFINITE else order // edge.table.size
        )
        sides.append((factor, images, conjugators))
    expected = _brute_normal_edge_subgroup(edge.table, sides)
    assert _normal_edge_subgroup(edge.table, [side[:2] for side in sides]) == expected
    verdict = decide_structured_group(group)
    if verdict.labels() == ["Prop 3(iii)"]:
        assert verdict.status is (Status.UNKNOWN if expected else Status.ICC)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(group=_hnn_extensions())
def test_hnn_edge_index_and_normality_scan_agree_with_brute_force(group):
    # a cyclic_power edge <a^m> has index m in Z by its definition and is
    # decided without the scan; the finite edges are what is audited here
    edge = group.edge
    if isinstance(edge, CyclicPowerEdge):
        return
    order, base_elements = _order_and_conjugators(group.base)
    index = INFINITE if order == INFINITE else order // edge.table.size
    assert edge.index(group.base) == index
    assert edge.proper_sides(group.base) == (index > 1, index > 1)
    # t, its inverse and the base generate the extension
    t = group.generator_element(group.stable_letter)
    conjugators = [t, ~t] + [group.element(((), e.payload)) for e in base_elements]
    images = [((), p) for p in edge.embeds[0]]
    expected = _brute_normal_edge_subgroup(edge.table, [(group, images, conjugators)])
    assert _normal_edge_subgroup(edge.table, [(group, images)]) == expected
    # an ICC base decides the extension by Prop 3(iv), before the scan
    verdict = decide_structured_group(group)
    if index == 1:
        assert verdict.labels() == ["Hypotheses not met"]
    elif decide_structured_group(group.base).status is Status.ICC:
        assert verdict.status is Status.ICC and verdict.labels()[-1] == "Prop 3(iv)"
    else:
        assert verdict.labels() == ["Prop 3(v)"]
        assert verdict.status is (Status.UNKNOWN if expected else Status.ICC)
        assert (f"of order {expected} " in verdict.reasons[0].detail) == bool(expected)


# ---------------------------------------------------------------------------
# free groups


def test_free_group_classes_grow_with_the_radius(f2):
    # the rank-2 free subgroup of finite index in Z/2 * Z/3: its classes
    # grow, as the oracle confirms on F2 directly
    report = conjugacy_class_ball(f2, f2.generator_element("x"), 6)
    counts = report.counts_by_radius
    assert all(counts[i] < counts[i + 1] for i in range(len(counts) - 1))


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


def _sl2z_words(seed, count):
    """Products of 1 to 8 of S, T and T^-1, each an element of SL2(Z)."""
    rng = random.Random(seed)
    letters = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)))
    for _ in range(count):
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 8)):
            m = mat_mul(m, rng.choice(letters))
        yield m


def _torus_bundle_documents(phi):
    matrix = [list(row) for row in phi]
    group = {"schema_version": 1, "type": "group",
             "construction": {"semidirect_zn_by_z": {"rank": 2, "matrix": matrix}}}
    manifold = {"schema_version": 1, "type": "manifold", "orientable": True,
                "pieces": [{"kind": "torus_bundle", "monodromy": matrix}]}
    return group, manifold


def test_torus_bundle_group_and_manifold_agree(monkeypatch):
    import iccdec.rules as rules

    searched = []
    search = rules._semidirect_finite_orbit_witness
    monkeypatch.setattr(
        rules, "_semidirect_finite_orbit_witness", lambda g: searched.append(g.phi) or search(g)
    )
    kinds, parabolic = set(), 0
    for phi in _sl2z_words(2105, 300):
        group, manifold = (parse_descriptor_data(d) for d in _torus_bundle_documents(phi))
        searched.clear()
        by_group = decide_structured_group(group.group)
        by_manifold = decide_icc_orientable(manifold.manifold)
        kind = classify_monodromy(phi)
        kinds.add(kind)
        expected = Status.ICC if kind is MonodromyClass.HYPERBOLIC else Status.NOT_ICC
        assert by_group.status is by_manifold.status is expected, phi
        for verdict in (by_group, by_manifold):
            assert verdict.reasons[0].label == "Lemma 10"
            assert verdict.reasons[0].detail.startswith(kind.value.lower())
        if kind is MonodromyClass.HYPERBOLIC:
            # no root-of-unity eigenvalue: the finite-orbit search is skipped
            assert by_group == by_manifold and searched == []
        else:
            assert searched == [phi] and by_group.witness.element is not None
        if kind is MonodromyClass.PARABOLIC and phi[0][1] | phi[1][0]:
            # phi != +-I: both forms name the same eigenvector v, and its
            # class is the one the manifold text states
            element = by_manifold.witness.element
            assert by_group.witness.element.payload == element.payload, phi
            vector, _ = element.payload
            stated = {vector}
            if by_manifold.witness.description.endswith("{v, -v}"):
                stated.add(tuple(-x for x in vector))
            report = conjugacy_class_ball(element.group, element, 6)
            assert report.stabilized
            assert {c.payload for c in report.conjugates} == {(v, 0) for v in stated}, phi
            parabolic += 1
    assert kinds == set(MonodromyClass)
    assert parabolic >= 100


# the decide --json witness text as recorded before hyperbolic monodromies
# bypassed the finite-orbit search: (matrix, group witness, manifold witness)
_PINNED_TORUS_BUNDLE_WITNESSES = [
    (((1, 0), (0, 1)), "lattice vector ((0, 0), 1) with finite monodromy orbit",
     "lattice eigenvector ((1, 0), 0) with conjugacy class {v}"),
    (((-1, 0), (0, -1)), "lattice vector ((0, 0), 2) with finite monodromy orbit",
     "lattice eigenvector ((1, 0), 0) with conjugacy class {v, -v}"),
    (((1, 1), (0, 1)), "lattice vector ((1, 0), 0) with finite monodromy orbit",
     "lattice eigenvector ((1, 0), 0) with conjugacy class {v}"),
    (((-1, 1), (0, -1)), "lattice vector ((1, 0), 0) with finite monodromy orbit",
     "lattice eigenvector ((1, 0), 0) with conjugacy class {v, -v}"),
    (((0, -1), (1, 0)), "lattice vector ((0, 0), 4) with finite monodromy orbit",
     "regular fiber class h of the Seifert structure"),
    (((0, -1), (1, 1)), "lattice vector ((0, 0), 6) with finite monodromy orbit",
     "regular fiber class h of the Seifert structure"),
    (((0, 1), (1, 0)), "lattice vector ((0, 0), 2) with finite monodromy orbit", None),
]


@pytest.mark.parametrize("phi, by_group, by_manifold", _PINNED_TORUS_BUNDLE_WITNESSES)
def test_torus_bundle_witness_text_is_pinned(tmp_path, capsys, phi, by_group, by_manifold):
    from iccdec.cli import main

    for document, expected in zip(_torus_bundle_documents(phi), (by_group, by_manifold)):
        if expected is None:  # det -1: no orientable torus bundle
            continue
        path = tmp_path / "descriptor.json"
        path.write_text(json.dumps(document))
        assert main(["decide", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"]["description"] == expected


@pytest.mark.parametrize(
    "phi, status, reason",
    [
        (((0, 1), (1, 0)), "NotICC",
         ["Finite class witness", "the orbit of the vector under the action is finite"]),
        (((1, 1), (1, 0)), "Unknown",
         ["Outside scope", "no finite-orbit vector found, but the action is outside the "
          "orientable torus-bundle trichotomy"]),
    ],
)
def test_a_det_minus_one_monodromy_is_no_torus_bundle(tmp_path, capsys, phi, status, reason):
    from iccdec.cli import main

    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(_torus_bundle_documents(phi)[0]))
    main(["decide", str(path), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == status
    assert [[r["label"], r["detail"]] for r in data["reasons"]] == [reason]


# ---------------------------------------------------------------------------
# kernel vectors of phi^j - I


@st.composite
def _square_matrices(draw):
    """1x1 to 3x3 integer matrices; three in four get a column (or, after
    transposing, a row) that is an integer combination of the others."""
    n = draw(st.integers(1, 3))
    m = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.integers(0, 3)):
        j = draw(st.integers(0, n - 1))
        coefficients = [0 if k == j else draw(st.integers(-2, 2)) for k in range(n)]
        for row in m:
            row[j] = sum(c * x for c, x in zip(coefficients, row))
    if draw(st.booleans()):
        m = [list(column) for column in zip(*m)]
    return tuple(map(tuple, m))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(m=_square_matrices())
def test_integer_kernel_vector_is_the_first_free_column_vector(m):
    # the properties below fix the vector uniquely: the primitive kernel
    # vector that is zero past the first column j dependent on the columns
    # before it, and positive at j
    vector = _integer_kernel_vector(m)
    assert (vector is None) == (mat_det(m) != 0)
    if vector is None:
        return
    assert all(sum(x * v for x, v in zip(row, vector)) == 0 for row in m)
    assert gcd(*vector) == 1
    j = max(k for k, v in enumerate(vector) if v)
    assert vector[j] > 0
    assert any(mat_det(tuple(row[:j] for row in rows)) for rows in combinations(m, j))


def test_integer_kernel_vector_examples():
    assert _integer_kernel_vector(((0, 1), (0, 0))) == (1, 0)
    assert _integer_kernel_vector(((2, 4), (3, 6))) == (-2, 1)
    assert _integer_kernel_vector(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == (1, -2, 1)
    assert _integer_kernel_vector(((1, 0), (0, 1))) is None


# ---------------------------------------------------------------------------
# surfaces


def test_surface_rule_examples():
    torus = decide_structured_group(SurfaceGroup(1, True, 0))
    assert torus.status is Status.NOT_ICC
    assert torus.witness.description == "any nontrivial element of Z^2: ((1), 0)"
    assert decide_structured_group(SurfaceGroup(2, True, 0)).status is Status.ICC  # closed genus 2
    disk = decide_structured_group(SurfaceGroup(0, True, 1))
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
    verdict = decide_structured_group(SurfaceGroup(genus, orientable, boundary))
    assert verdict.status is expected
    if expected is Status.NOT_ICC and not verdict.witness.finite:
        # an infinite NotICC surface group has a realization, and its
        # witness is the realization's first generator
        assert verdict.witness.kind == "element"


# ---------------------------------------------------------------------------
# fiber extensions


@pytest.mark.parametrize(
    "parts, closure",
    [
        ([TorsionPart("x", 2, 1), TorsionPart("y", 3, 1)], "{z}"),
        ([FreePart("x", -1), FreePart("y")], "{z, z^-1}"),
    ],
)
def test_fiber_extension_witness_names_its_fiber(parts, closure):
    # the rule once wrote h whatever the fiber was called
    group = FiberExtension(parts, fiber_name="z")
    verdict = decide_structured_group(group)
    assert verdict.status is Status.NOT_ICC
    assert verdict.witness.description == f"fiber generator z (conjugacy class within {closure})"
    assert verdict.witness.element == group.fiber() and repr(verdict.witness.element) == "z"


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


_RUN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _benchmarked_constructions():
    """The CONSTRUCTIONS tuple of perfbench/run.py, read from its source."""
    for node in ast.parse(_RUN_PATH.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CONSTRUCTIONS":
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py assigns no CONSTRUCTIONS")


def _construction_classes():
    """The names of the concrete structured groups the package defines."""
    modules = [
        importlib.import_module(f"iccdec.groups.{info.name}")
        for info in pkgutil.iter_modules(iccdec.groups.__path__)
    ] + [importlib.import_module("iccdec.eisenstein")]
    return {
        cls.__name__
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and issubclass(cls, StructuredGroup)
        and not inspect.isabstract(cls)
    }


def test_every_construction_has_a_rule_and_a_benchmark_count():
    # a construction with no rule fails only when it is decided, and one
    # the benchmark does not list drops out of its multiply_payloads counts
    assert set(_RULES) == _construction_classes()
    assert set(_RULES) == _benchmarked_constructions()


class _Generator(InfiniteCyclic):
    """A subclass of a construction, defined outside the package."""


class _Trivial(StructuredGroup):
    """The trivial group, a structured group that is no construction."""

    def signature(self):
        return ("Trivial",)

    def identity_payload(self):
        return ()

    def multiply_payloads(self, a, b):
        return ()

    def invert_payload(self, a):
        return ()

    def generator_payloads(self):
        return []

    def payload_key(self, payload):
        return ()

    def render_payload(self, payload):
        return []

    def payload_str(self, payload):
        return "1"

    def order(self):
        return 1


def test_a_subclass_decides_as_its_construction():
    verdict = decide_structured_group(_Generator("s"))
    assert verdict.status is Status.NOT_ICC
    assert verdict.labels() == ["Abelian infinite"]
    assert verdict.witness.description == "generator s"


@pytest.mark.parametrize(
    "cls", [_Trivial, type("FreeProduct", (_Trivial,), {})], ids=["no_construction", "named"]
)
def test_a_group_that_is_no_construction_has_no_rule(cls):
    # a class that only shares a construction's name is not that construction
    with pytest.raises(GroupUsageError) as info:
        decide_structured_group(cls())
    assert str(info.value) == f"no decision rule for construction {cls.__name__}"


def test_amalgam_index_three_two_edge_not_normal_in_large_factor():
    # S3 *_(Z/2) Z/4 with the edge a transposition on the S3 side: indices
    # (3, 2); the edge is normal in the index-2 side (index-2 subgroups
    # always are) but not in S3, so no nontrivial edge subgroup is normal in
    # both factors and the amalgam is ICC
    s3 = _s3()
    z4 = FiniteCyclic(4, "c")
    edge = AmalgamEdge(
        cyclic_table(2),
        embed_left=[s3.identity_payload(), (0, 1)],
        embed_right=[0, 2],
    )
    group = Amalgam(s3, z4, edge)
    assert (group.factor_index(0), group.factor_index(1)) == (3, 2)
    verdict = decide_structured_group(group)
    assert verdict.status is Status.ICC
    assert "Prop 3(iii)" in verdict.labels()
