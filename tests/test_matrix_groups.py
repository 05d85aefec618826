"""Exact Eisenstein arithmetic, the figure-eight matrix group, and the
integer-only payload arithmetic of both matrix constructions."""

import json
import random
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iccdec import eisenstein
from iccdec.cli import main
from iccdec.eisenstein import (
    E_OMEGA,
    E_ONE,
    MAX_FINITE_ORDER,
    EisensteinInt,
    MatrixGroupSL2Eisenstein,
    figure8_group,
    mat_det,
    mat_inv,
    mat_mul,
    mat_trace,
)
from iccdec.groups import (
    INFINITE,
    GroupUsageError,
    SemidirectZnByZ,
    ball_with_lengths,
)
from iccdec.groups.semidirect import CACHED_POWERS
from iccdec.rules import decide_structured_group
from iccdec.verdict import FINITE_GROUP_WITNESS, Status


def test_ring_law_examples():
    one_plus_w = EisensteinInt(1, 1)
    assert one_plus_w * one_plus_w == E_OMEGA
    assert EisensteinInt(1, 0) + EisensteinInt(0, 1) == one_plus_w
    assert -EisensteinInt(3, -2) == EisensteinInt(-3, 2)
    assert E_OMEGA * E_OMEGA == EisensteinInt(-1, -1)  # w^2 = -1 - w


def test_arbitrary_precision():
    big = EisensteinInt(10**40, 3)
    square = big * big
    assert square.a == 10**80 - 9
    assert square.b == 6 * 10**40 - 9


def test_generator_determinant_enforced():
    with pytest.raises(GroupUsageError):
        MatrixGroupSL2Eisenstein([(((2, 0), (0, 0)), ((0, 0), (1, 0)))])


def test_figure8_generators():
    group = figure8_group()
    assert group.gen_names == ("A", "B")
    a = group.generator_element("A")
    b = group.generator_element("B")
    assert (a * ~a).is_identity()
    assert mat_trace((a * b).payload) == EisensteinInt(2, -1)  # 2 - w
    assert mat_det((a * b).payload) == E_ONE


def test_det_and_trace_invariants_on_ball():
    group = figure8_group()
    a = group.generator_element("A")
    elements, _ = ball_with_lengths(group, 4)
    trace_a = mat_trace(a.payload)
    for w in elements:
        assert mat_det(w.payload) == E_ONE
        assert mat_trace((w * a * ~w).payload) == trace_a


def test_class_growth_radii_two_to_six():
    from iccdec.oracle import conjugacy_class_ball

    group = figure8_group()
    a = group.generator_element("A")
    report = conjugacy_class_ball(group, a, 6)
    counts = report.counts_by_radius
    assert all(counts[r] < counts[r + 1] for r in range(2, 6))
    assert not report.stabilized
    assert counts[-1] >= 10


def test_ball_is_not_free_growth():
    # the group relations first identify words at radius 5: the ball equals
    # the rank-2 free group ball through radius 4 and is strictly smaller
    # afterwards
    group = figure8_group()
    elements, lengths = ball_with_lengths(group, 5)
    free_sizes = [1, 5, 17, 53, 161, 485]
    sizes = [sum(1 for L in lengths if L <= r) for r in range(6)]
    assert sizes[:5] == free_sizes[:5]
    assert sizes[5] < free_sizes[5]


# ---------------------------------------------------------------------------
# differential references: the EisensteinInt and map/sum arithmetic that the
# integer-only payload products replaced


def _reference_entry(payload, i, j):
    a, b = payload[i][j]
    return EisensteinInt(a, b)


def _reference_payload(rows):
    return tuple(tuple((cell.a, cell.b) for cell in row) for row in rows)


def reference_mat_mul(x, y):
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            acc = EisensteinInt(0, 0)
            for k in range(2):
                acc = acc + _reference_entry(x, i, k) * _reference_entry(y, k, j)
            row.append(acc)
        rows.append(row)
    return _reference_payload(rows)


def reference_mat_inv(x):
    p, q = _reference_entry(x, 0, 0), _reference_entry(x, 0, 1)
    r, s = _reference_entry(x, 1, 0), _reference_entry(x, 1, 1)
    return _reference_payload(((s, -q), (-r, p)))


def reference_mat_det(x):
    p, q = _reference_entry(x, 0, 0), _reference_entry(x, 0, 1)
    r, s = _reference_entry(x, 1, 0), _reference_entry(x, 1, 1)
    return p * s - q * r


def reference_payload_key(payload):
    flat = tuple(c for row in payload for cell in row for c in cell)
    return (sum(abs(c) for c in flat) - 2, flat)


def _int_mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _reference_powers(group, bound):
    """phi^m for |m| <= bound by repeated multiplication."""
    n = group.rank
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    inverse = group.phi_power(-1)
    assert _int_mat_mul(group.phi, inverse) == identity
    powers = {0: identity}
    for m in range(1, bound + 1):
        powers[m] = _int_mat_mul(powers[m - 1], group.phi)
        powers[-m] = _int_mat_mul(powers[1 - m], inverse)
    return powers


def _reference_mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def reference_semidirect_multiply(powers, a, b):
    v, m = a
    w, k = b
    if m:
        w = _reference_mat_vec(powers[m], w)
    return (tuple(map(add, v, w)), m + k)


def reference_semidirect_invert(powers, a):
    v, m = a
    if m:
        v = _reference_mat_vec(powers[-m], v)
    return (tuple([-x for x in v]), -m)


def _random_eisenstein_matrix(rng, bits):
    bound = 2**bits
    return tuple(
        tuple((rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(2))
        for _ in range(2)
    )


@pytest.mark.parametrize("bits", [3, 70])
def test_eisenstein_payload_arithmetic_matches_reference(bits):
    # entries beyond 2^64 check that no fixed-width arithmetic slipped in;
    # the formulas do not need determinant 1
    rng = random.Random(6 + bits)
    group = figure8_group()
    for _ in range(1000):
        x = _random_eisenstein_matrix(rng, bits)
        y = _random_eisenstein_matrix(rng, bits)
        assert mat_mul(x, y) == reference_mat_mul(x, y)
        assert mat_inv(x) == reference_mat_inv(x)
        assert mat_det(x) == reference_mat_det(x)
        assert group.payload_key(x) == reference_payload_key(x)


def test_eisenstein_group_products_match_reference():
    group = figure8_group()
    rng = random.Random(66)
    steps = [p for _, p in group.generator_payloads()]
    steps += [reference_mat_inv(p) for p in steps]
    for _ in range(300):
        x = y = group.identity_payload()
        for _ in range(rng.randint(0, 60)):
            x = reference_mat_mul(x, rng.choice(steps))
            y = reference_mat_mul(y, rng.choice(steps))
        product = group.multiply_payloads(x, y)
        assert product == reference_mat_mul(x, y)
        assert group.invert_payload(x) == reference_mat_inv(x)
        assert mat_det(product) == E_ONE
        assert group.multiply_payloads(product, group.invert_payload(product)) == (
            group.identity_payload()
        )


_SEMIDIRECT_PHIS = [
    ((1,),),
    ((-1,),),
    ((2, 1), (1, 1)),
    ((1, 1), (1, 0)),
    ((0, -1), (1, 0)),
    ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
    ((0, 0, -1), (-1, 0, 0), (0, -1, -1)),  # determinant -1
]


@pytest.mark.parametrize("phi", _SEMIDIRECT_PHIS, ids=str)
def test_semidirect_payload_arithmetic_matches_reference(phi):
    group = SemidirectZnByZ(len(phi), phi)
    bound = 2 * CACHED_POWERS + 8
    powers = _reference_powers(group, bound)
    rng = random.Random(str(phi))
    big = 2**70

    def payload():
        # exponents beyond the cached powers and of both signs, vector
        # entries beyond 2^64
        m = rng.choice([0, rng.randint(-4, 4), rng.randint(-bound, bound)])
        return (tuple(rng.randint(-big, big) for _ in range(group.rank)), m)

    for _ in range(600):
        a, b = payload(), payload()
        assert group.multiply_payloads(a, b) == reference_semidirect_multiply(powers, a, b)
        assert group.invert_payload(a) == reference_semidirect_invert(powers, a)
    assert group.multiply_payloads(group.identity_payload(), a) == a


# ---------------------------------------------------------------------------
# exact order of a matrix group

_I = ((1, 0), (0, 0)), ((0, 0), (1, 0))
_MINUS_I = ((-1, 0), (0, 0)), ((0, 0), (-1, 0))
_S = ((0, 0), (-1, 0)), ((1, 0), (0, 0))  # order 4
_DIAG_W = ((0, 1), (0, 0)), ((0, 0), (-1, -1))  # diag(w, w^2), order 3
_ORDER6 = ((0, 0), (-1, 0)), ((1, 0), (1, 0))  # trace 1
_T = ((-1, -1), (-1, -1)), ((1, 0), (1, 1))  # trace 0; with _ORDER6 binary tetrahedral
_PARABOLIC = ((1, 0), (1, 0)), ((0, 0), (1, 0))


@pytest.mark.parametrize(
    "generators, order",
    [
        ([], 1),
        ([_I], 1),
        ([_MINUS_I], 2),
        ([_DIAG_W], 3),
        ([_S], 4),
        ([_ORDER6], 6),
        ([_S, _DIAG_W], 12),
        ([_T, _ORDER6], MAX_FINITE_ORDER),
        ([_PARABOLIC], INFINITE),
        ([_S, _PARABOLIC], INFINITE),
    ],
    ids=[
        "none", "I", "-I", "order 3", "order 4", "order 6",
        "binary dihedral", "binary tetrahedral", "parabolic", "SL2(Z)",
    ],
)
def test_matrix_group_order_is_exact(generators, order):
    group = MatrixGroupSL2Eisenstein(generators)
    assert group.order() == order
    if order != INFINITE:
        elements, _ = ball_with_lengths(group, order)
        assert len(elements) == order


_FIGURE_EIGHT_B = ((1, 0), (0, 0)), ((0, -1), (1, 0))
_POOL = (_I, _MINUS_I, _S, _ORDER6, _DIAG_W, _PARABOLIC, _FIGURE_EIGHT_B)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(generators=st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
def test_matrix_group_order_and_verdict_agree_with_the_ball(generators):
    # grow the ball one radius at a time: it is exhausted exactly when the
    # group is finite, and a finite group has at most MAX_FINITE_ORDER elements
    group = MatrixGroupSL2Eisenstein(generators)
    radius, size = 0, 1
    while size <= MAX_FINITE_ORDER:
        grown = len(ball_with_lengths(group, radius + 1)[0])
        if grown == size:
            break
        radius, size = radius + 1, grown
    verdict = decide_structured_group(group)
    if size <= MAX_FINITE_ORDER:
        assert group.order() == size
        assert verdict.status is Status.NOT_ICC
        assert verdict.witness == FINITE_GROUP_WITNESS
    else:
        assert group.order() == INFINITE
        assert verdict.status is Status.UNKNOWN


def test_matrix_group_order_is_computed_on_first_use():
    group = figure8_group()
    assert "_order" not in vars(group)
    assert group.order() == INFINITE
    assert "_order" in vars(group)


# [[1, k], [0, 1]] for k = 1..7 and [[1, k w], [0, 1]] for k = 1..6
_WIDE = [(((1, 0), (k, 0)), ((0, 0), (1, 0))) for k in range(1, 8)] + [
    (((1, 0), (0, k)), ((0, 0), (1, 0))) for k in range(1, 7)
]


@pytest.mark.parametrize(
    "generators, order, products",
    [
        (figure8_group().gen_payloads, INFINITE, 52),
        ([_S, _PARABOLIC], INFINITE, 48),
        (_WIDE, INFINITE, 26),  # 13 parabolic generators: level 1 alone passes the bound
        ([_S], 4, 4),
        ([_T, _ORDER6], MAX_FINITE_ORDER, 48),
    ],
    ids=["figure-eight", "SL2(Z)", "13 parabolic", "order 4", "binary tetrahedral"],
)
def test_matrix_group_order_stops_at_the_level_that_passes_the_bound(
    monkeypatch, generators, order, products
):
    calls = []
    monkeypatch.setattr(eisenstein, "mat_mul", lambda x, y: calls.append(1) or mat_mul(x, y))
    assert MatrixGroupSL2Eisenstein(list(generators)).order() == order
    assert len(calls) == products


def _decide_json(tmp_path, capsys, construction):
    path = tmp_path / "group.json"
    data = {"schema_version": 1, "type": "group", "construction": construction}
    path.write_text(json.dumps(data))
    code = main(["decide", str(path), "--json"])
    return code, json.loads(capsys.readouterr().out)


def _matrix_factor(*generators):
    return {"matrix_group_sl2_eisenstein": {"generators": [
        [[list(cell) for cell in row] for row in g] for g in generators
    ]}}


@pytest.mark.parametrize(
    "factors, label",
    [
        # the infinite dihedral group
        ([_matrix_factor(_MINUS_I), {"cyclic": 2, "name": "a"}], "Infinite dihedral"),
        # Z/2 and Z/3: the matrix factor is trivial
        ([_matrix_factor(_I), {"cyclic": 2, "name": "a"}], "ICC definition"),
        ([_matrix_factor(), {"cyclic": 3, "name": "a"}], "ICC definition"),
    ],
    ids=["<-I> * Z/2", "<I> * Z/2", "<> * Z/3"],
)
def test_free_product_with_finite_matrix_factor_is_not_icc(tmp_path, capsys, factors, label):
    code, out = _decide_json(tmp_path, capsys, {"free_product": factors})
    assert code == 0
    assert out["status"] == "NotICC"
    assert out["reasons"][0]["label"] == label


@pytest.mark.parametrize(
    "generators, detail",
    [
        ([_MINUS_I], "finite matrix group of order 2"),
        ([_T, _ORDER6], f"finite matrix group of order {MAX_FINITE_ORDER}"),
        ([_I], "trivial group"),
    ],
    ids=["<-I>", "binary tetrahedral", "<I>"],
)
def test_standalone_finite_matrix_group_is_not_icc(tmp_path, capsys, generators, detail):
    code, out = _decide_json(tmp_path, capsys, _matrix_factor(*generators))
    assert code == 0
    assert out["status"] == "NotICC"
    assert out["witness"]["kind"] == "finite"
    assert out["reasons"] == [{"label": "ICC definition", "detail": detail}]


def test_standalone_infinite_matrix_group_stays_unknown(tmp_path, capsys):
    code, out = _decide_json(tmp_path, capsys, _matrix_factor(_S, _PARABOLIC))
    assert code == 2
    assert out["status"] == "Unknown"
    assert out["reasons"][0]["label"] == "Outside scope"
