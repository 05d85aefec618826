"""Element arithmetic, normal forms, and ball enumeration."""

import functools
import itertools
import json
import random
import sys
from itertools import permutations

import pytest

from iccdec.groups import (
    INFINITE,
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
    InfiniteCyclic,
    NotEnumerableError,
    SemidirectZnByZ,
    StructuredGroup,
    SurfaceGroup,
    TorsionPart,
    ball_with_lengths,
    commutes_with_generators,
    conjugate,
    cyclic_table,
    free_group,
    invert,
    multiply,
    reduce_word,
    render_word,
)
from iccdec.groups.base import KEY_MEMO_ENTRIES, ball_levels
from iccdec.groups.semidirect import CACHED_POWERS, mat_inverse_unimodular, mat_mul
from iccdec.manifolds import (
    HomotopySpherePiece,
    HyperbolicKnot,
    SeifertInvariants,
    TorusBundlePiece,
    TorusKnot,
)
from iccdec.verdict import Citation, Witness
from conftest import CyclicFreeProductOracle, bs12_pinch_reduce, enumerable_corpus_groups


def random_element(group, rng, max_len=6):
    gens = [e for _, e in group.generators()]
    acc = group.identity()
    for _ in range(rng.randint(0, max_len)):
        g = rng.choice(gens)
        acc = acc * (g if rng.random() < 0.5 else ~g)
    return acc


# ---------------------------------------------------------------------------
# multiply


def test_involution_squares_to_identity(z2_star_z3):
    a = z2_star_z3.generator_element("a")
    assert (a * a).is_identity()


def test_semidirect_product_law():
    g = SemidirectZnByZ(2, [[2, 1], [1, 1]])
    lhs = g.element(((1, 0), 1)) * g.element(((0, 1), 0))
    # phi(0,1) = (1,1), so the product is ((2,1),1)
    assert lhs.payload == ((2, 1), 1)


def test_semidirect_phi_power_by_squaring():
    g = SemidirectZnByZ(2, [[2, 1], [1, 1]])
    power = ((1, 0), (0, 1))
    for _ in range(13):
        power = mat_mul(power, g.phi)
    assert g.phi_power(13) == power
    assert mat_mul(g.phi_power(-13), power) == ((1, 0), (0, 1))
    assert g.phi_power(0) == ((1, 0), (0, 1))


def test_semidirect_power_cache_is_bounded():
    g = SemidirectZnByZ(2, [[2, 1], [1, 1]])
    for m in range(1, 2001):
        g.phi_power(m)
    assert len(g._power_cache) <= 2 * CACHED_POWERS + 1
    half = g.phi_power(1000)
    assert g.phi_power(2000) == mat_mul(half, half)
    assert mat_mul(g.phi_power(-2000), g.phi_power(2000)) == ((1, 0), (0, 1))


def test_semidirect_power_stops_at_the_int_printing_limit(monkeypatch):
    # the entries of phi^m for the cat map reach 4,300 digits at m = 10287;
    # from m = 10288 their bit length rules out fewer digits, and the power
    # is refused before a vector it moves fails to print
    g = SemidirectZnByZ(2, [[2, 1], [1, 1]])
    assert len(str(g.phi_power(10287)[0][0])) == 4300
    for m in (10288, 11000, -11000):
        with pytest.raises(GroupUsageError, match=rf"^phi\^{m} has an entry of 4300 or more"):
            g.phi_power(m)
    # a huge exponent fails at the first square past the limit, not at the end
    with pytest.raises(GroupUsageError, match=r"^phi\^10000000 "):
        g.phi_power(10_000_000)
    # the bound is the interpreter's: with no limit the power is built
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert mat_mul(g.phi_power(11000), g.phi_power(-11000)) == ((1, 0), (0, 1))
    # parabolic and elliptic powers stay small whatever the limit
    monkeypatch.undo()
    assert SemidirectZnByZ(2, [[1, 1], [0, 1]]).phi_power(10**9) == ((1, 10**9), (0, 1))
    assert SemidirectZnByZ(2, [[0, -1], [1, 0]]).phi_power(10**9) == ((1, 0), (0, 1))


def test_semidirect_inverts_its_monodromy_at_the_first_negative_power(monkeypatch):
    import iccdec.groups.semidirect as semidirect

    calls = []

    def counted(matrix):
        calls.append(matrix)
        return mat_inverse_unimodular(matrix)

    monkeypatch.setattr(semidirect, "mat_inverse_unimodular", counted)
    g = SemidirectZnByZ(2, [[2, 1], [1, 1]])
    assert calls == []
    x = g.element(((1, 2), 3))
    for m in (1, 2, 5, 70):
        g.phi_power(m)
    assert (x * x).payload[1] == 6
    assert calls == []
    assert mat_mul(g.phi_power(-5), g.phi_power(5)) == ((1, 0), (0, 1))
    assert calls == [((2, 1), (1, 1))]
    assert g.phi_power(-1) == ((1, -1), (-1, 2))
    assert (~x).payload[1] == -3
    assert mat_mul(g.phi_power(-70), g.phi_power(70)) == ((1, 0), (0, 1))
    assert len(calls) == 1


def test_dihedral_sandwich(dihedral):
    # a (ab) a reduces to ba; cross-checked with an independent reducer below
    a = dihedral.generator_element("a")
    b = dihedral.generator_element("b")
    result = a * (a * b) * a
    assert result == b * a
    oracle = CyclicFreeProductOracle(2, 2)
    assert oracle.reduce([(0, 1), (0, 1), (1, 1), (0, 1)]) == ((1, 1), (0, 1))


def test_mixed_owner_multiplication_rejected(dihedral, z2_star_z3):
    with pytest.raises(GroupUsageError):
        multiply(dihedral.generator_element("a"), z2_star_z3.generator_element("a"))


# ---------------------------------------------------------------------------
# reduce_word


def test_relator_collapse(z2_star_z3):
    word = [("a", 1), ("a", 1), ("b", 1), ("b", 1), ("b", 1)]
    assert reduce_word(z2_star_z3, word).is_identity()


def test_britton_pinch_fires(bs12):
    # t^-1 a a t pinches: a^2 lies in the range subgroup <a^2>
    element = reduce_word(bs12, [("t", -1), ("a", 1), ("a", 1), ("t", 1)])
    assert element == bs12.generator_element("a")
    # independent one-step rewriter agrees
    assert bs12_pinch_reduce([("t", -1), ("a", 2), ("t", 1)]) == [("a", 1)]


def test_britton_pinch_blocked(bs12):
    # a is not in <a^2>, so t^-1 a t stays reduced
    element = reduce_word(bs12, [("t", -1), ("a", 1), ("t", 1)])
    syllables, tail = element.payload
    assert len(syllables) == 2 and tail == 0
    assert bs12_pinch_reduce([("t", -1), ("a", 1), ("t", 1)]) == [
        ("t", -1), ("a", 1), ("t", 1)
    ]


def test_unknown_generator_rejected(dihedral):
    with pytest.raises(GroupUsageError):
        reduce_word(dihedral, [("zz", 1)])


@pytest.mark.parametrize(
    "word, products",
    [
        ([], 0),
        ([("a", 0)], 0),
        ([("a", 1), ("b", 1)], 1),  # the product of the two letters
        ([("a", 8)], 3),  # three squarings
        ([("a", 5), ("b", -3)], 6),  # a^5: 2 squarings + 1; b^-3: 1 + 1; then 1
    ],
)
def test_reduce_letters_spends_no_product_on_the_identity(monkeypatch, word, products):
    f2 = free_group(["a", "b"])
    calls = []
    mul = f2.multiply_payloads
    monkeypatch.setattr(f2, "multiply_payloads", lambda x, y: calls.append(1) or mul(x, y))
    element = f2.reduce_letters(word)
    assert len(calls) == products
    assert render_word(element) == [letter for letter in word if letter[1]]


def test_power_matches_repeated_products(bs12, z2_star_z3):
    for group in (bs12, z2_star_z3):
        for _, g in group.generators():
            g = multiply(g, group.generators()[-1][1])
            expected = group.identity()
            for n in range(10):
                assert g**n == expected
                assert g ** (-n) == invert(expected)
                expected = multiply(expected, g)


def test_reduce_render_fixpoint_spot_checks(bs12, z2_star_z3):
    rng = random.Random(5)
    for group in (bs12, z2_star_z3):
        for _ in range(50):
            e = random_element(group, rng)
            assert reduce_word(group, render_word(e)) == e


# ---------------------------------------------------------------------------
# ball_with_lengths


def test_dihedral_ball_radius_two(dihedral):
    ball = ball_with_lengths(dihedral, 2)[0]
    assert [repr(e) for e in ball] == ["1", "a", "b", "ab", "ba"]


def test_infinite_cyclic_ball():
    ball = ball_with_lengths(InfiniteCyclic(), 3)[0]
    assert len(ball) == 7
    assert {e.payload for e in ball} == set(range(-3, 4))


def test_z3_ball_counts_inverses():
    ball = ball_with_lengths(FiniteCyclic(3, "b"), 1)[0]
    assert {e.payload for e in ball} == {0, 1, 2}


def test_ball_monotone_and_nested(z2_star_z3, bs12):
    for group in (z2_star_z3, bs12):
        small = {e.payload for e in ball_with_lengths(group, 3)[0]}
        large = {e.payload for e in ball_with_lengths(group, 4)[0]}
        assert small <= large
    assert len(ball_with_lengths(z2_star_z3, 0)[0]) == 1


def test_ball_deterministic_order(z2_star_z3):
    first = [e.payload for e in ball_with_lengths(z2_star_z3, 5)[0]]
    second = [e.payload for e in ball_with_lengths(z2_star_z3, 5)[0]]
    assert first == second


def test_ball_against_independent_oracle(z2_star_z3):
    oracle = CyclicFreeProductOracle(2, 3)
    ball = oracle.ball(7)
    sizes = [sum(1 for d in ball.values() if d <= r) for r in range(8)]
    mine, lengths = ball_with_lengths(z2_star_z3, 7)
    my_sizes = [sum(1 for L in lengths if L <= r) for r in range(8)]
    assert my_sizes == sizes


def test_concurrent_enumeration_consistent():
    import threading

    group = FreeProduct(FiniteCyclic(3, "p"), FiniteCyclic(4, "q"))
    results = []

    def work():
        results.append([e.payload for e in ball_with_lengths(group, 5)[0]])

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_ball_levels_end_after_the_last_nonempty_level():
    levels = list(ball_levels(FiniteCyclic(5)))
    assert levels == [[0], [1, 4], [2, 3]]
    lengths = [len(level) for _, level in zip(range(4), ball_levels(free_group(["x"])))]
    assert lengths == [1, 2, 2, 2]


def _count_calls(group, name):
    """Record the calls to one method of this group instance."""
    calls = []
    method = getattr(group, name)
    setattr(group, name, lambda *args: calls.append(args) or method(*args))
    return calls


def test_ball_builds_no_level_past_the_radius():
    # level 0 costs 4 products (x, x^-1, y, y^-1) and level 1 costs 12, since
    # each level-1 element skips its step back to the identity; level 2 is
    # the last one read, so it is never expanded
    group = free_group(["x", "y"])
    products = _count_calls(group, "multiply_payloads")
    elements, lengths = ball_with_lengths(group, 2)
    assert (len(elements), lengths[-1]) == (17, 2)
    assert len(products) == 16


def test_witness_search_reads_the_generators_once():
    from iccdec.oracle import strong_icc_witness

    group = free_group(["x", "y"])
    x = group.generator_element("x")
    reads = _count_calls(group, "generator_payloads")
    result = strong_icc_witness(group, [x], 60, 3)
    assert result.used_radius == 3  # the search ran through four levels
    assert len(reads) == 1


def test_ball_cache_dies_with_its_group():
    import gc
    import weakref

    group = free_group(["x", "y"])
    ref = weakref.ref(group)
    ball_with_lengths(group, 3)
    del group
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# conjugate


def test_conjugate_dihedral(dihedral):
    a = dihedral.generator_element("a")
    b = dihedral.generator_element("b")
    assert conjugate(a * b, a) == b * a


def test_conjugate_identity_fixed(bs12):
    rng = random.Random(9)
    for _ in range(20):
        w = random_element(bs12, rng)
        assert conjugate(bs12.identity(), w).is_identity()
        assert conjugate(w, bs12.identity()) == w


def test_conjugate_semidirect_parabolic_eigenvector():
    g = SemidirectZnByZ(2, [[1, 1], [0, 1]])
    v = g.element(((1, 0), 0))
    t = g.element(((0, 0), 1))
    assert conjugate(v, t) == v  # phi(1,0) = (1,0)


# ---------------------------------------------------------------------------
# normal form theorems, structurally


def test_free_product_alternating_word_nontrivial(z2_star_z3):
    rng = random.Random(13)
    for _ in range(200):
        e = random_element(z2_star_z3, rng)
        if e.payload:  # at least one syllable
            assert not e.is_identity()
            sides = [side for side, _ in e.payload]
            assert all(sides[i] != sides[i + 1] for i in range(len(sides) - 1))


def test_free_product_embeds_a_factor_identity_as_the_empty_word(z2_star_z3):
    for side, factor in enumerate(z2_star_z3.factors):
        assert z2_star_z3.embed(side, factor.identity()).payload == ()
        b = factor.generators()[0][1]
        assert z2_star_z3.embed(side, b).payload == ((side, b.payload),)
    with pytest.raises(GroupUsageError):
        z2_star_z3.embed(1, z2_star_z3.factors[0].identity())


def test_britton_soundness_and_no_pinch(bs12):
    rng = random.Random(17)
    edge = bs12.edge
    for _ in range(300):
        e = random_element(bs12, rng, max_len=8)
        syllables, tail = e.payload
        if syllables:
            assert not e.is_identity()
        for (rep1, eps1), (rep2, eps2) in zip(syllables, syllables[1:]):
            if eps1 == -1 and eps2 == 1:
                assert not edge.contains(1, rep2)
            if eps1 == 1 and eps2 == -1:
                assert not edge.contains(0, rep2)


def test_amalgam_with_trivial_edge_matches_free_product(z2_star_z3):
    edge = AmalgamEdge(cyclic_table(1), [0], [0])
    amalgam = Amalgam(FiniteCyclic(2, "a"), FiniteCyclic(3, "b"), edge)
    for radius in range(6):
        assert len(ball_with_lengths(amalgam, radius)[0]) == len(
            ball_with_lengths(z2_star_z3, radius)[0]
        )


def test_amalgam_edge_must_embed_homomorphically():
    with pytest.raises(GroupUsageError):
        # claiming Z/2 embeds by sending the involution to a generator of Z/4
        # whose square is not the identity image
        Amalgam(
            FiniteCyclic(4, "p"),
            FiniteCyclic(2, "q"),
            AmalgamEdge(cyclic_table(2), [0, 1], [0, 1]),
        )


def test_finite_table_validation():
    with pytest.raises(GroupUsageError):
        FiniteGroupTable([[1, 0], [0, 1]])  # index 0 is not an identity
    with pytest.raises(GroupUsageError):
        FiniteGroupTable([[0, 1], [1, 1]])  # rows not permutations
    table = cyclic_table(4)
    assert [table.inv(i) for i in range(4)] == [0, 3, 2, 1]
    assert sorted(len(s) for s in table.subgroups()) == [1, 2, 4]


def _permutation_table(n: int) -> FiniteGroupTable:
    """S_n, composing as (a b)(k) = a(b(k)); the identity sorts first."""
    elements = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elements)}
    return FiniteGroupTable([[index[tuple(a[k] for k in b)] for b in elements] for a in elements])


@pytest.mark.parametrize(
    "table, count",
    [(cyclic_table(12), 6), (_permutation_table(3), 6), (_permutation_table(4), 30)],
    ids=["Z/12", "S3", "S4"],
)
def test_table_subgroups_are_closed_and_complete(table, count):
    subgroups = table.subgroups()
    assert len(subgroups) == count
    for s in subgroups:
        assert all(table.mul(a, b) in s for a in s for b in s)
        assert all(table.inv(a) in s for a in s)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _random_unimodular(rng, n):
    """A product of random elementary and sign-flip n x n matrices."""
    m = _identity(n)
    for _ in range(rng.randint(0, 8)):
        step = [list(row) for row in _identity(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            step[i][i] = rng.choice((1, -1))
        else:
            step[i][j] = rng.randint(-3, 3)
        m = mat_mul(m, tuple(map(tuple, step)))
    return m


def test_unimodular_inverse_of_ranks_one_to_three():
    rng = random.Random(13)
    for n in (1, 2, 3):
        for _ in range(300):
            m = _random_unimodular(rng, n)
            inverse = mat_inverse_unimodular(m)
            assert mat_mul(inverse, m) == _identity(n)
            assert mat_mul(m, inverse) == _identity(n)
    with pytest.raises(GroupUsageError):
        mat_inverse_unimodular(((2, 0), (0, 1)))


def test_semidirect_products_of_ranks_one_to_three_follow_the_definition():
    # (v, m)(w, k) = (v + phi^m w, m + k), with phi^m a product of |m|
    # copies of phi or its inverse; and a payload times its inverse is 1
    rng = random.Random(29)
    for n in (1, 2, 3):
        for _ in range(40):
            phi = _random_unimodular(rng, n)
            group = SemidirectZnByZ(n, phi)
            for _ in range(10):
                (v, m), (w, k) = [
                    (tuple(rng.randint(-9, 9) for _ in range(n)), rng.randint(-6, 6))
                    for _ in range(2)
                ]
                power = _identity(n)
                for _ in range(abs(m)):
                    power = mat_mul(power, phi if m > 0 else mat_inverse_unimodular(phi))
                moved = [sum(p * x for p, x in zip(row, w)) for row in power]
                expected = (tuple(x + y for x, y in zip(v, moved)), m + k)
                assert group.multiply_payloads((v, m), (w, k)) == expected
                inverse = group.invert_payload((v, m))
                assert group.multiply_payloads((v, m), inverse) == group.identity_payload()
                assert group.multiply_payloads(inverse, (v, m)) == group.identity_payload()


def test_fiber_extension_trefoil_relations():
    group = FiberExtension([TorsionPart("x", 2, -1), TorsionPart("y", 3, -1)])
    x = group.generator_element("x")
    y = group.generator_element("y")
    h = group.fiber()
    assert x * x == y * y * y == ~h
    assert commutes_with_generators(h)
    assert group.fiber_is_central()


def test_fiber_extension_sign_inverts_fiber():
    group = FiberExtension([FreePart("a", -1), TorsionPart("q", 3, -2)])
    h = group.fiber()
    a = group.generator_element("a")
    q = group.generator_element("q")
    assert conjugate(h, a) == ~h
    assert conjugate(h, q) == h
    assert not group.fiber_is_central()
    assert (q ** 3) == h ** (-2)
    assert group.order() == INFINITE


def test_fiber_extensions_are_equal_by_their_parts():
    def parts():
        return [FreePart("a", -1), TorsionPart("q", 3, -2)]

    group = FiberExtension(parts())
    assert group == FiberExtension(parts()) and hash(group) == hash(FiberExtension(parts()))
    assert group.fiber() == FiberExtension(parts()).fiber()
    assert group != FiberExtension(parts(), fiber_name="z")
    assert group != FiberExtension([FreePart("a", 1), TorsionPart("q", 3, -2)])
    assert TorsionPart("x", 2, 1) != FreePart("x")
    assert FiberExtension([TorsionPart("x", 2, 1)]) != FiberExtension([FreePart("x")])


def test_surface_group_realizations():
    assert SurfaceGroup(1, True, 1).realization().describe() == "(Z * Z)"
    mobius = SurfaceGroup(1, False, 1)
    assert mobius.order() == float("inf")
    assert len(ball_with_lengths(mobius, 2)[0]) == 5  # Z ball of radius 2
    assert SurfaceGroup(1, False, 0).order() == 2  # projective plane
    closed = SurfaceGroup(2, True, 0)
    with pytest.raises(NotEnumerableError):
        closed.identity()


def test_semidirect_validation():
    with pytest.raises(GroupUsageError):
        SemidirectZnByZ(2, [[2, 0], [0, 1]])  # determinant 2
    with pytest.raises(GroupUsageError):
        SemidirectZnByZ(4, [[1, 0], [0, 1]])  # rank out of range


def test_direct_with_finite_center():
    group = DirectWithFinite(
        FreeProduct(InfiniteCyclic("x"), InfiniteCyclic("y")),
        cyclic_table(2, names=["1", "z"]),
    )
    z = group.finite_element(1)
    assert commutes_with_generators(z)
    assert conjugate(z, group.generator_element("x")) == z


def test_power_operator(bs12):
    a = bs12.generator_element("a")
    assert a ** 5 == reduce_word(bs12, [("a", 5)])
    assert a ** -3 == ~(a ** 3)
    assert (a ** 0).is_identity()


# ---------------------------------------------------------------------------
# payload keys


class _BinaryFreeProduct(StructuredGroup):
    """The binary free product G1 * G2 as FreeProduct once was: a product of
    n factors was the left-nested chain of n - 1 of these.  Kept as the
    reference for the order in which a flat FreeProduct lists its words."""

    def __init__(self, left, right):
        self.factors = (left, right)

    def signature(self):
        return ("binary_free_product", *(f.signature() for f in self.factors))

    def identity_payload(self):
        return ()

    def multiply_payloads(self, a, b):
        i, j = 0, len(a)
        while j and i < len(b) and a[j - 1][0] == b[i][0]:
            factor = self.factors[b[i][0]]
            merged = factor.multiply_payloads(a[j - 1][1], b[i][1])
            if merged != factor.identity_payload():
                return a[: j - 1] + ((b[i][0], merged),) + b[i + 1 :]
            i, j = i + 1, j - 1
        return a[:j] + b[i:]

    def invert_payload(self, a):
        return tuple((side, self.factors[side].invert_payload(p)) for side, p in reversed(a))

    def generator_payloads(self):
        out = []
        for side, factor in enumerate(self.factors):
            for name, payload in factor.generator_payloads():
                trivial = payload == factor.identity_payload()
                out.append((name, () if trivial else ((side, payload),)))
        return out

    def payload_key(self, payload):
        return _reference_key(self, payload)

    def render_payload(self, payload):
        return [letter for side, p in payload for letter in self.factors[side].render_payload(p)]

    def payload_str(self, payload):
        return "".join(self.factors[side].payload_str(p) for side, p in payload) or "1"

    def order(self):
        raise NotImplementedError

    def describe(self):
        return f"({self.factors[0].describe()} * {self.factors[1].describe()})"


@functools.cache
def _left_nested(group):
    """The left-nested chain of binary free products of group's factors."""
    return functools.reduce(_BinaryFreeProduct, group.factors)


def _reference_key(group, payload):
    """payload_key without the key memos: the key of every syllable and
    tail rebuilt through its factor, recursively.  The key of a flat product
    of three or more factors is the key of the same word in the left-nested
    chain, whose keys have another shape but must give the same order."""
    if isinstance(group, FreeProduct) and len(group.factors) > 2:
        nested = _left_nested(group)
        word = group.render_payload(payload)
        return _reference_key(nested, nested.reduce_letters(word).payload)
    if isinstance(group, (FreeProduct, _BinaryFreeProduct)):
        syllables = tuple((side, _reference_key(group.factors[side], p)) for side, p in payload)
        return (len(payload), syllables)
    if isinstance(group, Amalgam):
        syllables, edge_idx = payload
        keyed = tuple((side, _reference_key(group.factors[side], p)) for side, p in syllables)
        return (len(syllables), keyed, edge_idx)
    if isinstance(group, Hnn):
        syllables, tail = payload
        keyed = tuple((_reference_key(group.base, rep), eps) for rep, eps in syllables)
        return (len(syllables), _reference_key(group.base, tail), keyed)
    if isinstance(group, DirectWithFinite):
        return (_reference_key(group.h, payload[0]), payload[1])
    if isinstance(group, SurfaceGroup):
        return _reference_key(group._carrier(), payload)
    return group.payload_key(payload)


def _three_piece_manifold_group(corpus_dir):
    from iccdec.descriptors import parse_descriptor_data
    from iccdec.manifolds import manifold_group

    files = ("manifold_p3_p3.json", "manifold_trefoil_complement.json", "manifold_t3.json")
    pieces = [json.loads((corpus_dir / name).read_text())["pieces"][0] for name in files]
    data = {"schema_version": 1, "type": "manifold", "orientable": True, "pieces": pieces}
    group, _ = manifold_group(parse_descriptor_data(data).manifold)
    return group


def test_memoized_keys_equal_the_recursive_keys(manifest, corpus_dir):
    groups = [(name, group) for name, _, group in enumerable_corpus_groups(manifest, corpus_dir)]
    groups += [
        ("free rank 3", free_group(["x", "y", "z"])),
        ("free rank 4", free_group(["w", "x", "y", "z"])),
        ("three pieces", _three_piece_manifold_group(corpus_dir)),
    ]
    for name, group in groups:
        ball, lengths = ball_with_lengths(group, 3)
        reference = [_reference_key(group, g.payload) for g in ball]
        # the ball levels were sorted through the memos
        assert sorted(zip(lengths, reference)) == list(zip(lengths, reference)), name
        # twice: the second lookup reads what the first one stored
        keys = [group.payload_key(g.payload) for g in ball]
        assert [group.payload_key(g.payload) for g in ball] == keys, name
        if isinstance(group, FreeProduct) and len(group.factors) > 2:
            assert _ranks(keys) == _ranks(reference), name
        else:
            assert keys == reference, name


def _ranks(keys):
    return sorted(range(len(keys)), key=keys.__getitem__)


def _random_free_product(rng, factors):
    kinds = [rng.choice([1, 2, 3, 4, None]) for _ in range(factors)]
    return FreeProduct(*(
        InfiniteCyclic(f"t{i}") if n is None else FiniteCyclic(n, f"c{i}")
        for i, n in enumerate(kinds)
    ))


def _sweep_free_product(rng):
    # the shape of the free products perfbench/sweep.py generates
    from iccdec.descriptors import parse_descriptor_data

    factors = [
        {"infinite_cyclic": {}} if rng.random() < 0.25
        else {"cyclic": rng.choice((2, 2, 3, 4, 5, 6))}
        for _ in range(rng.randint(2, 4))
    ]
    data = {"schema_version": 1, "type": "group", "construction": {"free_product": factors}}
    return parse_descriptor_data(data).group


def test_flat_free_products_order_words_as_the_left_nested_chain(corpus_dir):
    rng = random.Random(10)
    groups = [_random_free_product(rng, rng.randint(3, 6)) for _ in range(12)]
    groups += [_sweep_free_product(rng) for _ in range(8)]
    groups += [free_group(["x", "y", "z"]), free_group(["w", "x", "y", "z"])]
    groups.append(_three_piece_manifold_group(corpus_dir))
    for group in groups:
        nested = _left_nested(group)
        name = group.describe()
        assert nested.describe() == name
        # the balls list the same words in the same order
        radius = 4 if len(group.generator_payloads()) <= 3 else 3
        flat = [render_word(g) for g in ball_with_lengths(group, radius)[0]]
        assert flat == [render_word(g) for g in ball_with_lengths(nested, radius)[0]], name
        # and so do long words sorted by key
        letters = [(n, e) for n, _ in group.generator_payloads() for e in (1, -1)]
        words = [rng.choices(letters, k=rng.randint(8, 24)) for _ in range(80)]

        def sorted_words(product):
            elements = {product.reduce_letters(w) for w in words}
            return [render_word(g) for g in sorted(elements, key=lambda g: g.group.payload_key(g.payload))]

        assert sorted_words(group) == sorted_words(nested), name


def test_key_memo_stops_storing_at_its_cap():
    group = FreeProduct(InfiniteCyclic("x"), InfiniteCyclic("y"))
    payloads = [((0, k), (1, k)) for k in range(1, KEY_MEMO_ENTRIES)]
    for payload in payloads:
        assert group.payload_key(payload) == _reference_key(group, payload)
    assert len(group._syllable_keys) == KEY_MEMO_ENTRIES
    for payload in payloads:
        assert group.payload_key(payload) == _reference_key(group, payload)
    assert len(group._syllable_keys) == KEY_MEMO_ENTRIES


def _level_nested_key(group, payload, top):
    """The key FreeProduct once gave a product of three or more factors:
    the key of payload in the left-nested product of factors 0..top, one
    level per factor.  Kept as the reference for the order of the key led
    by the highest side."""
    items = [
        (0, _level_nested_key(group, tuple(run), top - 1))
        if lower and top > 1
        else (lambda side, p: (side, group.factors[side].payload_key(p)))(*next(run))
        for lower, run in itertools.groupby(payload, lambda syllable: syllable[0] < top)
    ]
    return (len(items), tuple(items))


def _key_levels(key):
    """How many keys nest in a key led by the highest side, itself included:
    below a top side past 0, an item led by 0 is a run's key."""
    if not key:
        return 0
    top, _, items = key
    return 1 + max((_key_levels(item[1]) for item in items if top and not item[0]), default=0)


def test_top_side_keys_order_words_as_the_level_nested_keys():
    rng = random.Random(31)
    sorted_payloads = 0
    for _ in range(60):
        group = _random_free_product(rng, rng.randint(2, 9))
        letters = [(n, e) for n, _ in group.generator_payloads() for e in (1, -1)]
        payloads = {group.reduce_letters(rng.choices(letters, k=rng.randint(0, 16))).payload
                    for _ in range(300)}
        top = len(group.factors) - 1
        reference = sorted(payloads, key=lambda p: _level_nested_key(group, p, top))
        assert sorted(payloads, key=group._top_key) == reference, group.describe()
        assert sorted(payloads, key=group.payload_key) == reference, group.describe()
        assert len({group._top_key(p) for p in payloads}) == len(payloads)
        for p in payloads:
            # one level per distinct side, where the level-nested key took
            # one per factor
            assert _key_levels(group._top_key(p)) <= len({side for side, _ in p}), p
        sorted_payloads += len(payloads)
    assert sorted_payloads > 10_000


def test_a_191_factor_free_product_keys_its_radius_1_class_ball(tmp_path, capsys):
    # an orientable genus-64 surface with 64 boundary components is free of
    # rank 191, within the parser's limits; its level-nested keys were 190
    # levels deep, and this class ball took over a second to sort
    from iccdec.cli import main

    surface = {"genus": 64, "orientable": True, "boundary_components": 64}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "type": "group", "construction": {"surface_group": surface}}
    ))
    command = ["enumerate", str(path), "--element", "x1", "--radius", "1", "--window", "1"]
    assert main(command + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["counts_by_radius"] == [1, 381]
    group = SurfaceGroup(64, True, 64).realization()
    x1 = group.generator_element("x1")
    for _, s in group.generators():
        key = group.payload_key(conjugate(x1, s).payload)
        assert _key_levels(key) <= 2, key


# ---------------------------------------------------------------------------
# Record: the frozen value type of verdicts, descriptors and reports


def test_records_compare_by_type_and_fields():
    assert HomotopySpherePiece() != HyperbolicKnot()
    assert HomotopySpherePiece() == HomotopySpherePiece()
    assert HomotopySpherePiece().__eq__(HyperbolicKnot()) is NotImplemented
    assert TorusKnot(2, 3) == TorusKnot(2, 3) and TorusKnot(2, 3) is not TorusKnot(2, 3)
    assert hash(TorusKnot(2, 3)) == hash(TorusKnot(2, 3)) == hash((2, 3))
    assert TorusKnot(2, 3) != TorusKnot(3, 2)
    assert TorusKnot(2, 3) != (2, 3)
    assert len({Citation("Prop 3(i)"), Citation("Prop 3(i)", ""), Citation("Lemma 10")}) == 2


def test_records_take_keywords_and_defaults():
    assert Citation("Prop 3(i)").detail == ""
    assert Citation(detail="x", label="Prop 3(i)") == Citation("Prop 3(i)", "x")
    witness = Witness("group is finite", finite=True)
    assert (witness.element, witness.kind) == (None, "finite")
    assert SeifertInvariants(0, True, 1).exceptional_fibers == ()
    with pytest.raises(TypeError):
        TorusKnot(2)
    with pytest.raises(TypeError):
        TorusKnot(2, 3, 5)


def test_records_are_frozen():
    knot = TorusKnot(2, 3)
    with pytest.raises(AttributeError):
        knot.p = 5
    with pytest.raises(AttributeError):
        del knot.q
    with pytest.raises(AttributeError):
        knot.extra = 1
    assert (knot.p, knot.q) == (2, 3)


def test_records_keep_their_checks_and_normalizations():
    with pytest.raises(GroupUsageError):
        TorusKnot(2, 4)
    with pytest.raises(GroupUsageError):
        Citation("no such label")
    piece = TorusBundlePiece([[True, 1], [0, 1]])
    assert piece.monodromy == ((1, 1), (0, 1))
    assert all(type(x) is int for row in piece.monodromy for x in row)


def test_records_print_as_the_dataclasses_did():
    assert repr(Citation("Prop 3(i)", "factor orders 3 and 2")) == (
        "Citation(label='Prop 3(i)', detail='factor orders 3 and 2')"
    )
    assert repr(SeifertInvariants(0, True, 0, ((2, 1), (3, -1)), -1)) == (
        "SeifertInvariants(base_genus=0, base_orientable=True, boundary_components=0, "
        "exceptional_fibers=((2, 1), (3, -1)), euler_obstruction=-1)"
    )
    assert repr(HomotopySpherePiece()) == "HomotopySpherePiece()"
