"""Normal forms cross-validated against independent realizations.

Each check evaluates the same random words along two unrelated paths: the
package's normal-form machinery, and a concrete faithful model computed with
plain exact arithmetic (integer or rational matrices, or quotient-plus-
abelianization bookkeeping).  Equality patterns and ball sizes must agree
exactly.
"""

import random
from fractions import Fraction

from iccdec.groups import (
    Amalgam,
    AmalgamEdge,
    CyclicPowerEdge,
    FiberExtension,
    FiniteCyclic,
    FreeProduct,
    Hnn,
    InfiniteCyclic,
    TorsionPart,
    ball_with_lengths,
    cyclic_table,
    reduce_word,
)
from conftest import CyclicFreeProductOracle


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_pow(a, e):
    n = len(a)
    result = tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n))
    result = tuple(tuple(x * 1 for x in row) for row in result)
    base = a
    if e < 0:
        base = _mat_inv2(a)
        e = -e
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        e >>= 1
    return result


def _mat_inv2(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if det in (1, -1) and not isinstance(det, Fraction):
        return tuple(
            tuple(x * det for x in row)
            for row in ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))
        )
    return tuple(
        tuple(Fraction(x) / det for x in row)
        for row in ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))
    )


def _random_words(names, rng, count, max_len):
    for _ in range(count):
        yield [
            (rng.choice(names), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(0, max_len))
        ]


def test_amalgam_matches_integer_matrix_model():
    # Z/4 *_(Z/2) Z/6 is the 2x2 integer matrix group generated by
    # p = [[0,-1],[1,0]] (order 4) and q = [[0,-1],[1,1]] (order 6), glued
    # along p^2 = q^3 = -identity; two words are equal in the amalgam iff
    # their matrix products coincide
    edge = AmalgamEdge(cyclic_table(2), [0, 2], [0, 3])
    amalgam = Amalgam(FiniteCyclic(4, "p"), FiniteCyclic(6, "q"), edge)
    p = ((0, -1), (1, 0))
    q = ((0, -1), (1, 1))
    identity = ((1, 0), (0, 1))
    model = {"p": p, "q": q}

    def matrix_of(word):
        acc = identity
        for name, exp in word:
            acc = _mat_mul(acc, _mat_pow(model[name], exp))
        return acc

    rng = random.Random(71)
    words = list(_random_words(["p", "q"], rng, 400, 8))
    elements = [reduce_word(amalgam, w) for w in words]
    matrices = [matrix_of(w) for w in words]
    for i in range(0, len(words) - 1, 2):
        same_mine = elements[i] == elements[i + 1]
        same_model = matrices[i] == matrices[i + 1]
        assert same_mine == same_model, (words[i], words[i + 1])
    for element, matrix in zip(elements, matrices):
        assert element.is_identity() == (matrix == identity)

    # ball sizes over the same generating set agree exactly
    step = [
        _mat_pow(p, 1), _mat_pow(p, -1), _mat_pow(q, 1), _mat_pow(q, -1),
    ]
    seen = {identity: 0}
    frontier = [identity]
    for depth in range(1, 8):
        new = []
        for m in frontier:
            for s in step:
                c = _mat_mul(m, s)
                if c not in seen:
                    seen[c] = depth
                    new.append(c)
        frontier = new
    _, lengths = ball_with_lengths(amalgam, 7)
    for r in range(8):
        mine = sum(1 for L in lengths if L <= r)
        model_count = sum(1 for d in seen.values() if d <= r)
        assert mine == model_count, r


def test_bs12_matches_rational_affine_model():
    # BS(1,2) acts faithfully by x -> 2^m x + c on the dyadic rationals:
    # a = [[1,1],[0,1]], t = [[2,0],[0,1]] over the rationals
    group = Hnn(InfiniteCyclic("a"), CyclicPowerEdge(1, 2))
    a = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    t = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    model = {"a": a, "t": t}

    def matrix_of(word):
        acc = identity
        for name, exp in word:
            acc = _mat_mul(acc, _mat_pow(model[name], exp))
        return acc

    rng = random.Random(73)
    words = list(_random_words(["a", "t"], rng, 400, 8))
    elements = [reduce_word(group, w) for w in words]
    matrices = [matrix_of(w) for w in words]
    for i in range(0, len(words) - 1, 2):
        assert (elements[i] == elements[i + 1]) == (matrices[i] == matrices[i + 1]), (
            words[i],
            words[i + 1],
        )
    for element, matrix in zip(elements, matrices):
        assert element.is_identity() == (matrix == identity)

    seen = {identity: 0}
    frontier = [identity]
    step = [_mat_pow(a, 1), _mat_pow(a, -1), _mat_pow(t, 1), _mat_pow(t, -1)]
    for depth in range(1, 8):
        new = []
        for m in frontier:
            for s in step:
                c = _mat_mul(m, s)
                if c not in seen:
                    seen[c] = depth
                    new.append(c)
        frontier = new
    _, lengths = ball_with_lengths(group, 7)
    for r in range(8):
        assert sum(1 for L in lengths if L <= r) == sum(1 for d in seen.values() if d <= r)


def test_trefoil_fiber_extension_bookkeeping():
    # two independent projections determine trefoil-group elements exactly:
    # the quotient word in Z/2 * Z/3 (independent string reducer) and the
    # abelianization Z with x -> 3, y -> 2, h -> -6.  Together they pin the
    # payload (k, w): the fiber exponent is forced by the abelianized value.
    group = FiberExtension([TorsionPart("x", 2, -1), TorsionPart("y", 3, -1)])
    oracle = CyclicFreeProductOracle(2, 3)
    ab_image = {"x": 3, "y": 2, "h": -6}
    part_of = {"x": 0, "y": 1}

    rng = random.Random(79)
    for word in _random_words(["x", "y", "h"], rng, 600, 8):
        element = reduce_word(group, word)
        k, syllables = element.payload
        # quotient check: drop h letters, reduce independently
        quotient_word = oracle.reduce(
            [(part_of[name], exp) for name, exp in word if name != "h"]
        )
        assert tuple(syllables) == quotient_word, word
        # abelianization check: k is forced
        ab_word = sum(ab_image[name] * exp for name, exp in word)
        ab_payload = -6 * k + sum(
            ab_image["x" if j == 0 else "y"] * e for j, e in syllables
        )
        assert ab_word == ab_payload, word


def test_embeddings_are_homomorphisms():
    rng = random.Random(83)
    z4, z6 = FiniteCyclic(4, "p"), FiniteCyclic(6, "q")
    amalgam = Amalgam(z4, z6, AmalgamEdge(cyclic_table(2), [0, 2], [0, 3]))
    for _ in range(100):
        g = z6.element(rng.randrange(6))
        h = z6.element(rng.randrange(6))
        assert amalgam.embed(1, g) * amalgam.embed(1, h) == amalgam.embed(1, g * h)
    base = FreeProduct(FiniteCyclic(2, "a"), FiniteCyclic(3, "b"))
    hnn = Hnn(
        base,
        __import__("iccdec").groups.FiniteHnnEdge(
            cyclic_table(1), [base.identity_payload()], [base.identity_payload()]
        ),
    )

    def embed_base(g):
        return hnn.element(((), g.payload))

    for _ in range(100):
        letters1 = [(rng.choice(["a", "b"]), rng.choice([-1, 1])) for _ in range(4)]
        letters2 = [(rng.choice(["a", "b"]), rng.choice([-1, 1])) for _ in range(4)]
        g, h = reduce_word(base, letters1), reduce_word(base, letters2)
        assert embed_base(g) * embed_base(h) == embed_base(g * h)
