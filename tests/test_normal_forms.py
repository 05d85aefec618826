"""Normal-form products of the syllable constructions: free products,
amalgams, HNN extensions and fiber extensions.

The constructions multiply two normal forms by reducing only where they
meet.  The reference below is the per-syllable multiply they replaced: it
absorbs every syllable of the right factor, one at a time, into the left.
"""

import gc
import os
import random
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iccdec.cli import _enumerable_group
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
    Hnn,
    InfiniteCyclic,
    SurfaceGroup,
    TorsionPart,
    ball_with_lengths,
    conjugate,
    cyclic_table,
    free_group,
)
from iccdec.groups.base import KEY_MEMO_ENTRIES
from iccdec.manifolds import SeifertInvariants, seifert_group
from conftest import load_corpus_descriptor

# ---------------------------------------------------------------------------
# reference: the per-syllable multiply, applied at every level


def ref_mul(group, a, b):
    kind = type(group)
    if kind is FreeProduct:
        return _ref_free_product_mul(group, a, b)
    if kind is Amalgam:
        return _ref_amalgam_mul(group, a, b)
    if kind is Hnn:
        return _ref_hnn_mul(group, a, b)
    if kind is FiberExtension:
        return _ref_fiber_mul(group, a, b)
    if kind is DirectWithFinite:
        return (ref_mul(group.h, a[0], b[0]), group.f.mul(a[1], b[1]))
    if kind is SurfaceGroup:
        return ref_mul(group.realization(), a, b)
    return group.multiply_payloads(a, b)


def ref_inv(group, a):
    kind = type(group)
    if kind is FreeProduct:
        return tuple((side, ref_inv(group.factors[side], p)) for side, p in reversed(a))
    if kind is Amalgam:
        return _ref_amalgam_inv(group, a)
    if kind is Hnn:
        return _ref_hnn_inv(group, a)
    if kind is FiberExtension:
        return _ref_fiber_inv(group, a)
    if kind is DirectWithFinite:
        return (ref_inv(group.h, a[0]), group.f.inv(a[1]))
    if kind is SurfaceGroup:
        return ref_inv(group.realization(), a)
    return group.invert_payload(a)


def _ref_free_product_mul(group, a, b):
    stack = list(a)
    for side, payload in b:
        factor = group.factors[side]
        if payload == factor.identity_payload():
            continue
        if stack and stack[-1][0] == side:
            merged = ref_mul(factor, stack.pop()[1], payload)
            if merged != factor.identity_payload():
                stack.append((side, merged))
        else:
            stack.append((side, payload))
    return tuple(stack)


def _ref_amalgam_absorb(group, stack, edge_idx, side, payload):
    factor = group.factors[side]
    images = group.edge.embeds[side]
    current = ref_mul(factor, images[edge_idx], payload)
    if current in images:
        return images.index(current)
    if stack and stack[-1][0] == side:
        _, prev = stack.pop()
        return _ref_amalgam_absorb(group, stack, 0, side, ref_mul(factor, prev, current))
    rep, idx = min(
        ((ref_mul(factor, current, image), idx) for idx, image in enumerate(images)),
        key=lambda candidate: factor.payload_key(candidate[0]),
    )
    stack.append((side, rep))
    return group.edge.table.inv(idx)


def _ref_amalgam_mul(group, a, b):
    stack = list(a[0])
    edge_idx = a[1]
    for side, rep in b[0]:
        edge_idx = _ref_amalgam_absorb(group, stack, edge_idx, side, rep)
    return (tuple(stack), group.edge.table.mul(edge_idx, b[1]))


def _ref_amalgam_inv(group, a):
    stack = []
    edge_idx = group.edge.table.inv(a[1])
    for side, rep in reversed(a[0]):
        edge_idx = _ref_amalgam_absorb(
            group, stack, edge_idx, side, ref_inv(group.factors[side], rep)
        )
    return (tuple(stack), edge_idx)


def _ref_absorb_t(group, payload, eps):
    base, edge = group.base, group.edge
    syllables, tail = payload
    stack = list(syllables)
    if eps == +1:
        if stack and stack[-1][1] == -1 and edge.contains(1, tail):
            rep, _ = stack.pop()
            return (tuple(stack), ref_mul(base, rep, edge.carry(1, tail)))
        rep, residual = edge.rep(base, 1, tail)
        stack.append((rep, +1))
        return (tuple(stack), edge.carry(1, residual))
    if stack and stack[-1][1] == +1 and edge.contains(0, tail):
        rep, _ = stack.pop()
        return (tuple(stack), ref_mul(base, rep, edge.carry(0, tail)))
    rep, residual = edge.rep(base, 0, tail)
    stack.append((rep, -1))
    return (tuple(stack), edge.carry(0, residual))


def _ref_hnn_mul(group, a, b):
    syllables, tail = a
    for rep, eps in b[0]:
        syllables, tail = _ref_absorb_t(group, (syllables, ref_mul(group.base, tail, rep)), eps)
    return (syllables, ref_mul(group.base, tail, b[1]))


def _ref_hnn_inv(group, a):
    base = group.base
    acc = ((), ref_inv(base, a[1]))
    for rep, eps in reversed(a[0]):
        syllables, tail = _ref_absorb_t(group, acc, -eps)
        acc = (syllables, ref_mul(base, tail, ref_inv(base, rep)))
    return acc


def _ref_chi(group, word):
    sign = 1
    for j, e in word:
        part = group.parts[j]
        if isinstance(part, FreePart) and part.sign == -1 and e % 2:
            sign = -sign
    return sign


def _ref_fiber_append(group, stack, k, j, e):
    if stack and stack[-1][0] == j:
        e += stack.pop()[1]
    part = group.parts[j]
    if isinstance(part, TorsionPart):
        carry, e = divmod(e, part.order)
        if carry:
            k += part.fiber_carry * carry * _ref_chi(group, stack)
    if e:
        stack.append((j, e))
    return k


def _ref_fiber_mul(group, a, b):
    (k1, w1), (k2, w2) = a, b
    k = k1 + _ref_chi(group, w1) * k2
    stack = list(w1)
    for j, e in w2:
        k = _ref_fiber_append(group, stack, k, j, e)
    return (k, tuple(stack))


def _ref_fiber_inv(group, a):
    k, w = a
    out_k = -k * _ref_chi(group, w)
    stack = []
    for j, e in reversed(w):
        out_k = _ref_fiber_append(group, stack, out_k, j, -e)
    return (out_k, tuple(stack))


# ---------------------------------------------------------------------------
# groups


def _corpus_group(name):
    from importlib import resources

    corpus = resources.files("iccdec") / "corpus"
    return _enumerable_group(load_corpus_descriptor(corpus, name))[0]


def _infinite_factor_amalgam():
    # (Z x Z/2) *_{Z/2} (Z x Z/2): infinite factors search their cosets
    # every time
    left = DirectWithFinite(InfiniteCyclic("a"), cyclic_table(2, ["1", "u"]))
    right = DirectWithFinite(InfiniteCyclic("b"), cyclic_table(2, ["1", "v"]))
    edge = AmalgamEdge(cyclic_table(2), [(0, 0), (0, 1)], [(0, 0), (0, 1)])
    return Amalgam(left, right, edge)


def _z5_square_iso():
    # (Z/5 * Z/2) over the Z/5 factor on both sides, with phi(x) = x^2 of
    # order 4, so phi^-1 is not phi
    base = FreeProduct(FiniteCyclic(5, "x"), FiniteCyclic(2, "y"))
    images = [()] + [((0, k),) for k in range(1, 5)]
    return Hnn(base, FiniteHnnEdge(cyclic_table(5), images, images, [0, 2, 4, 1, 3]))


def _nonorientable_seifert_piece():
    # base: a Moebius band with one more boundary circle and a (3, 1) fiber;
    # the base's orientation-reversing loop is a FreePart of sign -1
    invariants = SeifertInvariants(1, False, 2, ((3, 1),))
    return seifert_group(invariants).realization


# each group's builder, for the tests that need a group no other test warmed
BUILDERS = {
    # free products: nested, finite factors, infinite factors
    "free_rank2": lambda: _corpus_group("group_free_rank2.json"),
    "free_rank3": lambda: free_group(["x", "y", "z"]),
    "z2_star_z3": lambda: _corpus_group("group_z2_star_z3.json"),
    "z_star_z2": lambda: _corpus_group("group_z_star_z2.json"),
    # amalgams: nontrivial edge residuals, finite and infinite factors
    "s3_amalgam_s3": lambda: _corpus_group("group_s3_amalgam_s3.json"),
    "psl2z_amalgam": lambda: _corpus_group("group_psl2z_amalgam.json"),
    "infinite_factor_amalgam": _infinite_factor_amalgam,
    # HNN extensions: finite edges with residuals, cyclic-power edges with
    # the domain the whole base and with both sides proper and a negative
    # power, and a finite edge whose iso is not its own inverse
    "hnn_z_x_z2": lambda: _corpus_group("group_hnn_z_x_z2.json"),
    "hnn_icc_base": lambda: _corpus_group("group_hnn_icc_base.json"),
    "bs12": lambda: _corpus_group("group_bs12.json"),
    "bs2_neg3": lambda: Hnn(InfiniteCyclic("a"), CyclicPowerEdge(2, -3)),
    "z5_square_iso": _z5_square_iso,
    # fiber extensions: torus knots carry into the fiber; a sign -1 part
    "trefoil": lambda: _corpus_group("knot_trefoil.json"),
    "torus_knot_3_5": lambda: FiberExtension([TorsionPart("x", 3, 1), TorsionPart("y", 5, 1)]),
    "nonorientable_seifert": _nonorientable_seifert_piece,
}
GROUPS = {name: build() for name, build in BUILDERS.items()}
# the amalgams and HNN extensions, whose reduction steps are memoized
MEMOIZED = sorted(name for name, g in GROUPS.items() if isinstance(g, (Amalgam, Hnn)))


def test_groups_cover_each_construction():
    kinds = Counter(type(g).__name__ for g in GROUPS.values())
    assert kinds == Counter(FreeProduct=4, Amalgam=3, Hnn=5, FiberExtension=3)
    signs = [p.sign for p in GROUPS["nonorientable_seifert"].parts if isinstance(p, FreePart)]
    assert -1 in signs


def _steps(group):
    """Generator payloads and their inverses, through the reference."""
    out = []
    for _, payload in group.generator_payloads():
        out.extend((payload, ref_inv(group, payload)))
    return out


def _ref_word(group, rng, steps, length):
    acc = group.identity_payload()
    for _ in range(length):
        acc = ref_mul(group, acc, rng.choice(steps))
    return acc


# ---------------------------------------------------------------------------
# differential test against the reference


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_products_and_inverses_match_reference(name):
    group = GROUPS[name]
    rng = random.Random(f"normal-forms-{name}")
    steps = _steps(group)
    cascades = 0
    for trial in range(150):
        u, v, z = (_ref_word(group, rng, steps, rng.randrange(12)) for _ in range(3))
        pairs = [
            (u, z),
            # a = u v and b = v^-1 z: v cancels across the junction
            (ref_mul(group, u, v), ref_mul(group, ref_inv(group, v), z)),
            # a w and w^-1: the whole of b cancels
            (ref_mul(group, u, v), ref_inv(group, v)),
        ]
        for a, b in pairs:
            assert group.multiply_payloads(a, b) == ref_mul(group, a, b), (a, b)
            assert group.invert_payload(a) == ref_inv(group, a), a
        if v != group.identity_payload():
            cascades += 1
    assert cascades > 100


# ---------------------------------------------------------------------------
# group laws on random generator words


def _element(group, word):
    names = [name for name, _ in group.generator_payloads()]
    return group.reduce_letters([(names[i % len(names)], e) for i, e in word])


_WORD = st.lists(st.tuples(st.integers(0, 7), st.sampled_from((1, -1))), max_size=14)
_LAWS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("name", sorted(GROUPS))
@_LAWS
@given(x=_WORD, y=_WORD, z=_WORD)
def test_group_laws(name, x, y, z):
    group = GROUPS[name]
    x, y, z = (_element(group, w) for w in (x, y, z))
    one = group.identity()
    assert (x * y) * z == x * (y * z)
    assert x * ~x == one and ~x * x == one
    assert one * x == x and x * one == x
    assert group.reduce_letters(group.render_payload(x.payload)) == x


# ---------------------------------------------------------------------------
# the junction property: conjugating by a generator costs the same for any
# length of the conjugated word


def _calls(fn):
    """Calls of each iccdec function made while fn runs."""
    counts = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and "iccdec" in code.co_filename:
            counts[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize(
    "name, cycle, by, factor_kind",
    [
        ("free_rank2", ["x", "y"], "x", "cyclic.py:multiply_payloads"),
        ("hnn_icc_base", ["a", "t", "b", "t"], "t", "free_product.py:multiply_payloads"),
    ],
)
def test_conjugation_cost_does_not_grow_with_the_word(name, cycle, by, factor_kind):
    group = GROUPS[name]
    s = group.generator_element(by)
    counts = []
    for n in (10, 200):
        c = group.reduce_letters([(cycle[i % len(cycle)], 1) for i in range(n)])
        conjugated = conjugate(c, s)
        assert conjugated == s * c * ~s
        counts.append(_calls(lambda: conjugate(c, s)))
    short, long = counts
    # factor (F2) or base (HNN) products are among the counted calls
    assert short[factor_kind] > 0
    assert short == long


# ---------------------------------------------------------------------------
# the memoized reduction steps of amalgams and HNN extensions


def test_large_finite_factor_is_not_enumerated():
    # Z/10^9 *_1 Z/2: the step memos fill as they are used, so building and
    # multiplying never enumerate the factor
    p, q = FiniteCyclic(10**9, "p"), FiniteCyclic(2, "q")
    group = Amalgam(p, q, AmalgamEdge(cyclic_table(1), [0], [0]))
    w = group.reduce_letters([("p", 5), ("q", 1), ("p", -7), ("q", 1)])
    assert group.render_payload(w.payload) == [("p", 5), ("q", 1), ("p", 10**9 - 7), ("q", 1)]
    assert w * ~w == group.identity()
    assert all(len(memo) < 100 for memo in group._steps)


def test_step_memos_hold_at_most_their_key_space():
    group = GROUPS["s3_amalgam_s3"]
    ball_with_lengths(group, 5)
    edge = group.edge.table.size
    for side, factor in enumerate(group.factors):
        # keys: (edge index, same-side top or None, factor payload)
        n = factor.order()
        assert 0 < len(group._steps[side]) <= edge * (n + 1) * n
    # infinite factors: the memos fill to the cap and stop there
    group = _infinite_factor_amalgam()
    for side, factor in enumerate(group.factors):
        for k in range(KEY_MEMO_ENTRIES + 100):
            stack = []
            edge_idx = _ref_amalgam_absorb(group, stack, 0, side, (k, k % 2))
            assert group.embed(side, factor.element((k, k % 2))).payload == (tuple(stack), edge_idx)
        assert len(group._steps[side]) == KEY_MEMO_ENTRIES


@pytest.mark.parametrize("entries", [0, 8])
@pytest.mark.parametrize("name", MEMOIZED)
def test_products_match_reference_with_a_small_memo(name, entries, monkeypatch):
    # a fresh group, so every step starts cold; with 0 entries the memos
    # store nothing, with 8 they fill at once and compute past the cap
    monkeypatch.setattr("iccdec.groups.base.KEY_MEMO_ENTRIES", entries)
    monkeypatch.setitem(GROUPS, name, BUILDERS[name]())
    test_products_and_inverses_match_reference(name)
    group = GROUPS[name]
    memos = group._steps if isinstance(group, Amalgam) else group._reps
    assert all(len(memo) <= entries for memo in memos)


# the coset searches that a memoized step makes only on its first call
_SEARCHES = ("base.py:coset_step", "hnn.py:rep")


def _products(counts, group):
    """The multiply_payloads calls counted for group's own class."""
    return counts[f"{type(group).__module__.rsplit('.', 1)[1]}.py:multiply_payloads"]


@pytest.mark.parametrize("name", ["s3_amalgam_s3", "hnn_icc_base", "bs12"])
def test_a_repeated_product_searches_no_coset(name):
    group = BUILDERS[name]()
    rng = random.Random(f"repeat-{name}")
    steps = _steps(group)
    searched = 0
    for _ in range(20):
        u, v, z = (_ref_word(group, rng, steps, rng.randrange(1, 12)) for _ in range(3))
        a, b = ref_mul(group, u, v), ref_mul(group, ref_inv(group, v), z)
        first = _calls(lambda: group.multiply_payloads(a, b))
        searched += sum(first[f] for f in _SEARCHES)
        again = _calls(lambda: group.multiply_payloads(a, b))
        assert not any(again[f] for f in _SEARCHES), (a, b)
        if isinstance(group, Amalgam):
            # every factor product of an amalgam is inside its step memo
            products = sum(n for f, n in again.items() if f.endswith(":multiply_payloads"))
            assert products == _products(again, group) == 1, (a, b)
        else:
            # an HNN product still multiplies its tails: one base product
            # per syllable of b, one per pinch, and one for the tail of b
            assert _products(again, group.base) <= 2 * len(b[0]) + 1, (a, b)
    assert searched > 0


def test_memoized_groups_are_freed_by_reference_count():
    # the step memos refer to factors and edges, never back to the group,
    # so a group that has multiplied, keyed and inverted dies without the
    # cycle collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in MEMOIZED:
            group = BUILDERS[name]()
            steps = _steps(group)
            rng = random.Random(f"freed-{name}")
            for _ in range(20):
                a, b = (_ref_word(group, rng, steps, 6) for _ in range(2))
                product = group.multiply_payloads(a, b)
                group.payload_key(product)
                group.invert_payload(product)
            ref = weakref.ref(group)
            del group
            assert ref() is None, name
    finally:
        if enabled:
            gc.enable()


def test_trivial_factor_generator_is_the_identity():
    # <I> * Z/2: the matrix generator A is the identity matrix, so its
    # normal form is the empty word and A never leaves a syllable behind
    from iccdec.eisenstein import MatrixGroupSL2Eisenstein

    identity = (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    group = FreeProduct(MatrixGroupSL2Eisenstein([identity]), FiniteCyclic(2, "b"))
    a, b = group.generator_element("A"), group.generator_element("b")
    assert a == group.identity()
    assert a * b == b * a == b
    assert len(ball_with_lengths(group, 3)[0]) == 2
