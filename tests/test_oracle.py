"""Conjugacy class balls, FC-center candidates, witness sequences."""

import pytest

from iccdec.groups import (
    DirectWithFinite,
    FiberExtension,
    FreeProduct,
    GroupUsageError,
    InfiniteCyclic,
    SemidirectZnByZ,
    TorsionPart,
    ball_with_lengths,
    commutes_with_generators,
    conjugate,
    cyclic_table,
)
from iccdec.cli import _decide, _enumerable_group, main
from iccdec.groups.base import ball_levels, generator_steps, search_levels
from iccdec.descriptors import parse_word
from iccdec import oracle
from iccdec.oracle import conjugacy_class_ball, fc_center_candidates, strong_icc_witness
from conftest import CyclicFreeProductOracle, enumerable_corpus_groups, load_corpus_descriptor


def _reference_class_ball(group, g, radius, window):
    """The ball algorithm: conjugate g by every element of the radius ball
    and order the distinct conjugates by first conjugator length, then key."""
    ball, lengths = ball_with_lengths(group, radius)
    first = {}
    for w, length in zip(ball, lengths):
        c = w * g * ~w
        if c.payload not in first:
            first[c.payload] = (length, group.payload_key(c.payload))
    payloads = sorted(first, key=first.get)
    counts = [sum(1 for length, _ in first.values() if length <= r) for r in range(radius + 1)]
    return counts, payloads, counts[-1] == counts[-1 - window]


def _enumerable_corpus(manifest, corpus_dir):
    """(file, group, words) for every corpus file `iccdec enumerate` accepts:
    the first generator and the manifest word (icc_sample or NotICC witness)."""
    entries = {e["file"]: e for section in manifest.values() for e in section}
    out = []
    for name, descriptor, group in enumerable_corpus_groups(manifest, corpus_dir):
        entry = entries[name]
        words = [group.generators()[0][1]]
        if "icc_sample" in entry:
            words.append(group.reduce_letters(parse_word(entry["icc_sample"])))
        else:
            witness = _decide(descriptor).witness
            if witness is not None and witness.element is not None and witness.element.group == group:
                words.append(witness.element)
        out.append((name, group, words))
    return out


def _naive_steps(group):
    """Every generator payload and its inverse, repeats kept."""
    steps = []
    for _, p in group.generator_payloads():
        steps += [p, group.invert_payload(p)]
    return steps


def _naive_levels(start, neighbours, depth):
    """Breadth-first levels 0..depth from start: every neighbour of every
    element of a level, one seen set, no step skipped.  Empty levels kept."""
    levels, seen = [[start]], {start}
    while len(levels) <= depth:
        fresh = []
        for c in levels[-1]:
            for x in neighbours(c):
                if x not in seen:
                    seen.add(x)
                    fresh.append(x)
        levels.append(fresh)
    return levels


def _naive_ball(group, radius):
    mul, steps = group.multiply_payloads, _naive_steps(group)
    levels = _naive_levels(group.identity_payload(), lambda g: [mul(g, s) for s in steps], radius)
    return [sorted(level, key=group.payload_key) for level in levels]


def _naive_orbit(group, g, depth):
    mul, inv, steps = group.multiply_payloads, group.invert_payload, _naive_steps(group)
    return _naive_levels(g, lambda c: [mul(mul(s, c), inv(s)) for s in steps], depth)


def _count_products(monkeypatch, group):
    calls = []
    mul = group.multiply_payloads
    monkeypatch.setattr(group, "multiply_payloads", lambda a, b: calls.append(1) or mul(a, b))
    return calls


def test_ball_levels_match_the_naive_search_on_the_corpus(manifest, corpus_dir):
    for name, _, group in enumerable_corpus_groups(manifest, corpus_dir):
        levels = [level for _, level in zip(range(5), ball_levels(group))]
        expected = [level for level in _naive_ball(group, 4) if level]
        assert levels == expected, name


def test_class_levels_match_the_naive_search_on_the_corpus(manifest, corpus_dir):
    for name, _, group in enumerable_corpus_groups(manifest, corpus_dir):
        gens = [p for _, p in group.generator_payloads()]
        for g in gens + [group.multiply_payloads(gens[0], gens[-1])]:
            levels = [set(level) for level in oracle._class_levels(group, g, 5)]
            expected = [set(level) for level in _naive_orbit(group, g, 5)]
            assert levels == expected[: len(levels)], (name, g)
            assert not any(expected[len(levels):]), (name, g)


def test_marks_name_the_steps_to_the_previous_level_on_the_corpus(manifest, corpus_dir):
    # when a level is yielded, each of its payloads carries the bits of
    # exactly the steps that lead one level down, for balls and orbits alike
    for name, _, group in enumerable_corpus_groups(manifest, corpus_dir):
        mul, inv = group.multiply_payloads, group.invert_payload
        steps = [(s, bit) for s, _, bit, _ in generator_steps(group)]
        searches = [(group.identity_payload(), False, mul)]
        searches += [(s, True, lambda x, u: mul(mul(u, x), inv(u))) for s, _ in steps[:1]]
        for start, conjugate, step in searches:
            seen, below = {}, set()
            for _, level in zip(range(5), search_levels(group, start, conjugate, seen)):
                for p in level:
                    expected = sum(bit for u, bit in steps if step(p, u) in below)
                    assert seen[p][0] == expected, (name, conjugate, p)
                below = set(level)


def test_orbit_search_skips_each_step_back(monkeypatch, f2):
    # levels of sizes 1, 3, 8, 24: the naive search pays 4 conjugations for
    # each of the 12 expanded conjugates (96 products); the step back along
    # the edge a conjugate was found by is skipped, 36 conjugations in all
    xy = f2.reduce_letters([("x", 1), ("y", 1)]).payload
    products = _count_products(monkeypatch, f2)
    levels = oracle._class_levels(f2, xy, 3)
    assert [len(level) for level in levels] == [1, 3, 8, 24]
    assert len(products) == 72


def test_ball_search_skips_each_step_back(monkeypatch, corpus_dir):
    # 1 + 4 + 8 + 12 + 16 = 41 elements; the naive search pays 4 products for
    # each of the 25 elements of levels 0 to 3 (100)
    group = load_corpus_descriptor(corpus_dir, "group_z2_lattice.json").group
    products = _count_products(monkeypatch, group)
    elements = ball_with_lengths(group, 4)[0]
    assert len(elements) == 41
    assert len(products) == 64


def test_fc_stops_each_orbit_at_its_first_far_conjugate(monkeypatch, corpus_dir):
    # (5, 2) on F2: 40 inverse pairs of ball(3), none stabilizes; each orbit
    # search stops at the first conjugate of level 4 instead of building
    # that level whole (6,228 products when it did)
    group = load_corpus_descriptor(corpus_dir, "group_free_rank2.json").group
    products = _count_products(monkeypatch, group)
    assert fc_center_candidates(group, 5, 2) == []
    assert len(products) == 2176


@pytest.mark.parametrize(
    "command, search",
    [
        (["enumerate", "--element", "e1", "--window", "1"], "_class_levels"),
        (["witness", "--set", "e1"], "ball_levels"),
    ],
)
def test_search_radius_is_bounded_before_any_work(monkeypatch, capsys, corpus_dir, command, search):
    def refused(*args):
        raise AssertionError("searched past the radius bound")

    monkeypatch.setattr(oracle, search, refused)
    path = str(corpus_dir / "group_z2_lattice.json")
    for radius in (oracle.MAX_SEARCH_RADIUS + 1, 10**9):
        assert main([command[0], path, *command[1:], "--radius", str(radius)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: a search radius is at most {oracle.MAX_SEARCH_RADIUS}, not {radius}\n"


# ---------------------------------------------------------------------------
# conjugacy_class_ball


def test_dihedral_class_of_ab(dihedral):
    ab = dihedral.reduce_letters([("a", 1), ("b", 1)])
    report = conjugacy_class_ball(dihedral, ab, 6)
    assert list(report.counts_by_radius) == [1, 2, 2, 2, 2, 2, 2]
    assert report.stabilized
    assert [repr(c) for c in report.conjugates] == ["ab", "ba"]


def test_trefoil_central_fiber_power():
    group = FiberExtension([TorsionPart("x", 2, -1), TorsionPart("y", 3, -1)])
    x_squared = group.reduce_letters([("x", 2)])
    report = conjugacy_class_ball(group, x_squared, 6)
    assert set(report.counts_by_radius) == {1}
    assert report.stabilized
    assert report.central_proven


def test_central_proven_agrees_with_the_generator_test(manifest, corpus_dir):
    # the radius 2 ball of each enumerable corpus group, and the element of
    # its NotICC witness (a central fiber or a finite-class element)
    central = 0
    for name, descriptor, group in enumerable_corpus_groups(manifest, corpus_dir):
        elements = ball_with_lengths(group, 2)[0]
        witness = _decide(descriptor).witness
        if witness is not None and witness.element is not None and witness.element.group == group:
            elements.append(witness.element)
        for g in elements:
            report = conjugacy_class_ball(group, g, 1, 1)
            assert report.central_proven == commutes_with_generators(g), (name, g)
            central += report.central_proven and not g.is_identity()
    assert central > 0


def test_hyperbolic_lattice_vector_growth():
    group = SemidirectZnByZ(2, [[2, 1], [1, 1]])
    v = group.element(((1, 0), 0))
    report = conjugacy_class_ball(group, v, 10)
    # conjugates of (v, 0) are exactly the monodromy orbit elements
    # (phi^m v, 0), one new pair per radius: counts 1, 3, 5, ..., 21
    assert list(report.counts_by_radius) == list(range(1, 22, 2))
    assert not report.stabilized


def test_identity_class_is_trivial(dihedral):
    report = conjugacy_class_ball(dihedral, dihedral.identity(), 4)
    assert report.counts_by_radius[-1] == 1
    assert report.stabilized


def test_radius_window_validation(dihedral):
    ab = dihedral.reduce_letters([("a", 1), ("b", 1)])
    with pytest.raises(GroupUsageError):
        conjugacy_class_ball(dihedral, ab, 2, window=3)
    with pytest.raises(GroupUsageError):
        conjugacy_class_ball(dihedral, ab, 4, window=0)


def test_counts_monotone_and_nested(z2_star_z3):
    ab = z2_star_z3.reduce_letters([("a", 1), ("b", 1)])
    small = conjugacy_class_ball(z2_star_z3, ab, 6)
    large = conjugacy_class_ball(z2_star_z3, ab, 8)
    counts = list(large.counts_by_radius)
    assert counts == sorted(counts)
    assert {c.payload for c in small.conjugates} <= {c.payload for c in large.conjugates}
    # lower-bound semantics: conjugates are pairwise distinct canonical forms
    assert len({c.payload for c in large.conjugates}) == large.counts_by_radius[-1]


def test_class_counts_match_independent_oracle(z2_star_z3):
    oracle = CyclicFreeProductOracle(2, 3)
    expected = oracle.conjugacy_counts(((0, 1), (1, 1)), 10)
    ab = z2_star_z3.reduce_letters([("a", 1), ("b", 1)])
    report = conjugacy_class_ball(z2_star_z3, ab, 10)
    assert list(report.counts_by_radius) == expected


def test_orbit_search_matches_ball_reference(manifest, corpus_dir):
    corpus = _enumerable_corpus(manifest, corpus_dir)
    assert len(corpus) == 31
    for name, group, words in corpus:
        for g in words:
            report = conjugacy_class_ball(group, g, 4, 2)
            counts, payloads, stabilized = _reference_class_ball(group, g, 4, 2)
            assert list(report.counts_by_radius) == counts, (name, g)
            assert [c.payload for c in report.conjugates] == payloads, (name, g)
            assert report.stabilized == stabilized, (name, g)


def _closed_under_generators(group, conjugates):
    """Whether conjugating each element of conjugates by every generator and
    every inverse stays in the set, checked with groups.conjugate."""
    found = {c.payload for c in conjugates}
    steps = [s for _, g in group.generators() for s in (g, ~g)]
    return all(conjugate(c, s).payload in found for c in conjugates for s in steps)


def test_a_closed_orbit_is_a_whole_class_on_the_corpus(manifest, corpus_dir):
    # the manifest words and the radius-1 ball of every enumerable corpus
    # group: a closed orbit is closed under every generator and inverse, so
    # it is the whole class, and it is central exactly when it is {g}
    reports = closed = 0
    for name, group, words in _enumerable_corpus(manifest, corpus_dir):
        for g in words + ball_with_lengths(group, 1)[0]:
            for radius, window in ((4, 2), (6, 3)):
                report = conjugacy_class_ball(group, g, radius, window)
                case = (name, g, radius)
                reports += 1
                assert report.central_proven == (report.conjugates == (g,)), case
                if report.closed_at is not None:
                    closed += 1
                    assert _closed_under_generators(group, report.conjugates), case
                    assert len(report.conjugates) == report.counts_by_radius[report.closed_at - 1]
        for c in fc_center_candidates(group, 5, 2):
            report = conjugacy_class_ball(group, c, 5, 2)
            assert report.stabilized, (name, c)
            assert _closed_under_generators(group, report.conjugates), (name, c)
    assert 0 < closed < reports


def test_flags_are_read_from_the_closing_radius(dihedral, f2):
    ab = dihedral.reduce_letters([("a", 1), ("b", 1)])
    # counts 1, 2, 2, ...: the orbit closes at radius 2
    report = conjugacy_class_ball(dihedral, ab, 4, 3)
    assert (report.closed_at, report.stabilized, report.central_proven) == (2, True, False)
    assert not conjugacy_class_ball(dihedral, ab, 4, 4).stabilized
    x = f2.generator_element("x")
    assert conjugacy_class_ball(f2, x, 3, 1).closed_at is None
    assert conjugacy_class_ball(f2, f2.identity(), 1, 1).closed_at == 1


# ---------------------------------------------------------------------------
# fc_center_candidates


def test_fc_free_group_empty(f2):
    assert fc_center_candidates(f2, 6, 3) == []


def test_fc_dihedral_translations(dihedral):
    candidates = fc_center_candidates(dihedral, 8, 3)
    assert {repr(c) for c in candidates} == {"ab", "ba", "abab", "baba"}


def test_fc_direct_product_central_involution(f2):
    group = DirectWithFinite(f2, cyclic_table(2, names=["1", "z"]))
    candidates = fc_center_candidates(group, 6, 3)
    assert len(candidates) == 1
    assert candidates[0] == group.finite_element(1)


def test_fc_abelian_whole_punctured_ball():
    z2 = SemidirectZnByZ(1, [[1]])  # Z^2
    candidates = fc_center_candidates(z2, 4, 3)
    punctured = [g for g in ball_with_lengths(z2, 1)[0] if not g.is_identity()]
    assert {c.payload for c in candidates} == {g.payload for g in punctured}


def _stabilized_reference(group, radius, window):
    return [
        g
        for g in ball_with_lengths(group, radius - window)[0]
        if not g.is_identity() and conjugacy_class_ball(group, g, radius, window).stabilized
    ]


@pytest.mark.parametrize(
    "name, radius, window",
    [
        ("dihedral", 5, 2),
        ("f2_x_z2", 5, 2),
        ("group_torus_bundle_parabolic.json", 5, 2),
        # lattice vectors have orbit depth 2: they stabilize at (5, 3) and not
        # at (4, 3), so the early stop must look at level radius - window + 1
        ("group_torus_bundle_elliptic.json", 5, 3),
        ("group_torus_bundle_elliptic.json", 4, 3),
    ],
)
def test_fc_early_stop_matches_full_class_balls(name, radius, window, dihedral, f2, corpus_dir):
    if name == "dihedral":
        group = dihedral
    elif name == "f2_x_z2":
        group = DirectWithFinite(f2, cyclic_table(2, names=["1", "z"]))
    else:
        group = load_corpus_descriptor(corpus_dir, name).group
    assert fc_center_candidates(group, radius, window) == _stabilized_reference(group, radius, window)


def test_fc_early_stop_matches_full_class_balls_on_the_corpus(manifest, corpus_dir):
    for name, _, group in enumerable_corpus_groups(manifest, corpus_dir):
        assert fc_center_candidates(group, 4, 2) == _stabilized_reference(group, 4, 2), name


def _inverse_pairs(group, radius):
    return {
        frozenset((g.payload, group.invert_payload(g.payload)))
        for g in ball_with_lengths(group, radius)[0]
        if not g.is_identity()
    }


@pytest.mark.parametrize(
    "name, stabilized",
    [
        # lattice vectors v != -v of Z^2: every class is a singleton
        ("group_z2_lattice.json", "all"),
        # F2: no nontrivial class is finite
        ("group_free_rank2.json", "none"),
        # lattice vectors have finite orbits, words with the stable letter not
        ("group_torus_bundle_elliptic.json", "some"),
        ("group_z2_star_z3.json", "none"),
    ],
)
def test_fc_searches_each_inverse_pair_once(monkeypatch, corpus_dir, name, stabilized):
    group = load_corpus_descriptor(corpus_dir, name).group
    started = []
    search = oracle._class_levels

    def counted(*args):
        started.append(args[1])
        return search(*args)

    monkeypatch.setattr(oracle, "_class_levels", counted)
    candidates = fc_center_candidates(group, 5, 2)
    monkeypatch.undo()  # the reference's class balls are not counted
    assert candidates == _stabilized_reference(group, 5, 2)
    pairs = _inverse_pairs(group, 3)
    assert len(started) == len(pairs)
    assert {frozenset((p, group.invert_payload(p))) for p in started} == pairs
    payloads = {g.payload for g in candidates}
    assert all(group.invert_payload(p) in payloads for p in payloads)
    if stabilized == "all":
        assert len(candidates) == len(ball_with_lengths(group, 3)[0]) - 1
        assert all(group.invert_payload(p) != p for p in payloads)
    elif stabilized == "none":
        assert candidates == []
    else:
        assert 0 < len(candidates) < len(ball_with_lengths(group, 3)[0]) - 1


# ---------------------------------------------------------------------------
# strong_icc_witness


def _reference_witness(group, targets, radius):
    """The full scan: flatten the radius ball, conjugate every element, and
    keep it when each target's conjugate is new; no early stop.  Returns
    every kept (payload, word length): the greedy sequence for a given k is
    its prefix of length k."""
    ball, lengths = ball_with_lengths(group, radius)
    seen = [set() for _ in targets]
    kept = []
    for w, length in zip(ball, lengths):
        conjugates = [(w * f * ~w).payload for f in targets]
        if any(c in s for c, s in zip(conjugates, seen)):
            continue
        kept.append((w.payload, length))
        for c, s in zip(conjugates, seen):
            s.add(c)
    return kept


def test_witness_scan_matches_full_ball_reference(manifest, corpus_dir):
    costly = ("group_hnn_icc_base.json", "group_figure_eight_matrix.json")
    for name, group, words in _enumerable_corpus(manifest, corpus_dir):
        radius = 4 if name in costly else 5
        gens = [g for _, g in group.generators()]
        first, last = gens[0], gens[-1]
        singles = gens + [first * last, first * ~last] + words[1:]
        singles = [f for f in singles if not f.is_identity()]
        sets = [[f] for f in singles]
        sets += [[f, h] for f, h in zip(singles, singles[1:])]
        # on the infinite dihedral group (a, b, ab) is a target set whose
        # third orbit closes at level 2 before every conjugate in it is kept
        sets.append(singles[:3])
        for targets in sets:
            full = _reference_witness(group, targets, radius)
            for k in (1, 2, 3, 7, 40):
                result = strong_icc_witness(group, targets, k, radius)
                prefix = full[:k]
                case = (name, targets, k)
                assert [g.payload for g in result.gammas] == [p for p, _ in prefix], case
                assert result.verified == (len(full) >= k), case
                assert result.used_radius == prefix[-1][1], case


@pytest.mark.parametrize(
    "name, words",
    [
        # z is central, x commutes with the first target set only
        ("group_f2_x_z2.json", ["x"]),
        ("group_f2_x_z2.json", ["x", "y"]),
        ("group_f2_x_z2.json", ["x z"]),
        # central fiber h; x commutes with itself
        ("knot_trefoil.json", ["x"]),
        ("knot_trefoil.json", ["x y", "y"]),
        # e1 is fixed by the parabolic monodromy, so central
        ("group_torus_bundle_parabolic.json", ["e2"]),
        ("group_torus_bundle_parabolic.json", ["t", "e1 e2"]),
    ],
)
def test_witness_skip_matches_full_ball_reference(monkeypatch, corpus_dir, name, words):
    group, _ = _enumerable_group(load_corpus_descriptor(corpus_dir, name))
    targets = [group.reduce_letters(parse_word(w)) for w in words]
    for radius in (0, 1, 2, 3):
        full = _reference_witness(group, targets, radius)
        # every k, so that some sequences end on a level where skips occur
        for k in range(1, len(full) + 2):
            result = strong_icc_witness(group, targets, k, radius)
            prefix = full[:k]
            case = (radius, k)
            assert [g.payload for g in result.gammas] == [p for p, _ in prefix], case
            assert result.verified == (len(full) >= k), case
            assert result.used_radius == prefix[-1][1], case
    # a candidate one commuting step past the previous level is never
    # conjugated: the scan inverts fewer payloads than the ball holds
    inverted = []
    inv = group.invert_payload
    monkeypatch.setattr(group, "invert_payload", lambda a: inverted.append(a) or inv(a))
    strong_icc_witness(group, targets, 10**6, 3)
    monkeypatch.undo()
    ball = {g.payload for g in ball_with_lengths(group, 3)[0]}
    assert ball - set(inverted)


def test_witness_skips_candidates_past_commuting_steps_on_the_trefoil(monkeypatch, corpus_dir):
    # x commutes with x and with the central fiber h, so a candidate one x,
    # x^-1, h or h^-1 past the previous level is skipped: 1,348 products and
    # 107 inverses, where conjugating every candidate took 2,040 and 453
    group, _ = _enumerable_group(load_corpus_descriptor(corpus_dir, "knot_trefoil.json"))
    x = group.generator_element("x")
    products = _count_products(monkeypatch, group)
    inverted = []
    inv = group.invert_payload
    monkeypatch.setattr(group, "invert_payload", lambda a: inverted.append(a) or inv(a))
    result = strong_icc_witness(group, [x], 40, 8)
    assert (result.verified, result.used_radius) == (True, 7)
    assert (len(products), len(inverted)) == (1348, 107)


def test_witness_free_group_first_hit(f2):
    x = f2.generator_element("x")
    result = strong_icc_witness(f2, [x], 3, 10)
    assert result.verified
    # breadth-first over an inverse-closed generating set: y^-1 has length 1
    # and is a valid extension, so the first hit is (1, y, y^-1)
    assert [repr(g) for g in result.gammas] == ["1", "y", "y^-1"]
    assert result.used_radius == 1


def test_witness_dihedral_exhaustion(dihedral):
    ab = dihedral.reduce_letters([("a", 1), ("b", 1)])
    result = strong_icc_witness(dihedral, [ab], 3, 10)
    assert not result.verified
    assert len(result.gammas) == 2  # the class of ab has exactly 2 elements


def test_witness_multiple_targets(f2):
    x = f2.generator_element("x")
    y = f2.generator_element("y")
    result = strong_icc_witness(f2, [x, y], 4, 10)
    assert result.verified
    for target in (x, y):
        conjugates = [g * target * ~g for g in result.gammas]
        assert len({c.payload for c in conjugates}) == len(result.gammas)


def test_witness_validation(f2):
    with pytest.raises(GroupUsageError):
        strong_icc_witness(f2, [f2.identity()], 3, 6)
    with pytest.raises(GroupUsageError):
        strong_icc_witness(f2, [], 3, 6)
    with pytest.raises(GroupUsageError):
        strong_icc_witness(f2, [f2.generator_element("x")], 0, 6)


def test_witness_conjugates_pairwise_distinct_when_verified(bs12):
    a = bs12.generator_element("a")
    result = strong_icc_witness(bs12, [a], 5, 8)
    assert result.verified
    conjugates = [g * a * ~g for g in result.gammas]
    assert len({c.payload for c in conjugates}) == 5
