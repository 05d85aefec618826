"""Seeded descriptor families for the decide_sweep workload.

Each generator returns a schema-v1 descriptor document together with the
answer the benchmark expects, worked out here from the mathematics of the
family and not from the package under test:

    (family, document, expected status, Unknown also accepted)

"Unknown also accepted" is set only where the family's answer rests on a
theorem the rule engine does not claim to cover; a definite verdict must
still equal the expected status there.
"""

from __future__ import annotations

from math import gcd

ICC, NOT_ICC = "ICC", "NotICC"

_S = ((0, -1), (1, 0))
_T = ((1, 1), (0, 1))
_T_INV = ((1, -1), (0, 1))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def random_sl2z(rng):
    """A product of 1 to 8 of S, T, T^-1: an element of SL2(Z)."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 8)):
        m = _mat_mul(m, rng.choice((_S, _T, _T_INV)))
    return m


def torus_bundle_status(m) -> str:
    # Z^2 x|_A Z with det A = 1 is ICC exactly when A is hyperbolic, |tr A| > 2
    return ICC if abs(m[0][0] + m[1][1]) > 2 else NOT_ICC


def _manifold(pieces):
    return {"schema_version": 1, "type": "manifold", "orientable": True, "pieces": pieces}


def _group(construction):
    return {"schema_version": 1, "type": "group", "construction": construction}


def _coprime_fiber(rng):
    alpha = rng.randint(2, 7)
    beta = rng.choice([b for b in range(1, alpha) if gcd(alpha, b) == 1])
    return [alpha, beta]


def torus_bundle(rng):
    m = random_sl2z(rng)
    rows = [list(row) for row in m]
    if rng.random() < 0.5:
        doc = _group({"semidirect_zn_by_z": {"rank": 2, "matrix": rows}})
    else:
        doc = _manifold([{"kind": "torus_bundle", "monodromy": rows}])
    return "torus_bundle", doc, torus_bundle_status(m), False


def _seifert_piece(rng, bounded):
    orientable_base = rng.random() < 0.75
    genus = rng.randint(0, 2) if orientable_base else rng.randint(1, 2)
    boundary = rng.randint(1, 2) if bounded else 0
    piece = {
        "kind": "seifert",
        "base_genus": genus,
        "base_orientable": orientable_base,
        "boundary_components": boundary,
        "exceptional_fibers": [_coprime_fiber(rng) for _ in range(rng.randint(0, 4))],
    }
    if not boundary:
        piece["euler_obstruction"] = rng.randint(-3, 3)
    return piece


def seifert(rng):
    # a Seifert fibered 3-manifold group is finite, or its regular fiber
    # generates an infinite cyclic normal subgroup: never ICC
    return "seifert", _manifold([_seifert_piece(rng, rng.random() < 0.4)]), NOT_ICC, False


def _prime_piece(rng):
    """A nontrivial prime piece and the order of its group (0 = infinite)."""
    kind = rng.randrange(5)
    if kind == 0:  # circle bundle over S^2 of Euler number e: the lens space L(e, 1)
        e = rng.choice((2, 2, 3, 4, 5, -2, -3))
        piece = {
            "kind": "seifert", "base_genus": 0, "base_orientable": True,
            "boundary_components": 0, "exceptional_fibers": [], "euler_obstruction": e,
        }
        return piece, abs(e)
    if kind == 1:
        return {"kind": "hyperbolic", "finite_volume": True}, 0
    if kind == 2:
        return {"kind": "sphere_bundle", "orientable_bundle": True}, 0
    if kind == 3:
        return {"kind": "torus_bundle", "monodromy": [list(r) for r in random_sl2z(rng)]}, 0
    return _seifert_piece(rng, True), 0  # bounded Seifert pieces have infinite groups


def multi_piece(rng):
    # pi1 of a connected sum is the free product of the pieces' groups, and a
    # free product of two nontrivial groups is ICC unless both have order 2
    pieces, orders = [], []
    for _ in range(rng.randint(2, 4)):
        piece, order = _prime_piece(rng)
        pieces.append(piece)
        orders.append(order)
    if rng.random() < 0.3:
        pieces.insert(rng.randint(0, len(pieces)), {"kind": "homotopy_sphere"})
    status = NOT_ICC if orders == [2, 2] else ICC
    return "multi_piece", _manifold(pieces), status, False


def free_product(rng):
    factors = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.25:
            factors.append({"infinite_cyclic": {}})
        else:
            factors.append({"cyclic": rng.choice((2, 2, 3, 4, 5, 6))})
    status = NOT_ICC if factors == [{"cyclic": 2}, {"cyclic": 2}] else ICC
    return "free_product", _group({"free_product": factors}), status, False


def baumslag_solitar(rng):
    # BS(m, n) = < a, t | t a^m t^-1 = a^n > is ICC exactly when |m| != |n|;
    # for |m| = |n| the class of a^m is finite, a case Prop 3(v) leaves open
    m = rng.randint(1, 6)
    n = rng.choice((1, -1)) * rng.randint(1, 6)
    doc = _group(
        {"hnn": {"base": {"infinite_cyclic": {"name": "a"}},
                 "edge": {"kind": "cyclic_power", "domain_power": m, "range_power": n}}}
    )
    return "baumslag_solitar", doc, ICC if abs(m) != abs(n) else NOT_ICC, abs(m) == abs(n)


def surface(rng):
    # a compact surface group is ICC exactly when the Euler characteristic is
    # negative (free of rank >= 2, or closed hyperbolic)
    orientable = rng.random() < 0.5
    genus = rng.randint(0, 3) if orientable else rng.randint(1, 4)
    boundary = rng.randint(0, 3)
    chi = (2 - 2 * genus if orientable else 2 - genus) - boundary
    doc = _group(
        {"surface_group": {"genus": genus, "orientable": orientable, "boundary_components": boundary}}
    )
    return "surface", doc, ICC if chi < 0 else NOT_ICC, False


def torus_knot(rng):
    # the torus knot group < x, y | x^p = y^q > has central x^p: never ICC
    while True:
        p, q = rng.randint(1, 9), rng.randint(2, 9)
        if gcd(p, q) == 1:
            return "torus_knot", {"schema_version": 1, "type": "knot", "torus": [p, q]}, NOT_ICC, False


FAMILIES = (torus_bundle, seifert, multi_piece, free_product, baumslag_solitar, surface, torus_knot)


def generate(rng, per_family: int) -> list:
    """per_family requests of every family, in a seeded order."""
    requests = [family(rng) for family in FAMILIES for _ in range(per_family)]
    rng.shuffle(requests)
    return requests
