"""Manifold, knot and link descriptors, and the theorem engine over them.

Descriptors are declarative: geometric facts (hyperbolicity, Seifert modulo
P, absence of nonstandard P2 x I blocks) are caller-supplied flags, exactly
at the level the decision theorems consume.  The engine never recognizes
geometry from triangulations.

Descriptor trees are assumed to reflect the connected-sum structure of the
manifold (free-product structure of the group); boundary incompressibility
is not checked.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod
from typing import Optional, Union

import iccdec

from . import groups
from .groups.base import (
    INFINITE, GroupElement, GroupUsageError, Letter, Record, StructuredGroup, multiply,
)
from .groups.cyclic import FiniteCyclic, InfiniteCyclic
from .verdict import (
    FINITE_GROUP_WITNESS,
    Citation,
    Verdict,
    Witness,
    icc,
    not_icc,
    unknown,
)


# ---------------------------------------------------------------------------
# descriptor types


class SeifertInvariants(Record):
    base_genus: int
    base_orientable: bool
    boundary_components: int
    exceptional_fibers: tuple[tuple[int, int], ...] = ()
    euler_obstruction: Optional[int] = None

    def __post_init__(self):
        if self.base_genus < 0 or self.boundary_components < 0:
            raise GroupUsageError("genus and boundary count must be nonnegative")
        if not self.base_orientable and self.base_genus < 1:
            raise GroupUsageError("a non-orientable base surface has genus >= 1")
        fibers = tuple((int(a), int(b)) for a, b in self.exceptional_fibers)
        object.__setattr__(self, "exceptional_fibers", fibers)
        for alpha, beta in fibers:
            if alpha < 2:
                raise GroupUsageError("exceptional fiber orders must be >= 2")
            if gcd(alpha, beta) != 1:
                raise GroupUsageError("exceptional fiber pairs must be coprime")
        closed = self.boundary_components == 0
        if closed and self.euler_obstruction is None:
            raise GroupUsageError("closed Seifert data needs an euler obstruction")
        if not closed and self.euler_obstruction is not None:
            raise GroupUsageError("bounded Seifert data must omit the euler obstruction")

    @property
    def closed(self) -> bool:
        return self.boundary_components == 0


class SeifertPiece(Record):
    invariants: SeifertInvariants


class HyperbolicPiece(Record):
    finite_volume: bool = True


class TorusBundlePiece(Record):
    monodromy: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        matrix = tuple(tuple(int(x) for x in row) for row in self.monodromy)
        if len(matrix) != 2 or any(len(r) != 2 for r in matrix):
            raise GroupUsageError("monodromy must be a 2x2 integer matrix")
        if groups.semidirect.mat_det(matrix) not in (1, -1):
            raise GroupUsageError("monodromy must have determinant +1 or -1")
        object.__setattr__(self, "monodromy", matrix)


class SphereBundlePiece(Record):
    orientable_bundle: bool


class HomotopySpherePiece(Record):
    pass


class OtherIrreduciblePiece(Record):
    pi1_order: float  # an int, or INFINITE
    normal_cyclic_infinite_subgroup: Optional[bool] = None
    contains_nonstandard_p2xi: Optional[bool] = None
    seifert_mod_p: Optional[bool] = None

    def __post_init__(self):
        order = self.pi1_order
        if order != INFINITE and (not isinstance(order, int) or order < 1):
            raise GroupUsageError("pi1_order must be a positive integer or infinite")
        if self.normal_cyclic_infinite_subgroup and order != INFINITE:
            raise GroupUsageError(
                "a finite group cannot contain an infinite cyclic normal subgroup"
            )


PrimePiece = Union[
    SeifertPiece,
    HyperbolicPiece,
    TorusBundlePiece,
    SphereBundlePiece,
    HomotopySpherePiece,
    OtherIrreduciblePiece,
]


class ManifoldDescriptor(Record):
    orientable: bool
    pieces: tuple[PrimePiece, ...]
    boundary_spheres_capped: bool = False

    def __post_init__(self):
        if not self.pieces:
            raise GroupUsageError("a manifold descriptor needs at least one piece")
        object.__setattr__(self, "pieces", tuple(self.pieces))


class TorusKnot(Record):
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise GroupUsageError("torus knot parameters must be positive")
        if gcd(self.p, self.q) != 1:
            raise GroupUsageError("torus knot parameters must be coprime")


class HyperbolicKnot(Record):
    pass


class OtherKnot(Record):
    is_torus: bool


KnotDescriptor = Union[TorusKnot, HyperbolicKnot, OtherKnot]


class LinkDescriptor(Record):
    components: int
    is_seifert_fiber_union: Optional[bool] = None

    def __post_init__(self):
        if self.components < 1:
            raise GroupUsageError("a link has at least one component")


# ---------------------------------------------------------------------------
# Poincare-variety normalization


def poincare_variety(m: ManifoldDescriptor) -> ManifoldDescriptor:
    """Drop homotopy-sphere pieces (capping boundary spheres); the empty sum
    collapses to a single homotopy sphere standing for the trivial group."""
    pieces = tuple(p for p in m.pieces if not isinstance(p, HomotopySpherePiece))
    if not pieces:
        pieces = (HomotopySpherePiece(),)
    return ManifoldDescriptor(
        orientable=m.orientable, pieces=pieces, boundary_spheres_capped=True
    )


# ---------------------------------------------------------------------------
# Seifert presentations and realizations


class Presentation(Record):
    generators: tuple[str, ...]
    relators: tuple[tuple[Letter, ...], ...]

    def display(self) -> str:
        def word(letters):
            return " ".join(name if exp == 1 else f"{name}^{exp}" for name, exp in letters) or "1"

        rels = ", ".join(f"{word(r)} = 1" for r in self.relators)
        return f"< {', '.join(self.generators)} | {rels} >"


class SeifertGroupResult(Record):
    """The fundamental group of a Seifert-fibered piece.

    order_kind: "exact" (order holds the value, INFINITE for infinite),
    "finite_ge_3" (finite, size not computed, at least 3), or
    "unknown_ge_3" (finiteness undetermined, order at least 3 either way).
    The decision reads only these fields; the rest is built on first read:
    presentation, the emitted generators/relators with h the fiber class,
    and realization / fiber_element, an enumerable carrier and h inside it
    when the data lands in the computable family (None otherwise).
    """

    invariants: SeifertInvariants
    fiber_name: str
    fiber_central: bool
    order_kind: str
    order: float

    @cached_property
    def presentation(self) -> Presentation:
        return _seifert_presentation(
            self.invariants, *_seifert_generators(self.invariants, ""), self.fiber_name
        )

    @cached_property
    def _realized(self) -> tuple[Optional[StructuredGroup], Optional[GroupElement]]:
        return _seifert_realization(self.invariants, "")

    @property
    def realization(self) -> Optional[StructuredGroup]:
        return self._realized[0]

    @property
    def fiber_element(self) -> Optional[GroupElement]:
        return self._realized[1]

    @property
    def visibly_finite(self) -> bool:
        return self.order_kind == "finite_ge_3" or (
            self.order_kind == "exact" and self.order != INFINITE
        )

    @property
    def trivial(self) -> bool:
        return self.order_kind == "exact" and self.order == 1

    def order_class(self) -> object:
        """1, 2, or "3+" (covering both large finite and infinite groups)."""
        if self.order_kind == "exact" and self.order in (1, 2):
            return int(self.order)
        return "3+"


def _seifert_generators(
    inv: SeifertInvariants, suffix: str
) -> tuple[list[tuple[str, int]], list[str]]:
    """The base generators, each with the sign by which it conjugates the
    fiber (a_i, b_i, or the one-sided a_i, then the free boundary generators
    m1..m(d-1)), and the exceptional fiber generators q_j."""
    if inv.base_orientable:
        base = [(f"{x}{i + 1}{suffix}", 1) for i in range(inv.base_genus) for x in "ab"]
    else:
        base = [(f"a{i + 1}{suffix}", -1) for i in range(inv.base_genus)]
    base += [(f"m{k + 1}{suffix}", 1) for k in range(inv.boundary_components - 1)]
    return base, [f"q{j + 1}{suffix}" for j in range(len(inv.exceptional_fibers))]


def _seifert_presentation(
    inv: SeifertInvariants, base: list[tuple[str, int]], fiber_gens: list[str], h: str
) -> Presentation:
    """The standard fibered presentation.  For bounded bases the last
    boundary relation is eliminated, leaving free boundary generators
    m1..m(d-1); closed bases carry the product relation with h^b."""
    names = [name for name, _ in base]
    relators: list[tuple[Letter, ...]] = [
        ((name, 1), (h, 1), (name, -1), (h, -sign)) for name, sign in base
    ]
    relators += [((name, 1), (h, 1), (name, -1), (h, -1)) for name in fiber_gens]
    relators += [
        ((name, alpha), (h, beta)) for name, (alpha, beta) in zip(fiber_gens, inv.exceptional_fibers)
    ]
    if inv.closed:
        product: list[Letter] = [(name, 1) for name in fiber_gens]
        if inv.base_orientable:
            for a, b in zip(names[::2], names[1::2]):
                product += [(a, 1), (b, 1), (a, -1), (b, -1)]
        else:
            product += [(a, 2) for a in names]
        product.append((h, inv.euler_obstruction))
        relators.append(tuple(product))
    return Presentation(tuple(names + fiber_gens + [h]), tuple(relators))


def _lens_order(inv: SeifertInvariants) -> Optional[tuple[int, int]]:
    """(p, a1) when the base is a closed, orientable S^2 with at most two
    exceptional fibers: the group is then Z/p, with 0 meaning Z, and the
    fiber class is a1 times its generator.  None for other data.

    With missing fibers padded as (1, 0) in front, the relations on (q1, h)
    after q2 = -q1 - b h are the rows of R = [[a1, b1], [-a2, b2 - a2 b]].
    (q1, h) -> a1 h - b1 q1 maps Z^2 onto Z with kernel <(a1, b1)>, so the
    group is Z/|det R| and h -> a1 (Orlik, Seifert Manifolds, LNM 291).
    """
    fibers = inv.exceptional_fibers
    if not (inv.closed and inv.base_orientable and inv.base_genus == 0 and len(fibers) <= 2):
        return None
    b = inv.euler_obstruction
    (a1, b1), (a2, b2) = [(1, 0)] * (2 - len(fibers)) + list(fibers)
    return abs(a1 * (b2 - a2 * b) + a2 * b1), a1


def _seifert_order(inv: SeifertInvariants) -> tuple[str, float]:
    """The order kind and order of a SeifertGroupResult."""
    lens = _lens_order(inv)
    if lens is not None:
        return "exact", lens[0] or INFINITE
    fibers = inv.exceptional_fibers
    if inv.closed and inv.base_orientable and inv.base_genus == 0 and len(fibers) == 3:
        # the orbifold Euler characteristic 2 - sum (alpha - 1) / alpha and
        # the Euler number b - sum beta / alpha, times the alphas' product
        scale = prod(alpha for alpha, _ in fibers)
        chi = 2 * scale - sum((alpha - 1) * (scale // alpha) for alpha, _ in fibers)
        b = inv.euler_obstruction
        euler_number = b * scale - sum(beta * (scale // alpha) for alpha, beta in fibers)
        if chi > 0 and euler_number != 0:
            return "finite_ge_3", INFINITE
    elif inv.closed and not inv.base_orientable and inv.base_genus == 1:
        if not fibers and inv.euler_obstruction != 0:
            return "finite_ge_3", INFINITE  # dicyclic of order 4|b|
        if len(fibers) == 1:
            # prism-type data: finite or infinite depending on the euler data,
            # but of order >= 4 either way (the group surjects onto the base
            # orbifold group, which has order 2*alpha)
            return "unknown_ge_3", INFINITE
    # infinite: chi <= 0, euler number 0 or more fibers on S^2, any other base
    return "exact", INFINITE


def _seifert_realization(
    inv: SeifertInvariants, suffix: str
) -> tuple[Optional[StructuredGroup], Optional[GroupElement]]:
    """An enumerable carrier whose generator names carry suffix, and the
    fiber class in it, or (None, None) outside the computable family."""
    fiber_name = "h" + suffix
    fibers = inv.exceptional_fibers
    if not inv.closed:
        base, fiber_gens = _seifert_generators(inv, suffix)
        extension = groups.fiber_extension
        parts: list = [extension.FreePart(name, sign) for name, sign in base]
        parts += [
            extension.TorsionPart(name, alpha, -beta)
            for name, (alpha, beta) in zip(fiber_gens, fibers)
        ]
        realization: StructuredGroup = extension.FiberExtension(parts, fiber_name=fiber_name)
        return realization, realization.fiber()
    lens = _lens_order(inv)
    if lens is not None:
        p, a1 = lens
        name = ("c" if len(fibers) == 2 else "h") + suffix
        group: StructuredGroup = FiniteCyclic(p, name) if p else InfiniteCyclic(name)
        return group, group.element(a1 % p if p else a1)
    if inv.base_genus != 1 or fibers:
        return None, None
    b = inv.euler_obstruction
    if inv.base_orientable:
        # central extension of Z^2: Z^3 when b = 0, integral Heisenberg-type
        # otherwise; carried by Z^2 x| Z with basis (b1, h) and letter a1
        phi = ((1, 0), (-b, 1))
        realization = groups.semidirect.SemidirectZnByZ(
            2, phi, exponent_name=f"a1{suffix}", basis_names=(f"b1{suffix}", fiber_name)
        )
        return realization, realization.element(((0, 1), 0))
    if b != 0:
        return None, None  # dicyclic of order 4|b|
    # infinite dihedral: reflections r1, r2 with a1 = r1, h = r1 r2
    realization = groups.free_product.FreeProduct(
        FiniteCyclic(2, f"r1{suffix}"), FiniteCyclic(2, f"r2{suffix}")
    )
    return realization, realization.reduce_letters([(f"r1{suffix}", 1), (f"r2{suffix}", 1)])


def seifert_group(inv: SeifertInvariants) -> SeifertGroupResult:
    """The Seifert group with its distinguished fiber class h and its order;
    its presentation and enumerable realization are built on first read."""
    return SeifertGroupResult(inv, "h", inv.base_orientable, *_seifert_order(inv))


# ---------------------------------------------------------------------------
# the normalization: read by the decision, the carrier and the explain trace


class NormalPiece(Record):
    """A piece of the Poincare variety with what the decision reads of its
    group: the order class and, for a Seifert piece, its Seifert group."""

    piece: PrimePiece
    suffix: str  # appended to the piece's generator names in a free-product carrier
    order_class: object  # 1, 2, or "3+"
    seifert: Optional[SeifertGroupResult]  # unsuffixed


class Normalization(Record):
    """The Poincare variety of a manifold descriptor, piece by piece."""

    pieces: tuple[NormalPiece, ...]
    dropped: int  # the homotopy-sphere pieces of the descriptor

    @property
    def kept(self) -> list[NormalPiece]:
        """The pieces whose groups are nontrivial."""
        return [p for p in self.pieces if p.order_class != 1]


def normalize(m: ManifoldDescriptor) -> Normalization:
    """The Poincare variety of m, each piece with its order class and, for a
    Seifert piece, its Seifert group, each computed once."""
    pieces = poincare_variety(m).pieces
    normal = []
    for i, piece in enumerate(pieces):
        sg = seifert_group(piece.invariants) if isinstance(piece, SeifertPiece) else None
        if sg is not None:
            order_class = sg.order_class()
        elif isinstance(piece, HomotopySpherePiece):
            order_class = 1
        elif isinstance(piece, OtherIrreduciblePiece) and piece.pi1_order in (1, 2):
            order_class = piece.pi1_order
        else:
            order_class = "3+"
        normal.append(NormalPiece(piece, f"_{i}", order_class, sg))
    return Normalization(
        tuple(normal), sum(isinstance(p, HomotopySpherePiece) for p in m.pieces)
    )


_CARRIER_NOTES = {
    SeifertPiece: "Seifert piece",
    TorusBundlePiece: "torus bundle",
    SphereBundlePiece: "sphere bundle over the circle",
}


def _piece_carrier(p: NormalPiece, suffix: str) -> Optional[StructuredGroup]:
    """The piece's group as an enumerable realization whose generator names
    carry suffix, or None outside the computable family."""
    piece = p.piece
    if p.seifert is not None:
        if not suffix:
            return p.seifert.realization
        return _seifert_realization(piece.invariants, suffix)[0]
    if isinstance(piece, TorusBundlePiece) and groups.semidirect.mat_det(piece.monodromy) == 1:
        return groups.semidirect.SemidirectZnByZ(
            2, piece.monodromy, exponent_name="t" + suffix,
            basis_names=(f"e1{suffix}", f"e2{suffix}"),
        )
    if isinstance(piece, SphereBundlePiece):
        return InfiniteCyclic("t" + suffix)
    return None


def _carrier(kept: list[NormalPiece]) -> tuple[StructuredGroup, str]:
    """The free product of the nontrivial piece groups as an enumerable
    carrier, with a short provenance note.  Only a free product of two or
    more pieces suffixes their generator names, so a lone piece's carrier
    names its generators as the decision does."""
    if not kept:
        return FiniteCyclic(1, "u"), "trivial group (all pieces simply connected)"
    carriers = []
    for p in kept:
        group = _piece_carrier(p, p.suffix if len(kept) > 1 else "")
        if group is None:
            raise GroupUsageError(
                f"piece {type(p.piece).__name__} has no enumerable realization"
            )
        carriers.append(group)
    if len(carriers) == 1:
        return carriers[0], _CARRIER_NOTES[type(kept[0].piece)]
    return groups.free_product.FreeProduct(*carriers), f"free product of {len(kept)} piece groups"


def _multi_piece_verdict(kept: list[NormalPiece]) -> Verdict:
    """Free-product rule over the nontrivial piece groups (Kneser-Milnor)."""
    classes = [p.order_class for p in kept]
    if classes == [2, 2]:
        witness = Witness(
            description="translation element of the infinite dihedral group "
            "(product of the two order-2 generators)"
        )
        if all(p.seifert is not None for p in kept):
            # a Seifert group of order 2 is the lens group, carried by Z/2
            product, _ = _carrier(kept)
            element = multiply(*(g for _, g in product.generators()))
            witness = Witness(
                description=f"translation {element!r} of the infinite dihedral group",
                element=element,
            )
        return not_icc(
            witness,
            Citation("Kneser-Milnor", "two pieces, both with groups of order 2"),
            Citation("Infinite dihedral"),
        )
    detail = f"{len(kept)} nontrivial pieces with group orders {classes}"
    return icc(Citation("Kneser-Milnor", detail), Citation("Prop 3(i)"))


# ---------------------------------------------------------------------------
# the manifold decision: Theorem 13 (orientable), Theorem 19 / Prop 18
# (non-orientable)


def _seifert_piece_verdict(sg: SeifertGroupResult, orientable_manifold: bool) -> Verdict:
    if sg.trivial:
        return not_icc(
            FINITE_GROUP_WITNESS,
            Citation("Prop 2", "simply connected Seifert data"),
            Citation("ICC definition"),
        )
    if sg.visibly_finite:
        return not_icc(
            FINITE_GROUP_WITNESS,
            Citation("Prop 2", "the group is finite and nontrivial"),
            Citation("ICC definition"),
        )
    closure = "{h}" if sg.fiber_central else "{h, h^-1}"
    if orientable_manifold and sg.fiber_element is not None:
        witness = Witness(
            description=f"fiber class {sg.fiber_name} = {sg.fiber_element!r} "
            f"(conjugacy class within {closure})",
            element=sg.fiber_element,
        )
    else:
        witness = Witness(
            description=f"regular fiber class {sg.fiber_name} (conjugacy class within {closure})"
        )
    reasons = [Citation("Theorem 12", "the piece is a Seifert manifold")] if orientable_manifold else []
    reasons += [
        Citation("Lemma 1", "the fiber generates a cyclic normal subgroup"),
        Citation("Prop 2"),
    ]
    return not_icc(witness, *reasons)


def _other_irreducible_verdict(piece: OtherIrreduciblePiece, orientable: bool) -> Verdict:
    if piece.pi1_order != INFINITE:
        return not_icc(
            FINITE_GROUP_WITNESS,
            Citation("ICC definition", f"finite group of order {piece.pi1_order}"),
        )
    if not orientable and piece.seifert_mod_p is True:
        return not_icc(
            Witness(
                description="generator z of the nontrivial cyclic normal subgroup "
                "generated by regular fibers (conjugacy class within the subgroup "
                "and its inverses)"
            ),
            Citation("Theorem 15", "Seifert modulo P"),
            Citation("Prop 2"),
        )
    if not orientable and piece.seifert_mod_p is False:
        return icc(
            Citation(
                "Prop 18",
                "irreducible, no nonstandard P2 x I, infinite group, not Seifert "
                "modulo P: the group is ICC",
            )
        )
    if piece.normal_cyclic_infinite_subgroup is True:
        return not_icc(
            Witness(
                description="generator z of the infinite cyclic normal subgroup "
                "(conjugacy class within {z, z^-1})"
            ),
            Citation("Seifert fibration conjecture")
            if orientable
            else Citation("Theorem 19", "property (ii) holds"),
            Citation("Prop 2"),
        )
    if not orientable:
        return unknown(Citation("Hypotheses not met", "no Seifert-modulo-P flag on the piece"))
    if piece.normal_cyclic_infinite_subgroup is False:
        return icc(
            Citation(
                "Theorem 12",
                "irreducible, infinite group, no infinite cyclic normal subgroup: "
                "not a Seifert manifold, so the group is ICC",
            )
        )
    return unknown(
        Citation("Hypotheses not met", "no normal-cyclic-subgroup flag on the piece")
    )


def _decide_manifold(m: ManifoldDescriptor, normal: Optional[Normalization] = None) -> Verdict:
    """One procedure for both orientations, read from normal = normalize(m);
    the orientation selects the citations and the refusals the non-orientable
    hypotheses require (nonstandard P2 x I blocks, infinite dihedral group)."""
    orientable = m.orientable
    if not orientable and any(
        isinstance(p, OtherIrreduciblePiece) and p.contains_nonstandard_p2xi is not False
        for p in m.pieces
    ):
        return unknown(
            Citation(
                "Hypotheses not met",
                "a piece may contain a nonstandard P2 x I; outside the "
                "hypotheses of the non-orientable classification",
            )
        )
    kept = (normal if normal is not None else normalize(m)).kept
    if not kept:
        return not_icc(
            FINITE_GROUP_WITNESS,
            Citation(
                "Theorem 13" if orientable else "Theorem 19",
                "the Poincare variety has trivial group",
            ),
            Citation("ICC definition"),
        )
    if not orientable and [p.order_class for p in kept] == [2, 2]:
        return unknown(
            Citation(
                "Hypotheses not met",
                "the group is infinite dihedral, excluded by the hypotheses of "
                "the non-orientable classification",
            )
        )
    if len(kept) > 1:
        return _multi_piece_verdict(kept)
    piece, seifert = kept[0].piece, kept[0].seifert
    if seifert is not None:
        return _seifert_piece_verdict(seifert, orientable)
    if isinstance(piece, HyperbolicPiece):
        if not piece.finite_volume:
            return unknown(
                Citation("Outside scope", "infinite-volume hyperbolic pieces are not covered")
            )
        if orientable:
            return icc(Citation("Prop 21", "orientable hyperbolic, finite volume"))
        # the orientation double cover is orientable hyperbolic of finite
        # volume; hyperbolic manifold groups are torsion-free
        return icc(
            Citation("Prop 21", "the orientation double cover's group is ICC"),
            Citation("Lemma 5", "the group is torsion-free with an ICC finite-index subgroup"),
        )
    if isinstance(piece, TorusBundlePiece):
        if groups.semidirect.mat_det(piece.monodromy) == 1:
            # only a torus bundle piece executes the group rules
            return iccdec.rules.icc_torus_bundle(piece.monodromy)
        if orientable:
            raise GroupUsageError(
                "an orientable manifold cannot carry a determinant -1 torus bundle piece"
            )
        return unknown(
            Citation(
                "Outside scope",
                "torus bundles with determinant -1 monodromy are outside the "
                "orientable-bundle trichotomy",
            )
        )
    if isinstance(piece, SphereBundlePiece):
        if orientable and not piece.orientable_bundle:
            raise GroupUsageError(
                "an orientable manifold cannot contain the twisted sphere bundle"
            )
        generator = _carrier(kept)[0].element(1)
        return not_icc(
            Witness(
                description=f"generator {generator!r} of the infinite cyclic group",
                element=generator,
            ),
            Citation("Abelian infinite", "the group of the sphere bundle is Z"),
        )
    assert isinstance(piece, OtherIrreduciblePiece)
    return _other_irreducible_verdict(piece, orientable)


def decide_icc_orientable(m: ManifoldDescriptor) -> Verdict:
    """Theorem 13 over the descriptor's decomposition tree."""
    if not m.orientable:
        raise GroupUsageError("decide_icc_orientable requires an orientable descriptor")
    return _decide_manifold(m)


def decide_icc_nonorientable(m: ManifoldDescriptor) -> Verdict:
    """Theorem 19 / Prop 18 over the descriptor, with the refusals the
    hypotheses require (nonstandard P2 x I blocks, infinite dihedral group)."""
    if m.orientable:
        raise GroupUsageError("decide_icc_nonorientable requires a non-orientable descriptor")
    return _decide_manifold(m)


def explain_manifold(m: ManifoldDescriptor) -> tuple[Verdict, Normalization]:
    """The verdict on m with the normalization it was computed from."""
    normal = normalize(m)
    return _decide_manifold(m, normal), normal


# ---------------------------------------------------------------------------
# knots and links


def torus_knot_group(p: int, q: int) -> tuple[StructuredGroup, GroupElement]:
    """< x, y | x^p = y^q > with the central element x^p distinguished."""
    extension = groups.fiber_extension
    group = extension.FiberExtension(
        [extension.TorsionPart("x", p, 1), extension.TorsionPart("y", q, 1)], fiber_name="h"
    )
    return group, group.fiber()


def decide_icc_knot(knot: KnotDescriptor) -> Verdict:
    if isinstance(knot, TorusKnot):
        p, q = knot.p, knot.q
        group, _ = knot_group(knot)
        if isinstance(group, InfiniteCyclic):
            return not_icc(
                Witness(
                    description="meridian generator x of the unknot group Z",
                    element=group.element(1),
                ),
                Citation("Cor 20", "the unknot is the (1, q) torus knot"),
                Citation("Knot group infinite"),
                Citation("Abelian infinite"),
            )
        return not_icc(
            Witness(
                description=f"central element x^{p} (= y^{q} = h) of the torus knot group",
                element=group.fiber(),
            ),
            Citation("Cor 20", f"the ({p}, {q}) torus knot complement is Seifert"),
            Citation("Knot group infinite"),
            Citation("Prop 2"),
        )
    if isinstance(knot, HyperbolicKnot):
        return icc(
            Citation("Cor 20", "a hyperbolic knot is not a torus knot"),
            Citation("Knot group infinite"),
        )
    assert isinstance(knot, OtherKnot)
    if knot.is_torus:
        return not_icc(
            Witness(description="central Seifert fiber class of the torus knot group"),
            Citation("Cor 20"),
            Citation("Knot group infinite"),
            Citation("Prop 2"),
        )
    return icc(Citation("Cor 20", "flagged as not a torus knot"), Citation("Knot group infinite"))


def decide_icc_link(link: LinkDescriptor) -> Verdict:
    if link.is_seifert_fiber_union is None:
        return unknown(
            Citation("Hypotheses not met", "the Seifert-fiber-union flag is missing")
        )
    if link.is_seifert_fiber_union:
        return not_icc(
            Witness(description="central fiber class of the ambient Seifert fibration"),
            Citation("Burde-Murasugi", "the link is a finite union of fibers"),
        )
    return icc(Citation("Burde-Murasugi", "the link is not a union of fibers"))


def manifold_group(m: ManifoldDescriptor) -> tuple[StructuredGroup, str]:
    """An enumerable carrier for the descriptor's fundamental group, with a
    short provenance note.  Raises when no realization is available (pieces
    outside the computable family, or non-orientable Seifert pieces, whose
    fiber-inversion data the descriptor does not determine)."""
    if not m.orientable:
        raise GroupUsageError(
            "non-orientable descriptors do not determine fiber-inversion data; "
            "no enumerable realization is emitted"
        )
    return _carrier(normalize(m).kept)


def knot_group(knot: KnotDescriptor) -> tuple[StructuredGroup, str]:
    """An enumerable carrier for a torus knot's group, with a short
    provenance note: Z for the unknot, torus_knot_group otherwise."""
    if not isinstance(knot, TorusKnot):
        raise GroupUsageError("only torus knot descriptors denote an enumerable group")
    if knot.p == 1 or knot.q == 1:
        return InfiniteCyclic("x"), "unknot group Z"
    group, _ = torus_knot_group(knot.p, knot.q)
    return group, f"({knot.p}, {knot.q}) torus knot group"
