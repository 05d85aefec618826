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

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Optional, Union

from .groups import (
    INFINITE,
    FiberExtension,
    FiniteCyclic,
    FreePart,
    FreeProduct,
    GroupElement,
    GroupUsageError,
    InfiniteCyclic,
    SemidirectZnByZ,
    StructuredGroup,
    TorsionPart,
    multiply,
)
from .rules import icc_torus_bundle
from .groups.semidirect import mat_det as int_mat_det
from .verdict import (
    FINITE_GROUP_WITNESS,
    Citation,
    Verdict,
    Witness,
    icc,
    not_icc,
    unknown,
)

Letter = tuple[str, int]


# ---------------------------------------------------------------------------
# descriptor types


@dataclass(frozen=True)
class SeifertInvariants:
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

    def orbifold_euler_characteristic(self) -> Fraction:
        base = 2 - 2 * self.base_genus if self.base_orientable else 2 - self.base_genus
        base -= self.boundary_components
        return Fraction(base) - sum(
            Fraction(alpha - 1, alpha) for alpha, _ in self.exceptional_fibers
        )


@dataclass(frozen=True)
class SeifertPiece:
    invariants: SeifertInvariants


@dataclass(frozen=True)
class HyperbolicPiece:
    finite_volume: bool = True


@dataclass(frozen=True)
class TorusBundlePiece:
    monodromy: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        matrix = tuple(tuple(int(x) for x in row) for row in self.monodromy)
        if len(matrix) != 2 or any(len(r) != 2 for r in matrix):
            raise GroupUsageError("monodromy must be a 2x2 integer matrix")
        if int_mat_det(matrix) not in (1, -1):
            raise GroupUsageError("monodromy must have determinant +1 or -1")
        object.__setattr__(self, "monodromy", matrix)


@dataclass(frozen=True)
class SphereBundlePiece:
    orientable_bundle: bool


@dataclass(frozen=True)
class HomotopySpherePiece:
    pass


@dataclass(frozen=True)
class OtherIrreduciblePiece:
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


@dataclass(frozen=True)
class ManifoldDescriptor:
    orientable: bool
    pieces: tuple[PrimePiece, ...]
    boundary_spheres_capped: bool = False

    def __post_init__(self):
        if not self.pieces:
            raise GroupUsageError("a manifold descriptor needs at least one piece")
        object.__setattr__(self, "pieces", tuple(self.pieces))


@dataclass(frozen=True)
class TorusKnot:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise GroupUsageError("torus knot parameters must be positive")
        if gcd(self.p, self.q) != 1:
            raise GroupUsageError("torus knot parameters must be coprime")


@dataclass(frozen=True)
class HyperbolicKnot:
    pass


@dataclass(frozen=True)
class OtherKnot:
    is_torus: bool


KnotDescriptor = Union[TorusKnot, HyperbolicKnot, OtherKnot]


@dataclass(frozen=True)
class LinkDescriptor:
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


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[tuple[Letter, ...], ...]

    def display(self) -> str:
        def word(letters):
            if not letters:
                return "1"
            out = []
            for name, exp in letters:
                out.append(name if exp == 1 else f"{name}^{exp}")
            return " ".join(out)

        rels = ", ".join(f"{word(r)} = 1" for r in self.relators)
        return f"< {', '.join(self.generators)} | {rels} >"


def presentation_certifies_commutation(pres: Presentation, fiber: str) -> dict[str, int]:
    """For each non-fiber generator g, the exponent s with a relator
    g h g^-1 h^(-s) (s = +1: commutes, s = -1: inverts).  A generator with no
    such relator is absent from the result."""
    found: dict[str, int] = {}
    for relator in pres.relators:
        if len(relator) != 4:
            continue
        (n0, e0), (n1, e1), (n2, e2), (n3, e3) = relator
        if n1 == fiber and n3 == fiber and n0 == n2 and n0 != fiber:
            if (e0, e1, e2) == (1, 1, -1) and e3 in (1, -1):
                found[n0] = -e3
    return found


@dataclass(frozen=True)
class SeifertGroupResult:
    """The fundamental group of a Seifert-fibered piece.

    presentation: the emitted generators/relators with h the fiber class.
    realization / fiber_element: an enumerable carrier and h inside it, when
    the data lands in the computable family (None otherwise).
    order_kind: "exact" (order holds the value, INFINITE for infinite),
    "finite_ge_3" (finite, size not computed, at least 3), or
    "unknown_ge_3" (finiteness undetermined, order at least 3 either way).
    """

    invariants: SeifertInvariants
    presentation: Presentation
    fiber_name: str
    fiber_central: bool
    order_kind: str
    order: float
    realization: Optional[StructuredGroup]
    fiber_element: Optional[GroupElement]

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


def _seifert_presentation(inv: SeifertInvariants, suffix: str) -> tuple[Presentation, str]:
    """The standard fibered presentation.  For bounded bases the last
    boundary relation is eliminated, leaving free boundary generators
    m1..m(d-1); closed bases carry the product relation with h^b."""
    h = "h" + suffix
    gens: list[str] = []
    relators: list[tuple[Letter, ...]] = []
    base_gens: list[tuple[str, int]] = []  # (name, fiber sign under conjugation)
    if inv.base_orientable:
        for i in range(inv.base_genus):
            base_gens.append((f"a{i + 1}{suffix}", 1))
            base_gens.append((f"b{i + 1}{suffix}", 1))
    else:
        for i in range(inv.base_genus):
            base_gens.append((f"a{i + 1}{suffix}", -1))
    for k in range(max(0, inv.boundary_components - 1)):
        base_gens.append((f"m{k + 1}{suffix}", 1))
    fiber_gens = [f"q{j + 1}{suffix}" for j in range(len(inv.exceptional_fibers))]
    gens.extend(name for name, _ in base_gens)
    gens.extend(fiber_gens)
    gens.append(h)
    for name, sign in base_gens:
        relators.append(((name, 1), (h, 1), (name, -1), (h, -sign)))
    for name in fiber_gens:
        relators.append(((name, 1), (h, 1), (name, -1), (h, -1)))
    for name, (alpha, beta) in zip(fiber_gens, inv.exceptional_fibers):
        relators.append(((name, alpha), (h, beta)))
    if inv.closed:
        product: list[Letter] = [(name, 1) for name in fiber_gens]
        if inv.base_orientable:
            for i in range(inv.base_genus):
                a, b = f"a{i + 1}{suffix}", f"b{i + 1}{suffix}"
                product.extend([(a, 1), (b, 1), (a, -1), (b, -1)])
        else:
            for i in range(inv.base_genus):
                product.append((f"a{i + 1}{suffix}", 2))
        product.append((h, inv.euler_obstruction))
        relators.append(tuple(product))
    return Presentation(tuple(gens), tuple(relators)), h


def _diagonalize_2x2(m: list[list[int]]) -> tuple[int, int, list[list[int]]]:
    """Row/column reduce to diag(d1, d2); returns (d1, d2, C) where C is the
    accumulated unimodular column transformation (quotient coordinates map
    through x -> x C)."""
    a = [list(row) for row in m]
    c = [[1, 0], [0, 1]]

    def col_op(j, k, q):  # col_k += q * col_j
        for i in range(2):
            a[i][k] += q * a[i][j]
        for i in range(2):
            c[i][k] += q * c[i][j]

    def col_swap():
        for i in range(2):
            a[i][0], a[i][1] = a[i][1], a[i][0]
        for i in range(2):
            c[i][0], c[i][1] = c[i][1], c[i][0]

    def row_op(i, k, q):  # row_k += q * row_i
        for j in range(2):
            a[k][j] += q * a[i][j]

    def row_swap():
        a[0], a[1] = a[1], a[0]

    for _ in range(4096):
        if a[1][0] == 0 and a[0][1] == 0:
            # enforce the divisor chain d1 | d2 so that d1 is the gcd of all
            # entries (here 1 for coprime fiber data)
            if a[0][0] == 0 and a[1][1] != 0:
                row_swap()
                col_swap()
            if a[0][0] != 0 and a[1][1] % a[0][0] != 0:
                col_op(1, 0, 1)
                continue
            break
        if a[0][0] == 0:
            if a[1][0] != 0:
                row_swap()
            else:
                col_swap()
            continue
        if a[1][0] != 0:
            row_op(0, 1, -(a[1][0] // a[0][0]))
            if a[1][0] != 0:
                row_swap()
            continue
        col_op(0, 1, -(a[0][1] // a[0][0]))
        if a[0][1] != 0:
            col_swap()
    else:
        raise GroupUsageError("diagonalization did not terminate")
    return a[0][0], a[1][1], c


def _lens_realization(
    inv: SeifertInvariants, suffix: str
) -> tuple[StructuredGroup, GroupElement, int]:
    """Closed, orientable S^2 base, at most two exceptional fibers: the group
    is cyclic.  Returns (group, fiber element, order) with 0 meaning Z."""
    b = inv.euler_obstruction
    fibers = inv.exceptional_fibers
    if len(fibers) == 0:
        p = abs(b)
        group: StructuredGroup = FiniteCyclic(p, "h" + suffix) if p else InfiniteCyclic("h" + suffix)
        return group, group.element(1 % p if p else 1), p
    if len(fibers) == 1:
        alpha, beta = fibers[0]
        p = abs(alpha * b - beta)
        group = FiniteCyclic(p, "h" + suffix) if p else InfiniteCyclic("h" + suffix)
        return group, group.element(1 % p if p else 1), p
    (a1, b1), (a2, b2) = fibers
    # relations on (q1, h) after q2 = -q1 - b h:  a1 q1 + b1 h = 0,
    # -a2 q1 + (b2 - a2 b) h = 0
    matrix = [[a1, b1], [-a2, b2 - a2 * b]]
    d1, d2, c = _diagonalize_2x2(matrix)
    h_coords = (c[1][0], c[1][1])  # image of (0,1) under x -> x C
    diag = (abs(d1), abs(d2))
    if diag[0] == 1:
        p, h_exp = diag[1], h_coords[1]
    elif diag[1] == 1:
        p, h_exp = diag[0], h_coords[0]
    else:
        raise GroupUsageError("lens-type data did not reduce to a cyclic group")
    name = "c" + suffix
    group = FiniteCyclic(p, name) if p else InfiniteCyclic(name)
    h_element = group.element(h_exp % p if p else h_exp)
    return group, h_element, p


def seifert_group(inv: SeifertInvariants, suffix: str = "") -> SeifertGroupResult:
    """Emit the fibered presentation, the distinguished fiber class h, and an
    enumerable realization when the data is in the computable family."""
    presentation, fiber_name = _seifert_presentation(inv, suffix)
    fiber_central = inv.base_orientable
    fibers = inv.exceptional_fibers
    n = len(fibers)
    realization: Optional[StructuredGroup] = None
    fiber_element: Optional[GroupElement] = None
    order_kind, order = "exact", INFINITE

    if not inv.closed:
        parts: list = []
        if inv.base_orientable:
            for i in range(inv.base_genus):
                parts.append(FreePart(f"a{i + 1}{suffix}", 1))
                parts.append(FreePart(f"b{i + 1}{suffix}", 1))
        else:
            for i in range(inv.base_genus):
                parts.append(FreePart(f"a{i + 1}{suffix}", -1))
        for k in range(inv.boundary_components - 1):
            parts.append(FreePart(f"m{k + 1}{suffix}", 1))
        for j, (alpha, beta) in enumerate(fibers):
            parts.append(TorsionPart(f"q{j + 1}{suffix}", alpha, -beta))
        realization = FiberExtension(parts, fiber_name=fiber_name)
        fiber_element = realization.fiber()
        return SeifertGroupResult(
            inv, presentation, fiber_name, fiber_central, "exact", INFINITE,
            realization, fiber_element,
        )

    b = inv.euler_obstruction
    if inv.base_orientable and inv.base_genus == 0:
        if n <= 2:
            realization, fiber_element, p = _lens_realization(inv, suffix)
            order = p if p else INFINITE
        elif n == 3:
            chi = inv.orbifold_euler_characteristic()
            euler_number = Fraction(b) - sum(Fraction(beta, alpha) for alpha, beta in fibers)
            if chi > 0 and euler_number != 0:
                order_kind, order = "finite_ge_3", INFINITE
            # chi <= 0 (or euler number 0): infinite, no realization
    elif inv.base_orientable and inv.base_genus == 1 and n == 0:
        # central extension of Z^2: Z^3 when b = 0, integral Heisenberg-type
        # otherwise; carried by Z^2 x| Z with basis (b1, h) and letter a1
        phi = ((1, 0), (-b, 1))
        realization = SemidirectZnByZ(
            2, phi, exponent_name=f"a1{suffix}", basis_names=(f"b1{suffix}", fiber_name)
        )
        fiber_element = realization.element(((0, 1), 0))
    elif not inv.base_orientable and inv.base_genus == 1 and n == 0:
        if b == 0:
            # infinite dihedral: reflections r1, r2 with a1 = r1, h = r1 r2
            left = FiniteCyclic(2, f"r1{suffix}")
            right = FiniteCyclic(2, f"r2{suffix}")
            realization = FreeProduct(left, right)
            fiber_element = realization.reduce_letters(
                [(f"r1{suffix}", 1), (f"r2{suffix}", 1)]
            )
        else:
            order_kind, order = "finite_ge_3", INFINITE  # dicyclic of order 4|b|
    elif not inv.base_orientable and inv.base_genus == 1 and n == 1:
        # prism-type data: finite or infinite depending on the euler data,
        # but of order >= 4 either way (the group surjects onto the base
        # orbifold group, which has order 2*alpha)
        order_kind, order = "unknown_ge_3", INFINITE
    return SeifertGroupResult(
        inv, presentation, fiber_name, fiber_central, order_kind, order,
        realization, fiber_element,
    )

# ---------------------------------------------------------------------------
# piece-level group information


@dataclass(frozen=True)
class PieceGroupInfo:
    """What the engine knows about one piece's fundamental group."""

    order_class: object  # 1, 2, or "3+"
    finite: Optional[bool]  # True/False when known, None when undetermined
    realization: Optional[StructuredGroup]
    distinguished: Optional[GroupElement]  # fiber class / generator, if any
    note: str = ""


def piece_group_info(piece: PrimePiece, orientable_manifold: bool, suffix: str = "") -> PieceGroupInfo:
    if isinstance(piece, HomotopySpherePiece):
        return PieceGroupInfo(1, True, FiniteCyclic(1, "u" + suffix), None, "homotopy sphere")
    if isinstance(piece, SeifertPiece):
        sg = seifert_group(piece.invariants, suffix)
        finite: Optional[bool]
        if sg.order_kind == "exact":
            finite = sg.order != INFINITE
        elif sg.order_kind == "finite_ge_3":
            finite = True
        else:
            finite = None
        realization = sg.realization if orientable_manifold else None
        fiber = sg.fiber_element if orientable_manifold else None
        return PieceGroupInfo(sg.order_class(), finite, realization, fiber, "Seifert piece")
    if isinstance(piece, HyperbolicPiece):
        return PieceGroupInfo("3+", False, None, None, "hyperbolic piece")
    if isinstance(piece, TorusBundlePiece):
        realization = None
        if int_mat_det(piece.monodromy) == 1:
            realization = SemidirectZnByZ(2, piece.monodromy, exponent_name="t" + suffix,
                                          basis_names=(f"e1{suffix}", f"e2{suffix}"))
        return PieceGroupInfo("3+", False, realization, None, "torus bundle")
    if isinstance(piece, SphereBundlePiece):
        group = InfiniteCyclic("t" + suffix)
        return PieceGroupInfo("3+", False, group, group.element(1), "sphere bundle over the circle")
    assert isinstance(piece, OtherIrreduciblePiece)
    order = piece.pi1_order
    if order == INFINITE:
        return PieceGroupInfo("3+", False, None, None, "flagged irreducible piece")
    cls = order if order in (1, 2) else "3+"
    return PieceGroupInfo(cls, True, None, None, "flagged irreducible piece")


def _kept_pieces(
    m: ManifoldDescriptor, orientable: bool
) -> list[tuple[PrimePiece, PieceGroupInfo]]:
    """The pieces of the Poincare variety whose groups are nontrivial, each
    with its group information."""
    pieces = poincare_variety(m).pieces
    multi = len(pieces) > 1
    infos = [
        piece_group_info(p, orientable, f"_{i}" if multi else "") for i, p in enumerate(pieces)
    ]
    return [(p, info) for p, info in zip(pieces, infos) if info.order_class != 1]


def _multi_piece_verdict(kept) -> Verdict:
    """Free-product rule over the nontrivial piece groups (Kneser-Milnor)."""
    classes = [info.order_class for _, info in kept]
    if len(kept) == 2 and classes == [2, 2]:
        witness = Witness(
            description="translation element of the infinite dihedral group "
            "(product of the two order-2 generators)"
        )
        realizations = [info.realization for _, info in kept]
        if all(isinstance(r, FiniteCyclic) and r.n == 2 for r in realizations):
            product = FreeProduct(realizations[0], realizations[1])
            element = multiply(
                product.embed(0, realizations[0].element(1)),
                product.embed(1, realizations[1].element(1)),
            )
            witness = Witness(
                description=f"translation {element!r} of the infinite dihedral group",
                element=element,
                kind="element",
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
            kind="element",
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


def _decide_manifold(m: ManifoldDescriptor) -> Verdict:
    """One procedure for both orientations; the orientation selects the
    citations and the refusals the non-orientable hypotheses require
    (nonstandard P2 x I blocks, infinite dihedral group)."""
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
    kept = _kept_pieces(m, orientable)
    if not kept:
        return not_icc(
            FINITE_GROUP_WITNESS,
            Citation(
                "Theorem 13" if orientable else "Theorem 19",
                "the Poincare variety has trivial group",
            ),
            Citation("ICC definition"),
        )
    if not orientable and [info.order_class for _, info in kept] == [2, 2]:
        return unknown(
            Citation(
                "Hypotheses not met",
                "the group is infinite dihedral, excluded by the hypotheses of "
                "the non-orientable classification",
            )
        )
    if len(kept) > 1:
        return _multi_piece_verdict(kept)
    piece, info = kept[0]
    if isinstance(piece, SeifertPiece):
        return _seifert_piece_verdict(seifert_group(piece.invariants), orientable)
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
        if int_mat_det(piece.monodromy) == 1:
            return icc_torus_bundle(piece.monodromy)
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
        generator = info.distinguished
        return not_icc(
            Witness(
                description=f"generator {generator!r} of the infinite cyclic group",
                element=generator,
                kind="element",
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


# ---------------------------------------------------------------------------
# knots and links


def torus_knot_group(p: int, q: int) -> tuple[StructuredGroup, GroupElement]:
    """< x, y | x^p = y^q > with the central element x^p distinguished."""
    group = FiberExtension(
        [TorsionPart("x", p, 1), TorsionPart("y", q, 1)], fiber_name="h"
    )
    return group, group.fiber()


def decide_icc_knot(knot: KnotDescriptor) -> Verdict:
    if isinstance(knot, TorusKnot):
        p, q = knot.p, knot.q
        if p == 1 or q == 1:
            group = InfiniteCyclic("x")
            return not_icc(
                Witness(
                    description="meridian generator x of the unknot group Z",
                    element=group.element(1),
                    kind="element",
                ),
                Citation("Cor 20", "the unknot is the (1, q) torus knot"),
                Citation("Knot group infinite"),
                Citation("Abelian infinite"),
            )
        group, center = torus_knot_group(p, q)
        return not_icc(
            Witness(
                description=f"central element x^{p} (= y^{q} = h) of the torus knot group",
                element=center,
                kind="element",
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
    kept = _kept_pieces(m, True)
    if not kept:
        return FiniteCyclic(1, "u"), "trivial group (all pieces simply connected)"
    for piece, info in kept:
        if info.realization is None:
            raise GroupUsageError(
                f"piece {type(piece).__name__} has no enumerable realization"
            )
    if len(kept) == 1:
        return kept[0][1].realization, kept[0][1].note
    return (
        reduce(FreeProduct, [info.realization for _, info in kept]),
        f"free product of {len(kept)} piece groups",
    )
