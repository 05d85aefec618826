"""ICC decision combinators for structured groups.

The combinators implement sufficient conditions; where a rule's hypotheses
fail the verdict is Unknown, never a negation.  NotICC verdicts carry a
witness with a finite conjugacy class (or the finite-group marker).
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from math import gcd
from operator import mul
from typing import Optional

from ._lazy import executed, lazy_module
from .groups.base import (
    INFINITE,
    GroupElement,
    GroupUsageError,
    NotEnumerableError,
    StructuredGroup,
    conjugate,
    multiply,
)
from .groups.cyclic import FiniteCyclic, InfiniteCyclic
from .groups.free_product import FreeProduct
from .verdict import (
    FINITE_GROUP_WITNESS,
    Citation,
    Status,
    Verdict,
    Witness,
    icc,
    not_icc,
    unknown,
)

# Executed on first use.  decide_structured_group tests a class only once
# its module has run, so a group loads the modules of its own constructions
# and no others.
amalgam = lazy_module("iccdec.groups.amalgam")
direct_product = lazy_module("iccdec.groups.direct_product")
fiber_extension = lazy_module("iccdec.groups.fiber_extension")
hnn = lazy_module("iccdec.groups.hnn")
semidirect = lazy_module("iccdec.groups.semidirect")
surface = lazy_module("iccdec.groups.surface")
eisenstein = lazy_module("iccdec.eisenstein")


class MonodromyClass(Enum):
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"


def icc_free_product(order_left, order_right) -> Verdict:
    """Prop 3(i) plus the infinite dihedral exception for orders (2, 2)."""
    for order in (order_left, order_right):
        if order != INFINITE and (not isinstance(order, int) or order < 2):
            raise GroupUsageError("free product factors must have order >= 2")
    if order_left == 2 and order_right == 2:
        return not_icc(
            Witness(description="translation generator (product of the two involutions)"),
            Citation("Infinite dihedral", "both factors have order 2"),
        )
    return icc(
        Citation("Prop 3(i)", f"factor orders {order_left} and {order_right}")
    )


def _is_normal_under_generators(
    ambient: StructuredGroup, subgroup: list[GroupElement]
) -> bool:
    """Whether the finite subgroup is closed under conjugation by the
    ambient group's designated generators (hence normal, since the subgroup
    is finite and the generators generate)."""
    member_payloads = {g.payload for g in subgroup}
    for _, gen in ambient.generators():
        for s in subgroup:
            if conjugate(s, gen).payload not in member_payloads:
                return False
    return True


def icc_amalgam(
    group: amalgam.Amalgam,
    factor_verdicts: tuple[Optional[Verdict], Optional[Verdict]] = (None, None),
) -> Verdict:
    """Prop 3(ii)/(iii) for amalgams over finite edge subgroups."""
    if not isinstance(group, amalgam.Amalgam):
        raise GroupUsageError("icc_amalgam requires an amalgam construction")
    indices = (group.factor_index(0), group.factor_index(1))
    if not (
        (indices[0] >= 3 and indices[1] >= 2) or (indices[1] >= 3 and indices[0] >= 2)
    ):
        return unknown(
            Citation(
                "Hypotheses not met",
                f"edge indices {indices[0]} and {indices[1]} do not reach (3, 2)",
            )
        )
    for side in (0, 1):
        verdict = factor_verdicts[side]
        if verdict is not None and verdict.status is Status.ICC:
            return Verdict(
                Status.ICC,
                verdict.reasons + (Citation("Prop 3(ii)", f"factor {side + 1} is ICC"),),
            )
    # Prop 3(iii): a nontrivial subgroup of the finite edge group that is
    # normal in both factors would have to be ICC, which a finite group
    # never is; so the condition holds exactly when no such subgroup exists.
    for sub in group.edge.table.subgroups():
        if len(sub) == 1:
            continue
        if all(
            _is_normal_under_generators(
                group.factors[side],
                [group.factors[side].element(group.edge.embeds[side][i]) for i in sorted(sub)],
            )
            for side in (0, 1)
        ):
            return unknown(
                Citation(
                    "Prop 3(iii)",
                    f"a subgroup of the edge group of order {len(sub)} is normal in "
                    "both factors but finite, so the hypothesis fails",
                )
            )
    return icc(
        Citation("Prop 3(iii)", "no nontrivial edge subgroup is normal in both factors")
    )


def icc_hnn(group: hnn.Hnn, base_verdict: Optional[Verdict] = None) -> Verdict:
    """Prop 3(iv)/(v) for HNN extensions."""
    if not isinstance(group, hnn.Hnn):
        raise GroupUsageError("icc_hnn requires an HNN construction")
    proper = group.edge.proper_sides(group.base)
    if not (proper[0] or proper[1]):
        return unknown(
            Citation("Hypotheses not met", "neither associated subgroup is proper in the base")
        )
    if base_verdict is not None and base_verdict.status is Status.ICC:
        return Verdict(
            Status.ICC, base_verdict.reasons + (Citation("Prop 3(iv)", "the base group is ICC"),)
        )
    edge = group.edge
    if isinstance(edge, hnn.CyclicPowerEdge):
        # Subgroups of <a^m> are <a^(m k)>.  Such a subgroup is normal in the
        # extension iff conjugation by t and t^-1 preserves it, which forces
        # |m| = |n|; then it is infinite cyclic, hence not ICC.
        if abs(edge.m) == abs(edge.n):
            return unknown(
                Citation(
                    "Prop 3(v)",
                    "the associated subgroup itself is normal in the extension "
                    "but infinite cyclic, so the hypothesis fails",
                )
            )
        return icc(
            Citation(
                "Prop 3(v)",
                "no nontrivial subgroup of the associated subgroup is normal "
                f"in the extension (powers {edge.m} and {edge.n} differ in size)",
            )
        )
    assert isinstance(edge, hnn.FiniteHnnEdge)
    for sub in edge.table.subgroups():
        if len(sub) == 1:
            continue
        members = [
            group.element(((), edge.embed_domain[i])) for i in sorted(sub)
        ]
        if _is_normal_under_generators(group, members):
            return unknown(
                Citation(
                    "Prop 3(v)",
                    f"a subgroup of the associated subgroup of order {len(sub)} is "
                    "normal in the extension but finite, so the hypothesis fails",
                )
            )
    return icc(
        Citation("Prop 3(v)", "no nontrivial associated subgroup is normal in the extension")
    )


def icc_finite_index_descend(super_verdict: Verdict) -> Verdict:
    """Lemma 4: finite-index subgroups inherit ICC."""
    if super_verdict.status is not Status.ICC:
        raise GroupUsageError("icc_finite_index_descend requires an ICC verdict")
    return Verdict(
        Status.ICC,
        super_verdict.reasons + (Citation("Lemma 4", "passing to a finite-index subgroup"),),
    )


def icc_index_two_lift(
    sub_verdict: Verdict, has_central_involution: bool, torsion_free: bool = False
) -> Verdict:
    """Lemma 6 (and Lemma 5 when the ambient group is torsion-free)."""
    if sub_verdict.status is not Status.ICC:
        raise GroupUsageError("icc_index_two_lift requires an ICC verdict for the subgroup")
    if torsion_free:
        return Verdict(
            Status.ICC,
            sub_verdict.reasons
            + (Citation("Lemma 5", "the ambient group is torsion-free"),),
        )
    if has_central_involution:
        return not_icc(
            Witness(description="central involution generating the finite-class union"),
            *sub_verdict.reasons,
            Citation("Lemma 6", "the group splits as subgroup x Z/2"),
        )
    return Verdict(
        Status.ICC,
        sub_verdict.reasons + (Citation("Lemma 6", "no central involution"),),
    )


def _as_matrix(phi) -> semidirect.Matrix:
    matrix = tuple(tuple(int(x) for x in row) for row in phi)
    if len(matrix) != 2 or any(len(r) != 2 for r in matrix):
        raise GroupUsageError("a monodromy matrix must be 2x2")
    return matrix


def classify_monodromy(phi) -> MonodromyClass:
    """Spectral type of a 2x2 integer matrix with determinant +-1."""
    matrix = _as_matrix(phi)
    det = semidirect.mat_det(matrix)
    if det not in (1, -1):
        raise GroupUsageError("monodromy must have determinant +1 or -1")
    trace = matrix[0][0] + matrix[1][1]
    if det == 1:
        if abs(trace) <= 1:
            return MonodromyClass.ELLIPTIC
        if abs(trace) == 2:
            return MonodromyClass.PARABOLIC
        return MonodromyClass.HYPERBOLIC
    # det = -1: the discriminant trace^2 + 4 is positive, so eigenvalues are
    # real; they are +-1 exactly when the trace vanishes.
    return MonodromyClass.PARABOLIC if trace == 0 else MonodromyClass.HYPERBOLIC


def _primitive_kernel_vector(m: semidirect.Matrix) -> Optional[tuple[int, int]]:
    """A primitive integer kernel vector of a singular 2x2 matrix, or None."""
    if semidirect.mat_det(m) != 0:
        return None
    for p, q in m:
        if (p, q) != (0, 0):
            g = gcd(abs(p), abs(q))
            return (q // g, -p // g)
    return (1, 0)  # zero matrix


def icc_torus_bundle(phi) -> Verdict:
    """Lemma 10's trichotomy for orientable torus bundles."""
    matrix = _as_matrix(phi)
    if semidirect.mat_det(matrix) != 1:
        raise GroupUsageError(
            "torus bundle monodromy must have determinant +1 (orientable bundle)"
        )
    kind = classify_monodromy(matrix)
    if kind is MonodromyClass.HYPERBOLIC:
        return icc(
            Citation("Lemma 10", "hyperbolic monodromy, no eigenvector in Z^2")
        )
    if kind is MonodromyClass.PARABOLIC:
        trace = matrix[0][0] + matrix[1][1]
        sign = 1 if trace == 2 else -1
        shifted = tuple(
            tuple(matrix[i][j] - (sign if i == j else 0) for j in range(2)) for i in range(2)
        )
        vector = _primitive_kernel_vector(shifted)
        group = semidirect.SemidirectZnByZ(2, matrix)
        element = group.element((vector, 0))
        size = "{v}" if sign == 1 else "{v, -v}"
        return not_icc(
            Witness(
                description=f"lattice eigenvector {element!r} with conjugacy class {size}",
                element=element,
                kind="element",
            ),
            Citation("Lemma 10", "parabolic monodromy, the bundle is Seifert"),
            Citation("Prop 2", "a Seifert group has a finite nontrivial conjugacy class"),
        )
    return not_icc(
        Witness(description="regular fiber class h of the Seifert structure"),
        Citation("Lemma 10", "elliptic monodromy of finite order, the bundle is Seifert"),
        Citation("Prop 2", "a Seifert group has a finite nontrivial conjugacy class"),
    )


def icc_surface(genus: int, orientable: bool, boundary_components: int) -> Verdict:
    """The surface-group rule from the classification of surfaces."""
    if genus < 0 or boundary_components < 0:
        raise GroupUsageError("genus and boundary count must be nonnegative")
    if not orientable and genus < 1:
        raise GroupUsageError("a non-orientable surface has genus >= 1")
    g, b = genus, boundary_components
    if b > 0:
        rank = 2 * g + b - 1 if orientable else g + b - 1
        if rank == 0:
            return not_icc(
                FINITE_GROUP_WITNESS,
                Citation("Surface classification", "disk: trivial group"),
            )
        if rank == 1:
            name = "annulus" if orientable else "Moebius band"
            return not_icc(
                Witness(description="core curve generator of the infinite cyclic group"),
                Citation("Surface classification", name),
                Citation("Abelian infinite"),
            )
        return icc(
            Citation("Surface classification", f"free group of rank {rank}"),
            Citation("Prop 3(i)"),
        )
    if orientable:
        if g == 0:
            return not_icc(
                FINITE_GROUP_WITNESS, Citation("Surface classification", "sphere: trivial group")
            )
        if g == 1:
            return not_icc(
                Witness(description="any nontrivial element of Z^2"),
                Citation("Surface classification", "torus"),
                Citation("Abelian infinite"),
            )
        return icc(
            Citation("Surface classification", f"closed orientable surface of genus {g}"),
            Citation("Prop 3(ii)"),
        )
    if g == 1:
        return not_icc(
            FINITE_GROUP_WITNESS,
            Citation("Surface classification", "projective plane: group of order 2"),
        )
    if g == 2:
        return not_icc(
            Witness(
                description="the orientation-true generator a (conjugacy class {a, a^-1})"
            ),
            Citation("Surface classification", "Klein bottle"),
        )
    return icc(
        Citation("Surface classification", f"closed non-orientable surface of genus {g}"),
        Citation("Prop 3(ii)"),
    )


def _semidirect_finite_orbit_witness(group: semidirect.SemidirectZnByZ) -> Optional[GroupElement]:
    """An element with a finite conjugacy class, if the action admits one.

    Any root-of-unity eigenvalue of an integer matrix of rank <= 3 has order
    in {1,...,6}, so checking phi^j - I for j = 1..6 is exhaustive.  When
    phi itself has finite order j, the element (0, j) is central and is
    preferred (singleton class); otherwise a kernel vector of phi^j - I has
    a finite orbit.
    """
    n = group.rank
    for j in range(1, 7):
        if group.phi_power(j) == semidirect.identity_matrix(n):
            return group.element(((0,) * n, j))
    for j in range(1, 7):
        power = group.phi_power(j)
        shifted = tuple(
            tuple(power[i][k] - (1 if i == k else 0) for k in range(n)) for i in range(n)
        )
        vector = _integer_kernel_vector(shifted)
        if vector is not None:
            return group.element((vector, 0))
    return None


def _integer_kernel_vector(m: semidirect.Matrix) -> Optional[tuple[int, ...]]:
    """The primitive integer kernel vector that reduced row echelon form
    gives for its first free column, or None when det m != 0.

    For the first column j in the span of the columns before it, the signed
    j x j minors of columns 0..j, on j rows where columns 0..j-1 are
    independent, solve m v = 0; v is zero past j and positive at j.
    """
    n = len(m)
    for j in range(n):
        for rows in combinations(m, j):
            vector = [
                (-1) ** (j - k) * semidirect.mat_det(tuple(r[:k] + r[k + 1 : j + 1] for r in rows))
                for k in range(j + 1)
            ]
            if vector[j]:
                break
        if not any(sum(map(mul, row, vector)) for row in m):
            g = gcd(*vector) if vector[j] > 0 else -gcd(*vector)
            return tuple(x // g for x in vector) + (0,) * (n - 1 - j)
    return None


def decide_structured_group(group: StructuredGroup) -> Verdict:
    """Route a structured group through the applicable combinators."""
    if isinstance(group, FiniteCyclic):
        detail = "trivial group" if group.n == 1 else f"finite cyclic of order {group.n}"
        return not_icc(FINITE_GROUP_WITNESS, Citation("ICC definition", detail))
    if isinstance(group, InfiniteCyclic):
        return not_icc(
            Witness(
                description=f"generator {group.gen_name}",
                element=group.element(1),
                kind="element",
            ),
            Citation("Abelian infinite"),
        )
    if isinstance(group, FreeProduct):
        # decided as ((G0 * G1) * G2) * ...: order-1 factors drop out, and
        # the factors before the last remaining one form its left factor
        orders = [f.order() for f in group.factors]
        sides = [side for side, order in enumerate(orders) if order != 1]
        if len(sides) <= 1:
            side = sides[0] if sides else len(orders) - 1
            inner = decide_structured_group(group.factors[side])
            witness = inner.witness
            if witness is not None and witness.kind == "element":
                witness = Witness(witness.description, group.embed(side, witness.element), "element")
            return Verdict(inner.status, inner.reasons, witness)
        last = sides[-1]
        verdict = icc_free_product(INFINITE if len(sides) > 2 else orders[sides[0]], orders[last])
        if verdict.status is Status.NOT_ICC:
            right = group.embed(last, group.factors[last].generators()[0][1])
            element = multiply(group.generators()[0][1], right)  # left factor's first generator
            witness = Witness(
                f"translation {element!r} (conjugacy class of size 2)", element, "element"
            )
            return Verdict(verdict.status, verdict.reasons, witness)
        return verdict
    if executed(amalgam) and isinstance(group, amalgam.Amalgam):
        factor_verdicts = tuple(decide_structured_group(f) for f in group.factors)
        return icc_amalgam(group, factor_verdicts)
    if executed(hnn) and isinstance(group, hnn.Hnn):
        return icc_hnn(group, decide_structured_group(group.base))
    if executed(semidirect) and isinstance(group, semidirect.SemidirectZnByZ):
        element = _semidirect_finite_orbit_witness(group)
        if element is not None:
            witness = Witness(
                f"lattice vector {element!r} with finite monodromy orbit", element, "element"
            )
            if group.rank == 2 and semidirect.mat_det(group.phi) == 1:
                kind = classify_monodromy(group.phi)
                detail = f"{kind.value.lower()} monodromy, the bundle is Seifert"
                return not_icc(witness, Citation("Lemma 10", detail), Citation("Finite class witness"))
            return not_icc(
                witness,
                Citation("Finite class witness", "the orbit of the vector under the action is finite"),
            )
        if group.rank == 2 and semidirect.mat_det(group.phi) == 1:
            return icc_torus_bundle(group.phi)
        return unknown(
            Citation(
                "Outside scope",
                "no finite-orbit vector found, but the action is outside the "
                "orientable torus-bundle trichotomy",
            )
        )
    if executed(direct_product) and isinstance(group, direct_product.DirectWithFinite):
        if group.f.size == 1:
            return decide_structured_group(group.h)
        try:
            element = group.finite_element(1)
        except NotEnumerableError:
            # h has no normal form to write its identity in; it is 1
            witness = Witness(f"finite-factor element (1, {group.f.names[1]})")
        else:
            witness = Witness(f"finite-factor element {element!r}", element, "element")
        return not_icc(
            witness, Citation("Finite direct factor", f"finite factor of order {group.f.size}")
        )
    if executed(surface) and isinstance(group, surface.SurfaceGroup):
        verdict = icc_surface(group.genus, group.orientable, group.boundary_components)
        realization = group.realization()
        if (
            verdict.status is Status.NOT_ICC
            and verdict.witness is not None
            and verdict.witness.kind == "symbolic"
            and realization is not None
        ):
            gens = realization.generator_payloads()
            if gens:
                element = group.element(gens[0][1])
                verdict = Verdict(
                    verdict.status,
                    verdict.reasons,
                    Witness(
                        description=f"{verdict.witness.description}: {element!r}",
                        element=element,
                        kind="element",
                    ),
                )
        return verdict
    if executed(fiber_extension) and isinstance(group, fiber_extension.FiberExtension):
        fiber = group.fiber()
        closure = "{h}" if group.fiber_is_central() else "{h, h^-1}"
        return not_icc(
            Witness(
                description=f"fiber generator h (conjugacy class within {closure})",
                element=fiber,
                kind="element",
            ),
            Citation("Lemma 1", "the fiber generates a cyclic normal subgroup"),
            Citation("Prop 2"),
        )
    if executed(eisenstein) and isinstance(group, eisenstein.MatrixGroupSL2Eisenstein):
        order = group.order()
        if order != INFINITE:
            detail = "trivial group" if order == 1 else f"finite matrix group of order {order}"
            return not_icc(FINITE_GROUP_WITNESS, Citation("ICC definition", detail))
        return unknown(
            Citation(
                "Outside scope",
                "matrix groups are oracle evidence carriers; use enumerate/witness "
                "for desk-scale evidence",
            )
        )
    raise GroupUsageError(f"no decision rule for construction {type(group).__name__}")
