"""ICC decision rules for structured groups, one per construction.

The rules implement sufficient conditions; where a rule's hypotheses fail
the verdict is Unknown, never a negation.  NotICC verdicts carry a witness
with a finite conjugacy class (or the finite-group marker).
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from math import gcd
from operator import mul
from typing import Optional

from . import groups
from .groups.base import (
    INFINITE,
    GroupElement,
    GroupUsageError,
    NotEnumerableError,
    StructuredGroup,
    conjugate,
    multiply,
)
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


class MonodromyClass(Enum):
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"


def _finite_cyclic(group) -> Verdict:
    detail = "trivial group" if group.n == 1 else f"finite cyclic of order {group.n}"
    return not_icc(FINITE_GROUP_WITNESS, Citation("ICC definition", detail))


def _infinite_cyclic(group) -> Verdict:
    return not_icc(
        Witness(description=f"generator {group.gen_name}", element=group.element(1)),
        Citation("Abelian infinite"),
    )


def _free_product(group) -> Verdict:
    """Prop 3(i) plus the infinite dihedral exception for orders (2, 2),
    decided as ((G0 * G1) * G2) * ...: order-1 factors drop out, and the
    factors before the last remaining one form its left factor."""
    orders = [f.order() for f in group.factors]
    sides = [side for side, order in enumerate(orders) if order != 1]
    if len(sides) <= 1:
        side = sides[0] if sides else len(orders) - 1
        inner = decide_structured_group(group.factors[side])
        witness = inner.witness
        if witness is not None and witness.kind == "element":
            witness = Witness(witness.description, group.embed(side, witness.element))
        return Verdict(inner.status, inner.reasons, witness)
    last = sides[-1]
    left = INFINITE if len(sides) > 2 else orders[sides[0]]
    if left == orders[last] == 2:
        right = group.embed(last, group.factors[last].generators()[0][1])
        element = multiply(group.generators()[0][1], right)  # left factor's first generator
        return not_icc(
            Witness(f"translation {element!r} (conjugacy class of size 2)", element),
            Citation("Infinite dihedral", "both factors have order 2"),
        )
    return icc(Citation("Prop 3(i)", f"factor orders {left} and {orders[last]}"))


def _normal_edge_subgroup(table, sides) -> int:
    """The order of the first of table.subgroups() past the trivial one whose
    image is normal in each (ambient group, image payloads of the edge) of
    sides, or 0.  The generators generate, so a finite subgroup that each of
    them conjugates into itself is normal."""
    for sub in table.subgroups():
        if len(sub) > 1 and all(
            _is_normal_under_generators(ambient, [images[i] for i in sorted(sub)])
            for ambient, images in sides
        ):
            return len(sub)
    return 0


def _is_normal_under_generators(ambient: StructuredGroup, payloads: list) -> bool:
    members = set(payloads)
    return all(
        conjugate(ambient.element(p), gen).payload in members
        for _, gen in ambient.generators()
        for p in payloads
    )


def _amalgam(group) -> Verdict:
    """Prop 3(ii)/(iii) for amalgams over finite edge subgroups."""
    factor_verdicts = [decide_structured_group(f) for f in group.factors]
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
    for side, verdict in enumerate(factor_verdicts):
        if verdict.status is Status.ICC:
            return Verdict(
                Status.ICC,
                verdict.reasons + (Citation("Prop 3(ii)", f"factor {side + 1} is ICC"),),
            )
    # Prop 3(iii): a nontrivial subgroup of the finite edge group that is
    # normal in both factors would have to be ICC, which a finite group
    # never is; so the condition holds exactly when no such subgroup exists.
    order = _normal_edge_subgroup(group.edge.table, list(zip(group.factors, group.edge.embeds)))
    if order:
        return unknown(
            Citation(
                "Prop 3(iii)",
                f"a subgroup of the edge group of order {order} is normal in "
                "both factors but finite, so the hypothesis fails",
            )
        )
    return icc(
        Citation("Prop 3(iii)", "no nontrivial edge subgroup is normal in both factors")
    )


def _hnn(group) -> Verdict:
    """Prop 3(iv)/(v) for HNN extensions."""
    base_verdict = decide_structured_group(group.base)
    proper = group.edge.proper_sides(group.base)
    if not (proper[0] or proper[1]):
        return unknown(
            Citation("Hypotheses not met", "neither associated subgroup is proper in the base")
        )
    if base_verdict.status is Status.ICC:
        return Verdict(
            Status.ICC, base_verdict.reasons + (Citation("Prop 3(iv)", "the base group is ICC"),)
        )
    edge = group.edge
    if isinstance(edge, groups.hnn.CyclicPowerEdge):
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
    assert isinstance(edge, groups.hnn.FiniteHnnEdge)
    order = _normal_edge_subgroup(edge.table, [(group, [((), p) for p in edge.embeds[0]])])
    if order:
        return unknown(
            Citation(
                "Prop 3(v)",
                f"a subgroup of the associated subgroup of order {order} is "
                "normal in the extension but finite, so the hypothesis fails",
            )
        )
    return icc(
        Citation("Prop 3(v)", "no nontrivial associated subgroup is normal in the extension")
    )


def _as_matrix(phi) -> groups.semidirect.Matrix:
    matrix = tuple(tuple(int(x) for x in row) for row in phi)
    if len(matrix) != 2 or any(len(r) != 2 for r in matrix):
        raise GroupUsageError("a monodromy matrix must be 2x2")
    return matrix


def classify_monodromy(phi) -> MonodromyClass:
    """Spectral type of a 2x2 integer matrix with determinant +-1."""
    matrix = _as_matrix(phi)
    det = groups.semidirect.mat_det(matrix)
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


def icc_torus_bundle(phi) -> Verdict:
    """Lemma 10's trichotomy for orientable torus bundles."""
    matrix = _as_matrix(phi)
    if groups.semidirect.mat_det(matrix) != 1:
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
        vector = _integer_kernel_vector(shifted)
        group = groups.semidirect.SemidirectZnByZ(2, matrix)
        element = group.element((vector, 0))
        size = "{v}" if sign == 1 else "{v, -v}"
        return not_icc(
            Witness(
                description=f"lattice eigenvector {element!r} with conjugacy class {size}",
                element=element,
            ),
            Citation("Lemma 10", "parabolic monodromy, the bundle is Seifert"),
            Citation("Prop 2", "a Seifert group has a finite nontrivial conjugacy class"),
        )
    return not_icc(
        Witness(description="regular fiber class h of the Seifert structure"),
        Citation("Lemma 10", "elliptic monodromy of finite order, the bundle is Seifert"),
        Citation("Prop 2", "a Seifert group has a finite nontrivial conjugacy class"),
    )


def _semidirect_finite_orbit_witness(
    group: groups.semidirect.SemidirectZnByZ,
) -> Optional[GroupElement]:
    """An element with a finite conjugacy class, if the action admits one.

    Any root-of-unity eigenvalue of an integer matrix of rank <= 3 has order
    in {1,...,6}, so checking phi^j - I for j = 1..6 is exhaustive.  When
    phi itself has finite order j, the element (0, j) is central and is
    preferred (singleton class); otherwise a kernel vector of phi^j - I has
    a finite orbit.
    """
    n = group.rank
    identity = groups.semidirect.identity_matrix(n)
    for j in range(1, 7):
        if group.phi_power(j) == identity:
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


def _integer_kernel_vector(m: groups.semidirect.Matrix) -> Optional[tuple[int, ...]]:
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
                (-1) ** (j - k)
                * groups.semidirect.mat_det(tuple(r[:k] + r[k + 1 : j + 1] for r in rows))
                for k in range(j + 1)
            ]
            if vector[j]:
                break
        if not any(sum(map(mul, row, vector)) for row in m):
            g = gcd(*vector) if vector[j] > 0 else -gcd(*vector)
            return tuple(x // g for x in vector) + (0,) * (n - 1 - j)
    return None


def _semidirect(group) -> Verdict:
    torus_bundle = group.rank == 2 and groups.semidirect.mat_det(group.phi) == 1
    kind = classify_monodromy(group.phi) if torus_bundle else None
    if kind is MonodromyClass.HYPERBOLIC:
        # no root-of-unity eigenvalue, so no vector has a finite orbit
        return icc_torus_bundle(group.phi)
    # an elliptic or parabolic monodromy always has a finite-orbit vector
    element = _semidirect_finite_orbit_witness(group)
    if element is not None:
        witness = Witness(f"lattice vector {element!r} with finite monodromy orbit", element)
        if torus_bundle:
            detail = f"{kind.value.lower()} monodromy, the bundle is Seifert"
            return not_icc(witness, Citation("Lemma 10", detail), Citation("Finite class witness"))
        return not_icc(
            witness,
            Citation("Finite class witness", "the orbit of the vector under the action is finite"),
        )
    return unknown(
        Citation(
            "Outside scope",
            "no finite-orbit vector found, but the action is outside the "
            "orientable torus-bundle trichotomy",
        )
    )


def _direct_with_finite(group) -> Verdict:
    if group.f.size == 1:
        return decide_structured_group(group.h)
    try:
        element = group.finite_element(1)
    except NotEnumerableError:
        # h has no normal form to write its identity in; it is 1
        witness = Witness(f"finite-factor element (1, {group.f.names[1]})")
    else:
        witness = Witness(f"finite-factor element {element!r}", element)
    return not_icc(
        witness, Citation("Finite direct factor", f"finite factor of order {group.f.size}")
    )


def _first_generator(group, description: str) -> Witness:
    """The first generator of a surface's realization, as the witness the
    description names; read only where that generator has a finite class."""
    element = group.element(group.generator_payloads()[0][1])
    return Witness(f"{description}: {element!r}", element)


def _surface(group) -> Verdict:
    """The surface-group rule from the classification of surfaces."""
    g, b = group.genus, group.boundary_components
    if b > 0:
        rank = 2 * g + b - 1 if group.orientable else g + b - 1
        if rank == 0:
            return not_icc(
                FINITE_GROUP_WITNESS,
                Citation("Surface classification", "disk: trivial group"),
            )
        if rank == 1:
            name = "annulus" if group.orientable else "Moebius band"
            return not_icc(
                _first_generator(group, "core curve generator of the infinite cyclic group"),
                Citation("Surface classification", name),
                Citation("Abelian infinite"),
            )
        return icc(
            Citation("Surface classification", f"free group of rank {rank}"),
            Citation("Prop 3(i)"),
        )
    if group.orientable:
        if g == 0:
            return not_icc(
                FINITE_GROUP_WITNESS, Citation("Surface classification", "sphere: trivial group")
            )
        if g == 1:
            return not_icc(
                _first_generator(group, "any nontrivial element of Z^2"),
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
            _first_generator(
                group, "the orientation-true generator a (conjugacy class {a, a^-1})"
            ),
            Citation("Surface classification", "Klein bottle"),
        )
    return icc(
        Citation("Surface classification", f"closed non-orientable surface of genus {g}"),
        Citation("Prop 3(ii)"),
    )


def _fiber_extension(group) -> Verdict:
    h = group.fiber_name
    closure = f"{{{h}}}" if group.fiber_is_central() else f"{{{h}, {h}^-1}}"
    return not_icc(
        Witness(
            description=f"fiber generator {h} (conjugacy class within {closure})",
            element=group.fiber(),
        ),
        Citation("Lemma 1", "the fiber generates a cyclic normal subgroup"),
        Citation("Prop 2"),
    )


def _matrix_group(group) -> Verdict:
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


# the rule of each construction, by the name of its class
_RULES = {
    "FiniteCyclic": _finite_cyclic,
    "InfiniteCyclic": _infinite_cyclic,
    "FreeProduct": _free_product,
    "Amalgam": _amalgam,
    "Hnn": _hnn,
    "SemidirectZnByZ": _semidirect,
    "DirectWithFinite": _direct_with_finite,
    "SurfaceGroup": _surface,
    "FiberExtension": _fiber_extension,
    "MatrixGroupSL2Eisenstein": _matrix_group,
}


def decide_structured_group(group: StructuredGroup) -> Verdict:
    """Decide a structured group by the rule of its construction.

    A group is decided by the rule of its nearest class defined in this
    package, found by name, so a subclass decides as its construction does,
    and no test executes the module of a construction the group does not
    hold.  A rule that decides a factor or a base calls this function."""
    for cls in type(group).__mro__:
        if cls.__module__.startswith("iccdec."):
            break
    rule = _RULES.get(cls.__name__)
    if rule is None:
        raise GroupUsageError(f"no decision rule for construction {type(group).__name__}")
    return rule(group)
