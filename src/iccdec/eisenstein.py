"""Exact arithmetic over Eisenstein integers and SL2 matrix groups on them.

EisensteinInt represents a + b*w with w^2 = -1 - w (a primitive cube root of
unity).  Entries are python ints, so arithmetic is arbitrary precision; no
floating point appears anywhere.
"""

from __future__ import annotations

from functools import cached_property

from .groups.base import INFINITE, GroupUsageError, Record, StructuredGroup, ball_levels, unique_names


class EisensteinInt(Record):
    a: int
    b: int

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: "EisensteinInt") -> "EisensteinInt":
        # (a1 + b1 w)(a2 + b2 w) with w^2 = -1 - w
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return EisensteinInt(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        w_part = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}w")
        if self.a == 0:
            return w_part
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{w_part}"


E_ONE = EisensteinInt(1, 0)
E_OMEGA = EisensteinInt(0, 1)

# payload form: 2x2 nested tuples of (a, b) int pairs
MatPayload = tuple[tuple[tuple[int, int], tuple[int, int]], tuple[tuple[int, int], tuple[int, int]]]


def _to_payload(rows) -> MatPayload:
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, EisensteinInt):
                cells.append((cell.a, cell.b))
            else:
                a, b = cell
                cells.append((int(a), int(b)))
        out.append(tuple(cells))
    if len(out) != 2 or any(len(r) != 2 for r in out):
        raise GroupUsageError("a matrix needs exactly 2x2 entries")
    return tuple(out)


# The matrix operations below unpack the eight integers and write the entries
# out, with (a1 + b1 w)(a2 + b2 w) = (a1 a2 - b1 b2) + (a1 b2 + b1 (a2 - b2)) w.


def _det(payload: MatPayload) -> tuple[int, int]:
    ((pa, pb), (qa, qb)), ((ra, rb), (sa, sb)) = payload
    return (
        pa * sa - pb * sb - qa * ra + qb * rb,
        pa * sb + pb * (sa - sb) - qa * rb - qb * (ra - rb),
    )


def mat_det(payload: MatPayload) -> EisensteinInt:
    return EisensteinInt(*_det(payload))


def mat_trace(payload: MatPayload) -> EisensteinInt:
    ((pa, pb), _), (_, (sa, sb)) = payload
    return EisensteinInt(pa + sa, pb + sb)


def mat_mul(x: MatPayload, y: MatPayload) -> MatPayload:
    ((pa, pb), (qa, qb)), ((ra, rb), (sa, sb)) = x
    ((ta, tb), (ua, ub)), ((va, vb), (za, zb)) = y
    td, ud, vd, zd = ta - tb, ua - ub, va - vb, za - zb
    return (
        (
            (pa * ta - pb * tb + qa * va - qb * vb, pa * tb + pb * td + qa * vb + qb * vd),
            (pa * ua - pb * ub + qa * za - qb * zb, pa * ub + pb * ud + qa * zb + qb * zd),
        ),
        (
            (ra * ta - rb * tb + sa * va - sb * vb, ra * tb + rb * td + sa * vb + sb * vd),
            (ra * ua - rb * ub + sa * za - sb * zb, ra * ub + rb * ud + sa * zb + sb * zd),
        ),
    )


def mat_inv(x: MatPayload) -> MatPayload:
    # determinant is 1 by construction, so the inverse is the adjugate
    (p, (qa, qb)), ((ra, rb), s) = x
    return ((s, (-qa, -qb)), ((-ra, -rb), p))


def _mat_str(payload: MatPayload) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(EisensteinInt(a, b)) for a, b in row) + "]" for row in payload
    ) + "]"


MAT_IDENTITY: MatPayload = (((1, 0), (0, 0)), ((0, 0), (1, 0)))

# A finite subgroup of SL2(Z[w]) has at most this many elements (see
# MatrixGroupSL2Eisenstein.order).
MAX_FINITE_ORDER = 24


class MatrixGroupSL2Eisenstein(StructuredGroup):
    """A subgroup of SL2 over the Eisenstein integers given by generators.

    Equality of elements is exact matrix equality; determinant 1 is enforced
    at construction and preserved by the operations.
    """

    def __init__(self, generators: list, names: list[str] | None = None):
        payloads = [_to_payload(g) for g in generators]
        for p in payloads:
            if _det(p) != (1, 0):
                raise GroupUsageError("every generator must have determinant 1")
        if names is None:
            names = [chr(ord("A") + i) for i in range(len(payloads))]
        if len(names) != len(payloads):
            raise GroupUsageError("one name per generator is required")
        unique_names([names])
        self.gen_payloads = tuple(payloads)
        self.gen_names = tuple(names)

    def signature(self):
        return ("sl2_eisenstein", self.gen_payloads, self.gen_names)

    def identity_payload(self):
        return MAT_IDENTITY

    def multiply_payloads(self, a, b):
        return mat_mul(a, b)

    def invert_payload(self, a):
        return mat_inv(a)

    def generator_payloads(self):
        return list(zip(self.gen_names, self.gen_payloads))

    def payload_key(self, payload):
        ((a, b), (c, d)), ((e, f), (g, h)) = payload
        size = abs(a) + abs(b) + abs(c) + abs(d) + abs(e) + abs(f) + abs(g) + abs(h)
        return (size - 2, (a, b, c, d, e, f, g, h))

    def render_payload(self, payload):
        raise GroupUsageError(
            "matrix elements are not traced back to generator words; "
            "the canonical form is the matrix itself"
        )

    def payload_str(self, payload):
        return _mat_str(payload)

    def order(self):
        return self._order

    @cached_property
    def _order(self):
        """The exact order, computed on first use by closing the generators.

        An element of finite order n in SL2(Z[w]) is diagonalizable with
        eigenvalues z, 1/z for a primitive n-th root of unity z, so its
        trace z + 1/z is a real algebraic integer of Z[w], that is a
        rational integer of absolute value at most 2; hence n is 1, 2, 3, 4
        or 6.  By Klein's classification of the finite subgroups of SL2(C)
        (cyclic, binary dihedral, binary tetrahedral, octahedral and
        icosahedral), a finite subgroup whose element orders lie in
        {1, 2, 3, 4, 6} is cyclic of order at most 6, binary dihedral of
        order 4m with an element of order 2m <= 6 (so at most 12), or binary
        tetrahedral, of order 24; the binary octahedral and icosahedral
        groups have elements of order 8 and 10.  So the group is finite
        exactly when the closure of the identity under right multiplication
        by the generators and their inverses stops within MAX_FINITE_ORDER
        elements, and then the closure is the group.  The closure is the
        union of the ball's levels, so the order adds up their sizes.
        """
        total = 0
        for level in ball_levels(self):
            total += len(level)
            if total > MAX_FINITE_ORDER:
                return INFINITE
        return total

    def describe(self):
        return f"SL2(Eisenstein)<{', '.join(self.gen_names)}>"


def figure8_group() -> MatrixGroupSL2Eisenstein:
    """The standard two-parabolic-generator matrix realization of the
    figure-eight knot group: A = [[1,1],[0,1]], B = [[1,0],[-w,1]]."""
    a = ((1, 0), (1, 0)), ((0, 0), (1, 0))
    b = ((1, 0), (0, 0)), ((0, -1), (1, 0))
    return MatrixGroupSL2Eisenstein([a, b], names=["A", "B"])
