"""Exact arithmetic over Eisenstein integers and SL2 matrix groups on them.

EisensteinInt represents a + b*w with w^2 = -1 - w (a primitive cube root of
unity).  Entries are python ints, so arithmetic is arbitrary precision; no
floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups.base import INFINITE, GroupElement, GroupUsageError, StructuredGroup, unique_names


@dataclass(frozen=True)
class EisensteinInt:
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

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        w_part = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}w")
        if self.a == 0:
            return w_part
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{w_part}"


E_ZERO = EisensteinInt(0, 0)
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


def _entry(payload: MatPayload, i: int, j: int) -> EisensteinInt:
    a, b = payload[i][j]
    return EisensteinInt(a, b)


def mat_det(payload: MatPayload) -> EisensteinInt:
    return _entry(payload, 0, 0) * _entry(payload, 1, 1) - _entry(payload, 0, 1) * _entry(payload, 1, 0)


def mat_trace(payload: MatPayload) -> EisensteinInt:
    return _entry(payload, 0, 0) + _entry(payload, 1, 1)


def mat_mul(x: MatPayload, y: MatPayload) -> MatPayload:
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            acc = E_ZERO
            for k in range(2):
                acc = acc + _entry(x, i, k) * _entry(y, k, j)
            row.append(acc)
        rows.append(row)
    return _to_payload(rows)


def mat_inv(x: MatPayload) -> MatPayload:
    # determinant is 1 by construction, so the inverse is the adjugate
    p, q = _entry(x, 0, 0), _entry(x, 0, 1)
    r, s = _entry(x, 1, 0), _entry(x, 1, 1)
    return _to_payload(((s, -q), (-r, p)))


MAT_IDENTITY: MatPayload = (((1, 0), (0, 0)), ((0, 0), (1, 0)))


class Mat2E:
    """A 2x2 matrix over the Eisenstein integers with determinant 1.

    Determinant 1 is enforced at construction; the class is closed under
    multiplication and inverse (the inverse of [[p, q], [r, s]] is
    [[s, -q], [-r, p]]).
    """

    __slots__ = ("payload",)

    def __init__(self, rows):
        payload = _to_payload(rows)
        if mat_det(payload) != E_ONE:
            raise GroupUsageError("Mat2E requires determinant 1")
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("Mat2E is immutable")

    def __eq__(self, other):
        return isinstance(other, Mat2E) and self.payload == other.payload

    def __hash__(self):
        return hash(self.payload)

    def __mul__(self, other: "Mat2E") -> "Mat2E":
        return Mat2E(mat_mul(self.payload, other.payload))

    def inverse(self) -> "Mat2E":
        return Mat2E(mat_inv(self.payload))

    def det(self) -> EisensteinInt:
        return mat_det(self.payload)

    def trace(self) -> EisensteinInt:
        return mat_trace(self.payload)

    def entry(self, i: int, j: int) -> EisensteinInt:
        return _entry(self.payload, i, j)

    def __repr__(self):
        rows = []
        for i in range(2):
            rows.append("[" + ", ".join(str(self.entry(i, j)) for j in range(2)) + "]")
        return "[" + ", ".join(rows) + "]"


class MatrixGroupSL2Eisenstein(StructuredGroup):
    """A subgroup of SL2 over the Eisenstein integers given by generators.

    Equality of elements is exact matrix equality; determinant 1 is enforced
    at construction and preserved by the operations.
    """

    def __init__(self, generators: list, names: list[str] | None = None):
        payloads = [_to_payload(g) for g in generators]
        for p in payloads:
            if mat_det(p) != E_ONE:
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

    def matrix_element(self, matrix: "Mat2E") -> GroupElement:
        """The group element carried by an exact determinant-1 matrix."""
        if not isinstance(matrix, Mat2E):
            matrix = Mat2E(matrix)
        return self.element(matrix.payload)

    def payload_key(self, payload):
        flat = tuple(c for row in payload for cell in row for c in cell)
        return (sum(abs(c) for c in flat) - 2, flat)

    def render_payload(self, payload):
        raise GroupUsageError(
            "matrix elements are not traced back to generator words; "
            "the canonical form is the matrix itself"
        )

    def payload_str(self, payload):
        rows = []
        for i in range(2):
            rows.append("[" + ", ".join(str(_entry(payload, i, j)) for j in range(2)) + "]")
        return "[" + ", ".join(rows) + "]"

    def order(self):
        return INFINITE

    def describe(self):
        return f"SL2(Eisenstein)<{', '.join(self.gen_names)}>"


def figure8_group() -> MatrixGroupSL2Eisenstein:
    """The standard two-parabolic-generator matrix realization of the
    figure-eight knot group: A = [[1,1],[0,1]], B = [[1,0],[-w,1]]."""
    a = ((1, 0), (1, 0)), ((0, 0), (1, 0))
    b = ((1, 0), (0, 0)), ((0, -1), (1, 0))
    return MatrixGroupSL2Eisenstein([a, b], names=["A", "B"])
