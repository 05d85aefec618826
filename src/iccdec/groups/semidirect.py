"""Z^n semidirect Z for an integer matrix of determinant +-1 (n <= 3)."""

from __future__ import annotations

import sys
from math import log2
from operator import mul

from .base import INFINITE, GroupUsageError, StructuredGroup

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_det(a: Matrix) -> int:
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
    raise GroupUsageError("only ranks 1..3 are supported")


def mat_inverse_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1: det times
    the transposed signed minors (the adjugate)."""
    n = len(a)
    det = mat_det(a)
    if det not in (1, -1):
        raise GroupUsageError("matrix is not invertible over the integers")
    return tuple(
        tuple(det * (-1) ** (i + j) * mat_det(_minor(a, j, i)) for j in range(n))
        for i in range(n)
    )


def _minor(a: Matrix, i: int, j: int) -> Matrix:
    """a without row i and column j."""
    return tuple(row[:j] + row[j + 1 :] for r, row in enumerate(a) if r != i)


def _printable_power(matrix: Matrix, m: int) -> Matrix:
    """matrix, a factor of phi^m; a GroupUsageError once an entry would
    print past Python's limit on the digits of an int-to-str conversion."""
    limit = sys.get_int_max_str_digits()
    if limit and max(x.bit_length() for row in matrix for x in row) > limit * log2(10):
        raise GroupUsageError(f"phi^{m} has an entry of {limit} or more digits, too long to print")
    return matrix


# phi^m is cached for |m| up to this bound and recomputed beyond it: a
# hyperbolic phi^m has entries of O(|m|) digits, so caching every exponent
# requested would grow without bound
CACHED_POWERS = 64


# Payload products (v, m)(w, k) = (v + phi^m w, m + k) and inverses
# (v, m)^-1 = (-phi^-m v, -m): ranks 1 and 2, which the workloads run, with
# the matrix and vector entries unpacked, and one plain pair for rank 3.


def _multiply1(group, a, b):
    (v0,), m = a
    (w0,), k = b
    if m:
        ((p,),) = group.phi_power(m)
        return ((v0 + p * w0,), m + k)
    return ((v0 + w0,), k)


def _invert1(group, a):
    (v0,), m = a
    if m:
        ((p,),) = group.phi_power(-m)
        return ((-p * v0,), -m)
    return ((-v0,), 0)


def _multiply2(group, a, b):
    (v0, v1), m = a
    (w0, w1), k = b
    if m:
        (p, q), (r, s) = group.phi_power(m)
        return ((v0 + p * w0 + q * w1, v1 + r * w0 + s * w1), m + k)
    return ((v0 + w0, v1 + w1), k)


def _invert2(group, a):
    (v0, v1), m = a
    if m:
        (p, q), (r, s) = group.phi_power(-m)
        return ((-p * v0 - q * v1, -r * v0 - s * v1), -m)
    return ((-v0, -v1), 0)


def _multiply_n(group, a, b):
    v, m = a
    w, k = b
    return (tuple(x + sum(map(mul, row, w)) for x, row in zip(v, group.phi_power(m))), m + k)


def _invert_n(group, a):
    v, m = a
    return (tuple(-sum(map(mul, row, v)) for row in group.phi_power(-m)), -m)


_RANK_OPS = {1: (_multiply1, _invert1), 2: (_multiply2, _invert2), 3: (_multiply_n, _invert_n)}
# the identity matrix and the default basis names of each rank
_IDENTITY = {n: identity_matrix(n) for n in _RANK_OPS}
_BASIS_NAMES = {n: tuple(f"e{i + 1}" for i in range(n)) for n in _RANK_OPS}


class SemidirectZnByZ(StructuredGroup):
    """Z^n x|_phi Z: payload (v, m) with product (v, m)(w, k) = (v + phi^m w, m + k).

    Generators: basis vectors e1..en and the exponent generator t.
    """

    def __init__(self, rank: int, phi, exponent_name: str = "t", basis_names=None):
        if rank not in (1, 2, 3):
            raise GroupUsageError("rank must be 1, 2 or 3")
        matrix = tuple(tuple(int(x) for x in row) for row in phi)
        if len(matrix) != rank or any(len(row) != rank for row in matrix):
            raise GroupUsageError("phi must be a rank x rank integer matrix")
        if mat_det(matrix) not in (1, -1):
            raise GroupUsageError("phi must have determinant +1 or -1")
        self.rank = rank
        self.phi = matrix
        self.exponent_name = exponent_name
        basis_names = _BASIS_NAMES[rank] if basis_names is None else tuple(basis_names)
        if len(basis_names) != rank or len(set(basis_names)) != rank or exponent_name in basis_names:
            raise GroupUsageError("basis names must be distinct and exclude the exponent name")
        self.basis_names = basis_names
        self._power_cache: dict[int, Matrix] = {0: _IDENTITY[rank]}
        self._multiply, self._invert = _RANK_OPS[rank]

    def signature(self):
        return ("semidirect_zn_by_z", self.rank, self.phi, self.exponent_name, self.basis_names)

    def phi_power(self, m: int) -> Matrix:
        """phi^m by repeated squaring (O(log |m|) products, no recursion),
        cached for |m| <= CACHED_POWERS.  phi^-1 is computed on the first
        negative power, and cached with them."""
        result = self._power_cache.get(m)
        if result is None:
            step = self.phi
            if m < 0:
                step = self._power_cache.get(-1)
                if step is None:
                    step = self._power_cache[-1] = mat_inverse_unimodular(self.phi)
            n = abs(m)
            while n:
                if n & 1:
                    result = step if result is None else _printable_power(mat_mul(result, step), m)
                n >>= 1
                if n:
                    step = _printable_power(mat_mul(step, step), m)
            if -CACHED_POWERS <= m <= CACHED_POWERS:
                self._power_cache[m] = result
        return result

    def identity_payload(self):
        return ((0,) * self.rank, 0)

    def multiply_payloads(self, a, b):
        return self._multiply(self, a, b)

    def invert_payload(self, a):
        return self._invert(self, a)

    def generator_payloads(self):
        out = []
        for i in range(self.rank):
            vec = tuple(1 if j == i else 0 for j in range(self.rank))
            out.append((self.basis_names[i], (vec, 0)))
        out.append((self.exponent_name, ((0,) * self.rank, 1)))
        return out

    def generator_names(self):
        return [*self.basis_names, self.exponent_name]

    def payload_key(self, payload):
        v, m = payload
        return (abs(m) + sum(map(abs, v)), m, v)

    def render_payload(self, payload):
        v, m = payload
        letters = [(self.basis_names[i], x) for i, x in enumerate(v) if x]
        if m:
            letters.append((self.exponent_name, m))
        return letters

    def payload_str(self, payload):
        v, m = payload
        return f"(({', '.join(str(x) for x in v)}), {m})"

    def order(self):
        return INFINITE

    def describe(self):
        return f"Z^{self.rank} x| Z"
