"""Exact linear algebra over Q and integer-lattice utilities.

Shared by the affine-Lagrangian intersection theory and the theta-basis
construction: rational matrix arithmetic on tuples of Fractions, inertia
counts for symmetric matrices, coset representatives of Z^n modulo an
integer matrix (via Hermite normal form), and complete enumeration of the
integer points where a positive-definite rational quadratic stays below a
bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, Sequence, Tuple

import sympy
from sympy.matrices.normalforms import hermite_normal_form

Vec = Tuple[Fraction, ...]
Mat = Tuple[Tuple[Fraction, ...], ...]


def vec(entries: Sequence) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows: Sequence[Sequence]) -> Mat:
    m = tuple(tuple(Fraction(e) for e in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def mat_vec(a: Mat, x: Vec) -> Vec:
    return tuple(sum(ai * xi for ai, xi in zip(row, x)) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def dot(x: Vec, y: Vec) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def is_symmetric(a: Mat) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(n))


def mat_det(a: Mat) -> Fraction:
    """Determinant by fraction-free Gaussian elimination."""
    n = len(a)
    rows = [list(row) for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det


def mat_inv(a: Mat) -> Mat:
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [e - factor * p for e, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def quad_form(a: Mat, x: Vec) -> Fraction:
    return dot(x, mat_vec(a, x))


def inertia(a: Mat) -> Tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of a symmetric rational matrix.

    All eigenvalues are real, so Descartes' rule applied to the
    characteristic polynomial is exact.
    """
    if not is_symmetric(a):
        raise ValueError("inertia requires a symmetric matrix")
    m = sympy.Matrix(len(a), len(a), lambda i, j: sympy.Rational(a[i][j]))
    coeffs = m.charpoly().all_coeffs()
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    zero = len(a) + 1 - len(coeffs)

    def variations(cs):
        signs = [c for c in cs if c != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))

    pos = variations(coeffs)
    neg = variations([c if (len(coeffs) - 1 - i) % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return neg, zero, pos


def is_positive_definite(a: Mat) -> bool:
    neg, zero, _pos = inertia(a)
    return neg == 0 and zero == 0


def hnf(a: Mat) -> Tuple[Tuple[int, ...], ...]:
    """Column-style Hermite normal form of an integer matrix.

    The result is upper triangular with positive diagonal and spans the
    same column lattice as the input.
    """
    n = len(a)
    m = sympy.Matrix(n, n, lambda i, j: int(a[i][j]))
    if m.det() == 0:
        raise ValueError("lattice matrix must be nonsingular")
    h = hermite_normal_form(m)
    return tuple(tuple(int(h[i, j]) for j in range(n)) for i in range(n))


def coset_reduce(h: Tuple[Tuple[int, ...], ...], x: Sequence[int]) -> Tuple[int, ...]:
    """Canonical representative of x modulo the column lattice of upper-triangular h."""
    n = len(h)
    y = [int(v) for v in x]
    for i in range(n - 1, -1, -1):
        q = y[i] // h[i][i]
        if q:
            for r in range(i + 1):
                y[r] -= q * h[r][i]
    return tuple(y)


def coset_representatives(a: Mat) -> list:
    """Canonical representatives of Z^n modulo the column lattice of integer a."""
    h = hnf(a)
    n = len(h)
    reps = [()]
    for i in range(n - 1, -1, -1):
        reps = [(r,) + tail for tail in reps for r in range(h[i][i])]
    return [coset_reduce(h, x) for x in sorted(reps)]


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def enumerate_below(m: Mat, v: Vec, c: Fraction, bound: Fraction) -> Iterator[Tuple[int, ...]]:
    """All integer t with q(t) = (1/2) t^T m t + v^T t + c < bound.

    m must be symmetric positive definite.  Completeness: with t0 the real
    minimizer, q(t) - q(t0) = (1/2)(t-t0)^T m (t-t0) >= (t_d - t0_d)^2 / (2 (m^{-1})_{dd})
    for every coordinate d, so each coordinate is confined to an explicitly
    computable interval; candidates in the box are filtered exactly.
    """
    n = len(m)
    if not is_positive_definite(m):
        raise ValueError("quadratic form must be positive definite")
    minv = mat_inv(m)
    t0 = tuple(-x for x in mat_vec(minv, v))
    qmin = Fraction(1, 2) * quad_form(m, t0) + dot(v, t0) + c
    gap = bound - qmin
    if gap <= 0:
        return
    ranges = []
    for d in range(n):
        r2 = 2 * gap * minv[d][d]
        radius = isqrt(_ceil_fraction(r2)) + 1
        lo = _ceil_fraction(t0[d]) - radius
        hi = _ceil_fraction(t0[d]) + radius
        ranges.append(range(lo, hi + 1))

    def rec(prefix):
        d = len(prefix)
        if d == n:
            t = vec(prefix)
            if Fraction(1, 2) * quad_form(m, t) + dot(v, t) + c < bound:
                yield tuple(prefix)
            return
        for value in ranges[d]:
            yield from rec(prefix + [value])

    yield from rec([])
