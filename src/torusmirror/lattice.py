"""Exact linear algebra over Q and integer-lattice utilities (stdlib only).

The package's one home for exact linear algebra: rational matrix arithmetic
on tuples of Fractions; one Fraction Gauss-Jordan reduction, read by det,
inverse, rank and nullspace; inertia by symmetric elimination; coset
representatives of Z^n modulo an integer matrix via an integer Hermite
normal form; and one integer kernel that enumerates the lattice points
where a positive-definite rational quadratic stays below a bound, each with
its value as an integer numerator over one denominator.  RREF, HNF and
inertia are canonical, so no result depends on the elimination order.
det, inverse, inertia, HNF and coset representatives are memoized by value,
since checks keep meeting the same few small slope matrices; rank and
nullspace, which other layers call on one-off matrices, are not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from math import ceil, floor, isqrt, lcm
from numbers import Rational
from typing import Iterator, Optional, Sequence, Tuple

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


def _by_value(f):
    """f memoized (256 entries) on its matrix argument frozen to a tuple of tuples, so
    a list input shares the entry of its tuple twin.  f must return an immutable
    value; an exception is not cached but raised again on every call."""
    memo = lru_cache(maxsize=256)(f)

    @wraps(f)
    def frozen(a):
        return memo(tuple(map(tuple, a)))
    frozen.cache_info, frozen.cache_clear = memo.cache_info, memo.cache_clear
    return frozen


def _gauss_jordan(rows: Sequence[Sequence]) -> Tuple[list, list, Fraction]:
    """Reduced row echelon form of a rational matrix by Fraction Gauss-Jordan.

    Returns (reduced rows, pivot columns, det).  det is the signed product
    of the pivots: det(a) for a square a, and for a wide [a | b] with square
    a too, since the reduction stops once every row has a pivot; it is 0
    when a column of a has no pivot.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list = []
    det = Fraction(1)
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            det = -det
        det *= m[r][c]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                factor = row[c]
                m[i] = [x - factor * y for x, y in zip(row, m[r])]
        pivots.append(c)
    return m, pivots, det


@_by_value
def mat_det(a: Mat) -> Fraction:
    return _gauss_jordan(a)[2]


@_by_value
def mat_inv(a: Mat) -> Mat:
    n = len(a)
    reduced, _pivots, det = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    )
    if det == 0:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in reduced)


def rank(a: Sequence[Sequence]) -> int:
    return len(_gauss_jordan(a)[1])


def nullspace(a: Sequence[Sequence], ncols: Optional[int] = None) -> list:
    """Basis of {x : a x = 0}, one vector per free column of the RREF.

    The free column gets 1 and each pivot column minus its reduced entry,
    as in sympy's ``Matrix.nullspace``.  ncols is needed only when a has no
    rows.
    """
    reduced, pivots, _det = _gauss_jordan(a)
    n = len(a[0]) if a else ncols
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[free]
        basis.append(tuple(x))
    return basis


def quad_form(a: Mat, x: Vec) -> Fraction:
    return dot(x, mat_vec(a, x))


@_by_value
def inertia(a: Mat) -> Tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of a symmetric rational matrix.

    Symmetric elimination  a -> E a E^T  keeps the counts (Sylvester's law of
    inertia): each step takes a nonzero diagonal pivot, counts its sign and
    passes to the Schur complement.  When the whole diagonal is zero but
    a[i][j] is not, adding row and column j to i makes the pivot 2 a[i][j].
    """
    if not is_symmetric(a):
        raise ValueError("inertia requires a symmetric matrix")
    m = [[Fraction(x) for x in row] for row in a]
    neg = pos = 0
    while m:
        k = len(m)
        p = next((i for i in range(k) if m[i][i]), None)
        if p is None:
            pairs = ((i, j) for i in range(k) for j in range(i + 1, k) if m[i][j])
            p, j = next(pairs, (None, None))
            if p is None:
                break
            m[p] = [x + y for x, y in zip(m[p], m[j])]
            for row in m:
                row[p] += row[j]
        d = m[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rest = [i for i in range(k) if i != p]
        m = [[m[i][j] - m[i][p] * m[p][j] / d for j in rest] for i in rest]
    return neg, len(a) - neg - pos, pos


def is_positive_definite(a: Mat) -> bool:
    neg, zero, _pos = inertia(a)
    return neg == 0 and zero == 0


@_by_value
def hnf(a: Mat) -> Tuple[Tuple[int, ...], ...]:
    """Column-style Hermite normal form of a nonsingular integer matrix.

    The result is upper triangular with positive diagonal, each entry right
    of the diagonal reduced modulo its row's diagonal entry, and spans the
    same column lattice as the input.  Unimodular column operations, bottom
    row first: Euclid's algorithm on columns moves the gcd of row i's first
    i + 1 entries to the diagonal, then the columns to its right are reduced.
    """
    n = len(a)
    cols = [[int(a[i][j]) for i in range(n)] for j in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i):
            while cols[j][i]:
                q = cols[i][i] // cols[j][i]
                cols[i] = [x - q * y for x, y in zip(cols[i], cols[j])]
                cols[i], cols[j] = cols[j], cols[i]
        if cols[i][i] == 0:
            raise ValueError("lattice matrix must be nonsingular")
        if cols[i][i] < 0:
            cols[i] = [-x for x in cols[i]]
        for j in range(i + 1, n):
            q = cols[j][i] // cols[i][i]
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
    return tuple(tuple(col[i] for col in cols) for i in range(n))


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


@_by_value
def coset_representatives(a: Mat) -> Tuple[Tuple[int, ...], ...]:
    """Canonical representatives of Z^n modulo the column lattice of integer a."""
    h = hnf(a)
    n = len(h)
    reps = [()]
    for i in range(n - 1, -1, -1):
        reps = [(r,) + tail for tail in reps for r in range(h[i][i])]
    return tuple(coset_reduce(h, x) for x in sorted(reps))


@lru_cache(maxsize=256)
def _definite_form(m: Mat) -> Tuple[Mat, int]:
    """m^{-1} and the least d with d m integral and d m_ii even, checked once per
    matrix of ints or Fractions (a float matrix would hit its rational twin's
    cache entry, so :func:`lattice_points` rejects floats before the call)."""
    if not is_positive_definite(m):
        raise ValueError("quadratic form must be positive definite")
    return mat_inv(m), lcm(*(x.denominator for row in m for x in row),
                           *(Fraction(m[i][i], 2).denominator for i in range(len(m))))


def _int_range(center: Fraction, rad2: Fraction) -> range:
    """The integers x with (x - center)^2 <= rad2."""
    if rad2 < 0:
        return range(0)
    p, q = center.numerator, center.denominator
    r = isqrt(floor(rad2 * q * q))
    return range(-((r - p) // q), (p + r) // q + 1)


def lattice_points(m: Mat, v: Vec, c: Fraction, bound: Fraction) -> Tuple[int, list]:
    """A denominator D and every (t, D q(t)) with q(t) = (1/2) t^T m t + v^T t + c < bound.

    t runs over the integer vectors in lexicographic order, and each D q(t)
    is an integer.  m must be symmetric positive definite.  Completeness
    rests on nested bounds: with t0 the real minimizer, q(t) - q(t0) =
    (1/2)(t-t0)^T m (t-t0) >= (t_d - t0_d)^2 / (2 (m^{-1})_dd), which
    confines each of the first n - 1 coordinates to an exact interval; once
    they are fixed, D q is an integer quadratic a x^2 + b x + C in the last
    coordinate, and the isqrt of its integer discriminant gives exactly the x
    with D q < D bound.  Partial sums of D q are updated in integers.
    """
    if not all(isinstance(x, Rational) for row in m for x in row):
        raise ValueError("quadratic form entries must be exact rationals")
    minv, dm = _definite_form(m)
    n = len(m)
    den = lcm(dm, c.denominator, *(x.denominator for x in v))
    h = [[int(x * den) for x in row] for row in m]
    top = ceil(den * bound) - 1  # largest D q(t) kept
    a = h[-1][-1] // 2
    out: list = []
    if n > 1:
        t0 = [-x for x in mat_vec(minv, v)]
        gap = bound - c - dot(v, t0) / 2  # bound - q(t0)
        ranges = [_int_range(t0[d], 2 * gap * minv[d][d]) for d in range(n - 1)]

    def descend(k, prefix, lin, const):
        # lin[i], const: the coefficients of t_i and 1 in D q once t_<k is fixed
        if k < n - 1:
            for x in ranges[k]:
                descend(k + 1, prefix + (x,), [b + row[k] * x for b, row in zip(lin, h)],
                        const + (h[k][k] // 2 * x + lin[k]) * x)
            return
        b = lin[k]
        disc = b * b - 4 * a * (const - top)
        if disc < 0:
            return
        r = isqrt(disc)  # |2 a x + b| <= r
        x, hi = -((r + b) // (2 * a)), (r - b) // (2 * a)
        val = (a * x + b) * x + const
        while x <= hi:
            out.append((prefix + (x,), val))
            val += a * (2 * x + 1) + b
            x += 1

    descend(0, (), [x.numerator * (den // x.denominator) for x in v],
            c.numerator * (den // c.denominator))
    return den, out


def enumerate_below(m: Mat, v: Vec, c: Fraction, bound: Fraction) -> Iterator[Tuple[int, ...]]:
    """All integer t with q(t) = (1/2) t^T m t + v^T t + c < bound, in
    lexicographic order: the points of ``lattice_points``."""
    for t, _num in lattice_points(m, v, c, bound)[1]:
        yield t
