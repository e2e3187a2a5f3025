"""Exact linear algebra over Q and integer-lattice utilities (stdlib only).

The package's one home for exact linear algebra: rational matrix arithmetic
on tuples of Fractions; one Fraction Gauss-Jordan reduction, read by det,
inverse, rank and nullspace; inertia by symmetric elimination; coset
representatives of Z^n modulo an integer matrix via an integer Hermite
normal form; and one integer kernel, ``form_points``, that lists every t in
Z^n with Q(t) = (1/2) t^T h t + lin . t + const <= top, for h positive
definite with an even diagonal and all data ints, each t with its int Q(t).
Completeness: with u = adj(h) lin and t0 = -u / det h the real minimizer,
Q(t) - Q(t0) = (1/2)(t - t0)^T h (t - t0) >= (t_d - t0_d)^2 det / (2 adj_dd),
so times det^2, Q(t) <= top forces |det t_d + u_d| <= isqrt(g adj_dd) with
g = 2 det (top - const) + lin . u, the range of each of the first n - 1
coordinates; with those fixed, Q is an integer quadratic in the last one,
and the isqrt of its discriminant gives exactly the x with Q <= top.
``lattice_points`` is the rational front door; ``adjugate`` (integer adj and
det) and ``integer_shift`` ((S, S b) for a rational b) give every slope and
shift its integer form.  RREF, HNF and inertia are canonical, so no result
depends on the elimination order.  det, inverse, adjugate, inertia, HNF and
coset representatives are memoized by value, since checks keep meeting the
same few small matrices; rank and nullspace, called on one-off matrices, are not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from math import ceil, isqrt, lcm
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


@_by_value
def adjugate(a: Mat) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """(adj a, det a) of a nonsingular integer matrix, both in ints: adj a . a = det(a) I."""
    inv, det = mat_inv(a), mat_det(a)
    return tuple(tuple(int(x * det) for x in row) for row in inv), int(det)


def integer_shift(b: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(S, S b): the least S > 0 with S b integral, and S b."""
    S = lcm(*(x.denominator for x in b))
    return S, tuple(x.numerator * (S // x.denominator) for x in b)


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
    y = list(x)
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


def form_points(h: Tuple[Tuple[int, ...], ...], lin: Sequence[int], const: int,
                top: int) -> list:
    """Every (t, Q(t)) with Q(t) = (1/2) t^T h t + lin . t + const <= top, in
    lexicographic order of t; h is a tuple of int tuples (see the module doc)."""
    if not is_positive_definite(h) or any(h[i][i] % 2 for i in range(len(h))):
        raise ValueError("quadratic form must be positive definite, with an even diagonal")
    adj, det = adjugate(h)
    n, a, out = len(h), h[-1][-1] // 2, []
    u = [sum(x * y for x, y in zip(row, lin)) for row in adj]
    g = 2 * det * (top - const) + sum(x * y for x, y in zip(lin, u))  # 2 det (top - Q(t0))
    if g < 0:
        return out
    radii = (isqrt(g * adj[d][d]) for d in range(n - 1))
    ranges = [range(-((r + u[d]) // det), (r - u[d]) // det + 1) for d, r in enumerate(radii)]

    def descend(k, prefix, lin, const):
        # lin[i], const: the coefficients of t_i and 1 in Q once t_<k is fixed
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

    descend(0, (), list(lin), const)
    return out


def lattice_points(m: Mat, v: Vec, c: Fraction, bound: Fraction) -> Tuple[int, list]:
    """A denominator D and every (t, D q(t)) with q(t) = (1/2) t^T m t + v^T t + c < bound:
    one form_points call on the data scaled by the least D with D m, D v and D c integral
    and D m_ii even, below ceil(D bound) - 1.  Floats are refused: they have no exact
    scaling to integers."""
    if not all(isinstance(x, Rational) for row in m for x in row):
        raise ValueError("quadratic form entries must be exact rationals")
    den = lcm(*(x.denominator for row in m for x in row), c.denominator,
              *(Fraction(m[i][i], 2).denominator for i in range(len(m))),
              *(x.denominator for x in v))
    return den, form_points(tuple(tuple(int(x * den) for x in row) for row in m),
                            [x.numerator * (den // x.denominator) for x in v],
                            c.numerator * (den // c.denominator), ceil(den * bound) - 1)


def enumerate_below(m: Mat, v: Vec, c: Fraction, bound: Fraction) -> Iterator[Tuple[int, ...]]:
    """All integer t with q(t) = (1/2) t^T m t + v^T t + c < bound, in
    lexicographic order: the points of ``lattice_points``."""
    for t, _num in lattice_points(m, v, c, bound)[1]:
        yield t
