"""Non-archimedean mirror side: Laurent series over the Novikov field, theta
bases of ample line bundles on the dual torus (positive-definite slopes), their
multiplication table as a dict keyed by coset triples, and the exact comparison
against the lattice-triangle product of affine Lagrangians.

Weight normalization (shared with the triangle counts): the theta section
of the bundle attached to slope A and shift b, in the coset j of Z^n/AZ^n,
is theta_j = sum over m = j mod A of q^{w(m)} z^m with
w(m) = (1/2)(m - b)^T A^{-1} (m - b).  With this convention the structure
constants of theta multiplication coincide term-by-term with the triangle
product, and the basis rescaling relating the two sides is the identity.

Weights are integer numerators: G w(m) = (S m - B)^T adj(A) (S m - B) over
G = _grid(e) = 2 S^2 det A, with adj(A), det A from lattice.adjugate and
(S, B = S b) from lattice.integer_shift, is an integer quadratic in m, so one
kernel call per bundle lists every section term, and the check's own target
weight reads the same two; no Fraction is built per point, product or coset:
they remain in the cutoffs, the shifts and the NovikovElem terms.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import ceil, lcm
from operator import itemgetter
from typing import Dict, Optional, Tuple

from .fukaya_oh import AffineLagrangian, transversal, triangle_product_table
from .lattice import (
    Mat,
    Vec,
    adjugate,
    coset_reduce,
    coset_representatives,
    form_points,
    hnf,
    integer_shift,
    is_positive_definite,
    mat_add,
    mat_sub,
    mat_vec,
    vec_add,
    vec_sub,
)
from .novikov import NovikovElem


# ---------------------------------------------------------------------------
# Laurent series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentSeriesNd:
    """Finitely many terms a_k z^k in n variables, sorted by exponent k."""

    n: int
    terms: Tuple[Tuple[Tuple[int, ...], NovikovElem], ...]

    def __post_init__(self):
        seen = {}
        for k, a in self.terms:
            k = tuple(int(x) for x in k)
            if len(k) != self.n:
                raise ValueError("exponent dimension mismatch")
            if k in seen:
                raise ValueError("duplicate exponent vector")
            if a.is_zero() and a.cutoff is None:
                continue
            seen[k] = a
        object.__setattr__(self, "terms", tuple(sorted(seen.items())))

    def multiply(self, other: "LaurentSeriesNd") -> "LaurentSeriesNd":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        acc: Dict[Tuple[int, ...], NovikovElem] = {}
        for k1, a1 in self.terms:
            for k2, a2 in other.terms:
                k = tuple(x + y for x, y in zip(k1, k2))
                p = a1 * a2
                acc[k] = acc[k] + p if k in acc else p
        return LaurentSeriesNd(self.n, tuple(acc.items()))


# ---------------------------------------------------------------------------
# Line bundles and theta bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineBundleObj:
    """Mirror line bundle of an affine Lagrangian; the slope must be positive
    definite, so that the bundle is ample and has a theta basis."""

    lagrangian: AffineLagrangian

    def __post_init__(self):
        if not is_positive_definite(self.lagrangian.slope):
            raise ValueError("slope must be positive definite (no ample theta model)")

    @property
    def n(self) -> int:
        return self.lagrangian.n

    @property
    def rank_of_sections(self) -> int:
        return adjugate(self.lagrangian.slope)[1]  # A is positive definite, so det A > 0

    def tensor(self, other: "LineBundleObj") -> "LineBundleObj":
        a = mat_add(self.lagrangian.slope, other.lagrangian.slope)
        b = vec_add(self.lagrangian.shift, other.lagrangian.shift)
        hol = tuple(u * v for u, v in zip(self.lagrangian.holonomy, other.lagrangian.holonomy))
        return LineBundleObj(AffineLagrangian(a, b, hol))


def _weight_numerator(slope: Mat, center: Vec):
    """(N, W) with N(m) / W = (1/2)(m - center)^T A^{-1} (m - center) for A = slope: N(m) =
    (S m - C)^T G (S m - C) over W = 2 S^2 det A, for G = adj(A) and (S, C) the integer form
    of center.  The check's own weight, apart from the kernel's section form."""
    (G, det), (S, sc) = adjugate(slope), integer_shift(center)

    def num(m) -> int:
        d = [S * x - y for x, y in zip(m, sc)]
        return sum(x * sum(a * y for a, y in zip(row, d)) for x, row in zip(d, G))
    return num, 2 * det * S * S


def _grid(e: LineBundleObj) -> int:
    """The denominator G = 2 S^2 det A of e's integer weight form, S the denominator of b:
    G w(m) = (S m - B)^T adj(A) (S m - B) with B = S b is an integer for every m."""
    S = integer_shift(e.lagrangian.shift)[0]
    return 2 * S * S * e.rank_of_sections


def _cosets(e: LineBundleObj, bound: Fraction) -> Dict[Tuple[int, ...], list]:
    """The (m, G w(m)) with w(m) < bound, G = _grid(e), by coset of m modulo the slope
    lattice (cosets with no such m left out), m in lexicographic order: one kernel
    call on G w(m) = S^2 m^T adj(A) m - 2 S m^T adj(A) B + B^T adj(A) B."""
    adj, (S, B) = adjugate(e.lagrangian.slope)[0], integer_shift(e.lagrangian.shift)
    adj_b = [sum(x * y for x, y in zip(row, B)) for row in adj]
    h, out = hnf(e.lagrangian.slope), {}
    for m, w in form_points(tuple(tuple(2 * S * S * x for x in row) for row in adj),
                            [-2 * S * x for x in adj_b], sum(x * y for x, y in zip(B, adj_b)),
                            ceil(_grid(e) * bound) - 1):
        out.setdefault(coset_reduce(h, m), []).append((m, w))
    return out


def _minima(e: LineBundleObj) -> Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]]:
    """{j: (s, G w(s))} with s = j mod A of least weight, G = _grid(e), from one
    enumeration whose bound doubles until every coset has a point.  Of equal
    minima, the first in the order of t, for s = j + A t, wins."""
    adj, reps, bound = adjugate(e.lagrangian.slope)[0], coset_representatives(e.lagrangian.slope), 1
    while len(points := _cosets(e, bound)) < len(reps):
        bound *= 2
    out = {}
    for j in reps:  # t = A^{-1} (s - j) and det A > 0, so adj(A) s orders the ties as t does
        low = min(w for _m, w in points[j])
        out[j] = min((m for m, w in points[j] if w == low), key=lambda s: mat_vec(adj, s)), low
    return out


def _sections(e: LineBundleObj, cutoff: Fraction, den: int) -> list:
    """Theta sections of e below the cutoff, as (j, [(m, den w(m))]) by increasing weight
    (ties in lexicographic order of m); _grid(e) divides den."""
    scale, points = den // _grid(e), _cosets(e, cutoff)
    return [(j, sorted(((m, w * scale) for m, w in points.get(j, ())), key=itemgetter(1)))
            for j in coset_representatives(e.lagrangian.slope)]


@dataclass(frozen=True)
class ThetaBasis:
    bundle: LineBundleObj
    cutoff: Fraction
    sections: Tuple[Tuple[Tuple[int, ...], LaurentSeriesNd], ...]


def theta_basis(e: LineBundleObj, cutoff) -> ThetaBasis:
    """Truncated theta sections, one per coset of Z^n modulo the slope lattice."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    den = _grid(e)
    return ThetaBasis(e, cutoff, tuple(
        (j, LaurentSeriesNd(e.n, tuple((m, NovikovElem.q_power(Fraction(w, den), 1, cutoff))
                                       for m, w in terms)))
        for j, terms in _sections(e, cutoff, den)))


class ThetaSolveError(ValueError):
    def __init__(self, message: str, required_cutoff: Fraction):
        super().__init__(f"{message}; retry with cutoff >= {required_cutoff}")
        self.required_cutoff = required_cutoff


def theta_multiply(e1: LineBundleObj, e2: LineBundleObj, cutoff) -> Dict[Tuple, NovikovElem]:
    """Expand products of theta sections in the tensor-bundle theta basis, as the
    table {(j1, j2, j3): coefficient} over coset triples, in the format of
    triangle_product_table.

    Every theta term is a monomial q^w z^m, so sections are read as (m, L w)
    pairs, with L w the kernel's numerator over _grid(e) put over one
    denominator L for all weights; each bundle's sections come from one kernel
    call, bucketed by coset, and the least weight w* of every target coset from
    one enumeration of the tensor bundle, its bound doubled until every coset
    has a point.  Each m is packed into one int, so that z^m1 z^m2 is one
    integer sum, and a product of two sections is a count of packed (s, L
    q-exponent) keys, summed by C-level calls over the terms of the second
    section; the solve and the consistency check run on these integers, and
    each final coefficient becomes a NovikovElem straight from its integer
    row over L.  Sections are expanded to internal = cutoff + max w* + 1,
    where w* is the least weight of a target section, taken at z^s*; the
    coefficient of a target section is the product row at s* divided by q^w*.
    Every z^s that some pair of terms reaches, also one whose pairs all weigh
    internal or more, is then checked against its solved coefficient below
    min(internal, cutoff + w(s)).  The target weight w(s) = (1/2)(s - c)^T
    Gamma^{-1} (s - c) is computed afresh, in integers from adj(Gamma) and the
    integer form of the shift c, and never read from the kernel;
    a mismatch reports the cutoff that would be required.
    """
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if e1.n != e2.n:
        raise ValueError("dimension mismatch")
    e3 = e1.tensor(e2)
    gamma = e3.lagrangian.slope
    c3 = e3.lagrangian.shift
    gamma_h = hnf(gamma)
    target_cosets = coset_representatives(gamma)
    minima, g3 = _minima(e3), _grid(e3)
    internal = cutoff + Fraction(max(w for _s, w in minima.values()), g3) + 1

    # one integer grid for the section, product and target weights
    den = lcm(_grid(e1), _grid(e2), g3)
    sections1, sections2 = _sections(e1, internal, den), _sections(e2, internal, den)
    top, low = ceil(internal * den), ceil(cutoff * den)  # a product term is kept iff L w < top
    # m packs to k(m) = sum m_i B^(n-1-i), with B > 4 max|m_i| and every |s*_i| <= half:
    # k(m1) + k(m2) = k(m1 + m2), the digits of a sum or an s* decode, and int order is
    # lexicographic order; a kept product term packs with its weight as K = k top + L w
    # (0 <= L w < top), so K order is (s, weight) order
    half = max(chain((2 * abs(x) for _j, t in sections1 + sections2 for m, _w in t for x in m),
                     (abs(x) for s, _w in minima.values() for x in s)))
    B = 2 * half + 1

    def pack(m) -> int:
        return reduce(lambda k, x: k * B + x, m, 0)

    def unpack(k: int) -> Tuple[int, ...]:
        s = []
        for _ in range(e3.n):
            k, d = divmod(k + half, B)
            s.append(d - half)
        return tuple(reversed(s))

    packed1 = [(j1, [(pack(m), w) for m, w in t]) for j1, t in sections1]
    packed2 = [(j2, [pack(m) for m, _w in t], [w for _m, w in t], [pack(m) * top + w for m, w in t])
               for j2, t in sections2]
    stars = {j3: (pack(s), w * (den // g3)) for j3, (s, w) in minima.items()}
    wnum, wden = _weight_numerator(gamma, c3)
    target = {}  # k(s) -> (coset of s, L w(s))
    coeffs = {}
    for j1, t1 in packed1:
        for j2, k2s, w2s, K2s in packed2:
            reached, counts = set(), Counter()
            for k1, w1 in t1:
                reached.update(map(k1.__add__, k2s))
                counts.update(map((k1 * top + w1).__add__, K2s[:bisect_left(w2s, top - w1)]))
            items = sorted(counts.items())
            keys = [K for K, _c in items]

            def row(lo: int, hi: int) -> list:
                return items[bisect_left(keys, lo):bisect_left(keys, hi)]
            # Weights are >= 0, so every dropped term has weight >= internal
            # and a product row is complete below internal.  Divided by q^w*
            # it is complete below internal - w* > cutoff, so every solved
            # coefficient is stored with exactly the requested cutoff.
            # solved[j3]: the row at s* as (L w - L w*, count) pairs, by weight
            solved = {j3: [(K - k * top - w_star, c) for K, c in row(k * top, (k + 1) * top)]
                      for j3, (k, w_star) in stars.items()}
            for k in sorted(reached):
                if k not in target:
                    s = unpack(k)
                    wl, r = divmod(wnum(s) * den, wden)
                    if r:
                        raise RuntimeError(f"target weight {Fraction(wnum(s), wden)} is off the grid Z/{den}")
                    target[k] = (coset_reduce(gamma_h, s), wl)
                j3, wl = target[k]
                common, base = min(top, low + wl), k * top
                # the row below common against the solved prefix below common - w(s)
                have = [(K - base - wl, c) for K, c in row(base, base + common)]
                if have != solved[j3][:bisect_left(solved[j3], (common - wl,))]:
                    raise ThetaSolveError(
                        f"inconsistent theta solve at z^{unpack(k)} for pair ({j1}, {j2})",
                        cutoff + Fraction(wl, den) + 1,
                    )
            for j3 in target_cosets:
                coeffs[j1, j2, j3] = NovikovElem._over(dict(solved[j3]), den, cutoff)
    return coeffs


# ---------------------------------------------------------------------------
# The comparison oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MirrorReport:
    status: str  # "EQUAL" or "DIFFER"
    cutoff: Fraction
    first_discrepancy: Optional[Tuple] = None
    triangle_table: Tuple = ()
    theta_table: Tuple = ()

    @property
    def equal(self) -> bool:
        return self.status == "EQUAL"


def compare_tables(
    triangle: Dict[Tuple, NovikovElem], theta: Dict[Tuple, NovikovElem], cutoff
) -> MirrorReport:
    """Entrywise comparison of truncated coefficient tables."""
    cutoff = Fraction(cutoff)
    zero = NovikovElem.zero(cutoff)
    entries = ((key, triangle.get(key, zero).truncate(cutoff), theta.get(key, zero).truncate(cutoff))
               for key in sorted(set(triangle) | set(theta)))
    first = next((e for e in entries if e[1] != e[2]), None)
    return MirrorReport("EQUAL" if first is None else "DIFFER", cutoff, first,
                        tuple(sorted(triangle.items())), tuple(sorted(theta.items())))


def mirror_compare(
    l0: AffineLagrangian, l1: AffineLagrangian, l2: AffineLagrangian, cutoff
) -> MirrorReport:
    """Exact comparison of the triangle product with theta multiplication.

    Both sides use the shared weight normalization, under which the basis
    rescaling between them is the identity; the tables are compared
    entrywise as truncated Novikov elements.
    """
    cutoff = Fraction(cutoff)
    if not transversal([l0, l1, l2]):
        raise ValueError("non-transversal triple")
    inc01, inc12 = mat_sub(l1.slope, l0.slope), mat_sub(l2.slope, l1.slope)
    if not (is_positive_definite(inc01) and is_positive_definite(inc12)):
        raise ValueError("mirror comparison requires convex ordering")
    for l in (l0, l1, l2):
        if any(u != 1 for u in l.holonomy):
            raise ValueError("mirror comparison implemented for trivial holonomy")

    triangle = triangle_product_table(l0, l1, l2, cutoff)

    e01 = LineBundleObj(AffineLagrangian(inc01, vec_sub(l1.shift, l0.shift)))
    e12 = LineBundleObj(AffineLagrangian(inc12, vec_sub(l2.shift, l1.shift)))
    return compare_tables(triangle, theta_multiply(e01, e12, cutoff), cutoff)
