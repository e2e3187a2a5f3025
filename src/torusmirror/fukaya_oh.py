"""Affine Lagrangian sections of the torus fibration over R^n/Z^n.

Objects are graphs of d f with f(y) = (1/2) y^T A y + b^T y, A an integral
symmetric matrix, equipped with a rank-one local system given by rational
holonomies around the n base circles.  The module computes intersection
points with their integer gradings, the transversality predicate, the
triangle product m2 by exact lattice summation over the universal cover,
the direct-sum A-infinity structure of a sequence built from it, and the
degree certificate that forces all higher products to vanish for
convex-ordered sequences.

Conventions (fixed once, shared with the theta-function side):
  * intersection points of (L_i, L_j) are the solutions of
    (A_j - A_i) y = (b_i - b_j) + m with m in Z^n, indexed by the coset of
    m in Z^n / (A_j - A_i) Z^n;
  * the grading of every such point is the number of negative eigenvalues
    of A_j - A_i, so convex ordering (positive-definite slope increments)
    gives degree 0 throughout;
  * the m2 weight of the configuration (m, k) is the normalized triangle
    area W = (1/2)(y0^T a y0 + y1^T b y1 - y2^T g y2) where a, b, g are the
    slope increments, y0, y1, y2 the lifted corners (g y2 = a y0 + b y1).
    W >= 0 always, with W = 0 exactly when the three lifts coincide.

m2 runs on one integer form per triple.  Fixing the lift m of x0 and taking
k0 + beta t for x1, W(t) = Q(m, k0 + beta t) with Q(x, y) = (1/2)(x^T a^{-1} x
+ y^T b^{-1} y - (x+y)^T g^{-1} (x+y)).  With P the lcm of the three |det|
(Ai = P a^{-1} = (P / det a) adj a, Bi, Gi) and S the shifts' denominator, M = S m and
K = S k0 are integer vectors and D W(t), D = 2 P S^2, is the integer quadratic
M^T Ai M + (K + S beta t)^T Bi (K + S beta t) - (M+K + S beta t)^T Gi (M+K + S beta t):
its t^T t part is fixed per triple, its linear and constant parts are integer
dot products per product.  Fractions remain only in the intersection
positions, the holonomy factors and the NovikovElem terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, lcm
from typing import Dict, Sequence, Tuple

from .ainfty import AInftyStructure, GradedBasis, MultilinearOp, assemble_sequence
from .lattice import (
    Mat,
    Vec,
    adjugate,
    coset_reduce,
    coset_representatives,
    form_points,
    hnf,
    inertia,
    integer_shift,
    is_positive_definite,
    is_symmetric,
    mat_det,
    mat_mul,
    mat_sub,
    vec,
    vec_sub,
)
from .novikov import NovikovElem


@dataclass(frozen=True)
class AffineLagrangian:
    """Section y -> A y + b of the torus fibration, with rank-one holonomy.

    holonomy[d] is the (nonzero rational) monodromy of the local system
    around the d-th base circle; the scalar-u description lifts to the
    diagonal tuple (u, ..., u).
    """

    slope: Tuple[Tuple[int, ...], ...]
    shift: Vec
    holonomy: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        slope = tuple(tuple(e if type(e) is int else Fraction(e) for e in row) for row in self.slope)
        object.__setattr__(self, "shift", vec(self.shift))
        n = len(slope)
        if any(len(row) != n for row in slope):
            raise ValueError("ragged matrix" if len(set(map(len, slope))) > 1
                             else "slope matrix must be square")
        if len(self.shift) != n:
            raise ValueError("shift dimension mismatch")
        if not is_symmetric(slope):
            raise ValueError("slope matrix must be symmetric")
        if any(e.denominator != 1 for row in slope for e in row):
            raise ValueError("slope matrix must be integral")
        object.__setattr__(self, "slope", tuple(tuple(int(e) for e in row) for row in slope))
        hol = self.holonomy if self.holonomy else (Fraction(1),) * n
        hol = tuple(Fraction(u) for u in hol)
        if len(hol) != n or any(u == 0 for u in hol):
            raise ValueError("holonomy must be n nonzero rationals")
        object.__setattr__(self, "holonomy", hol)

    @property
    def n(self) -> int:
        return len(self.slope)


@dataclass(frozen=True)
class IntersectionPoint:
    """A transversal intersection of an ordered pair (L_i, L_j)."""

    coset: Tuple[int, ...]  # canonical representative of m in Z^n/(A_j-A_i)Z^n
    position: Vec  # base point y, entries normalized to [0, 1)
    degree: int


def _increment(li: AffineLagrangian, lj: AffineLagrangian) -> Mat:
    if li.n != lj.n:
        raise ValueError("dimension mismatch")
    return mat_sub(lj.slope, li.slope)


def transversal(seq: Sequence[AffineLagrangian]) -> bool:
    """True iff every pairwise slope difference is nonsingular."""
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if mat_det(_increment(seq[i], seq[j])) == 0:
                return False
    return True


def intersections(li: AffineLagrangian, lj: AffineLagrangian) -> list:
    """All intersection points of the ordered pair, |det(A_j - A_i)| of them."""
    alpha = _increment(li, lj)
    if mat_det(alpha) == 0:
        raise ValueError("non-transversal pair")
    # y = alpha^{-1} (m + delta) = adj(alpha) (S m + S delta) / q with q = det S: y mod 1
    # is an int mod q over q, which is in [0, 1) for either sign of q
    (adj, det), (S, sd) = adjugate(alpha), integer_shift(vec_sub(li.shift, lj.shift))
    q, degree = det * S, inertia(alpha)[0]
    points = []
    for m in coset_representatives(alpha):
        v = [S * x + d for x, d in zip(m, sd)]
        y = tuple(Fraction(sum(a * b for a, b in zip(row, v)) % q, q) for row in adj)
        points.append(IntersectionPoint(coset=m, position=y, degree=degree))
    if len(points) != abs(det):
        raise RuntimeError(f"{len(points)} intersection points, expected |det| = {abs(det)}")
    return points


def _holonomy_factor(lagrangians: Sequence[AffineLagrangian], y0: Vec, y1: Vec,
                     y2: Vec) -> Fraction:
    """Local-system contribution of the triangle boundary arcs.

    The arc on L_0 runs from the lift y2 to y0, on L_1 from y0 to y1, and on
    L_2 from y1 to y2; each contributes the holonomy raised to the integer
    winding numbers read off from componentwise floors of the lifts.
    """
    l0, l1, l2 = lagrangians
    factor = Fraction(1)
    for d in range(l0.n):
        f0, f1, f2 = floor(y0[d]), floor(y1[d]), floor(y2[d])
        factor *= l0.holonomy[d] ** (f0 - f2)
        factor *= l1.holonomy[d] ** (f1 - f0)
        factor *= l2.holonomy[d] ** (f2 - f1)
    return factor


def _triangle_products(l0: AffineLagrangian, l1: AffineLagrangian, l2: AffineLagrangian):
    """m2 of one triple as a function of (x0, x1, cutoff).  What its products
    share (transversality, the points of (L_0, L_2), the adjugates, the weight
    form, the HNF of gamma) is computed once, here."""
    if not transversal([l0, l1, l2]):
        raise ValueError("non-transversal triple")
    alpha, beta, gamma = _increment(l0, l1), _increment(l1, l2), _increment(l0, l2)
    convex = is_positive_definite(alpha) and is_positive_definite(beta)
    points02 = intersections(l0, l2)
    adjs = [adjugate(x) for x in (alpha, beta, gamma)]
    S, lifts = integer_shift(vec_sub(l1.shift, l0.shift) + vec_sub(l2.shift, l1.shift))
    lift01, lift12 = lifts[:l0.n], lifts[l0.n:]
    gamma_h = hnf(gamma)
    twisted = any(u != 1 for l in (l0, l1, l2) for u in l.holonomy)
    # D W(t) (module doc) as (1/2) t^T h t + lin . t + const, with lin = lin_km (K, M)
    P = lcm(*(abs(det) for _adj, det in adjs))
    Ai, Bi, Gi = ([[x * (P // det) for x in row] for row in adj] for adj, det in adjs)
    D, bb = 2 * P * S * S, mat_mul(beta, mat_sub(Bi, Gi))
    h = tuple(tuple(2 * S * S * x for x in row) for row in mat_mul(bb, beta))
    lin_km = [[2 * S * x for x in rk] + [-2 * S * x for x in rm]
              for rk, rm in zip(bb, mat_mul(beta, Gi))]

    def form(a, x) -> int:
        return sum(xi * sum(r * y for r, y in zip(row, x)) for xi, row in zip(x, a))

    def product(x0: IntersectionPoint, x1: IntersectionPoint, cutoff):
        cutoff = Fraction(cutoff)
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        targets = {p.coset: p for p in points02 if p.degree == x0.degree + x1.degree}
        if not targets:
            return {}
        if not convex:
            raise ValueError("m2 enumeration is implemented for convex-ordered triples "
                             "(positive-definite slope increments) only")
        M = [S * x - y for x, y in zip(x0.coset, lift01)]  # S alpha y0, fixed lift of x0
        K = [S * x - y for x, y in zip(x1.coset, lift12)]  # base lift of x1, moved by S beta t
        lin = [sum(a * y for a, y in zip(row, K + M)) for row in lin_km]
        # s + b_2 - b_0 = x0 + x1 + beta t, an integer vector, names the target coset
        base = [a + b for a, b in zip(x0.coset, x1.coset)]
        acc: Dict[Tuple[int, ...], Dict[int, Fraction]] = {c: {} for c in targets}
        const = form(Ai, M) + form(Bi, K) - form(Gi, [x + y for x, y in zip(M, K)])
        for t, weight in form_points(h, lin, const, ceil(D * cutoff) - 1):
            if weight < 0:
                raise RuntimeError(f"negative triangle weight {Fraction(weight, D)}")
            bt = [sum(b * x for b, x in zip(row, t)) for row in beta]
            row = acc.get(coset_reduce(gamma_h, [a + b for a, b in zip(base, bt)]))
            if row is None:
                continue
            hol = 1  # the count stays an int unless some holonomy is nontrivial
            if twisted:  # y0, y1, y2 are Ai M, Bi Kt, Gi (M + Kt) over P S: pass their floors
                Kt = [k + S * b for k, b in zip(K, bt)]
                hol = _holonomy_factor((l0, l1, l2), *(
                    [sum(a * y for a, y in zip(row, v)) // (P * S) for row in inv]
                    for inv, v in ((Ai, M), (Bi, Kt), (Gi, [x + y for x, y in zip(M, Kt)]))))
            row[weight] = row.get(weight, 0) + hol
        return {p: NovikovElem._over(acc[c], D, cutoff) for c, p in targets.items()}

    return product


def m2(l0: AffineLagrangian, l1: AffineLagrangian, l2: AffineLagrangian, x0: IntersectionPoint,
       x1: IntersectionPoint, cutoff) -> Dict[IntersectionPoint, NovikovElem]:
    """Triangle product on (x0, x1), as a map to Hom(L_0, L_2) over C_eps.

    The output assigns a truncated Novikov element to every intersection
    point of (L_0, L_2) whose degree equals deg x0 + deg x1; other degrees
    are excluded by the grading and the map is zero there.  Configurations
    are enumerated in the universal cover: the lift of x0 is fixed and the
    lift of x1 ranges over its full coset, which exhausts the deck orbits
    exactly once.  The weight is a positive-definite quadratic in the
    lattice translate, and the triple's integer form of it (module doc) lets
    ``form_points`` find every configuration below the cutoff, each weight an
    integer numerator over D; a target's weights become one NovikovElem.
    """
    return _triangle_products(l0, l1, l2)(x0, x1, cutoff)


def triangle_product_table(l0: AffineLagrangian, l1: AffineLagrangian, l2: AffineLagrangian,
                           cutoff) -> Dict[Tuple, NovikovElem]:
    """All m2 products of the triple, keyed by intersection-coset triples.

    Targets that no triangle reaches below the cutoff keep an explicit zero.
    """
    table: Dict[Tuple, NovikovElem] = {}
    points12 = intersections(l1, l2)
    product = _triangle_products(l0, l1, l2)
    for x0 in intersections(l0, l1):
        for x1 in points12:
            for x2, value in product(x0, x1, cutoff).items():
                table[(x0.coset, x1.coset, x2.coset)] = value
    return table


def fukaya_sequence(lagrangians: Sequence[AffineLagrangian], cutoff) -> AInftyStructure:
    """Direct-sum structure of an ordered sequence of sections.

    Hom(L_i, L_j), i < j, has one basis element per intersection point,
    labelled by its coset; m2 on each triple i < j < k is the triangle
    product table.  No m1 is built: every point of a pair has the same
    degree, so a differential of degree one has no nonzero entry.
    """
    ls, idx = lagrangians, range(len(lagrangians))
    hom = {(i, j): GradedBasis(tuple((p.coset, p.degree) for p in intersections(ls[i], ls[j])))
           for i, j in combinations(idx, 2)}
    comps = {}
    for i, j, k in combinations(idx, 3):
        table: Dict = {}
        for (c0, c1, c2), v in triangle_product_table(ls[i], ls[j], ls[k], cutoff).items():
            table.setdefault((c0, c1), {})[c2] = v
        comps[i, j, k] = MultilinearOp(2, hom[i, j], hom[i, k], 0, table, check_degrees=False)
    return assemble_sequence(tuple(idx), hom, comps)


@dataclass(frozen=True)
class VanishingCertificate:
    certified: bool
    arity: int
    reason: str
    generator_degrees: Tuple[int, ...] = ()


def mk_vanishing_certificate(seq: Sequence[AffineLagrangian], k: int) -> VanishingCertificate:
    """Degree certificate that m_k = 0 for k >= 3 on a convex-ordered sequence.

    All consecutive slope increments must be positive definite; then every
    generator has degree 0 while the target degree 2 - k is negative, so
    every component of m_k is empty.  Non-convex orderings are refused:
    vanishing is not certifiable by this degree count and computing m_k
    there is out of scope.
    """
    if k < 3:
        raise ValueError("certificate applies to arities k >= 3")
    if len(seq) < 2:
        raise ValueError("need at least two Lagrangians")
    if not transversal(seq):
        raise ValueError("sequence is not transversal")
    for a, b in zip(seq, seq[1:]):
        if not is_positive_definite(_increment(a, b)):
            return VanishingCertificate(False, k, "not certifiable: ordering is not convex "
                                        "(a slope increment is not positive definite)")
    degrees = tuple(inertia(_increment(seq[i], seq[j]))[0]
                    for i in range(len(seq)) for j in range(i + 1, len(seq)))
    return VanishingCertificate(
        True, k, f"all generators have degree 0 and the target degree 2-{k} < 0", degrees)
