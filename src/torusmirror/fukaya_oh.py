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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import floor
from typing import Dict, Sequence, Tuple

from .ainfty import AInftyStructure, GradedBasis, MultilinearOp, assemble_sequence
from .lattice import (
    Mat,
    Vec,
    coset_reduce,
    coset_representatives,
    hnf,
    inertia,
    is_positive_definite,
    is_symmetric,
    lattice_points,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    quad_form,
    vec,
    vec_add,
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

    slope: Mat
    shift: Vec
    holonomy: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "slope", mat(self.slope))
        object.__setattr__(self, "shift", vec(self.shift))
        n = len(self.slope)
        if len(self.shift) != n:
            raise ValueError("shift dimension mismatch")
        if not is_symmetric(self.slope):
            raise ValueError("slope matrix must be symmetric")
        if any(e.denominator != 1 for row in self.slope for e in row):
            raise ValueError("slope matrix must be integral")
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
    det = mat_det(alpha)
    if det == 0:
        raise ValueError("non-transversal pair")
    delta = vec_sub(li.shift, lj.shift)
    alpha_inv = mat_inv(alpha)
    degree = inertia(alpha)[0]
    points = []
    for m in coset_representatives(alpha):
        y = mat_vec(alpha_inv, vec_sub(vec(m), vec(-d for d in delta)))
        y = tuple(c - floor(c) for c in y)
        points.append(IntersectionPoint(coset=m, position=y, degree=degree))
    if len(points) != abs(det):
        raise RuntimeError(f"{len(points)} intersection points, expected |det| = {abs(det)}")
    return points


def _holonomy_factor(
    lagrangians: Sequence[AffineLagrangian], y0: Vec, y1: Vec, y2: Vec
) -> Fraction:
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
    share (transversality, the points of (L_0, L_2), the inverses, the weight
    form, the HNF of gamma) is computed once, here."""
    if not transversal([l0, l1, l2]):
        raise ValueError("non-transversal triple")
    alpha, beta, gamma = _increment(l0, l1), _increment(l1, l2), _increment(l0, l2)
    convex = is_positive_definite(alpha) and is_positive_definite(beta)
    points02 = intersections(l0, l2)
    ainv, binv, ginv = mat_inv(alpha), mat_inv(beta), mat_inv(gamma)
    c01, c12 = vec_sub(l1.shift, l0.shift), vec_sub(l2.shift, l1.shift)
    gamma_h = hnf(gamma)
    beta_z = [[int(x) for x in row] for row in beta]
    twisted = any(u != 1 for l in (l0, l1, l2) for u in l.holonomy)
    # W(t) = Q(m, k0 + beta t) with Q(x, y) = (1/2)(x^T a^{-1} x + y^T b^{-1} y
    #        - (x+y)^T g^{-1} (x+y)); expand to (1/2) t^T M t + v^T t + c.
    bg = mat_mul(beta, mat_sub(binv, ginv))
    mq, bginv = mat_mul(bg, beta), mat_mul(beta, ginv)

    def product(x0: IntersectionPoint, x1: IntersectionPoint, cutoff):
        cutoff = Fraction(cutoff)
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        targets = {p.coset: p for p in points02 if p.degree == x0.degree + x1.degree}
        if not targets:
            return {}
        if not convex:
            raise ValueError(
                "m2 enumeration is implemented for convex-ordered triples "
                "(positive-definite slope increments) only"
            )
        m = vec_sub(vec(x0.coset), c01)  # = alpha * y0, fixed lift of x0
        k0 = vec_sub(vec(x1.coset), c12)  # base lift of x1; translates k0 + beta*t
        vq = vec_sub(mat_vec(bg, k0), mat_vec(bginv, m))
        cq = (quad_form(ainv, m) + quad_form(binv, k0) - quad_form(ginv, vec_add(m, k0))) / 2
        # s + b_2 - b_0 = x0 + x1 + beta t, an integer vector, names the target coset
        base = [a + b for a, b in zip(x0.coset, x1.coset)]
        acc: Dict[IntersectionPoint, Dict[int, Fraction]] = {p: {} for p in targets.values()}
        den, points = lattice_points(mq, vq, cq, cutoff)
        for t, weight in points:
            if weight < 0:
                raise RuntimeError(f"negative triangle weight {Fraction(weight, den)}")
            bt = [sum(b * x for b, x in zip(row, t)) for row in beta_z]
            target = targets.get(coset_reduce(gamma_h, [a + b for a, b in zip(base, bt)]))
            if target is None:
                continue
            hol = 1  # the count stays an int unless some holonomy is nontrivial
            if twisted:
                k = vec_add(k0, bt)
                hol = _holonomy_factor((l0, l1, l2), mat_vec(ainv, m), mat_vec(binv, k),
                                       mat_vec(ginv, vec_add(m, k)))
            row = acc[target]
            row[weight] = row.get(weight, 0) + hol
        return {p: NovikovElem._over(row, den, cutoff) for p, row in acc.items()}

    return product


def m2(
    l0: AffineLagrangian,
    l1: AffineLagrangian,
    l2: AffineLagrangian,
    x0: IntersectionPoint,
    x1: IntersectionPoint,
    cutoff,
) -> Dict[IntersectionPoint, NovikovElem]:
    """Triangle product on (x0, x1), as a map to Hom(L_0, L_2) over C_eps.

    The output assigns a truncated Novikov element to every intersection
    point of (L_0, L_2) whose degree equals deg x0 + deg x1; other degrees
    are excluded by the grading and the map is zero there.  Configurations
    are enumerated in the universal cover: the lift of x0 is fixed and the
    lift of x1 ranges over its full coset, which exhausts the deck orbits
    exactly once.  The weight is a positive-definite quadratic in the
    lattice translate, so ``lattice_points`` finds every configuration below
    the cutoff, each weight an integer numerator over its one denominator;
    a target's weights are gathered and become one NovikovElem.
    """
    return _triangle_products(l0, l1, l2)(x0, x1, cutoff)


def triangle_product_table(
    l0: AffineLagrangian, l1: AffineLagrangian, l2: AffineLagrangian, cutoff
) -> Dict[Tuple, NovikovElem]:
    """All m2 products of the triple, keyed by intersection-coset triples.

    Targets that no triangle reaches below the cutoff keep an explicit zero.
    """
    table: Dict[Tuple, NovikovElem] = {}
    points12 = intersections(l1, l2)
    product = _triangle_products(l0, l1, l2)
    for x0 in intersections(l0, l1):
        for x1 in points12:
            out = product(x0, x1, cutoff)
            for x2, value in out.items():
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
            return VanishingCertificate(
                certified=False,
                arity=k,
                reason="not certifiable: ordering is not convex "
                "(a slope increment is not positive definite)",
            )
    degrees = tuple(
        inertia(_increment(seq[i], seq[j]))[0]
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
    )
    return VanishingCertificate(
        certified=True,
        arity=k,
        reason=f"all generators have degree 0 and the target degree 2-{k} < 0",
        generator_degrees=degrees,
    )
