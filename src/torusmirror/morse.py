"""Morse theory on the flat circle R/Z for trigonometric polynomials:
certified critical points, the Morse differential, and the gradient-tree
product m2, unweighted (integer counts) or weighted by Novikov elements.

All results are exact.  A trigonometric polynomial is transported to a
rational polynomial through the half-angle substitution t = tan(pi*y) (the
point y = 1/2 is handled separately), so critical points are real algebraic
numbers: an integer Vincent-Akritas-Strzebonski continued-fraction isolator
(the algorithm of sympy's ``Poly.intervals``, with the same intervals; sympy
itself is used only by the tests) isolates them in rational intervals.  To
refine one, a float estimate of the root picks the bisection cell, two exact
signs certify it, and bisection runs when they do not, giving the same
enclosures; every sign or ordering decision is certified by exact interval
refinement.  Gcds and square-free parts run on integer coefficient lists; the
isolator also decides the real-root test behind the Morse check.  A critical
point's enclosure in y, from exact integer bounds on atan(t)/pi, is computed
when first read, and a triple's transversality is certified once per triple.

Orientation and sign conventions (validated by d^2 = 0 and the arity-3
structure relation, then frozen):
  * the circle is oriented positively (increasing y);
  * a descending gradient arc contributes +1 when traversed in the
    positive direction and -1 otherwise;
  * a gradient Y-tree for m2(x0, x1) -> x2 consists of monotone arcs
    descending to x0 (along f0-f1), descending to x1 (along f1-f2), and
    descending from x2 (along f0-f2), all meeting at the internal vertex;
    its sign is the product of the arc contributions over arcs of nonzero
    length, each taken in the traversal direction away from the vertex for
    the input arcs and into the vertex for the output arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, floor, gcd, lcm, ldexp, log
from typing import Dict, List, Optional, Sequence, Tuple

from .ainfty import GradedBasis, MultilinearOp
from .intervals import eval_poly
from .lattice import rank
from .novikov import NovikovElem

# interval-width targets: positions are refined to 2**-44 in t at isolation,
# certified values (weights, rescaling exponents) are rounded to the 2**-42
# dyadic grid
_POSITION_EPS = Fraction(1, 2**44)
_VALUE_EPS = Fraction(1, 2**44)
_VALUE_GRID = 2**42

# bound on each per-input cache below, so a long-running process that meets
# ever new functions keeps a flat memory footprint
_CACHE_SIZE = 256


# ---------------------------------------------------------------------------
# integer polynomial kernels (descending coefficient tuples; () is zero)
# ---------------------------------------------------------------------------


def _primitive(coeffs: Sequence) -> Tuple[int, ...]:
    """Integer polynomial with the same roots: denominators cleared, content
    divided out, leading zeros dropped, leading coefficient positive."""
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    while nums and nums[0] == 0:
        nums.pop(0)
    if not nums:
        return ()
    g = gcd(*nums) if nums[0] > 0 else -gcd(*nums)
    return tuple(c // g for c in nums)


def _gcd(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Primitive gcd with positive leading coefficient (primitive
    pseudo-remainder sequence: each remainder is a positive multiple of the
    remainder of a by b, content removed); () only when both inputs are zero."""
    while b:
        r, lb, sb = list(a), abs(b[0]), 1 if b[0] > 0 else -1
        while len(r) >= len(b):
            c = sb * r[0]
            r = [lb * x - c * y for x, y in zip(r, b)] + [lb * x for x in r[len(b):]]
            r.pop(0)
            while r and r[0] == 0:
                r.pop(0)
        g = gcd(*r) if r else 1
        a, b = b, tuple(x // g for x in r)
    return _primitive(a)


def _quotient(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Exact quotient a / b of integer polynomials, b primitive and
    dividing a (so by Gauss's lemma the quotient is integral)."""
    r, q = list(a), []
    while len(r) >= len(b):
        c, rem = divmod(r[0], b[0])
        if rem:
            raise RuntimeError("inexact polynomial division")
        q.append(c)
        r = [x - c * y for x, y in zip(r[1:], b[1:])] + r[len(b):]
    if any(r):
        raise RuntimeError("inexact polynomial division")
    return tuple(q)


def _sqf_part(a: Tuple[int, ...]) -> Tuple[int, ...]:
    """Square-free part a / gcd(a, a') of a primitive a with positive
    leading coefficient; the quotient is again of that kind."""
    derivative = tuple((len(a) - 1 - i) * c for i, c in enumerate(a[:-1]))
    return _quotient(a, _gcd(a, derivative))


def _sign_at(a: Sequence[int], num: int, den: int) -> int:
    """Sign of a(num / den) for den > 0: homogenised integer Horner."""
    acc, power = 0, 1
    for c in a:
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def _guess_cell(coeffs: Sequence[int], a: int, b: int, d: int, m: int) -> Optional[int]:
    """Index j of the level-m bisection cell of (a/d, b/d] that a float
    Newton estimate of the one root there, started at the midpoint, falls
    in; None when floats cannot place it."""
    try:
        x0, width, f = a / d, (b - a) / d, [float(c) for c in coeffs]
        x, tol = x0 + width / 2, ldexp(width, -m - 3)
        for _ in range(16):
            v = dv = 0.0
            for c in f:
                v, dv = v * x + c, dv * x + v
            step = v / dv
            x -= step
            if abs(step) <= tol:
                break
        j = floor(ldexp((x - x0) / width, m))
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    return j if 0 <= j < 1 << m else None


# ---------------------------------------------------------------------------
# real root isolation: Vincent-Akritas-Strzebonski continued fractions
# ---------------------------------------------------------------------------
#
# Akritas-Strzebonski, Nonlinear Analysis: Modelling and Control 10(4), 2005,
# with the LMQ bound of Akritas-Strzebonski-Vigklas (ibid. 13(3), 2008), in the
# exact form of sympy 1.14's dup_isolate_real_roots (fast=False): the same
# stack order, shifts and bounds, so the same isolating intervals.  Lists are
# descending integer coefficients, and every polynomial met has f(0) != 0
# (the input is square-free, and a root found at 0 is divided out at once);
# a Moebius transform (a, b, c, d) is x -> (a x + b) / (c x + d), and maps
# (0, inf) onto the interval between b/d and a/c, with d >= 1.  The test for
# an exact root right after a shift by the lower bound is kept as sympy has
# it, although the LMQ bound lies below every root and the tests never reach
# it; the test after the shift by 1 finds rational roots.


def _shift(f: Sequence[int], s: int) -> List[int]:
    """Taylor shift f(x + s)."""
    f = list(f)
    for i in range(len(f) - 1, 0, -1):
        for j in range(i):
            f[j + 1] += s * f[j]
    return f


def _reverse_shift(f: Sequence[int]) -> List[int]:
    """(x + 1)^n f(1 / (x + 1)), divided by x when it vanishes at 0."""
    g = _shift(f[::-1], 1)
    return g if g[-1] else g[:-1]


def _variations(f: Sequence[int]) -> int:
    """Sign changes of the coefficient sequence, zeros skipped."""
    k, prev = 0, 0
    for c in f:
        if c * prev < 0:
            k += 1
        if c:
            prev = c
    return k


def _lower_bound(f: Sequence[int]) -> int:
    """Integer part of the LMQ lower bound on the positive roots of f: the
    LMQ upper bound 2^(e+1) on the roots of the reversed f, inverted.
    The logarithms are int(math.log(|c|, 2)), as in sympy, not bit lengths:
    near a power of two the float rounds up (2^53 - 1 gives 53), and the
    bound picks the shifts and so the endpoints."""
    g = [-c for c in f] if f[-1] < 0 else f
    logs = [int(log(abs(c), 2)) if c else 0 for c in g]
    used, exps = [1] * len(g), []
    for i, c in enumerate(g):
        if c < 0:
            cands = [((used[j] + logs[i] - logs[j]) // (j - i), j)
                     for j in range(i + 1, len(g)) if g[j] > 0]
            if cands:
                q, j = min(cands)
                used[j] += 1
                exps.append(q)
    if not exps or max(exps) >= 0:
        return 0
    return 2 ** -(max(exps) + 1)


def _refine_step(f: List[int], m: Tuple[int, int, int, int]):
    """One continued-fraction step towards the single positive root of f."""
    a, b, c, d = m
    s = _lower_bound(f)
    if s >= 1:
        f = _shift(f, s)
        b, d = s * a + b, s * c + d
        if not f[-1]:
            return f, (b, b, d, d)
    left = _shift(f, 1)
    if not left[-1]:
        return left, (a + b, a + b, c + d, c + d)
    if _variations(left) == 1:
        return left, (a, a + b, c, c + d)
    return _reverse_shift(f), (b, a + b, d, c + d)


def _one_root(f: List[int], m: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
    """Refine a transform holding exactly one root until its interval is
    bounded (c != 0)."""
    while not m[2]:
        f, m = _refine_step(f, m)
    return m


def _positive_roots(f: List[int]) -> List[Tuple[int, int, int, int]]:
    """Transforms whose intervals isolate the positive roots of a
    square-free f with f(0) != 0."""
    k = _variations(f)
    if k <= 1:
        return [_one_root(f, (1, 0, 0, 1))] if k else []
    roots, stack = [], [(1, 0, 0, 1, f, k)]
    while stack:
        a, b, c, d, f, k = stack.pop()
        s = _lower_bound(f)
        if s >= 1:
            f = _shift(f, s)
            b, d = s * a + b, s * c + d
            if not f[-1]:
                roots.append((b, b, d, d))
                f = f[:-1]
            k = _variations(f)
            if k == 0:
                continue
            if k == 1:
                roots.append(_one_root(f, (a, b, c, d)))
                continue
        # left child x -> x + 1, right child x -> 1 / (x + 1)
        f1, r = _shift(f, 1), 0
        m1, m2 = (a, a + b, c, c + d), (b, a + b, d, c + d)
        if not f1[-1]:
            roots.append((a + b, a + b, c + d, c + d))
            f1, r = f1[:-1], 1
        k1 = _variations(f1)
        k2 = k - k1 - r
        f2 = None
        if k2 > 1:
            f2 = _reverse_shift(f)
            k2 = _variations(f2)
        if k1 < k2:
            f1, f2, k1, k2, m1, m2 = f2, f1, k2, k1, m2, m1
        for fi, ki, mi in ((f1, k1, m1), (f2, k2, m2)):
            if not ki:
                break
            if fi is None:
                fi = _reverse_shift(f)
            if ki == 1:
                roots.append(_one_root(fi, mi))
            else:
                stack.append(mi + (fi, ki))
    return roots


def _interval(m: Tuple[int, int, int, int], sign: int) -> Tuple[Fraction, Fraction]:
    """The interval of a transform, mirrored through 0 when sign is -1."""
    a, b, c, d = m
    return tuple(sorted((Fraction(sign * a, c), Fraction(sign * b, d))))


def _isolate(sqf: Tuple[int, ...]) -> List[Tuple[Fraction, Fraction]]:
    """Sorted isolating intervals (lo, hi) of the real roots of a nonzero
    square-free integer polynomial: open intervals, or (r, r) for a rational
    root r met on the way.  The intervals are those sympy's Poly.intervals()
    returns for the same polynomial."""
    f, found = list(sqf), []
    if not f[-1]:
        f.pop()
        found.append((Fraction(0), Fraction(0)))
    if len(f) > 1:
        for m in _positive_roots(f):
            found.append(_interval(m, 1))
        mirror = [-c if (len(f) - 1 - i) % 2 else c for i, c in enumerate(f)]
        for m in _positive_roots(mirror):
            found.append(_interval(m, -1))
    return sorted(found)


def _has_real_root(a: Tuple[int, ...]) -> bool:
    """Whether a primitive a with a[0] > 0 has a real root; constants skip the isolator."""
    return len(a) > 1 and bool(_isolate(_sqf_part(a)))


# ---------------------------------------------------------------------------
# trig polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigPolynomial:
    """f(y) = a_0 + sum_k a_k cos(2 pi k y) + b_k sin(2 pi k y), rational coeffs."""

    cos_coeffs: Tuple[Tuple[int, Fraction], ...]  # (k, a_k), k >= 0
    sin_coeffs: Tuple[Tuple[int, Fraction], ...]  # (k, b_k), k >= 1

    def __post_init__(self):
        """Sum repeated harmonics, drop zeros, sort by harmonic; hash once,
        since every cache lookup would otherwise hash the Fractions again."""
        for attr, name, low in (("cos_coeffs", "cosine", 0), ("sin_coeffs", "sine", 1)):
            merged = {}
            for k, c in getattr(self, attr):
                if k != int(k):
                    raise ValueError(f"{name} harmonic must be an integer")
                k, c = int(k), c if isinstance(c, Fraction) else Fraction(c)
                if k < low:
                    raise ValueError(f"{name} harmonic must be >= {low}")
                if c:
                    merged[k] = merged[k] + c if k in merged else c
            object.__setattr__(self, attr, tuple(sorted((k, c) for k, c in merged.items() if c)))
        object.__setattr__(self, "_hash", hash((self.cos_coeffs, self.sin_coeffs)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_dicts(cos_c: Dict[int, Fraction], sin_c: Dict[int, Fraction]) -> "TrigPolynomial":
        return TrigPolynomial(tuple(cos_c.items()), tuple(sin_c.items()))

    @staticmethod
    def zero() -> "TrigPolynomial":
        return TrigPolynomial((), ())

    @property
    def max_harmonic(self) -> int:
        ks = [k for k, _ in self.cos_coeffs if k > 0] + [k for k, _ in self.sin_coeffs]
        return max(ks, default=0)

    @property
    def is_constant(self) -> bool:
        return self.max_harmonic == 0

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return TrigPolynomial(
            self.cos_coeffs + tuple((k, -a) for k, a in other.cos_coeffs),
            self.sin_coeffs + tuple((k, -b) for k, b in other.sin_coeffs),
        )

    def __neg__(self) -> "TrigPolynomial":
        return TrigPolynomial.zero() - self

    def dtheta(self) -> "TrigPolynomial":
        """Derivative with respect to theta = 2 pi y (so f'(y) = 2 pi dtheta)."""
        cos_c = {k: k * b for k, b in self.sin_coeffs}
        sin_c = {k: -k * a for k, a in self.cos_coeffs if k >= 1}
        return TrigPolynomial.from_dicts(cos_c, sin_c)

    def at_half(self) -> Fraction:
        """Exact value at y = 1/2 (theta = pi)."""
        val = Fraction(0)
        for k, a in self.cos_coeffs:
            val += a if k % 2 == 0 else -a
        return val

    def numerator_coeffs(self) -> Tuple[Fraction, ...]:
        """Coefficients (descending) of N with f = N(t) / (1+t^2)^K, t = tan(pi y)."""
        nums, den = _numerator_coeffs_cached(self)
        return tuple(Fraction(x, den) for x in nums)


@lru_cache(maxsize=_CACHE_SIZE)
def _numerator_coeffs_cached(f: TrigPolynomial) -> Tuple[Tuple[int, ...], int]:
    """f.numerator_coeffs() as integer numerators over one denominator."""
    k_max = f.max_harmonic
    # (1 + i t)^(2k) = C_k + i S_k, so cos(k theta) = C_k / (1+t^2)^k and
    # sin(k theta) = S_k / (1+t^2)^k; ascending integer coefficient lists,
    # stepped by the factor (1 - t^2) + i 2t
    n = 2 * k_max + 1
    c_list, s_list = [[1] + [0] * (n - 1)], [[0] * n]
    for _ in range(k_max):
        c, s = [0, 0] + c_list[-1], [0, 0] + s_list[-1]  # c[j + 2] holds t^j
        c_list.append([c[j + 2] - c[j] - 2 * s[j + 1] for j in range(n)])
        s_list.append([s[j + 2] - s[j] + 2 * c[j + 1] for j in range(n)])
    terms = [(a, c_list[k], k) for k, a in f.cos_coeffs]
    terms += [(b, s_list[k], k) for k, b in f.sin_coeffs]
    den = lcm(*(a.denominator for a, _, _ in terms))
    total = [0] * n
    for a, poly, k in terms:
        scale = a.numerator * (den // a.denominator)
        # times (1 + t^2)^(k_max - k), whose t^(2i) coefficient is a binomial
        for i in range(k_max - k + 1):
            b = scale * comb(k_max - k, i)
            for j, x in enumerate(poly[: n - 2 * i]):
                total[j + 2 * i] += b * x
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return tuple(reversed(total)), den


@lru_cache(maxsize=_CACHE_SIZE)
def _dtheta_cached(f: TrigPolynomial) -> TrigPolynomial:
    return f.dtheta()


# ---------------------------------------------------------------------------
# algebraic points on the circle
# ---------------------------------------------------------------------------


class CirclePoint:
    """A point of R/Z given exactly: y = 1/2 (coeffs None), or t = tan(pi y)
    as a real algebraic number with a refinable isolating interval.

    The interval is [a/d, b/d] with integers a <= b and d > 0.  Invariant
    for inexact points: the (squarefree, integer) defining polynomial has
    exactly one root in (a/d, b/d], with a fixed nonzero sign s_hi at b/d,
    so refine() can narrow it: a float estimate picks the bisection cell,
    two exact signs certify it, and bisection runs when they do not.
    """

    def __init__(self, coeffs: Optional[Tuple[int, ...]], lo: Fraction, hi: Fraction):
        self.at_half = coeffs is None
        self.coeffs = coeffs
        self.d = lcm(lo.denominator, hi.denominator)
        self.a = lo.numerator * (self.d // lo.denominator)
        self.b = hi.numerator * (self.d // hi.denominator)
        self.s_hi = 0
        if self.a != self.b:
            self.s_hi = _sign_at(coeffs, self.b, self.d)
            if self.s_hi == 0:
                self.a = self.b

    @staticmethod
    def half() -> "CirclePoint":
        return CirclePoint(None, Fraction(0), Fraction(0))

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def width(self) -> Fraction:
        return Fraction(self.b - self.a, self.d)

    def refine(self, eps: Fraction) -> None:
        """Bisect in place until the width is at most eps; each midpoint
        doubles d.  Exact signs -s_hi at lo and s_hi at hi put the root strictly
        inside the level-m cell (lo, hi] guessed in floats, so bisection ends
        there without meeting the root at a midpoint: the loop starts there."""
        a, b, d = self.a, self.b, self.d
        w, t = (b - a) * eps.denominator, eps.numerator * d
        if w > t:
            m = ((w - 1) // t).bit_length()  # the least m with w <= t 2^m
            j = _guess_cell(self.coeffs, a, b, d, m)
            if j is not None:
                lo, dm = (a << m) + j * (b - a), d << m
                hi = lo + b - a
                if ((j == 0 or _sign_at(self.coeffs, lo, dm) == -self.s_hi)
                        and (j == (1 << m) - 1 or _sign_at(self.coeffs, hi, dm) == self.s_hi)):
                    a, b, d = lo, hi, dm
        while (b - a) * eps.denominator > eps.numerator * d:
            mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
            s = _sign_at(self.coeffs, mid, d)
            if s == 0:
                a = b = mid
            elif s == self.s_hi:
                b = mid
            else:
                a = mid
        self.a, self.b, self.d = a, b, d

    def sector(self) -> int:
        """0 for t >= 0 (y in [0,1/2)), 1 for y = 1/2, 2 for t < 0 (y in (1/2,1))."""
        if self.at_half:
            return 1
        for e in range(8, 2001, 8):
            if self.a > 0 or self.b < 0:
                return 0 if self.a > 0 else 2
            if self.a == self.b:
                return 0  # exact root t = 0
            self.refine(Fraction(1, 2**e))
        raise RuntimeError("sector refinement failed")  # pragma: no cover

    def less_than(self, other: "CirclePoint") -> bool:
        """Strict cyclic-coordinate comparison; the points must be distinct."""
        sa, sb = self.sector(), other.sector()
        if sa != sb:
            return sa < sb
        if sa == 1:
            raise ValueError("comparing equal points at y = 1/2")
        for _ in range(4000):
            if self.b * other.d < other.a * self.d:
                return True
            if other.b * self.d < self.a * other.d:
                return False
            if self.a == self.b and other.a == other.b:
                raise ValueError("comparing equal points")
            # an exact point has width 0 and cannot shrink: refine the other
            eps = min(w for w in (self.width, other.width, Fraction(1, 4)) if w) / 4
            self.refine(eps)
            other.refine(eps)
        raise RuntimeError("comparison refinement failed")  # pragma: no cover


def _certified_sign(h: TrigPolynomial, p: CirclePoint) -> int:
    """Exact sign of the trig polynomial h at p; h(p) must be nonzero."""
    if p.at_half:
        v = h.at_half()
        if v == 0:
            raise ValueError("certified sign of a zero value")
        return 1 if v > 0 else -1
    num = _numerator_coeffs_cached(h)[0]
    eps = Fraction(1, 2**8)
    for _ in range(400):
        lo, hi, _den = eval_poly(num, p.a, p.b, p.d)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        p.refine(eps)
        eps /= 2**8
    raise RuntimeError("sign refinement failed")  # pragma: no cover


def _value_interval(h: TrigPolynomial, p: CirclePoint, eps: Fraction) -> Tuple[Fraction, Fraction]:
    """Certified enclosure (lo, hi) of h(p) with hi - lo <= eps."""
    if p.at_half:
        v = h.at_half()
        return v, v
    num, num_den = _numerator_coeffs_cached(h)
    k = h.max_harmonic
    target = p.width
    while True:
        # the interval (1 + t*t)^k on integer endpoints: with t = [a, b] / s,
        # 1 + t*t = [lo, hi] / s^2, and a positive lo makes the power endpointwise
        a, b, s = p.a, p.b, p.d
        sq = (a * a, a * b, b * b)
        lo, hi = s * s + min(sq), s * s + max(sq)
        if k and lo <= 0:
            raise ZeroDivisionError("interval contains zero")
        d_lo, d_hi = lo**k, hi**k
        # [v_lo, v_hi] / den over [d_lo, d_hi] / s^(2k) with 0 < d_lo <= d_hi:
        # each end of v goes over the end of d that keeps it extreme
        v_lo, v_hi, den = eval_poly(num, a, b, s)
        scale, den = s ** (2 * k), den * num_den
        lo = Fraction(v_lo * scale, den * (d_hi if v_lo >= 0 else d_lo))
        hi = Fraction(v_hi * scale, den * (d_lo if v_hi >= 0 else d_hi))
        if hi - lo <= eps:
            return lo, hi
        target /= 2**8
        p.refine(target)


def _dyadic(lo: Fraction, hi: Fraction) -> Fraction:
    """Deterministic rational representative of a certified enclosure.

    Rounds toward zero so that negating the enclosed value negates the
    representative; basis_rescale relies on this odd symmetry to be an
    exact involution."""
    if lo == hi:
        return lo
    scaled = (lo + hi) / 2 * _VALUE_GRID
    num = scaled.__floor__() if scaled >= 0 else -(-scaled).__floor__()
    return Fraction(num, _VALUE_GRID)


# ---------------------------------------------------------------------------
# critical sets
# ---------------------------------------------------------------------------


@dataclass
class CriticalPoint:
    label: int  # position in cyclic order
    index: int  # Morse index: 0 minimum, 1 maximum
    point: CirclePoint
    # the enclosure of t = tan(pi y) at isolation, width <= 2**-44; later
    # queries refine `point` in place, so y_interval reads this snapshot
    t_interval: Tuple[Fraction, Fraction]
    second_sign: int  # sign of f'' at the point

    @cached_property
    def y_interval(self) -> Tuple[Fraction, Fraction]:
        """Certified enclosure of y, width < 2**-40."""
        return _y_interval(self.point.at_half, *self.t_interval)


@dataclass
class CriticalSet:
    function: TrigPolynomial
    points: Tuple[CriticalPoint, ...]

    @property
    def minima(self) -> List[CriticalPoint]:
        return [p for p in self.points if p.index == 0]

    @property
    def maxima(self) -> List[CriticalPoint]:
        return [p for p in self.points if p.index == 1]

    def basis(self) -> GradedBasis:
        return GradedBasis(tuple((p.label, p.index) for p in self.points))


class NonMorseError(ValueError):
    pass


def _atan_bounds(n: int, d: int, p: int) -> Tuple[int, int]:
    """(lo, hi) around 2**p atan(n/d), 0 <= n/d <= 1/2, by the alternating series in
    fixed point: a floored power 2**p (n/d)**(2k+1) is short by < 4/3 (the shortfall
    shrinks by (n/d)**2 <= 1/4 a step), a term by < 7/3, the tail after power 0 by < 4/3."""
    power, s, k = (n << p) // d, 0, 0
    while power:
        s += (-1) ** k * (power // (2 * k + 1))
        power = power * n * n // (d * d)
        k += 1
    err = 3 * k + 2 if n else 0
    return s - err, s + err


def _y_interval(at_half: bool, t_lo: Fraction, t_hi: Fraction) -> Tuple[Fraction, Fraction]:
    """Certified rational interval for y in [0,1), width < 2**-40, via atan
    of a t-enclosure of width <= 2**-44."""
    if at_half:
        return (Fraction(1, 2), Fraction(1, 2))
    from decimal import ROUND_HALF_UP, Context, Decimal

    # each end is atan(t)/pi rounded half up to 30 significant digits, from
    # atan|t| = k pi/4 + sign atan(u), 0 <= u <= 1/2 (Brent, JACM 1976), and
    # Machin's pi = 16 atan(1/5) - 4 atan(1/239); the precision doubles until both
    # bounds round alike, as atan(t)/pi is irrational unless t is 0 or +-1 (u = 0)
    ctx = Context(prec=30, rounding=ROUND_HALF_UP)
    pis = {}  # p -> bounds on 2**p pi, shared by both ends
    vals = []
    for t in (t_lo, t_hi):
        n, d = abs(t.numerator), t.denominator
        if 2 * n <= d:
            k, sign, u = 0, 1, (n, d)
        elif n <= 2 * d:  # atan((|t| - 1) / (|t| + 1))
            k, sign, u = 1, 1 if n >= d else -1, (abs(n - d), n + d)
        else:  # pi/2 - atan(1 / |t|)
            k, sign, u = 2, -1, (d, n)
        p, digits = 128, set()
        while len(digits) != 1:
            if p not in pis:
                (f_lo, f_hi), (g_lo, g_hi) = _atan_bounds(1, 5, p), _atan_bounds(1, 239, p)
                pis[p] = 16 * f_lo - 4 * g_hi, 16 * f_hi - 4 * g_lo
            (a_lo, a_hi), (pi_lo, pi_hi) = _atan_bounds(*u, p), pis[p]
            digits = {ctx.divide(Decimal(k * pi + 4 * sign * a), Decimal(4 * pi))
                      for a, pi in ((a_lo, pi_hi), (a_hi, pi_lo))}  # k/4 + sign a/pi
            p *= 2
        vals.append(Fraction(digits.pop()) * (1 if t >= 0 else -1))
    pad = Fraction(1, 2**60)
    lo, hi = min(vals) - pad, max(vals) + pad
    if lo < 0 and hi < 0:
        lo, hi = lo + 1, hi + 1
    return (lo, hi)


@lru_cache(maxsize=_CACHE_SIZE)
def critical_points(f: TrigPolynomial) -> CriticalSet:
    """Certified isolation and classification of the critical points of f.

    Raises NonMorseError when a critical point has vanishing second
    derivative (certified double root of f').
    """
    if f.is_constant:
        raise ValueError("constant function has no Morse critical points")
    g1 = _dtheta_cached(f)
    g2 = _dtheta_cached(g1)
    p = _primitive(_numerator_coeffs_cached(g1)[0])
    if not p:
        raise ValueError("derivative vanishes identically")
    if _has_real_root(_gcd(p, _primitive(_numerator_coeffs_cached(g2)[0]))):
        raise NonMorseError("f' and f'' share a real root: non-Morse input")
    if g1.at_half() == 0 and g2.at_half() == 0:
        raise NonMorseError("double critical point at y = 1/2: non-Morse input")

    sqf = _sqf_part(p)
    # isolating intervals feed y_interval and the weights, and every later
    # refinement starts from them: the continued-fraction isolator above
    # gives sympy's Poly.intervals() intervals byte for byte
    pts: List[Tuple[int, CirclePoint]] = []
    for lo, hi in _isolate(sqf):
        cp = CirclePoint(sqf, lo, hi)
        s2 = _certified_sign(g2, cp)
        pts.append((s2, cp))
    if g1.at_half() == 0:
        v = g2.at_half()
        pts.append((1 if v > 0 else -1, CirclePoint.half()))

    # cyclic order on [0,1): t >= 0 ascending, then y = 1/2, then t < 0
    # ascending (isolating intervals are disjoint); labels are positions
    pts.sort(key=lambda q: (q[1].sector(), q[1].lo))
    crit = []
    for i, (s2, cp) in enumerate(pts):
        # every later enclosure starts from this refinement
        cp.refine(_POSITION_EPS)
        crit.append(CriticalPoint(label=i, index=0 if s2 > 0 else 1, point=cp,
                                  t_interval=(cp.lo, cp.hi), second_sign=s2))
    if any(c.index == crit[i - 1].index for i, c in enumerate(crit)):
        raise NonMorseError("critical points do not alternate min/max")
    return CriticalSet(f, tuple(crit))


# ---------------------------------------------------------------------------
# gradient flow queries
# ---------------------------------------------------------------------------


def _descent_direction(g: TrigPolynomial, p: CirclePoint) -> int:
    """+1 if g decreases in the positive direction at p (g not critical at p)."""
    return -_certified_sign(_dtheta_cached(g), p)


def _flow_target(crit: CriticalSet, p: CirclePoint, direction: int) -> CriticalPoint:
    """First critical point of crit met from p moving in the given direction."""
    below = sum(1 for c in crit.points if c.point.less_than(p))
    return crit.points[(below if direction > 0 else below - 1) % len(crit.points)]


@lru_cache(maxsize=_CACHE_SIZE)
def _certified_differences(f0: TrigPolynomial, f1: TrigPolynomial,
                           f2: TrigPolynomial) -> Tuple[TrigPolynomial, ...]:
    """The differences (f0-f1, f1-f2, f0-f2), certified once per triple.

    Raises ValueError (NonMorseError among them) unless each difference is
    Morse and no two of them share a critical point; an exception is not
    cached, so a refused triple is refused on every call."""
    gs = (f0 - f1, f1 - f2, f0 - f2)
    for g in gs:
        critical_points(g)
    for da, db in combinations([_dtheta_cached(g) for g in gs], 2):
        common = _gcd(*(_primitive(_numerator_coeffs_cached(g)[0]) for g in (da, db)))
        if _has_real_root(common) or (da.at_half() == 0 and db.at_half() == 0):
            raise ValueError("transversality failure: shared critical point")
    return gs


def _transversal_differences(f0: TrigPolynomial, f1: TrigPolynomial, f2: TrigPolynomial):
    """The certified differences and their critical sets.  The critical sets
    are looked up on every call, in the same order, so which cached point
    carries which refinement does not depend on the triple cache."""
    gs = _certified_differences(f0, f1, f2)
    return gs, tuple(critical_points(g) for g in gs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def morse_differential(f0: TrigPolynomial, f1: TrigPolynomial) -> MultilinearOp:
    """Differential on Hom(f0, f1): each minimum of f0-f1 maps to its left
    neighboring maximum minus its right neighboring maximum."""
    g = f0 - f1
    crit = critical_points(g)
    basis = crit.basis()
    n = len(crit.points)
    entries: Dict[Tuple, Dict] = {}
    for c in crit.minima:
        left = crit.points[(c.label - 1) % n]
        right = crit.points[(c.label + 1) % n]
        row: Dict = {}
        row[left.label] = row.get(left.label, 0) + 1
        row[right.label] = row.get(right.label, 0) - 1
        entries[(c.label,)] = row
    op = MultilinearOp(1, basis, basis, 1, entries)
    # d^2 = 0: the target of every entry has top degree, so one composition
    # step lands in the (empty) degree-2 part; check it anyway.
    for ins, row in op.entries.items():
        for out in row:
            if op.entries.get((out,)):
                raise RuntimeError("d^2 != 0")
    return op


def cohomology_ranks(op: MultilinearOp) -> Tuple[int, int]:
    """(rank H^0, rank H^1) of an arity-1 differential over Q."""
    mins = [l for l, d in op.source.elements if d == 0]
    maxs = [l for l, d in op.source.elements if d == 1]
    r = rank([[op.entries.get((m,), {}).get(x, 0) for m in mins] for x in maxs])
    return (len(mins) - r, len(maxs) - r)


# Signs of the three Y-tree shapes, one row each of the case table in m2.  A
# row names the slot of the internal vertex: a minimum x2 of g02 (shape
# (0,0) -> 0), a maximum x0 of g01 ((1,0) -> 1) or a maximum x1 of g12
# ((0,1) -> 1).  Each other arc leaves the vertex along the descent direction
# d of its difference there; the arc ends at the first critical point in
# direction d for an input arc and in -d for the output arc, which descends
# into the vertex.  A tree's sign is its row's constant times the two d's;
# the Leibniz relation for (d, m2) on random transversal triples singles out
# these constants up to a global flip (the calibration is re-checked in the
# tests).
_SIGN_MIN_MIN = 1
_SIGN_MAX_INPUT_0 = -1
_SIGN_MAX_INPUT_1 = -1


def _weight_scalar(
    cutoff: Optional[Fraction],
    gs: Sequence[TrigPolynomial],
    xs: Sequence[CriticalPoint],
) -> NovikovElem:
    """q^w for the total variation w = g02(x2) - g01(x0) - g12(x1) of a tree."""
    (g01, g12, g02), (x0, x1, x2) = gs, xs
    eps = _VALUE_EPS
    while True:
        (lo2, hi2), (lo0, hi0), (lo1, hi1) = (
            _value_interval(g02, x2.point, eps),
            _value_interval(g01, x0.point, eps),
            _value_interval(g12, x1.point, eps),
        )
        lo, hi = lo2 - hi0 - hi1, hi2 - lo0 - lo1
        if lo > 0 or hi < 0:
            break
        eps /= 2**8
    if hi < 0:
        raise RuntimeError("negative total variation in a gradient tree")
    return NovikovElem.q_power(_dyadic(lo, hi), 1, cutoff)


def m2(
    f0: TrigPolynomial,
    f1: TrigPolynomial,
    f2: TrigPolynomial,
    weighted: bool = False,
    cutoff=None,
) -> MultilinearOp:
    """Gradient-tree product Hom(f0,f1) x Hom(f1,f2) -> Hom(f0,f2).

    Configurations are Y-trees on the circle; on a 1-dimensional base the
    internal vertex is forced to coincide with the generator of top index
    (or with the output minimum when all indices are 0), so the counts
    reduce to certified arc queries.  Unweighted entries are exact
    integers; weighted entries are Novikov monomials q^w with w the total
    variation of the tree, certified to the 2**-42 dyadic grid.
    """
    if cutoff is not None:
        cutoff = Fraction(cutoff)
    gs, crits = _transversal_differences(f0, f1, f2)
    c01, c12, c02 = crits
    cases = ((2, c02.minima, _SIGN_MIN_MIN), (0, c01.maxima, _SIGN_MAX_INPUT_0),
             (1, c12.maxima, _SIGN_MAX_INPUT_1))
    entries: Dict[Tuple, Dict] = {}
    for vertex, vertices, case_sign in cases:
        for v in vertices:
            xs, sign = [v, v, v], case_sign
            for slot in range(3):
                if slot != vertex:
                    d = _descent_direction(gs[slot], v.point)
                    xs[slot] = _flow_target(crits[slot], v.point, -d if slot == 2 else d)
                    sign *= d
            x0, x1, x2 = xs  # the degrees of a tree add up
            if x0.index + x1.index != x2.index:
                raise RuntimeError("flow line ends at a critical point of the wrong index")
            scalar = _weight_scalar(cutoff, gs, xs) if weighted else 1
            row = entries.setdefault((x0.label, x1.label), {})
            row[x2.label] = row.get(x2.label, 0) + sign * scalar
    return MultilinearOp(2, c01.basis(), c02.basis(), 0, entries, check_degrees=False)


def transversal_triple(f0: TrigPolynomial, f1: TrigPolynomial, f2: TrigPolynomial) -> bool:
    """True iff the three pairwise differences are Morse with pairwise
    disjoint critical sets."""
    try:
        _transversal_differences(f0, f1, f2)
    except ValueError:
        return False
    return True


def basis_rescale(op: MultilinearOp, f_list: Sequence[TrigPolynomial], cutoff=None) -> MultilinearOp:
    """Conjugate a weighted operation by [y] -> [y] q^{-(f_i - f_j)(y)}.

    f_list are the objects (f_0, ..., f_n) for an arity-n operation; input
    slot i carries the difference f_i - f_{i+1} and the output carries
    f_0 - f_n.  Exponent values use the same certified dyadic evaluation as
    the weighted product, so rescaling with f and then -f is the identity.
    """
    n = op.arity
    if len(f_list) != n + 1:
        raise ValueError("need n+1 objects for an arity-n operation")
    diffs = [f_list[i] - f_list[i + 1] for i in range(n)]
    gout = f_list[0] - f_list[n]
    crits = [critical_points(g) for g in diffs]
    crit_out = critical_points(gout)
    if cutoff is not None:
        cutoff = Fraction(cutoff)

    def factor(g: TrigPolynomial, c: CriticalPoint, sign: int) -> NovikovElem:
        lo, hi = _value_interval(g, c.point, _VALUE_EPS)
        return NovikovElem.q_power(sign * _dyadic(lo, hi), 1, cutoff)

    entries: Dict[Tuple, Dict] = {}
    for ins, row in op.entries.items():
        scale_in = NovikovElem.one(cutoff)
        for slot, label in enumerate(ins):
            scale_in = scale_in * factor(diffs[slot], crits[slot].points[label], +1)
        new_row = {}
        for out, coeff in row.items():
            new_row[out] = coeff * scale_in * factor(gout, crit_out.points[out], -1)
        entries[ins] = new_row
    return MultilinearOp(
        op.arity, op.source, op.target, op.shift, entries, check_degrees=False
    )
