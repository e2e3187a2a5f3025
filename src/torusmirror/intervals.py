"""Interval arithmetic with exact rational endpoints.

Used for certified evaluation of polynomials and rational functions at
algebraic points known by isolating intervals; all endpoint arithmetic is
exact, so enclosures are rigorous without rounding-mode concerns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("inverted interval")

    @staticmethod
    def point(x) -> "Interval":
        x = Fraction(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(prods), max(prods))

    def inverse(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "Interval") -> "Interval":
        return self * other.inverse()

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self) -> int:
        """+1, -1, or 0 when the interval does not exclude zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0


def eval_poly(coeffs, x: Interval) -> Interval:
    """Horner evaluation of a polynomial with rational coefficients.

    coeffs are in descending degree order.  The steps run on integer
    numerators: with the coefficients over their common denominator q and
    the endpoints over theirs, d, the accumulator after step i is the
    interval Horner value times q d^i, and positive scaling commutes with
    the min/max of the interval product, so the endpoints are exactly those
    of the step-by-step rational evaluation.
    """
    q = lcm(*(c.denominator for c in coeffs))
    d = lcm(x.lo.denominator, x.hi.denominator)
    xl, xh = x.lo.numerator * (d // x.lo.denominator), x.hi.numerator * (d // x.hi.denominator)
    lo = hi = 0
    power = 1  # d^i
    for c in coeffs:
        prods = (lo * xl, lo * xh, hi * xl, hi * xh)
        c = c.numerator * (q // c.denominator) * power
        lo, hi = min(prods) + c, max(prods) + c
        power *= d
    den = q * d ** max(len(coeffs) - 1, 0)
    return Interval(Fraction(lo, den), Fraction(hi, den))
