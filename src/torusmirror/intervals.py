"""Certified interval Horner evaluation on integer endpoints.

Used to evaluate polynomials with rational coefficients at algebraic points
known by isolating intervals; all endpoint arithmetic is exact integer
arithmetic, so enclosures are rigorous without rounding-mode concerns.
"""

from __future__ import annotations

from math import lcm
from typing import Tuple


def eval_poly(coeffs, a: int, b: int, d: int) -> Tuple[int, int, int]:
    """Horner enclosure of the values of a polynomial with rational coefficients
    (descending degree order) on [a/d, b/d], a <= b, d > 0, as integers
    (lo, hi, den) with den > 0: the enclosure is [lo/den, hi/den].

    With the coefficients over their common denominator q, the accumulator
    after step i is the interval Horner value times q d^i, and positive
    scaling commutes with the min/max of the interval product, so the
    endpoints are exactly those of the step-by-step rational evaluation.
    """
    q = lcm(*(c.denominator for c in coeffs))
    lo = hi = 0
    power = 1  # d^i
    for c in coeffs:
        prods = (lo * a, lo * b, hi * a, hi * b)
        c = c.numerator * (q // c.denominator) * power
        lo, hi = min(prods) + c, max(prods) + c
        power *= d
    return lo, hi, q * d ** max(len(coeffs) - 1, 0)
