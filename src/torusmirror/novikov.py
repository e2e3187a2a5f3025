"""Exact truncated Novikov series.

Elements are finite sums  sum_i  c_i * q^{lambda_i}  with rational
coefficients c_i and rational exponents lambda_i, where q stands for the
formal symbol e^{-1/eps}.  Each element carries a *cutoff* Lambda: the
element is only known modulo terms q^{lambda} with lambda >= Lambda.  A
cutoff of ``None`` means the element is exact (known to all orders).

Cutoffs propagate pessimistically:

* addition:        min(L_x, L_y)
* multiplication:  min(L_x + val(y), L_y + val(x))
* inversion:       L_x - 2 val(x)

The valuation ``val`` is the smallest exponent with nonzero coefficient
(+infinity for 0).

An element stores integers: an exponent denominator E, a coefficient
denominator C and the pairs (e_i, k_i) sorted by e_i, with lambda_i = e_i / E
and c_i = k_i / C, beside the cutoff as a ``Fraction``.  The pairs are kept in
lowest terms, gcd(E, e_1, ..., e_r) = gcd(C, k_1, ..., k_r) = 1 (so E = C = 1
for zero), as rationals are kept by gcd (Knuth, TAOCP vol. 2, 4.5.1).  Every
element thus has one representation, which ``__eq__`` and ``__hash__`` read.
Arithmetic runs on the integers; ``terms`` gives the pairs as Fractions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Tuple

#: stand-in for +infinity valuations; compares correctly against Fractions.
INF = float("inf")


def _min_cutoff(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    return b if a is None else a if b is None else min(a, b)


def _raw(E: int, C: int, t: tuple, cutoff: Optional[Fraction]) -> "NovikovElem":
    out = object.__new__(NovikovElem)
    out._e, out._c, out._t, out.cutoff = E, C, t, cutoff
    return out


def _new(E: int, C: int, rows: dict, cutoff) -> "NovikovElem":
    """The element with integer pairs {e: k} over E and C, cut and put in lowest terms."""
    if cutoff is not None and not isinstance(cutoff, Fraction):
        cutoff = Fraction(cutoff)
    top = INF if cutoff is None else -(-cutoff.numerator * E // cutoff.denominator)
    t = [(e, rows[e]) for e in sorted(rows) if e < top and rows[e]]  # e / E < cutoff iff e < top
    if not t:
        return _raw(1, 1, (), cutoff)
    es, ks = zip(*t)
    g, h = gcd(E, *es), gcd(C, *ks)
    if g > 1 or h > 1:
        E, C, t = E // g, C // h, [(e // g, k // h) for e, k in t]
    return _raw(E, C, tuple(t), cutoff)


def _monomial(a, coeff, cutoff) -> "NovikovElem":
    """coeff q^a: a Fraction is in lowest terms already, so no gcd is taken."""
    a, coeff = Fraction(a), Fraction(coeff)
    cutoff = None if cutoff is None else Fraction(cutoff)
    if coeff == 0 or (cutoff is not None and a >= cutoff):
        return _raw(1, 1, (), cutoff)
    return _raw(a.denominator, coeff.denominator, ((a.numerator, coeff.numerator),), cutoff)


class NovikovElem:
    """A truncated formal series sum c_i q^{lambda_i} over the rationals."""

    __slots__ = ("_e", "_c", "_t", "cutoff")

    def __init__(self, terms: Iterable[Tuple[Fraction, Fraction]] = (), cutoff: Optional[Fraction] = None):
        merged: dict = {}
        for lam, c in terms:
            lam = Fraction(lam)
            merged[lam] = merged.get(lam, 0) + Fraction(c)
        E = lcm(*(lam.denominator for lam in merged))
        x = NovikovElem._over({l.numerator * (E // l.denominator): c for l, c in merged.items()}, E, cutoff)
        self._e, self._c, self._t, self.cutoff = x._e, x._c, x._t, x.cutoff

    @staticmethod
    def _over(rows: dict, den: int, cutoff=None) -> "NovikovElem":
        """Package-private: the sum of c q^(e/den) over rows {integer e: int or
        Fraction c}, truncated at the cutoff."""
        C = lcm(*(c.denominator for c in rows.values()))
        return _new(den, C, {e: c.numerator * (C // c.denominator) for e, c in rows.items()}, cutoff)

    @property
    def terms(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        """The (exponent, coefficient) pairs as Fractions, by increasing exponent."""
        return tuple((Fraction(e, self._e), Fraction(k, self._c)) for e, k in self._t)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(cutoff: Optional[Fraction] = None) -> "NovikovElem":
        return _monomial(0, 0, cutoff)

    @staticmethod
    def one(cutoff: Optional[Fraction] = None) -> "NovikovElem":
        return _monomial(0, 1, cutoff)

    @staticmethod
    def scalar(c, cutoff: Optional[Fraction] = None) -> "NovikovElem":
        return _monomial(0, c, cutoff)

    @staticmethod
    def q_power(a, coeff=1, cutoff: Optional[Fraction] = None) -> "NovikovElem":
        """The monomial  coeff * q^a."""
        return _monomial(a, coeff, cutoff)

    # -- basic queries -------------------------------------------------

    def val(self):
        """Smallest exponent present; +inf for the zero element."""
        return Fraction(self._t[0][0], self._e) if self._t else INF

    def is_zero(self) -> bool:
        return not self._t

    def coeff(self, lam) -> Fraction:
        lam = Fraction(lam)
        return next((c for l, c in self.terms if l == lam), Fraction(0))

    def leading(self) -> Tuple[Fraction, Fraction]:
        if not self._t:
            raise ValueError("zero element has no leading term")
        e, k = self._t[0]
        return Fraction(e, self._e), Fraction(k, self._c)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "NovikovElem") -> "NovikovElem":
        other = _coerce(other)
        E, C = lcm(self._e, other._e), lcm(self._c, other._c)
        rows: dict = {}
        for x in (self, other):
            s, u = E // x._e, C // x._c
            for e, k in x._t:
                rows[e * s] = rows.get(e * s, 0) + k * u
        return _new(E, C, rows, _min_cutoff(self.cutoff, other.cutoff))

    __radd__ = __add__

    def __neg__(self) -> "NovikovElem":
        return _raw(self._e, self._c, tuple((e, -k) for e, k in self._t), self.cutoff)

    def __sub__(self, other: "NovikovElem") -> "NovikovElem":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "NovikovElem":
        return _coerce(other) - self

    def __mul__(self, other) -> "NovikovElem":
        other = _coerce(other)
        cut = _product_cutoff(self, other)
        E = lcm(self._e, other._e)
        s, right = E // self._e, [(e * (E // other._e), k) for e, k in other._t]
        top = INF if cut is None else -(-cut.numerator * E // cut.denominator)
        rows: dict = {}
        for e1, k1 in self._t:
            e1 *= s
            for e2, k2 in right:  # by increasing exponent: the rest is cut too
                if e1 + e2 >= top:
                    break
                rows[e1 + e2] = rows.get(e1 + e2, 0) + k1 * k2
        return _new(E, self._c * other._c, rows, cut)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NovikovElem":
        if n < 0:
            return self.inv() ** (-n)
        out, base = NovikovElem.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inv(self) -> "NovikovElem":
        """Multiplicative inverse as a truncated geometric series.

        The result cutoff is  Lambda - 2 val(x):  relative precision of x
        is Lambda - val(x), and the inverse has valuation -val(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert (truncated) zero")
        v, c0 = self.leading()
        if self.cutoff is None:
            # exact input: the geometric series may not terminate.  Invert a
            # monomial exactly, refuse otherwise.
            if len(self._t) == 1:
                return _monomial(-v, 1 / c0, None)
            raise ValueError(
                "inverse of a non-monomial exact element is an infinite "
                "series; set a finite cutoff first"
            )
        # x = c0 q^v (1 + u),  val(u) > 0;  invert 1 + u geometrically.
        (e0, k0), rest = self._t[0], self._t[1:]
        u = _new(self._e, abs(k0), {e - e0: k if k0 > 0 else -k for e, k in rest}, self.cutoff - v)
        rel = self.cutoff - v  # precision of the unit part
        acc = term = NovikovElem.one(rel)
        if not u.is_zero():
            uv, k = u.val(), 1
            while k * uv < rel:
                term = term * (-u)
                acc = acc + term
                k += 1
        # cutoff of the product works out to rel - v = Lambda - 2v = new_cut
        return _monomial(-v, 1 / c0, None) * acc

    def truncate(self, cutoff: Optional[Fraction]) -> "NovikovElem":
        cut = _min_cutoff(self.cutoff, cutoff)
        if cut == self.cutoff:
            return self
        return _new(self._e, self._c, dict(self._t), cut)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (NovikovElem, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return (self._t, self._e, self._c, self.cutoff) == (other._t, other._e, other._c, other.cutoff)

    def __hash__(self):
        return hash((self._t, self._e, self._c, self.cutoff))

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    def to_obj(self):
        E, C = self._e, self._c
        return {
            "terms": [[e // gcd(e, E), E // gcd(e, E), k // gcd(k, C), C // gcd(k, C)] for e, k in self._t],
            "cutoff": None
            if self.cutoff is None
            else [self.cutoff.numerator, self.cutoff.denominator],
        }

    @staticmethod
    def from_obj(obj) -> "NovikovElem":
        cut = obj.get("cutoff")
        return NovikovElem(
            [(Fraction(ln, ld), Fraction(cn, cd)) for ln, ld, cn, cd in obj["terms"]],
            None if cut is None else Fraction(cut[0], cut[1]),
        )

    def __repr__(self):
        body = " + ".join(f"{c}*q^{l}" for l, c in self.terms) or "0"
        if self.cutoff is not None:
            body += f" + O(q^{self.cutoff})"
        return f"Nov({body})"


def _coerce(x) -> NovikovElem:
    if isinstance(x, NovikovElem):
        return x
    if isinstance(x, (int, Fraction)):
        return _monomial(0, x, None)
    raise TypeError(f"cannot coerce {type(x).__name__} to NovikovElem")


def _product_cutoff(x: NovikovElem, y: NovikovElem) -> Optional[Fraction]:
    """min(L_x + val(y), L_y + val(x)) as one Fraction, where a truncated zero has
    valuation at least its cutoff and an exact zero bounds nothing."""
    best = None
    for cut, o in ((x.cutoff, y), (y.cutoff, x)):
        if cut is not None and (o._t or o.cutoff is not None):
            n, d = (o._t[0][0], o._e) if o._t else (o.cutoff.numerator, o.cutoff.denominator)
            c = (cut.numerator * d + n * cut.denominator, cut.denominator * d)
            best = c if best is None or c[0] * best[1] < best[0] * c[1] else best
    return None if best is None else Fraction(*best)
