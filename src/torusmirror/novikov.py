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
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Optional, Tuple

Q = Fraction

#: stand-in for +infinity valuations; compares correctly against Fractions.
INF = float("inf")


def _min_cutoff(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class NovikovElem:
    """A truncated formal series sum c_i q^{lambda_i} over the rationals."""

    __slots__ = ("terms", "cutoff")

    def __init__(
        self,
        terms: Iterable[Tuple[Fraction, Fraction]] = (),
        cutoff: Optional[Fraction] = None,
    ):
        merged: dict[Fraction, Fraction] = {}
        for lam, c in terms:
            lam = Fraction(lam)
            c = Fraction(c)
            merged[lam] = merged.get(lam, Fraction(0)) + c
        if cutoff is not None:
            cutoff = Fraction(cutoff)
        self.cutoff = cutoff
        self.terms = tuple(
            sorted(
                (lam, c)
                for lam, c in merged.items()
                if c != 0 and (cutoff is None or lam < cutoff)
            )
        )

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(cutoff: Optional[Fraction] = None) -> "NovikovElem":
        return NovikovElem((), cutoff)

    @staticmethod
    def one(cutoff: Optional[Fraction] = None) -> "NovikovElem":
        return NovikovElem([(Fraction(0), Fraction(1))], cutoff)

    @staticmethod
    def scalar(c, cutoff: Optional[Fraction] = None) -> "NovikovElem":
        return NovikovElem([(Fraction(0), Fraction(c))], cutoff)

    @staticmethod
    def q_power(a, coeff=1, cutoff: Optional[Fraction] = None) -> "NovikovElem":
        """The monomial  coeff * q^a."""
        return NovikovElem([(Fraction(a), Fraction(coeff))], cutoff)

    # -- basic queries -------------------------------------------------

    def val(self):
        """Smallest exponent present; +inf for the zero element."""
        return self.terms[0][0] if self.terms else INF

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, lam) -> Fraction:
        lam = Fraction(lam)
        for l, c in self.terms:
            if l == lam:
                return c
        return Fraction(0)

    def leading(self) -> Tuple[Fraction, Fraction]:
        if not self.terms:
            raise ValueError("zero element has no leading term")
        return self.terms[0]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "NovikovElem") -> "NovikovElem":
        other = _coerce(other)
        return NovikovElem(
            self.terms + other.terms, _min_cutoff(self.cutoff, other.cutoff)
        )

    __radd__ = __add__

    def __neg__(self) -> "NovikovElem":
        return NovikovElem([(l, -c) for l, c in self.terms], self.cutoff)

    def __sub__(self, other: "NovikovElem") -> "NovikovElem":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "NovikovElem":
        return _coerce(other) - self

    def __mul__(self, other) -> "NovikovElem":
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            cut = _product_cutoff(self, other)
            return NovikovElem.zero(cut)
        prods = [
            (l1 + l2, c1 * c2)
            for l1, c1 in self.terms
            for l2, c2 in other.terms
        ]
        return NovikovElem(prods, _product_cutoff(self, other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NovikovElem":
        if n < 0:
            return self.inv() ** (-n)
        out = NovikovElem.one(None)
        base = self
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
        new_cut = None if self.cutoff is None else self.cutoff - 2 * v
        if self.cutoff is None:
            # exact input: the geometric series may not terminate.  Invert a
            # monomial exactly, refuse otherwise.
            if len(self.terms) == 1:
                return NovikovElem([(-v, 1 / c0)], None)
            raise ValueError(
                "inverse of a non-monomial exact element is an infinite "
                "series; set a finite cutoff first"
            )
        # x = c0 q^v (1 + u),  val(u) > 0;  invert 1 + u geometrically.
        u = NovikovElem(
            [(l - v, c / c0) for l, c in self.terms[1:]], self.cutoff - v
        )
        rel = self.cutoff - v  # precision of the unit part
        acc = NovikovElem.one(rel)
        term = NovikovElem.one(rel)
        if not u.is_zero():
            uv = u.val()
            k = 1
            while k * uv < rel:
                term = term * (-u)
                acc = acc + term
                k += 1
        # cutoff of the product works out to rel - v = Lambda - 2v = new_cut
        return NovikovElem([(-v, 1 / c0)], None) * acc

    def truncate(self, cutoff: Optional[Fraction]) -> "NovikovElem":
        return NovikovElem(self.terms, _min_cutoff(self.cutoff, cutoff))

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (NovikovElem, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((self.terms, self.cutoff))

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    def to_obj(self):
        return {
            "terms": [
                [l.numerator, l.denominator, c.numerator, c.denominator]
                for l, c in self.terms
            ],
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

    @staticmethod
    def from_json(s: str) -> "NovikovElem":
        return NovikovElem.from_obj(json.loads(s))

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"{c}*q^{l}" for l, c in self.terms)
        if self.cutoff is not None:
            body += f" + O(q^{self.cutoff})"
        return f"Nov({body})"


def _coerce(x) -> NovikovElem:
    if isinstance(x, NovikovElem):
        return x
    if isinstance(x, (int, Fraction)):
        return NovikovElem.scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to NovikovElem")


def _effective_val(x: NovikovElem):
    """A lower bound on the valuation valid for the full (untruncated) element."""
    if x.terms:
        return x.val()
    return x.cutoff if x.cutoff is not None else INF


def _product_cutoff(x: NovikovElem, y: NovikovElem) -> Optional[Fraction]:
    cands = []
    if x.cutoff is not None:
        vy = _effective_val(y)
        cands.append(None if vy == INF else x.cutoff + vy)
    if y.cutoff is not None:
        vx = _effective_val(x)
        cands.append(None if vx == INF else y.cutoff + vx)
    cands = [c for c in cands if c is not None]
    return min(cands) if cands else None
