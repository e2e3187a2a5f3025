"""Field laws, valuation laws, and truncation laws for truncated Novikov
series, as hypothesis properties over exact elements with exponents in
[0, 10]; agreement of the integer representation with a reference model
that keeps (exponent, coefficient) Fraction pairs; byte pins of to_obj and
repr."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusmirror.novikov import INF, NovikovElem

exponents = st.fractions(min_value=0, max_value=10, max_denominator=8)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
elements = st.lists(st.tuples(exponents, coefficients), max_size=5).map(NovikovElem)
cutoffs = st.fractions(min_value=1, max_value=12, max_denominator=4)


# -- ring axioms (exact elements) -------------------------------------------


@given(elements, elements, elements)
def test_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(elements, elements, elements)
def test_multiplication_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(elements, elements, elements)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(elements)
def test_identities_and_inverse(a):
    assert a + NovikovElem.zero() == a
    assert a * NovikovElem.one() == a
    assert a + (-a) == NovikovElem.zero()
    assert a - a == NovikovElem.zero()
    assert a * NovikovElem.zero() == NovikovElem.zero()


# -- valuation laws -----------------------------------------------------------


@given(elements, elements)
def test_valuation_of_product(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).val() == INF
    else:
        assert (a * b).val() == a.val() + b.val()


@given(elements, elements)
def test_valuation_ultrametric(a, b):
    s = a + b
    if not s.is_zero():
        assert s.val() >= min(a.val(), b.val())
    if not a.is_zero() and not b.is_zero() and a.val() != b.val():
        assert s.val() == min(a.val(), b.val())


# -- truncation laws ----------------------------------------------------------


@given(elements, elements, cutoffs)
def test_truncation_is_additive_homomorphism(a, b, lam):
    assert a.truncate(lam) + b.truncate(lam) == (a + b).truncate(lam)


@given(elements, elements, cutoffs)
def test_truncation_is_multiplicative_homomorphism(a, b, lam):
    assert (a.truncate(lam) * b.truncate(lam)).truncate(lam) == (a * b).truncate(lam)


@given(elements, cutoffs, cutoffs)
def test_truncation_idempotent_and_monotone(a, lam, mu):
    assert a.truncate(lam).truncate(lam) == a.truncate(lam)
    assert a.truncate(lam).truncate(mu) == a.truncate(min(lam, mu))


@given(elements, cutoffs)
def test_truncated_inverse(a, lam):
    at = a.truncate(lam)
    if at.is_zero():
        with pytest.raises(ZeroDivisionError):
            at.inv()
        return
    prod = at * at.inv()
    assert prod == NovikovElem.one(prod.cutoff)
    # relative precision: Lambda - 2 val
    assert at.inv().cutoff == lam - 2 * at.val()


def test_exact_monomial_inverse_is_exact():
    a = NovikovElem.q_power(Fraction(3, 2), Fraction(2, 5))
    assert a * a.inv() == NovikovElem.one()
    assert a.inv().cutoff is None


def test_exact_non_monomial_inverse_refused():
    a = NovikovElem.one() + NovikovElem.q_power(1)
    with pytest.raises(ValueError):
        a.inv()


def test_integer_powers():
    a = NovikovElem.one(Fraction(10)) + NovikovElem.q_power(1, 1, Fraction(10))
    assert a**0 == NovikovElem.one()
    assert a**3 == a * a * a
    assert (a ** (-2)) * a * a == NovikovElem.one((a ** (-2) * a * a).cutoff)


def test_cutoff_propagation_rules():
    a = NovikovElem.q_power(2, 1, Fraction(7))
    b = NovikovElem.q_power(3, 1, Fraction(5))
    assert (a + b).cutoff == Fraction(5)
    # product: min(L_a + val(b), L_b + val(a))
    assert (a * b).cutoff == min(Fraction(7) + 3, Fraction(5) + 2)
    assert a.inv().cutoff == Fraction(7) - 4


def test_terms_at_or_above_cutoff_are_dropped():
    a = NovikovElem([(Fraction(1), 1), (Fraction(4), 2)], cutoff=Fraction(4))
    assert a.coeff(4) == 0
    assert a.terms == ((Fraction(1), Fraction(1)),)


# -- serialization ------------------------------------------------------------


@given(elements, st.one_of(st.none(), cutoffs))
def test_json_roundtrip(a, lam):
    a = a.truncate(lam)
    assert NovikovElem.from_obj(json.loads(a.to_json())) == a


def test_repr_mentions_cutoff():
    a = NovikovElem.q_power(Fraction(1, 2), 3, Fraction(5))
    assert "O(q^5)" in repr(a)


# -- reference model: Fraction pairs, merged, sorted and cut ------------------


def _min(a, b):
    return b if a is None else a if b is None else min(a, b)


class Model:
    def __init__(self, terms=(), cutoff=None):
        merged = {}
        for lam, c in terms:
            merged[Fraction(lam)] = merged.get(Fraction(lam), 0) + Fraction(c)
        self.cutoff = None if cutoff is None else Fraction(cutoff)
        self.terms = tuple(sorted((l, c) for l, c in merged.items()
                                  if c != 0 and (cutoff is None or l < cutoff)))

    def val(self):
        return self.terms[0][0] if self.terms else INF

    def __add__(self, o):
        return Model(self.terms + o.terms, _min(self.cutoff, o.cutoff))

    def __neg__(self):
        return Model([(l, -c) for l, c in self.terms], self.cutoff)

    def __mul__(self, o):  # min(L_x + val(y), L_y + val(x)); a truncated zero's val is its cutoff
        cands = [cut + (y.val() if y.terms else y.cutoff) for cut, y in ((self.cutoff, o), (o.cutoff, self))
                 if cut is not None and (y.terms or y.cutoff is not None)]
        prods = [(l1 + l2, c1 * c2) for l1, c1 in self.terms for l2, c2 in o.terms]
        return Model(prods, min(cands, default=None))

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** -n
        out, base = Model([(0, 1)]), self
        while n:
            out, base, n = (out * base if n & 1 else out), base * base, n >> 1
        return out

    def inv(self):  # finite cutoff: c0 q^v (1 + u) with a geometric series for 1 / (1 + u)
        (v, c0), rel = self.terms[0], self.cutoff - self.terms[0][0]
        u = Model([(l - v, c / c0) for l, c in self.terms[1:]], rel)
        acc = term = Model([(0, 1)], rel)
        k = 1
        while u.terms and k * u.val() < rel:
            term, acc, k = term * -u, acc + term * -u, k + 1
        return Model([(-v, 1 / c0)]) * acc

    def truncate(self, cutoff):
        return Model(self.terms, _min(self.cutoff, cutoff))

    def to_obj(self):
        cut = None if self.cutoff is None else [self.cutoff.numerator, self.cutoff.denominator]
        return {"terms": [[l.numerator, l.denominator, c.numerator, c.denominator]
                          for l, c in self.terms], "cutoff": cut}

    def __repr__(self):
        body = " + ".join(f"{c}*q^{l}" for l, c in self.terms) or "0"
        return f"Nov({body})" if self.cutoff is None else f"Nov({body} + O(q^{self.cutoff}))"


@st.composite
def pairs(draw):
    """The same element as a NovikovElem and as a Model; the cutoff may sit
    exactly on one of the exponents."""
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=5))
    on_term = st.sampled_from([l for l, _ in terms] or [Fraction(1)])
    cutoff = draw(st.one_of(st.none(), cutoffs, on_term))
    return NovikovElem(terms, cutoff), Model(terms, cutoff)


def agree(x, m):
    assert (x.terms, x.cutoff) == (m.terms, m.cutoff)
    assert x.to_obj() == m.to_obj() and repr(x) == repr(m)
    assert x.val() == m.val()
    if m.terms:
        assert x.leading() == m.terms[0]
    for l, c in m.terms + ((Fraction(1, 9), 0),):
        assert x.coeff(l) == dict(m.terms).get(l, 0)


@given(pairs(), pairs())
def test_arithmetic_agrees_with_the_fraction_model(p, r):
    (a, ma), (b, mb) = p, r
    agree(a, ma)
    agree(a + b, ma + mb)
    agree(a - b, ma + -mb)
    agree(-a, -ma)
    agree(a * b, ma * mb)
    for n in range(4):
        agree(a ** n, ma ** n)
    assert (a == b) == ((ma.terms, ma.cutoff) == (mb.terms, mb.cutoff))


@given(pairs(), pairs(), cutoffs)
def test_inverse_and_truncation_agree_with_the_fraction_model(p, r, lam):
    (a, ma), (b, mb) = p, r
    for l, _c in ma.terms + ((lam, 0),):  # cut exactly at each exponent, and at lam
        agree(a.truncate(l), ma.truncate(l))
    assert a.truncate(None) is a and a.truncate(a.cutoff) is a
    a, ma = a.truncate(lam), ma.truncate(lam)
    if a.is_zero():
        return
    agree(a.inv(), ma.inv())  # negative exponents from here on
    agree(a.inv() * b + b, ma.inv() * mb + mb)
    agree(a ** -2, ma ** -2)


@given(pairs(), pairs())
def test_equal_elements_hash_equal(p, r):
    (a, _), (b, _) = p, r
    x, y = (a + b) + (-b), a.truncate(b.cutoff)  # b's terms cancel
    assert x == y and hash(x) == hash(y)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    zero = NovikovElem([(l, c) for l, c in a.terms] + [(l, -c) for l, c in a.terms], a.cutoff)
    assert zero == NovikovElem.zero(a.cutoff) and hash(zero) == hash(NovikovElem.zero(a.cutoff))


def test_merged_denominators_are_reduced():
    a = NovikovElem([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(2, 3)), (Fraction(5, 6), 1)])
    b = NovikovElem.q_power(Fraction(5, 6)) - NovikovElem.q_power(Fraction(1, 6), 2)
    c = a - NovikovElem.q_power(Fraction(5, 6))
    assert c == NovikovElem.q_power(Fraction(1, 2)) and hash(c) == hash(NovikovElem.q_power(Fraction(1, 2)))
    assert a + b - b == a and hash(a + b - b) == hash(a)


# -- byte pins: the outputs of the Fraction-pair implementation ----------------


def test_serialization_bytes_are_pinned():
    dyadic = NovikovElem.q_power(Fraction(2**41 + 2**40 - 7, 2**41), 1, Fraction(10)) * NovikovElem.q_power(
        Fraction(-3, 2**42), 1, Fraction(10))
    assert dyadic.to_obj() == {"terms": [[6597069766639, 4398046511104, 1, 1]],
                               "cutoff": [43980465111037, 4398046511104]}
    assert repr(dyadic) == "Nov(1*q^6597069766639/4398046511104 + O(q^43980465111037/4398046511104))"
    inverse = NovikovElem([(Fraction(1, 2), 3), (Fraction(4, 3), Fraction(-1, 2)), (Fraction(5, 2), Fraction(2, 7))],
                          Fraction(6)).inv()
    assert inverse.to_obj() == {"terms": [
        [-1, 2, 1, 3], [1, 3, 1, 18], [7, 6, 1, 108], [3, 2, -2, 63], [2, 1, 1, 648], [7, 3, -2, 189],
        [17, 6, 1, 3888], [19, 6, -1, 378], [7, 2, 4, 1323], [11, 3, 1, 23328], [4, 1, -1, 1701],
        [13, 3, 2, 1323], [9, 2, 1, 139968], [29, 6, -5, 40824]], "cutoff": [5, 1]}
    assert repr(inverse) == (
        "Nov(1/3*q^-1/2 + 1/18*q^1/3 + 1/108*q^7/6 + -2/63*q^3/2 + 1/648*q^2 + -2/189*q^7/3"
        " + 1/3888*q^17/6 + -1/378*q^19/6 + 4/1323*q^7/2 + 1/23328*q^11/3 + -1/1701*q^4"
        " + 2/1323*q^13/3 + 1/139968*q^9/2 + -5/40824*q^29/6 + O(q^5))")
