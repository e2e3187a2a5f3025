"""Field laws, valuation laws, and truncation laws for truncated Novikov
series, as hypothesis properties over exact elements with exponents in
[0, 10]."""

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
    assert NovikovElem.from_json(a.to_json()) == a


def test_repr_mentions_cutoff():
    a = NovikovElem.q_power(Fraction(1, 2), 3, Fraction(5))
    assert "O(q^5)" in repr(a)
