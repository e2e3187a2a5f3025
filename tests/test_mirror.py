"""Non-archimedean mirror side: Laurent series, theta bases,
theta multiplication, and the exact comparison oracle."""

import itertools
from fractions import Fraction

import pytest

from torusmirror import cli, mirror
from torusmirror.fukaya_oh import AffineLagrangian
from torusmirror.lattice import mat_inv, quad_form, vec, vec_sub
from torusmirror.mirror import (
    LaurentSeriesNd,
    LineBundleObj,
    ThetaSolveError,
    compare_tables,
    mirror_compare,
    theta_basis,
    theta_multiply,
    triangle_product_table,
    unit_bundle,
)
from torusmirror.novikov import NovikovElem


def line(slope, shift=0, holonomy=1):
    return AffineLagrangian(
        ((Fraction(slope),),), (Fraction(shift),), (Fraction(holonomy),)
    )


# -- Laurent series ------------------------------------------------------------


def test_laurent_series_merges_and_validates():
    a = NovikovElem.q_power(1)
    s = LaurentSeriesNd(1, (((2,), a),))
    assert s.terms == (((2,), a),)
    with pytest.raises(ValueError):
        LaurentSeriesNd(1, (((2,), a), ((2,), a)))  # duplicate exponent
    with pytest.raises(ValueError):
        LaurentSeriesNd(1, (((2, 1), a),))  # dimension mismatch


def test_laurent_multiplication_adds_exponents():
    a = NovikovElem.q_power(1)
    s = LaurentSeriesNd(1, (((1,), a), ((-1,), a)))
    p = s.multiply(s)
    assert dict(p.terms) == {(-2,): a * a, (0,): a * a + a * a, (2,): a * a}


# -- theta bases ---------------------------------------------------------------


def test_theta_basis_rank_equals_slope_determinant():
    e = LineBundleObj(line(3))
    assert e.rank_of_sections == 3
    basis = theta_basis(e, Fraction(5))
    assert len(basis.sections) == 3
    for j, s in basis.sections:
        lead = min(a.val() for _, a in s.terms)
        assert lead >= 0


def test_bundle_requires_positive_definite_slope():
    with pytest.raises(ValueError):
        LineBundleObj(line(-1))
    with pytest.raises(ValueError):
        LineBundleObj(line(0, shift=Fraction(1, 2)))
    assert unit_bundle(1).is_unit
    assert unit_bundle(1).rank_of_sections == 1


def test_tensor_adds_slopes_and_shifts():
    e = LineBundleObj(line(1, shift=Fraction(1, 2))).tensor(LineBundleObj(line(2)))
    assert e.lagrangian.slope == ((Fraction(3),),)
    assert e.lagrangian.shift == (Fraction(1, 2),)


def test_unit_multiplication_is_identity():
    e = LineBundleObj(line(2))
    table = theta_multiply(unit_bundle(1), e, Fraction(4))
    for (j1, j2, j3), c in table.coefficients:
        want = NovikovElem.one(Fraction(4)) if j2 == j3 else NovikovElem.zero(Fraction(4))
        assert c == want


def test_theta_products_of_slope_one_are_jacobi_theta_constants():
    """theta * theta for slope 1 in the slope-2 basis: sum over s = m1 + m2
    of q^{(m1^2 + m2^2)/2} = q^{s^2/4} q^{(m1 - m2)^2/4}, so the
    coefficients are theta_3(q) and theta_2(q) in Jacobi's notation."""
    cut = Fraction(10)
    theta3 = NovikovElem([(0, 1), (1, 2), (4, 2), (9, 2)], cut)
    theta2 = NovikovElem([(Fraction(1, 4), 2), (Fraction(9, 4), 2), (Fraction(25, 4), 2)], cut)
    e = LineBundleObj(line(1))
    table = theta_multiply(e, e, cut)
    assert dict(table.coefficients) == {((0,), (0,), (0,)): theta3, ((0,), (0,), (1,)): theta2}

    # slope I_2 splits into two slope-1 factors, so every 2D coefficient is
    # the truncated product of two 1D ones
    e2 = LineBundleObj(AffineLagrangian(((1, 0), (0, 1)), (0, 0)))
    table2 = dict(theta_multiply(e2, e2, cut).coefficients)
    jacobi = {0: theta3, 1: theta2}
    assert table2 == {
        ((0, 0), (0, 0), (a, b)): (jacobi[a] * jacobi[b]).truncate(cut)
        for a in (0, 1)
        for b in (0, 1)
    }


def test_theta_consistency_check_catches_a_wrong_leading_weight(monkeypatch):
    """Negative control: with every w* raised by 1/2 the solved coefficients
    no longer reproduce the product, and the solve reports a larger cutoff."""
    minimum = mirror._coset_minimum

    def raised(*args):
        s, w = minimum(*args)
        return s, w + Fraction(1, 2)

    monkeypatch.setattr(mirror, "_coset_minimum", raised)
    cut = Fraction(10)
    with pytest.raises(ThetaSolveError) as err:
        theta_multiply(LineBundleObj(line(1)), LineBundleObj(line(2)), cut)
    assert err.value.required_cutoff > cut
    rep = cli.cmd_mirror([Fraction(0), Fraction(1), Fraction(3)], [Fraction(0)] * 3, cut)
    assert rep.status == "ERROR"
    assert "retry with cutoff >=" in rep.payload["error"]


@pytest.mark.parametrize(
    "slope, shift",
    [
        (((5,),), (Fraction(1, 3),)),
        (((2, 1), (1, 3)), (Fraction(1, 2), Fraction(-2, 5))),
        (((2, 1, 0), (1, 3, 1), (0, 1, 4)), (Fraction(1, 3), Fraction(0), Fraction(3, 4))),
    ],
)
def test_integer_target_weight_is_the_fraction_quadratic_form(slope, shift):
    """The consistency check's w(s), an integer numerator over one denominator,
    is (1/2)(s - c)^T Gamma^{-1} (s - c) evaluated in Fractions."""
    ginv = mat_inv(slope)
    num, den = mirror._weight_numerator(ginv, shift)
    for s in itertools.product(range(-3, 4), repeat=len(shift)):
        assert Fraction(num(s), den) == Fraction(1, 2) * quad_form(ginv, vec_sub(vec(s), shift))


def test_theta_coefficient_bytes_are_pinned():
    """A shifted 1D coefficient serializes as it did with Fraction pairs."""
    e1 = LineBundleObj(AffineLagrangian(((2,),), (Fraction(1, 3),)))
    e2 = LineBundleObj(AffineLagrangian(((3,),), (Fraction(1, 4),)))
    c = dict(theta_multiply(e1, e2, 6).coefficients)[(0,), (0,), (1,)]
    assert c.to_obj() == {"terms": [[125, 48, 1, 1], [245, 48, 1, 1]], "cutoff": [6, 1]}
    assert repr(c) == "Nov(1*q^125/48 + 1*q^245/48 + O(q^6))"


# -- comparison ----------------------------------------------------------------


def test_compare_tables_reports_first_discrepancy():
    cut = Fraction(5)
    a = {("x",): NovikovElem.q_power(1, 1, cut)}
    assert compare_tables(a, dict(a), cut).equal
    b = {("x",): NovikovElem.q_power(1, 2, cut)}
    rep = compare_tables(a, b, cut)
    assert rep.status == "DIFFER"
    key, lhs, rhs = rep.first_discrepancy
    assert key == ("x",) and lhs != rhs


def test_mirror_comparison_on_a_convex_triple():
    rep = mirror_compare(line(0), line(1), line(3), Fraction(12))
    assert rep.equal
    # one (0,1)-point, two (1,3)-points, three (0,3)-targets per product
    table = triangle_product_table(line(0), line(1), line(3), Fraction(12))
    assert len(table) == 1 * 2 * 3


def test_mirror_comparison_2d():
    zero = AffineLagrangian(((0, 0), (0, 0)), (0, 0))
    one = AffineLagrangian(((1, 0), (0, 1)), (0, 0))
    two = AffineLagrangian(((2, 0), (0, 2)), (0, 0))
    rep = mirror_compare(zero, one, two, Fraction(6))
    assert rep.equal


def sections(slopes, shifts):
    return [AffineLagrangian(a, b) for a, b in zip(slopes, shifts)]


def test_mirror_comparison_2d_off_diagonal_with_shifts():
    """A non-diagonal slope and rational shifts in both coordinates: a theta
    section that steps through its coset in the wrong coordinate order fails
    here, though it passes on diagonal slopes with zero shifts."""
    ls = sections(
        (((0, 0), (0, 0)), ((1, 0), (0, 1)), ((3, 1), (1, 2))),
        ((0, 0), (Fraction(1, 3), 0), (0, Fraction(1, 2))),
    )
    rep = mirror_compare(*ls, Fraction(6))
    assert rep.equal
    assert len(rep.triangle_table) == len(rep.theta_table) == 5


def test_mirror_comparison_3d_off_diagonal_with_shifts():
    ls = sections(
        (((0, 0, 0), (0, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
         ((3, 1, 0), (1, 3, 1), (0, 1, 3))),
        ((0, 0, 0), (Fraction(1, 2), 0, Fraction(1, 3)), (0, Fraction(1, 5), 0)),
    )
    rep = mirror_compare(*ls, Fraction(4))
    assert rep.equal
    assert len(rep.triangle_table) == len(rep.theta_table) == 84


def test_mirror_comparison_preconditions():
    with pytest.raises(ValueError, match="non-transversal"):
        mirror_compare(line(0), line(1), line(1), 10)
    with pytest.raises(ValueError, match="convex"):
        mirror_compare(line(0), line(2), line(1), 10)
    with pytest.raises(ValueError, match="holonomy"):
        mirror_compare(line(0), line(1, holonomy=2), line(2), 10)
