"""Non-archimedean mirror side: Laurent series, theta bases,
theta multiplication, and the exact comparison oracle."""

import itertools
import json
from fractions import Fraction
from math import ceil, lcm

import pytest

from torusmirror import cli, mirror
from torusmirror.fukaya_oh import AffineLagrangian
from torusmirror.lattice import (
    coset_representatives,
    hnf,
    lattice_points,
    mat_inv,
    mat_vec,
    vec,
    vec_sub,
)
from torusmirror.mirror import (
    LaurentSeriesNd,
    LineBundleObj,
    ThetaSolveError,
    compare_tables,
    mirror_compare,
    theta_basis,
    theta_multiply,
    triangle_product_table,
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
    with pytest.raises(ValueError):
        LineBundleObj(line(0))  # the zero slope has no theta basis either


def test_tensor_adds_slopes_and_shifts():
    e = LineBundleObj(line(1, shift=Fraction(1, 2))).tensor(LineBundleObj(line(2)))
    assert e.lagrangian.slope == ((Fraction(3),),)
    assert e.lagrangian.shift == (Fraction(1, 2),)


def test_theta_products_of_slope_one_are_jacobi_theta_constants():
    """theta * theta for slope 1 in the slope-2 basis: sum over s = m1 + m2
    of q^{(m1^2 + m2^2)/2} = q^{s^2/4} q^{(m1 - m2)^2/4}, so the
    coefficients are theta_3(q) and theta_2(q) in Jacobi's notation."""
    cut = Fraction(10)
    theta3 = NovikovElem([(0, 1), (1, 2), (4, 2), (9, 2)], cut)
    theta2 = NovikovElem([(Fraction(1, 4), 2), (Fraction(9, 4), 2), (Fraction(25, 4), 2)], cut)
    e = LineBundleObj(line(1))
    table = theta_multiply(e, e, cut)
    assert table == {((0,), (0,), (0,)): theta3, ((0,), (0,), (1,)): theta2}

    # slope I_2 splits into two slope-1 factors, so every 2D coefficient is
    # the truncated product of two 1D ones
    e2 = LineBundleObj(AffineLagrangian(((1, 0), (0, 1)), (0, 0)))
    table2 = theta_multiply(e2, e2, cut)
    jacobi = {0: theta3, 1: theta2}
    assert table2 == {
        ((0, 0), (0, 0), (a, b)): (jacobi[a] * jacobi[b]).truncate(cut)
        for a in (0, 1)
        for b in (0, 1)
    }


def quad_form(a, x):
    return sum(xi * yi for xi, yi in zip(x, mat_vec(a, x)))


def theta_weight(ainv, center, m):
    return Fraction(1, 2) * quad_form(ainv, vec_sub(m, center))


def coset_points(a, ainv, center, j, bound):
    """Denominator D and the (m, D w(m)) with m = j + A t and w(m) < bound, t in the
    kernel's order: w(j + A t) = (1/2) t^T A t + t . (j - center) + w(j), one rational
    lattice_points call per coset."""
    den, points = lattice_points(a, vec_sub(vec(j), center), theta_weight(ainv, center, vec(j)),
                                 bound)
    return den, [(tuple(x + sum(r * y for r, y in zip(row, t)) for x, row in zip(j, a)), w)
                 for t, w in points]


def coset_minimum(a, ainv, center, j):
    """Representative s = j mod A of least weight, as a Fraction: the bound doubles until
    some point of the coset falls below it; of equal minima, the first in t order wins."""
    bound = Fraction(1)
    while True:
        den, points = coset_points(a, ainv, center, j, bound)
        if points:
            s, w = min(points, key=lambda p: p[1])
            return s, Fraction(w, den)
        bound *= 2


def reference_sections(e, cutoff, den):
    """The sections of e below the cutoff as (j, [(m, den w(m))]), coset by coset."""
    a = e.lagrangian.slope
    ainv = mat_inv(a)
    out = []
    for j in coset_representatives(a):
        d, points = coset_points(a, ainv, e.lagrangian.shift, j, cutoff)
        out.append((j, sorted(((m, w * (den // d)) for m, w in points), key=lambda p: p[1])))
    return out


def reference_theta_multiply(e1, e2, cutoff, rows=None):
    """theta_multiply's product, solve and check as a loop over term pairs into
    dicts {s: {L w: count}}, the model its packed-int convolution must match
    byte for byte; rows, if given, receives each pair's product table.  Its
    sections and minima come from one rational lattice_points call per coset
    (coset_points above), not from the module's kernel calls; the target weight
    is read through mirror._weight_numerator, so a monkeypatch reaches both."""
    cutoff = Fraction(cutoff)
    e3 = e1.tensor(e2)
    gamma = e3.lagrangian.slope
    ginv = mat_inv(gamma)
    c3 = e3.lagrangian.shift
    gamma_h = hnf(gamma)
    target_cosets = coset_representatives(gamma)
    minima = {j3: coset_minimum(gamma, ginv, c3, j3) for j3 in target_cosets}
    internal = cutoff + max(w for _s, w in minima.values()) + 1
    den = lcm(mirror._grid(e1), mirror._grid(e2), mirror._grid(e3),
              *(w.denominator for _s, w in minima.values()))
    sections1, sections2 = reference_sections(e1, internal, den), reference_sections(e2, internal, den)
    top, low = ceil(internal * den), ceil(cutoff * den)
    stars = {j3: (s, int(w * den)) for j3, (s, w) in minima.items()}
    wnum, wden = mirror._weight_numerator(gamma, c3)
    target = {}
    coeffs = {}
    for j1, sec1 in sections1:
        for j2, sec2 in sections2:
            prod = {}
            for m1, w1 in sec1:
                for m2, w2 in sec2:
                    row = prod.setdefault(tuple(x + y for x, y in zip(m1, m2)), {})
                    w = w1 + w2
                    if w < top:
                        row[w] = row.get(w, 0) + 1
            if rows is not None:
                rows.append(prod)
            solved = {}
            for j3, (s_star, w_star) in stars.items():
                solved[j3] = {l - w_star: c for l, c in prod.get(s_star, {}).items()}
            for s in sorted(prod):
                if s not in target:
                    wl, r = divmod(wnum(s) * den, wden)
                    if r:
                        raise RuntimeError(f"target weight {Fraction(wnum(s), wden)} is off the grid Z/{den}")
                    target[s] = (mirror.coset_reduce(gamma_h, s), wl)
                j3, wl = target[s]
                common = min(top, low + wl)
                have = {l: c for l, c in prod[s].items() if l < common}
                want = {l + wl: c for l, c in solved[j3].items() if l + wl < common}
                if have != want:
                    raise ThetaSolveError(
                        f"inconsistent theta solve at z^{s} for pair ({j1}, {j2})",
                        cutoff + Fraction(wl, den) + 1,
                    )
            for j3 in target_cosets:
                coeffs[j1, j2, j3] = NovikovElem._over(solved[j3], den, cutoff)
    return coeffs


def table_bytes(table):
    return json.dumps([[list(map(list, key)), c.to_obj()] for key, c in table.items()])


def bundle(slope, shift):
    return LineBundleObj(AffineLagrangian(slope, shift))


SHIFT_PAIRS_1D = [
    (Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(-1, 3)),
    (Fraction(-5, 4), Fraction(2, 5)),
    (Fraction(13, 7), Fraction(-9, 2)),
    (Fraction(-3, 5), Fraction(-16, 7)),
]
CUTOFFS = (Fraction(1, 3), Fraction(7, 2), Fraction(25))
I2, I3 = ((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
PAIRS_ND = [
    (I2, ((2, 1), (1, 1)), (Fraction(1, 2), Fraction(-4, 3)), (Fraction(-2, 5), Fraction(3, 7))),
    (I2, ((3, 1), (1, 2)), (Fraction(0), Fraction(5, 4)), (Fraction(-9, 7), Fraction(1, 3))),
    (I3, tuple(tuple(2 * x for x in row) for row in I3),
     (Fraction(1, 2), Fraction(0), Fraction(-4, 3)), (Fraction(1, 5), Fraction(-1, 4), Fraction(0))),
]


def theta_cases():
    for (a1, a2), (b1, b2), cut in itertools.product(
            itertools.product(range(1, 6), repeat=2), SHIFT_PAIRS_1D, CUTOFFS):
        yield bundle(((a1,),), (b1,)), bundle(((a2,),), (b2,)), cut
    for a1, a2, b1, b2 in PAIRS_ND:
        for cut in CUTOFFS if len(a1) < 3 else CUTOFFS[:2]:  # 3D at cutoff 25 takes seconds
            yield bundle(a1, b1), bundle(a2, b2), cut


def test_packed_theta_product_matches_the_dict_loop():
    """Every table of the packed convolution equals the dict-of-dicts loop's, in
    value and in serialized bytes, on 1D slopes 1-5 x 1-5 with shifts over
    denominators 2 to 7 (negative ones and |b| > 1 among them), and on 2D and
    3D pairs, at cutoffs 1/3, 7/2 and 25."""
    for e1, e2, cut in theta_cases():
        new, ref = theta_multiply(e1, e2, cut), reference_theta_multiply(e1, e2, cut)
        assert list(new.items()) == list(ref.items()), (e1, e2, cut)
        assert table_bytes(new) == table_bytes(ref), (e1, e2, cut)


FAR = Fraction(-37) + Fraction(2, 5)


@pytest.mark.parametrize("e1, e2, cut", [
    (bundle(((2,),), (FAR,)), bundle(((3,),), (FAR + Fraction(1, 4),)), Fraction(7, 2)),
    (bundle(I3, (FAR, Fraction(3), Fraction(1, 2))),
     bundle(tuple(tuple(2 * x for x in row) for row in I3), (FAR, Fraction(-1, 3), Fraction(0))),
     Fraction(1, 3)),
])
def test_every_reached_exponent_is_checked(monkeypatch, e1, e2, cut):
    """The consistency check reads w(s) and the coset of every z^s that some
    term pair reaches, also when all of that s's pairs weigh at least the
    expansion bound; with a shift of -37 + 2/5 the exponents are negative and
    the extreme sums sit at the packing radix's digit bound."""
    seen = []
    real = mirror._weight_numerator

    def recording(gamma, c):  # the check's target lookups, one per new exponent
        num, den = real(gamma, c)
        return (lambda s: seen.append(s) or num(s)), den

    monkeypatch.setattr(mirror, "_weight_numerator", recording)
    new = theta_multiply(e1, e2, cut)
    packed, rows = set(seen), []
    seen.clear()
    ref = reference_theta_multiply(e1, e2, cut, rows)
    reached = set().union(*rows)
    assert packed == reached == set(seen)
    assert any(all(not row.get(s) for row in rows) for s in reached)  # pairs all dropped
    assert min(x for s in reached for x in s) < -72
    assert table_bytes(new) == table_bytes(ref)


def test_theta_consistency_check_catches_a_wrong_leading_weight(monkeypatch):
    """Negative control: with the w* of the zero coset raised by 1/2 the solved
    coefficients no longer reproduce the product, and the solve reports a larger
    cutoff, at the same z^s and pair and with the same text as the reference loop
    with the same minimum raised."""
    minima, minimum = mirror._minima, coset_minimum

    def raised(e):
        out = minima(e)
        zero = (0,) * e.n
        return {**out, zero: (out[zero][0], out[zero][1] + mirror._grid(e) // 2)}

    def raised_reference(a, ainv, center, j):
        s, w = minimum(a, ainv, center, j)
        return s, w + (Fraction(1, 2) if not any(j) else 0)

    monkeypatch.setattr(mirror, "_minima", raised)
    monkeypatch.setitem(globals(), "coset_minimum", raised_reference)
    cut = Fraction(10)
    with pytest.raises(ThetaSolveError) as err:
        theta_multiply(LineBundleObj(line(1)), LineBundleObj(line(2)), cut)
    assert err.value.required_cutoff > cut
    for e1, e2, c in [(LineBundleObj(line(1)), LineBundleObj(line(2)), cut),
                      *((bundle(a1, b1), bundle(a2, b2), Fraction(7, 2))
                        for a1, a2, b1, b2 in PAIRS_ND)]:
        with pytest.raises(ThetaSolveError) as new:
            theta_multiply(e1, e2, c)
        with pytest.raises(ThetaSolveError) as ref:
            reference_theta_multiply(e1, e2, c)
        assert str(new.value) == str(ref.value)
        assert new.value.required_cutoff == ref.value.required_cutoff
    rep = cli.cmd_mirror([Fraction(0), Fraction(1), Fraction(3)], [Fraction(0)] * 3, cut)
    assert rep.status == "ERROR"
    assert "retry with cutoff >=" in rep.payload["error"]


def test_theta_consistency_check_catches_a_missing_term(monkeypatch):
    """Negative control: with the heaviest term of every slope-2 section dropped,
    some product row lacks a term that its solved coefficient has, below the
    cutoff; the check compares the row with the whole solved prefix, not with as
    many terms as the row holds, and reports the same z^s, pair and cutoff as
    the reference loop."""
    sections, reference = mirror._sections, reference_sections

    def dropping(real):
        def dropped(e, cutoff, den):
            out = real(e, cutoff, den)
            return [(j, t[:-1]) for j, t in out] if e.lagrangian.slope == ((2,),) else out
        return dropped

    monkeypatch.setattr(mirror, "_sections", dropping(sections))
    monkeypatch.setitem(globals(), "reference_sections", dropping(reference))
    e1, e2 = LineBundleObj(line(1)), LineBundleObj(line(2, shift=Fraction(1, 3)))
    with pytest.raises(ThetaSolveError) as new:
        theta_multiply(e1, e2, 10)
    with pytest.raises(ThetaSolveError) as ref:
        reference_theta_multiply(e1, e2, 10)
    assert str(new.value) == str(ref.value)
    assert "at z^(-7,) for pair ((0,), (0,))" in str(new.value)


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
    num, den = mirror._weight_numerator(slope, shift)
    for s in itertools.product(range(-3, 4), repeat=len(shift)):
        assert Fraction(num(s), den) == Fraction(1, 2) * quad_form(ginv, vec_sub(vec(s), shift))


def test_minima_keep_the_first_tie_in_t_order():
    """The least-weight representative of every coset is the reference's, found by
    one enumeration of the bundle; ties go to the first s = j + A t in the order of
    t, which on the slope (2, -1; -1, 2) is not the lexicographic order of s."""
    e = bundle(((2, -1), (-1, 2)), (0, 0))
    ties = [s for s, w in mirror._cosets(e, Fraction(1))[(1, 0)] if w == mirror._grid(e) // 3]
    assert sorted(ties) == [(-1, 1), (0, -1), (1, 0)]
    assert mirror._minima(e)[(1, 0)] == ((0, -1), mirror._grid(e) // 3)
    for e in [e, bundle(((5,),), (Fraction(-7, 3),)),
              *(bundle(x, c).tensor(bundle(y, d)) for x, y, c, d in PAIRS_ND),
              *(bundle(y, d) for _x, y, _c, d in PAIRS_ND)]:
        ainv, grid = mat_inv(e.lagrangian.slope), mirror._grid(e)
        assert mirror._minima(e) == {
            j: (s, int(w * grid)) for j in coset_representatives(e.lagrangian.slope)
            for s, w in [coset_minimum(e.lagrangian.slope, ainv, e.lagrangian.shift, j)]}


def test_theta_coefficient_bytes_are_pinned():
    """A shifted 1D coefficient serializes as it did with Fraction pairs."""
    e1 = LineBundleObj(AffineLagrangian(((2,),), (Fraction(1, 3),)))
    e2 = LineBundleObj(AffineLagrangian(((3,),), (Fraction(1, 4),)))
    c = theta_multiply(e1, e2, 6)[(0,), (0,), (1,)]
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
