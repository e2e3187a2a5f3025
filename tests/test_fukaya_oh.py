"""Affine Lagrangian sections: intersections, gradings, the triangle
product, associativity, and the degree certificate for higher products."""

from fractions import Fraction
from itertools import combinations

import pytest

from torusmirror.ainfty import AInftyStructure, MultilinearOp, add_into, relation_defect
from torusmirror.criteria import circle_sections
from torusmirror.fukaya_oh import (
    AffineLagrangian,
    _holonomy_factor,
    fukaya_sequence,
    intersections,
    m2,
    mk_vanishing_certificate,
    transversal,
    triangle_product_table,
)
from torusmirror.lattice import (
    coset_reduce,
    coset_representatives,
    hnf,
    lattice_points,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    vec,
    vec_add,
    vec_sub,
)
from torusmirror.mirror import mirror_compare
from torusmirror.novikov import NovikovElem


def line(slope, shift=0, holonomy=1):
    return AffineLagrangian(
        ((Fraction(slope),),), (Fraction(shift),), (Fraction(holonomy),)
    )


def test_lagrangian_validation():
    with pytest.raises(ValueError):
        AffineLagrangian(((0, 1), (2, 0)), (0, 0))  # non-symmetric
    with pytest.raises(ValueError):
        AffineLagrangian(((Fraction(1, 2),),), (0,))  # non-integral slope
    with pytest.raises(ValueError):
        AffineLagrangian(((1,),), (0,), (0,))  # zero holonomy
    with pytest.raises(ValueError, match="square"):
        AffineLagrangian(((1, 2),), (0,))  # one row of two: no 1 x 1 slope
    with pytest.raises(ValueError, match="ragged"):
        AffineLagrangian(((1, 2), (2,)), (0, 0))


def test_intersection_count_is_slope_determinant():
    assert len(intersections(line(0), line(3))) == 3
    l0 = AffineLagrangian(((0, 0), (0, 0)), (0, 0))
    l1 = AffineLagrangian(((2, 1), (1, 3)), (Fraction(1, 2), 0))
    pts = intersections(l0, l1)
    assert len(pts) == 5  # det [[2,1],[1,3]]
    for p in pts:
        assert all(0 <= c < 1 for c in p.position)
        assert p.degree == 0
    assert len({p.coset for p in pts}) == 5


def test_lagrangians_of_different_dimensions_are_refused():
    """Every pairwise computation refuses a 1D and a 2D section, or a 2D and a 3D
    one, instead of zipping their slope rows down to the shorter one."""
    one = line(1)
    two = [AffineLagrangian(((k, 0), (0, k)), (0, 0)) for k in (1, 2, 3)]
    three = AffineLagrangian(((3, 0, 0), (0, 3, 0), (0, 0, 3)), (0, 0, 0))
    for call in (lambda: transversal([line(0), *two[1:]]),
                 lambda: intersections(one, two[1]),
                 lambda: mirror_compare(*two[:2], three, 4),
                 lambda: triangle_product_table(line(0), *two[1:], 4)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()


def test_intersection_positions_solve_the_pair_equation():
    """Each position, computed over one integer denominator, is the Fraction
    solution y = (A_j - A_i)^{-1} (m + b_i - b_j) read mod 1, also for a
    negative determinant."""
    pairs = [(line(0, Fraction(1, 3)), line(3, Fraction(-1, 4))), (line(2, Fraction(1, 2)), line(0)),
             (AffineLagrangian(((0, 0), (0, 0)), (Fraction(1, 2), Fraction(-2, 3))),
              AffineLagrangian(((0, 3), (3, 1)), (Fraction(1, 5), 0)))]
    for li, lj in pairs:
        alpha_inv = mat_inv(mat_sub(lj.slope, li.slope))
        for p in intersections(li, lj):
            y = mat_vec(alpha_inv, vec_add(vec(p.coset), vec_sub(li.shift, lj.shift)))
            assert p.position == tuple(c - (c.numerator // c.denominator) for c in y)


def test_grading_counts_negative_eigenvalues():
    assert all(p.degree == 0 for p in intersections(line(0), line(2)))
    assert all(p.degree == 1 for p in intersections(line(2), line(0)))


def test_non_transversal_pairs_are_rejected():
    assert not transversal([line(1), line(1)])
    with pytest.raises(ValueError):
        intersections(line(1), line(1))
    with pytest.raises(ValueError):
        m2(line(0), line(0), line(1), None, None, 10)


def test_m2_unit_triangle_has_weight_zero_term():
    l0, l1, l2 = line(0), line(1), line(2)
    (x0,) = intersections(l0, l1)
    (x1,) = intersections(l1, l2)
    out = m2(l0, l1, l2, x0, x1, Fraction(10))
    assert len(out) == 2  # the pair (l0, l2) has two intersection points
    by_coset = {tgt.coset: val for tgt, val in out.items()}
    # the three lifts coincide at y = 0: one triangle of area zero in the
    # trivial coset, and every other configuration has positive weight
    assert by_coset[(0,)].coeff(0) == 1
    for val in out.values():
        assert all(lam >= 0 for lam, _ in val.terms)


def test_m2_weights_respect_cutoff_and_grading():
    l0, l1, l2 = line(0, shift=Fraction(1, 3)), line(1), line(3)
    cut = Fraction(8)
    for x0 in intersections(l0, l1):
        for x1 in intersections(l1, l2):
            out = m2(l0, l1, l2, x0, x1, cut)
            for tgt, val in out.items():
                assert tgt.degree == x0.degree + x1.degree
                assert val.cutoff == cut
                assert all(0 <= lam < cut for lam, _ in val.terms)


def test_m2_refuses_non_convex_ordering_with_matching_degrees():
    l0 = AffineLagrangian(((0, 0), (0, 0)), (0, 0))
    l1 = AffineLagrangian(((1, 0), (0, 1)), (0, 0))
    l2 = AffineLagrangian(((2, 0), (0, -1)), (0, 0))
    (x0,) = [p for p in intersections(l0, l1)]
    x1 = intersections(l1, l2)[0]
    assert x0.degree == 0 and x1.degree == 1
    with pytest.raises(ValueError, match="convex-ordered"):
        m2(l0, l1, l2, x0, x1, 5)


def test_holonomy_weights_triangles_by_integer_windings():
    """A holonomy u on the middle object replaces the count of each weight
    class by sum u^{k_i} over the boundary windings k_i; u and 1/u give
    conjugate results, and their sum dominates twice the plain count."""
    l0, l1, l2 = line(0), line(1), line(2)
    (x0,) = intersections(l0, l1)
    (x1,) = intersections(l1, l2)

    def table(holonomy):
        out = m2(l0, line(1, holonomy=holonomy), l2, x0, x1, Fraction(6))
        return {tgt.coset: val for tgt, val in out.items()}

    plain, up, down = table(1), table(2), table(Fraction(1, 2))
    for coset, val in plain.items():
        assert [l for l, _ in up[coset].terms] == [l for l, _ in val.terms]
        for (lam, c), (_, cu), (_, cd) in zip(
            val.terms, up[coset].terms, down[coset].terms
        ):
            # sum of u^k + u^{-k} over the triangles of this weight class
            assert cu + cd >= 2 * c
            if lam == 0:
                assert cu == cd == c == 1  # the zero triangle has no winding


def test_holonomy_table_of_a_2d_triple():
    """Holonomies (2, 1/3) on L_1 and (1/2, 3) on L_2 weight each triangle by
    its windings; the table is pinned term by term, and m2 on the one input
    pair agrees with it."""
    l0 = AffineLagrangian(((0, 0), (0, 0)), (0, 0))
    l1 = AffineLagrangian(((1, 0), (0, 1)), (Fraction(1, 3), 0), (2, Fraction(1, 3)))
    l2 = AffineLagrangian(((3, 1), (1, 2)), (0, Fraction(1, 2)), (Fraction(1, 2), 3))
    cut = Fraction(3, 2)
    expected = {  # target coset: "exponent coefficient" terms
        (0, 0): "103/360 3/4, 163/360 54, 223/360 1/18, 523/360 1/1296",
        (1, 0): "23/72 27, 35/72 1/36, 47/72 2, 83/72 3/8, 107/72 1944",
        (2, 0): "43/360 1, 283/360 27/2, 343/360 69985/72, 463/360 72",
        (3, 0): "67/360 1/4, 127/360 18, 367/360 243",
        (4, 0): "7/360 3, 307/360 1/24, 427/360 69985/324, 487/360 2/9",
    }
    expected = {
        ((0, 0), (0, 0), c2): NovikovElem(
            [tuple(Fraction(x) for x in term.split()) for term in terms.split(", ")], cut)
        for c2, terms in expected.items()
    }
    assert triangle_product_table(l0, l1, l2, cut) == expected
    (x0,) = intersections(l0, l1)
    (x1,) = intersections(l1, l2)
    out = m2(l0, l1, l2, x0, x1, cut)
    assert {(x0.coset, x1.coset, x2.coset): v for x2, v in out.items()} == expected


def test_associativity_holds_below_cutoff():
    """The raw arity-3 defect is zero, and every entry is known to at least
    the cutoff: the truncated zeros of the triangle tables stay in m2 with
    their O(q^cutoff) bound."""
    for slopes, shifts, cutoff in (((0, 1, 2, 3), (0, 0, 0, 0), 8),
                                   ((0, 1, 3, 4), (0, Fraction(1, 2), 0, 0), 8),
                                   ((0, 3, 6, 10), (0, 0, Fraction(1, 3), 0), 12)):
        d = relation_defect(fukaya_sequence(circle_sections(slopes, shifts), cutoff), 3)
        assert d.is_zero()
        assert d.entries
        assert all(c.cutoff >= cutoff for row in d.entries.values() for c in row.values())


def test_perturbed_m2_fails_associativity_below_cutoff_only():
    """Negative control: one m2 coefficient on the triple (0, 2, 3) moved by
    q^5 breaks the arity-3 relation in both rows that use it; moved by q^12
    it changes nothing below the cutoff 12."""
    cutoff = 12
    A = fukaya_sequence(circle_sections((0, 1, 3, 4), (0, Fraction(1, 2), 0, 0)), cutoff)
    ins, out, _ = next(e for e in A.m(2).nonzero_entries() if e[0][0][:2] == (0, 2))

    def moved(e):
        table = add_into({k: dict(row) for k, row in A.m(2).entries.items()},
                         {ins: {out: NovikovElem.q_power(e)}})
        return AInftyStructure(A.basis, {2: MultilinearOp(2, A.basis, A.basis, 0, table)})

    def defect_rows(B):
        return {ins for ins, _out, _c in relation_defect(B, 3).nonzero_entries()}

    assert defect_rows(A) == set()
    assert len(defect_rows(moved(5))) == 2
    assert defect_rows(moved(12)) == set()


def test_triangle_table_keeps_zero_entries_that_m2_drops():
    """The 23 explicit zeros of the triangle table are truncated zeros
    O(q^2): the builder's m2 keeps them with that bound, and
    nonzero_entries skips them."""
    ls = [AffineLagrangian(((1, 0), (0, 1)), (0, 0)),
          AffineLagrangian(((3, 1), (1, 3)), (Fraction(1, 2), 0)),
          AffineLagrangian(((5, 1), (1, 5)), (0, Fraction(1, 3)))]
    table = triangle_product_table(*ls, 2)
    assert len(table) == 180
    assert sum(v.is_zero() for v in table.values()) == 23
    assert all(v.cutoff == 2 for v in table.values())
    expected = {}
    for (c0, c1, c2), v in table.items():
        expected.setdefault(((0, 1, c0), (1, 2, c1)), {})[(0, 2, c2)] = v
    m2_op = fukaya_sequence(ls, 2).m(2)
    assert m2_op.entries == expected
    assert len(list(m2_op.nonzero_entries())) == 180 - 23


def test_vanishing_certificate():
    ls = [line(s) for s in (0, 1, 2, 3)]
    cert = mk_vanishing_certificate(ls, 3)
    assert cert.certified
    assert set(cert.generator_degrees) == {0}

    bad = [line(s) for s in (0, 2, 1, 3)]
    assert not mk_vanishing_certificate(bad, 3).certified

    with pytest.raises(ValueError):
        mk_vanishing_certificate(ls, 2)
    with pytest.raises(ValueError):
        mk_vanishing_certificate([line(0), line(0)], 3)


def quad_form(a, x):
    return sum(xi * yi for xi, yi in zip(x, mat_vec(a, x)))


def reference_triangle_table(l0, l1, l2, cutoff):
    """The triangle table with each product's weight built in Fractions, as
    W(t) = (1/2) t^T M t + v^T t + c for M = beta (b^{-1} - g^{-1}) beta,
    v = beta (b^{-1} - g^{-1}) k0 - beta g^{-1} m and c = Q(m, k0), and
    enumerated by the rational lattice_points, one call per product."""
    alpha, beta, gamma = (mat_sub(y.slope, x.slope) for x, y in ((l0, l1), (l1, l2), (l0, l2)))
    ainv, binv, ginv = mat_inv(alpha), mat_inv(beta), mat_inv(gamma)
    c01, c12 = vec_sub(l1.shift, l0.shift), vec_sub(l2.shift, l1.shift)
    bg = mat_mul(beta, mat_sub(binv, ginv))
    mq, bginv = mat_mul(bg, beta), mat_mul(beta, ginv)
    table = {}
    for j0 in coset_representatives(alpha):
        for j1 in coset_representatives(beta):
            m, k0 = vec_sub(vec(j0), c01), vec_sub(vec(j1), c12)
            vq = vec_sub(mat_vec(bg, k0), mat_vec(bginv, m))
            cq = (quad_form(ainv, m) + quad_form(binv, k0) - quad_form(ginv, vec_add(m, k0))) / 2
            rows = {j2: {} for j2 in coset_representatives(gamma)}
            den, points = lattice_points(mq, vq, cq, Fraction(cutoff))
            for t, w in points:
                bt = mat_vec(beta, t)
                k = vec_add(k0, bt)
                j2 = coset_reduce(hnf(gamma), [a + b + c for a, b, c in zip(j0, j1, bt)])
                hol = _holonomy_factor((l0, l1, l2), mat_vec(ainv, m), mat_vec(binv, k),
                                       mat_vec(ginv, vec_add(m, k)))
                rows[j2][w] = rows[j2].get(w, 0) + hol
            for j2, row in rows.items():
                table[j0, j1, j2] = NovikovElem([(Fraction(w, den), c) for w, c in row.items()],
                                                cutoff)
    return table


SHIFT_TRIPLES_1D = ((0, 0, 0), (0, Fraction(1, 2), 0), (Fraction(1, 3), Fraction(-1, 4), Fraction(2, 5)),
                    (Fraction(-5, 4), Fraction(7, 3), Fraction(1, 2)))
I2 = ((1, 0), (0, 1))


@pytest.mark.parametrize("ls, cutoff", [
    *((circle_sections(slopes, shifts), 10)
      for slopes in combinations(range(5), 3) for shifts in SHIFT_TRIPLES_1D),
    ([AffineLagrangian(a, b) for a, b in zip((((0, 0), (0, 0)), I2, ((3, 1), (1, 2))),
                                              ((0, 0), (Fraction(1, 3), 0), (0, Fraction(1, 2))))], 6),
    ([AffineLagrangian(a, b) for a, b in zip((I2, ((3, 1), (1, 3)), ((5, 1), (1, 5))),
                                              ((0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 3))))], 2),
    ([AffineLagrangian(a, b) for a, b in zip(
        (((0, 0, 0), (0, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
         ((3, 1, 0), (1, 3, 1), (0, 1, 3))),
        ((0, 0, 0), (Fraction(1, 2), 0, Fraction(1, 3)), (0, Fraction(1, 5), 0)))], 4),
    ([AffineLagrangian(((0, 0), (0, 0)), (0, 0)),
      AffineLagrangian(I2, (Fraction(1, 3), 0), (2, Fraction(1, 3))),
      AffineLagrangian(((3, 1), (1, 2)), (0, Fraction(1, 2)), (Fraction(1, 2), 3))], 3),
])
def test_triangle_table_matches_the_fraction_weight_reference(ls, cutoff):
    """One integer form per triple gives the same table, entry by entry, as a
    Fraction weight form built afresh for every product: on the 10 convex 1D
    slope triples with 4 shift triples, the 2D and 3D off-diagonal cases, and a
    twisted-holonomy triple."""
    assert triangle_product_table(*ls, cutoff) == reference_triangle_table(*ls, cutoff)
