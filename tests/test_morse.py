"""Exact Morse theory on the circle: certified critical points, the
differential, the gradient-tree product, weights, and rescaling."""

import random
from fractions import Fraction

import pytest

from torusmirror.criteria import morse_triples
from torusmirror.morse import (
    NonMorseError,
    TrigPolynomial,
    basis_rescale,
    cohomology_ranks,
    critical_points,
    m2,
    morse_differential,
    transversal_triple,
)
from torusmirror.novikov import NovikovElem


def trig(cos=None, sin=None):
    return TrigPolynomial.from_dicts(
        {k: Fraction(v) for k, v in (cos or {}).items()},
        {k: Fraction(v) for k, v in (sin or {}).items()},
    )


def seeded_triples(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        def rand_trig():
            return TrigPolynomial.from_dicts(
                {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in (1, 2)},
                {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in (1, 2)},
            )

        f0, f1, f2 = rand_trig(), rand_trig(), rand_trig()
        if transversal_triple(f0, f1, f2):
            out.append((f0, f1, f2))
    return out


# -- critical points and the differential -------------------------------------


def test_single_harmonic_has_one_min_one_max_and_zero_differential():
    f = trig(cos={1: 1})  # cos(2 pi y): max at 0, min at 1/2
    crit = critical_points(f)
    assert [p.index for p in crit.points] == [1, 0]
    assert crit.points[1].y_interval == (Fraction(1, 2), Fraction(1, 2))
    d = morse_differential(f, TrigPolynomial.zero())
    # the two arcs from the minimum reach the same maximum with opposite signs
    assert d.is_zero()
    assert cohomology_ranks(d) == (1, 1)


def test_second_harmonic_differential_and_ranks():
    f = trig(cos={2: 1})  # cos(4 pi y): two maxima, two minima
    crit = critical_points(f)
    assert sorted(p.index for p in crit.points) == [0, 0, 1, 1]
    d = morse_differential(f, TrigPolynomial.zero())
    assert d.entries == {
        (1,): {0: 1, 2: -1},
        (3,): {2: 1, 0: -1},
    }
    assert cohomology_ranks(d) == (1, 1)


def test_critical_points_alternate_and_positions_are_certified():
    f = trig(cos={1: 1, 2: Fraction(-1, 3)}, sin={1: Fraction(2, 5)})
    crit = critical_points(f)
    n = len(crit.points)
    assert n % 2 == 0
    for i, p in enumerate(crit.points):
        lo, hi = p.y_interval
        assert hi - lo < Fraction(1, 2**40)
        assert 0 <= lo and hi < Fraction(3, 2)
        assert p.index != crit.points[(i + 1) % n].index


def test_constant_difference_is_rejected():
    with pytest.raises(ValueError):
        critical_points(TrigPolynomial.zero())
    with pytest.raises(ValueError):
        critical_points(trig(cos={0: 5}))


def test_non_morse_input_is_detected():
    # derivative sin(theta)(1 - cos(theta)) has a triple zero at theta = 0
    f = trig(cos={1: -1, 2: Fraction(1, 4)})
    with pytest.raises(NonMorseError):
        critical_points(f)


# -- the gradient-tree product -------------------------------------------------


def test_m2_refuses_shared_critical_points():
    f0 = trig(cos={1: 1})
    f1 = TrigPolynomial.zero()
    f2 = trig(cos={1: -1})  # f1 - f2 = cos = f0 - f1: same critical set
    assert not transversal_triple(f0, f1, f2)
    with pytest.raises(ValueError):
        m2(f0, f1, f2)


@pytest.mark.parametrize("seed", [3, 11])
def test_structure_relations_on_seeded_triples(seed):
    out = morse_triples(seed, 3)
    assert out.ok, out.failures


def test_weighted_product_refines_the_integer_counts():
    for f0, f1, f2 in seeded_triples(5, 2):
        plain = m2(f0, f1, f2, weighted=False)
        weighted = m2(f0, f1, f2, weighted=True)
        assert set(weighted.entries) == set(plain.entries)
        for ins, row in weighted.entries.items():
            for out, e in row.items():
                assert isinstance(e, NovikovElem)
                # every gradient tree has positive total variation
                assert e.val() > 0
                # signed tree count = coefficient sum of the weighted entry
                assert sum(c for _, c in e.terms) == plain.entries[ins][out]


def test_weighted_cutoff_truncates():
    f0, f1, f2 = seeded_triples(9, 1)[0]
    cut = Fraction(1, 1000)
    op = m2(f0, f1, f2, weighted=True, cutoff=cut)
    for _, row in op.entries.items():
        for e in row.values():
            assert e.cutoff == cut
            assert all(lam < cut for lam, _ in e.terms)


def test_basis_rescale_with_f_then_minus_f_is_identity():
    f0, f1, f2 = seeded_triples(13, 1)[0]
    op = m2(f0, f1, f2, weighted=True)
    fwd = basis_rescale(op, [f0, f1, f2])
    back = basis_rescale(fwd, [-f0, -f1, -f2])
    assert set(back.entries) == set(op.entries)
    for ins, row in op.entries.items():
        for out, e in row.items():
            assert back.entries[ins][out] == e


def test_basis_rescale_requires_matching_object_count():
    f0, f1, f2 = seeded_triples(13, 1)[0]
    op = m2(f0, f1, f2, weighted=True)
    with pytest.raises(ValueError):
        basis_rescale(op, [f0, f1])
