"""Exact Morse theory on the circle: certified critical points, the
differential, the gradient-tree product, weights, and rescaling."""

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import mpmath
import pytest
import sympy

from torusmirror import morse
from torusmirror.ainfty import GradedBasis, MultilinearOp
from torusmirror.criteria import morse_triples
from torusmirror.intervals import eval_poly
from torusmirror.morse import (
    CirclePoint,
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


def morse_caches():
    """Every lru_cache of the morse module, by name."""
    return {name: v for name, v in vars(morse).items() if hasattr(v, "cache_info")}


def clear_morse_caches():
    for cache in morse_caches().values():
        cache.cache_clear()


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
    assert [p.label for p in crit.points] == list(range(len(crit.points)))


def test_constant_difference_is_rejected():
    with pytest.raises(ValueError):
        critical_points(TrigPolynomial.zero())
    with pytest.raises(ValueError):
        critical_points(trig(cos={0: 5}))
    # a harmonic that is not an integer is refused, not truncated
    for cos in (((1.5, 1),), ((Fraction(5, 2), 1),)):
        with pytest.raises(ValueError, match="cosine harmonic must be an integer"):
            TrigPolynomial(cos, ())
    with pytest.raises(ValueError, match="sine harmonic must be >= 1"):
        TrigPolynomial((), ((0, 1),))


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
    for _ in range(2):  # a refusal is not cached as a certificate
        assert not transversal_triple(f0, f1, f2)
    for _ in range(2):
        with pytest.raises(ValueError, match="shared critical point"):
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


def test_equal_trig_polynomials_hash_equal():
    f = TrigPolynomial(((1, 1), (2, Fraction(1, 3)), (1, 1)), ((2, 0), (1, Fraction(-1, 2))))
    g = trig(cos={2: Fraction(1, 3), 1: 2}, sin={1: Fraction(-1, 2)})
    assert f == g and hash(f) == hash(g)
    assert hash(f - g) == hash(TrigPolynomial.zero())


def test_y_interval_reads_the_enclosure_taken_at_isolation(monkeypatch):
    f0, f1, f2 = seeded_triples(13, 1)[0]
    gs = (f0 - f1, f1 - f2, f0 - f2)

    def isolated():
        clear_morse_caches()
        return [p for g in gs for p in critical_points(g).points]

    early = [p.y_interval for p in isolated()]
    calls = []
    y_interval = morse._y_interval
    monkeypatch.setattr(morse, "_y_interval", lambda *args: calls.append(args) or y_interval(*args))
    points = isolated()
    assert calls == []  # isolation computes no enclosure in y
    widths = [p.point.width for p in points]
    basis_rescale(m2(f0, f1, f2, weighted=True), [f0, f1, f2])
    # the weights refine the shared points past their isolation width
    assert any(p.point.width < w for p, w in zip(points, widths))
    assert [p.y_interval for p in points] == early
    assert len(calls) == len(points)


def test_products_after_the_transversality_test_match_a_cold_start():
    certified = morse._certified_differences
    for f0, f1, f2 in seeded_triples(17, 3):
        clear_morse_caches()
        assert transversal_triple(f0, f1, f2)
        warm = [m2(f0, f1, f2), m2(f0, f1, f2, weighted=True)]
        # the test and both products share one certificate
        assert (certified.cache_info().misses, certified.cache_info().hits) == (1, 2)
        clear_morse_caches()
        cold = [m2(f0, f1, f2), m2(f0, f1, f2, weighted=True)]
        assert [op.entries for op in warm] == [op.entries for op in cold]


def morse_digest(triples):
    """sha256 over the critical points of each pairwise difference (label,
    index, y_interval, second_sign) and the entries of m2 unweighted,
    weighted with cutoff 5 and without cutoff, and the rescaled weighted m2."""
    h = hashlib.sha256()
    for f0, f1, f2 in triples:
        for g in (f0 - f1, f1 - f2, f0 - f2):
            for p in critical_points(g).points:
                h.update(repr((p.label, p.index, p.y_interval, p.second_sign)).encode())
        weighted = m2(f0, f1, f2, weighted=True)
        for op in (m2(f0, f1, f2), m2(f0, f1, f2, weighted=True, cutoff=5), weighted,
                   basis_rescale(weighted, [f0, f1, f2])):
            for ins, row in sorted(op.entries.items()):
                for out, e in sorted(row.items()):
                    v = (e.terms, e.cutoff) if isinstance(e, NovikovElem) else e
                    h.update(repr((ins, out, v)).encode())
    return h.hexdigest()


def test_morse_output_bytes_are_pinned():
    # refinement mutates cached critical points and enclosures start from the
    # current refinement: a fresh cache keeps the digest independent of test order
    critical_points.cache_clear()
    triples = seeded_triples(7, 20)
    assert sum(len(critical_points(f0 - f1).points) for f0, f1, _ in triples) == 70
    assert morse_digest(triples) == (
        "0bf17d48386a8dec11d30a65798e330fcaf0fd465899ccdd3415d218f3eb111b")


# -- exact kernels against sympy and rational references ------------------------

_t = sympy.symbols("t")


def seeded_trigs(seed, count):
    """Trig polynomials with top harmonic 0..4, every seventh pure cosine
    and every seventh pure sine."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        k_max = i % 5

        def coeffs(low):
            return {k: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                    for k in range(low, k_max + 1) if rng.random() < 0.8}

        cos, sin = coeffs(0), coeffs(1)
        if i % 7 == 3:
            sin = {}
        elif i % 7 == 5:
            cos = {}
        out.append(TrigPolynomial.from_dicts(cos, sin))
    return out


def sympy_numerator(f):
    """N with f = N(t) / (1+t^2)^K, built from sympy Poly products."""
    k_max = f.max_harmonic
    den = sympy.Poly(1 + _t**2, _t, domain="QQ")
    c_list, s_list = [sympy.Poly(1, _t, domain="QQ")], [sympy.Poly(0, _t, domain="QQ")]
    c1, s1 = sympy.Poly(1 - _t**2, _t, domain="QQ"), sympy.Poly(2 * _t, _t, domain="QQ")
    for _ in range(k_max):
        c_list.append(c1 * c_list[-1] - s1 * s_list[-1])
        s_list.append(s1 * c_list[-2] + c1 * s_list[-1])
    total = sympy.Poly(0, _t, domain="QQ")
    for k, a in f.cos_coeffs:
        total += sympy.Rational(a) * c_list[k] * den ** (k_max - k)
    for k, b in f.sin_coeffs:
        total += sympy.Rational(b) * s_list[k] * den ** (k_max - k)
    return tuple(Fraction(str(c)) for c in total.all_coeffs())


def qq_poly(coeffs):
    return sympy.Poly.from_list([sympy.Rational(c) for c in coeffs], _t, domain="QQ")


def monic(coeffs):
    return tuple(Fraction(c, coeffs[0]) for c in coeffs)


def fractions_of(poly):
    return tuple(Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs())


def test_numerator_coeffs_match_sympy_construction():
    trigs = seeded_trigs(20240901, 100) + [TrigPolynomial.zero(), trig(cos={0: 3})]
    for f in trigs:
        assert f.numerator_coeffs() == sympy_numerator(f), f
    assert TrigPolynomial.zero().numerator_coeffs() == (0,)


def test_gcd_and_square_free_part_match_sympy():
    trigs = [f for f in seeded_trigs(77, 100) if not f.is_constant]
    shared = qq_poly((1, Fraction(-3, 2), Fraction(1, 2)))  # (t - 1)(t - 1/2)
    double = qq_poly((1, Fraction(-2, 3))) ** 2  # forced double root at 2/3
    for f, g in zip(trigs, trigs[1:]):
        pf, pg = qq_poly(f.numerator_coeffs()), qq_poly(g.numerator_coeffs())
        for a, b in ((pf, pg), (pf * shared, pg * shared), (pf * double, pg * shared * double)):
            got = morse._gcd(morse._primitive(fractions_of(a)), morse._primitive(fractions_of(b)))
            assert monic(got) == fractions_of(a.gcd(b))
        for a in (pf, pf * double, pf * shared * double * pg):
            got = morse._sqf_part(morse._primitive(fractions_of(a)))
            assert monic(got) == fractions_of(a.sqf_part())


def sympy_intervals(sqf):
    """The isolating intervals sympy's VAS isolator gives the monic sqf."""
    return [(Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q)))
            for (lo, hi), _ in qq_poly(monic(sqf)).intervals()]


def integer_poly(roots, *factors):
    """Primitive square-free integer polynomial with the given rational
    roots times the given integer factors."""
    poly = qq_poly((1,))
    for r in roots:
        poly *= qq_poly((r.denominator, -r.numerator))
    for f in factors:
        poly *= qq_poly(f)
    return morse._sqf_part(morse._primitive(fractions_of(poly)))


def test_isolator_matches_sympy_intervals():
    rng = random.Random(2024)
    polys = []
    # derivative numerators of trig polynomials with top harmonic 1..4
    while len(polys) < 2000:
        k_max = rng.randint(1, 4)
        f = TrigPolynomial.from_dicts(
            {k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(k_max + 1)},
            {k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(1, k_max + 1)})
        p = morse._primitive(f.dtheta().numerator_coeffs())
        if len(p) > 1:
            polys.append(morse._sqf_part(p))
    for _ in range(300):
        # small rational roots, which the continued fraction meets as Moebius
        # endpoints; every other one with a root at 0 and a factor t^2 + c
        roots = {Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 5))}
        polys.append(integer_poly(roots, (1, 0, rng.randint(1, 9))))
        polys.append(integer_poly(roots | {Fraction(0)}))
        # negative roots only: rational, and -b/2 +- sqrt(b^2/4 - c)
        negative = {-abs(r) for r in roots if r}
        b = rng.randint(3, 12)
        polys.append(integer_poly(negative, (1, b, rng.randint(1, b * b // 4))))
    for _ in range(100):
        # the right child (x + 1)^3 f(1 / (x + 1)) is y^3 - a y^2 + b y - c
        # with c at or just below 2^53 or 2^60, where int(log(c, 2)) rounds up
        # past the floor, so the LMQ shift and the endpoints follow the float
        e = rng.choice((53, 60))
        c = 2**e + rng.choice((-5, -2, -1, -1, 0, 1))
        a, b = (rng.randint(1, 2**rng.randint(1, e)) for _ in "ab")
        child = qq_poly((1, -a, b, -c)).shift(-1)
        polys.append(morse._sqf_part(morse._primitive(fractions_of(child)[::-1])))
    exact = mirrored = at_zero = 0
    for sqf in polys:
        got = morse._isolate(sqf)
        assert got == sympy_intervals(sqf), sqf
        exact += sum(1 for lo, hi in got if lo == hi != 0)
        mirrored += bool(got) and all(lo < 0 and hi <= 0 for lo, hi in got)
        at_zero += (Fraction(0), Fraction(0)) in got
    assert exact > 200 and mirrored > 200 and at_zero > 300


@dataclass(frozen=True)
class Interval:
    """Reference interval arithmetic on Fraction endpoints."""

    lo: Fraction
    hi: Fraction

    @staticmethod
    def point(x):
        return Interval(Fraction(x), Fraction(x))

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        prods = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Interval(min(prods), max(prods))

    def __truediv__(self, other):
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval contains zero")
        return self * Interval(1 / other.hi, 1 / other.lo)


def reference_refine(coeffs, lo, hi, eps):
    """Rational bisection on the monic square-free part (exactly one root in
    (lo, hi], midpoints of the current interval)."""

    def value(x):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * x + c
        return acc

    if lo != hi and value(hi) == 0:
        return hi, hi
    s_hi = value(hi) > 0
    while hi - lo > eps:
        mid = (lo + hi) / 2
        v = value(mid)
        if v == 0:
            return mid, mid
        if (v > 0) == s_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi


def integer_bisection(coeffs, lo, hi, eps):
    """(a, b, d) after plain bisection of [lo, hi] = [a/d, b/d] on integers:
    each step doubles a, b and d and moves one end to the old a + b; the
    signs come from Fraction evaluation."""

    def sign(n, d):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * Fraction(n, d) + c
        return (acc > 0) - (acc < 0)

    d = lcm(lo.denominator, hi.denominator)
    a, b = int(lo * d), int(hi * d)
    s_hi = sign(b, d)
    if s_hi == 0:
        a = b
    while Fraction(b - a, d) > eps:
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        s = sign(mid, d)
        if s == 0:
            a = b = mid
        elif s == s_hi:
            b = mid
        else:
            a = mid
    return a, b, d


def test_refine_matches_rational_bisection_on_sympy_intervals():
    def sqf_of(poly):
        return morse._sqf_part(morse._primitive(fractions_of(poly)))

    trigs = [f for f in seeded_trigs(5, 100) if not f.is_constant]
    # an extra root at t = 1/2, which bisection of an integer interval hits exactly
    half = qq_poly((1, Fraction(-1, 2)))
    polys = []
    for f in trigs:
        p = qq_poly(f.dtheta().numerator_coeffs())
        polys += [sqf_of(p), sqf_of(p * half)]
    # inputs that defeat the float guess of the bisection cell: coefficients
    # past float range, roots near +-2^31 (where floats step by 2^-22), and
    # roots closer than 2^-40 to a neighbour, which an isolating endpoint splits
    polys += [tuple(c << 1100 for c in sqf) for sqf in polys[:10]]
    polys += [sqf_of(qq_poly((1, 0, -(2**62 + k)))) for k in (1, 3, 5, 7, 11)]
    polys += [sqf_of(qq_poly((1, 0, -c)) * qq_poly((2**e, 0, -(c * 2**e + 1))))
              for c in (2, 3, 5, 7) for e in (40, 42, 44)]
    cases = [(sqf, lo, hi) for sqf in polys for lo, hi in sympy_intervals(sqf)]
    # a wide interval with coefficients near the float limit: Horner overflows
    cases.append((tuple(c << 1000 for c in (1, 0, -(2**20 + 1))), Fraction(1), Fraction(2**20)))
    for sqf, lo, hi in cases:
        chained = CirclePoint(sqf, lo, hi)
        for eps in (Fraction(1, 2**10), Fraction(1, 2**50)):
            cp = CirclePoint(sqf, lo, hi)
            cp.refine(eps)
            chained.refine(eps)  # a refined point refines on as a fresh one
            assert ((cp.a, cp.b, cp.d) == (chained.a, chained.b, chained.d)
                    == integer_bisection(sqf, lo, hi, eps))
            assert (cp.lo, cp.hi) == reference_refine(monic(sqf), lo, hi, eps)
            assert cp.width == cp.hi - cp.lo <= eps
    assert len(cases) > 700


def test_isolation_refinements_jump_to_the_bisection_cell(monkeypatch):
    """Two exact signs certify the float guess of the 2^-44 cell for nearly
    every isolated point; a refinement that bisects instead makes a sign
    call per level."""
    calls = []
    sign_at, refine = morse._sign_at, CirclePoint.refine
    monkeypatch.setattr(morse, "_sign_at", lambda *args: calls.append(1) or sign_at(*args))
    jumps = []

    def counted(self, eps):
        bisects = (self.b - self.a) * eps.denominator > eps.numerator * self.d
        before = len(calls)
        refine(self, eps)
        if bisects and eps == morse._POSITION_EPS:
            jumps.append(len(calls) - before <= 2)

    monkeypatch.setattr(CirclePoint, "refine", counted)
    clear_morse_caches()
    seeded_triples(7, 20)
    assert (sum(jumps), len(jumps)) == (214, 215)


def test_exact_point_compares_with_an_overlapping_interval():
    # t = 1/2 exactly against t = sqrt(2501)/100, whose interval still holds
    # 1/2 after the sector refinement: only the inexact point can shrink
    p = CirclePoint((2, -1), Fraction(1, 2), Fraction(1, 2))
    q = CirclePoint((10000, 0, -2501), Fraction(0), Fraction(1))
    assert p.less_than(q) and not q.less_than(p)
    assert q.lo > Fraction(1, 2) and p.width == 0


def reference_eval_poly(coeffs, x):
    acc = Interval.point(0)
    for c in coeffs:
        acc = acc * x + Interval.point(c)
    return acc


def test_interval_horner_matches_interval_arithmetic():
    rng = random.Random(41)
    for f in seeded_trigs(41, 100):
        num = f.numerator_coeffs()
        d = rng.randint(1, 81)
        a = rng.randint(-40 * d, 40 * d)
        b = a + rng.randint(0, 30 * d)
        lo, hi, den = eval_poly(num, a, b, d)
        assert den > 0
        assert Interval(Fraction(lo, den), Fraction(hi, den)) == reference_eval_poly(
            num, Interval(Fraction(a, d), Fraction(b, d)))


def test_value_interval_matches_interval_arithmetic():
    rng = random.Random(43)
    huge = Fraction(10**30)  # no refinement: one evaluation on the given interval
    checked = raised = 0
    for f in seeded_trigs(43, 100):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        b = a + Fraction(rng.randint(1, 20), rng.randint(1, 7))
        t = Interval(a, b)  # t^2 + 1 never vanishes, so the point keeps [a, b]
        den = Interval.point(1) + t * t
        d = Interval.point(1)
        for _ in range(f.max_harmonic):
            d = d * den
        try:
            expected = reference_eval_poly(f.numerator_coeffs(), t) / d
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                morse._value_interval(f, CirclePoint((1, 0, 1), a, b), huge)
            raised += 1
            continue
        got = morse._value_interval(f, CirclePoint((1, 0, 1), a, b), huge)
        assert got == (expected.lo, expected.hi)
        checked += 1
    assert checked > 50 and raised > 0


def test_cohomology_ranks_match_sympy_rank():
    rng = random.Random(99)
    for trial in range(60):
        n_min, n_max = rng.randint(1, 6), rng.randint(1, 6)
        target = rng.randint(0, min(n_min, n_max))
        # rank <= target: a product of random n_max x target and target x n_min
        left = [[rng.randint(-3, 3) for _ in range(target)] for _ in range(n_max)]
        right = [[rng.randint(-3, 3) for _ in range(n_min)] for _ in range(target)]
        mat = [[sum(left[i][r] * right[r][j] for r in range(target)) for j in range(n_min)]
               for i in range(n_max)]
        basis = GradedBasis(tuple((m, 0) for m in range(n_min))
                            + tuple((n_min + x, 1) for x in range(n_max)))
        entries = {(m,): {n_min + x: mat[x][m] for x in range(n_max) if mat[x][m]}
                   for m in range(n_min)}
        op = MultilinearOp(1, basis, basis, 1, entries)
        rank = sympy.Matrix(mat).rank() if target else 0
        assert cohomology_ranks(op) == (n_min - rank, n_max - rank)


def test_real_root_test_covers_both_branches():
    assert not morse._has_real_root((1, 0, 1))  # t^2 + 1
    assert not morse._has_real_root((1, 0, 2, 0, 1))  # (t^2 + 1)^2
    assert not morse._has_real_root((5,))
    assert morse._has_real_root((1, 0, -2))  # t^2 - 2
    assert morse._has_real_root((1, -3, 1, -3))  # (t^2 + 1)(t - 3)
    assert morse._has_real_root((1, 0, -4, 0, 4))  # (t^2 - 2)^2


def test_real_root_test_matches_sympy_root_count():
    rng = random.Random(31)
    polys = [(1,), (7,)]
    while len(polys) < 600:
        # linear and root-free quadratic factors, some of them squared or cubed
        poly = qq_poly((rng.randint(1, 5),))
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                f = qq_poly((rng.randint(1, 4), rng.randint(-9, 9)))
            else:
                b = rng.randint(-6, 6)
                f = qq_poly((1, b, b * b // 4 + rng.randint(1, 9)))
            poly *= f ** rng.choice((1, 1, 2, 3))
        polys.append(morse._primitive(fractions_of(poly)))
    with_roots = 0
    for a in polys:
        count = int(qq_poly(a).count_roots())  # distinct real roots
        assert morse._has_real_root(a) == (count > 0), a
        if len(a) > 1:
            assert len(morse._isolate(morse._sqf_part(a))) == count, a
        with_roots += count > 0
    assert 100 < with_roots < len(polys) - 100


# The enclosure in y that mpmath gave before the exact arctangent bounds
# replaced it: the reference that _y_interval must match byte for byte.
def mpmath_y_interval(at_half, t_lo, t_hi):
    if at_half:
        return (Fraction(1, 2), Fraction(1, 2))
    with mpmath.workprec(120):
        vals = []
        for bound in (t_lo, t_hi):
            x = mpmath.mpf(bound.numerator) / mpmath.mpf(bound.denominator)
            y = mpmath.atan(x) / mpmath.pi
            vals.append(Fraction(mpmath.nstr(y, 30, strip_zeros=False)))
    pad = Fraction(1, 2**60)
    lo, hi = min(vals) - pad, max(vals) + pad
    if lo < 0 and hi < 0:
        lo, hi = lo + 1, hi + 1
    return (lo, hi)


def test_y_interval_matches_mpmath_and_encloses_atan():
    edges = [Fraction(t) for t in (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 10**12,
                                   -10**12, Fraction(1, 10**15), Fraction(-1, 10**15),
                                   Fraction(-7, 3))]
    cases = [(False, a, b) for a in edges for b in edges if a <= b]
    for f in seeded_trigs(2025, 800):
        try:
            points = critical_points(f).points
        except ValueError:  # constant or non-Morse
            continue
        cases += [(p.point.at_half, *p.t_interval) for p in points]
    assert len(cases) > 2000 + len(edges) ** 2
    for case in cases:
        lo, hi = morse._y_interval(*case)
        assert (lo, hi) == mpmath_y_interval(*case), case
        if case[0]:
            continue
        with mpmath.workprec(300):
            for t in case[1:]:
                y = mpmath.atan(mpmath.mpf(t.numerator) / t.denominator) / mpmath.pi
                man, exp = y.man_exp  # of |y|
                y = Fraction(int(mpmath.sign(y)) * man) * Fraction(2) ** exp
                assert lo <= (y + 1 if y < 0 < lo else y) <= hi, case
    # u = 0 in the argument reduction: the enclosure is exact up to the pad
    pad = Fraction(1, 2**60)
    assert morse._y_interval(False, Fraction(0), Fraction(1)) == (-pad, Fraction(1, 4) + pad)
    assert morse._y_interval(False, Fraction(-1), Fraction(-1)) == (Fraction(3, 4) - pad,
                                                                    Fraction(3, 4) + pad)


def test_common_factor_without_real_root_is_morse():
    # f = -(cos theta - 2)^3 / 3 has f' = sin theta (cos theta - 2)^2: f' and
    # f'' share the factor 3t^2 + 1 (cos theta = 2), which has no real root
    f = trig(cos={1: Fraction(-17, 4), 2: 1, 3: Fraction(-1, 12)})
    g1, g2 = f.dtheta(), f.dtheta().dtheta()
    common = morse._gcd(morse._primitive(g1.numerator_coeffs()),
                        morse._primitive(g2.numerator_coeffs()))
    assert common == (3, 0, 1)
    crit = critical_points(f)
    assert [p.index for p in crit.points] == [0, 1]  # min at y = 0, max at y = 1/2
    assert crit.points[1].y_interval == (Fraction(1, 2), Fraction(1, 2))


def test_caches_are_bounded():
    assert set(morse_caches()) == {"critical_points", "_numerator_coeffs_cached",
                                   "_dtheta_cached", "_certified_differences"}
    for cache in morse_caches().values():
        assert cache.cache_info().maxsize == morse._CACHE_SIZE
    caches = (critical_points, morse._numerator_coeffs_cached, morse._dtheta_cached)
    for i in range(morse._CACHE_SIZE + 10):
        critical_points(trig(cos={1: i + 1}, sin={2: Fraction(1, 7)}))
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
        assert info.currsize == info.maxsize  # every cache saw more inputs than it keeps
