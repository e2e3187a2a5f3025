"""Exact linear algebra in `lattice`, cross-checked against sympy.

sympy is only a test-time reference here: the package computes RREF
nullspaces, Hermite normal forms and inertia without it, and each of these
is canonical, so the results must agree exactly.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form

import torusmirror
from torusmirror import lattice
from torusmirror.lattice import (
    adjugate,
    coset_reduce,
    coset_representatives,
    enumerate_below,
    form_points,
    hnf,
    inertia,
    integer_shift,
    lattice_points,
    mat,
    mat_det,
    mat_inv,
    nullspace,
    rank,
)

DRAWS = 400


def fractions_of(m: sympy.Matrix):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows))


def low_rank(rng, rows, cols, scale=3):
    """A random integer rows x cols matrix of rank at most a random r."""
    r = rng.randint(0, min(rows, cols))
    left = [[rng.randint(-scale, scale) for _ in range(r)] for _ in range(rows)]
    right = [[rng.randint(-scale, scale) for _ in range(cols)] for _ in range(r)]
    return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(cols)]
            for i in range(rows)]


def random_symmetric(rng, n):
    """Symmetric rational n x n matrices, often singular or with a zero diagonal."""
    kind = rng.randrange(3)
    if kind == 0:
        b = low_rank(rng, n, n)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        a = [[sum(b[k][i] * signs[k] * b[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
    else:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i != j or kind == 1:
                    a[i][j] = a[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return mat(a)


def sympy_inertia(a):
    m = sympy.Matrix(a)
    roots = m.charpoly().real_roots()  # symmetric: every root is real
    neg = sum(1 for r in roots if r.is_negative)
    pos = sum(1 for r in roots if r.is_positive)
    return neg, len(a) - neg - pos, pos


# -- row reduction: det, inverse, rank, nullspace --------------------------------


def test_row_reduction_kernels_match_sympy():
    rng = random.Random(1)
    for _ in range(DRAWS):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(x, rng.choice([1, 1, 2, 3])) for x in row]
             for row in low_rank(rng, rows, cols)]
        ref = sympy.Matrix(m)
        assert rank(m) == ref.rank()
        assert nullspace(m) == [fractions_of(v.T)[0] for v in ref.nullspace()]
        n = rng.randint(1, 4)
        sq = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert mat_det(sq) == sympy.Matrix(sq).det()
        if mat_det(sq):
            assert mat_inv(sq) == fractions_of(sympy.Matrix(sq).inv())
        else:
            with pytest.raises(ValueError, match="singular"):
                mat_inv(sq)


def test_adjugate_times_the_matrix_is_det_times_identity():
    """adj(a) a = det(a) I in ints, on seeded integer matrices up to 4 x 4 with
    determinants of both signs; a singular matrix raises."""
    rng, signs = random.Random(3), set()
    for _ in range(DRAWS):
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        if mat_det(a) == 0:
            with pytest.raises(ValueError, match="singular"):
                adjugate(a)
            continue
        adj, det = adjugate(a)
        assert type(det) is int and det == sympy.Matrix(a).det()
        assert all(type(x) is int for row in adj for x in row)
        assert [[sum(adj[i][k] * a[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[det * (i == j) for j in range(n)] for i in range(n)]
        signs.add(det > 0)
    assert signs == {True, False}


def test_integer_shift_is_the_least_common_denominator():
    assert integer_shift((Fraction(1, 2), Fraction(-2, 3), 0)) == (6, (3, -4, 0))
    assert integer_shift((Fraction(4), Fraction(-5, 1))) == (1, (4, -5))


def test_nullspace_of_zero_full_rank_and_empty_matrices():
    e = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    assert nullspace([[0, 0, 0], [0, 0, 0]]) == e
    assert nullspace([], 3) == e
    assert nullspace([[1, 2], [3, 4]]) == []
    assert nullspace([[1, 2, 3], [2, 4, 7]]) == [(-2, 1, 0)]
    assert rank([]) == 0 and rank([[0, 0]]) == 0


def test_det_tracks_row_swaps():
    assert mat_det(mat([[0, 1], [1, 0]])) == -1
    assert mat_det(mat([[0, 0, 2], [0, 3, 0], [5, 0, 0]])) == -30
    assert mat_det(mat([[1, 2], [2, 4]])) == 0


# -- inertia ---------------------------------------------------------------------


def test_inertia_matches_sympy_on_seeded_symmetric_matrices():
    rng = random.Random(2)
    for _ in range(DRAWS):
        a = random_symmetric(rng, rng.randint(1, 3))
        assert inertia(a) == sympy_inertia(a), a


def test_inertia_edge_cases():
    assert inertia(mat([[0, 1], [1, 0]])) == (1, 0, 1)  # zero diagonal
    assert inertia(mat([[1, 1], [1, 1]])) == (0, 1, 1)
    assert inertia(mat([[0, 0], [0, 0]])) == (0, 2, 0)
    assert inertia(mat([[0, 0, 1], [0, 0, 0], [1, 0, 0]])) == (1, 1, 1)
    assert inertia(mat([[Fraction(-1, 3)]])) == (1, 0, 0)
    with pytest.raises(ValueError, match="symmetric"):
        inertia(mat([[1, 2], [0, 1]]))


# -- Hermite normal form and cosets ------------------------------------------------


def test_hnf_matches_sympy_on_seeded_nonsingular_matrices():
    rng = random.Random(3)
    seen = 0
    while seen < DRAWS:
        n = rng.randint(1, 3)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if sympy.Matrix(a).det() == 0:
            continue
        seen += 1
        ref = hermite_normal_form(sympy.Matrix(a))
        assert hnf(mat(a)) == tuple(tuple(int(x) for x in ref.row(i)) for i in range(n)), a


def test_hnf_convention_on_a_negative_determinant():
    a = mat([[0, 3], [2, 1]])  # det -6; columns (0, 2) and (3, 1)
    # row 1 has gcd 1, so h[1][1] = 1 and h[0][0] = |det| = 6; the column
    # (3, 1) keeps its top entry 3, already reduced modulo 6
    assert hnf(a) == ((6, 3), (0, 1))
    assert hnf(a) == tuple(tuple(int(x) for x in row)
                           for row in hermite_normal_form(sympy.Matrix(a)).tolist())


def test_hnf_of_a_singular_matrix_raises():
    with pytest.raises(ValueError, match="nonsingular"):
        hnf(mat([[2, 4], [1, 2]]))
    with pytest.raises(ValueError, match="nonsingular"):
        hnf(mat([[0, 0], [0, 0]]))


def test_coset_representatives_are_canonical_and_complete():
    for rows in ([[2, 1], [1, 3]], [[0, 3], [2, 1]], [[2, 0, 1], [0, 2, 1], [1, 1, 3]]):
        a = mat(rows)
        h = hnf(a)
        reps = coset_representatives(a)
        assert len(reps) == len(set(reps)) == abs(mat_det(a))
        assert all(coset_reduce(h, r) == r == coset_reduce(h, list(r)) for r in reps)
        n = len(rows)
        # every point of a box reduces onto a representative, and moving by a
        # lattice vector does not change it
        for x in product(range(-3, 4), repeat=n):
            r = coset_reduce(h, x)
            assert r in reps
            shifted = [x[i] + sum(int(rows[i][j]) * (j + 1) for j in range(n)) for i in range(n)]
            kept = list(shifted)
            assert coset_reduce(h, shifted) == r and shifted == kept  # a list is not changed


# -- memoization by value ---------------------------------------------------------

MEMOIZED = (mat_det, mat_inv, adjugate, inertia, hnf, coset_representatives)


def test_memoized_kernels_share_one_entry_for_list_and_tuple_inputs():
    for rows in ([[2, 1], [1, 3]], [[3, 1, 0], [1, 2, 1], [0, 1, 4]]):
        for f in MEMOIZED:
            assert f.cache_info().maxsize == 256
            f.cache_clear()
            results = [f(rows), f(tuple(map(tuple, rows))), f(mat(rows))]
            assert results[0] == results[1] == results[2], f.__name__
            assert f.cache_info().hits == 2 and f.cache_info().currsize == 1


def test_a_cached_result_cannot_be_changed_by_a_caller():
    rows = [[2, 1], [1, 3]]
    reps = coset_representatives(rows)
    with pytest.raises(TypeError):
        reps[0] = (9, 9)  # the cached value is a tuple, so no caller can change it
    assert coset_representatives(rows) == reps == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
    for f in MEMOIZED:
        hash(f(rows))  # hashable all the way down: no list a caller could mutate


def test_a_singular_matrix_raises_on_every_call():
    for f in (mat_inv, adjugate, hnf, coset_representatives):
        f.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="singular"):
                f([[1, 2], [2, 4]])
        assert f.cache_info().currsize == 0


# -- enumeration below a bound -----------------------------------------------------


def test_enumerate_below_matches_a_box_scan():
    m = mat([[2, 1], [1, 3]])
    v = (Fraction(-7, 3), Fraction(5, 2))
    c = Fraction(-4)

    def q(t):
        return (Fraction(1, 2) * sum(m[i][j] * t[i] * t[j] for i in range(2) for j in range(2))
                + v[0] * t[0] + v[1] * t[1] + c)

    for bound in (Fraction(-6), Fraction(-5), Fraction(0), Fraction(7, 2), Fraction(20)):
        box = [t for t in product(range(-15, 16), repeat=2) if q(t) < bound]
        assert sorted(enumerate_below(m, v, c, bound)) == box
    assert list(enumerate_below(m, v, c, Fraction(-100))) == []


halves = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
small = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def definite_forms(draw):
    """(m, v, c, bound) with m symmetric, half-integral and strictly diagonally
    dominant with a positive diagonal, hence positive definite."""
    n = draw(st.integers(1, 3))
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(halves)
    for i in range(n):
        m[i][i] = sum(abs(x) for x in m[i]) + Fraction(draw(st.integers(1, 4)), 2)
    v = tuple(draw(small) for _ in range(n))
    bound = draw(st.fractions(min_value=-2, max_value=5, max_denominator=4))
    return mat(m), v, draw(small), bound


def q_of(m, v, c, t):
    n = len(t)
    return (Fraction(1, 2) * sum(m[i][j] * t[i] * t[j] for i in range(n) for j in range(n))
            + sum(a * x for a, x in zip(v, t)) + c)


def box_scan(m, v, c, bound):
    """Every t with q(t) < bound, scanned over a box in lexicographic order.

    Each coordinate obeys (t_d - t0_d)^2 <= 2 (bound - q(t0)) (m^{-1})_dd, with
    t0 the real minimizer; inside the box, 2 L q(t) < 2 L bound is decided in
    integers, L the common denominator of all the data.
    """
    n = len(m)
    minv = mat_inv(m)
    t0 = [-sum(minv[i][j] * v[j] for j in range(n)) for i in range(n)]
    gap = bound - q_of(m, v, c, t0)
    if gap <= 0:
        return []
    radii = [isqrt(ceil(2 * gap * minv[d][d])) + 1 for d in range(n)]
    box = product(*(range(floor(t0[d]) - r, ceil(t0[d]) + r + 1) for d, r in enumerate(radii)))
    den = lcm(*(x.denominator for x in (*(e for row in m for e in row), *v, c, bound)))
    mi = [[int(e * den) for e in row] for row in m]
    vi, ci, top = [int(2 * x * den) for x in v], int(2 * c * den), 2 * bound * den
    return [t for t in box
            if sum(mi[i][j] * t[i] * t[j] for i in range(n) for j in range(n))
            + sum(a * x for a, x in zip(vi, t)) + ci < top]


@settings(max_examples=150)
@given(definite_forms())
def test_lattice_points_match_a_box_scan_with_exact_numerators(form):
    m, v, c, bound = form
    den, points = lattice_points(m, v, c, bound)
    ts = [t for t, _ in points]
    assert ts == box_scan(m, v, c, bound)
    assert all(s < t for s, t in zip(ts, ts[1:]))  # strictly lexicographic
    for t, num in points:
        assert isinstance(num, int) and Fraction(num, den) == q_of(m, v, c, t)


@st.composite
def integer_forms(draw):
    """(h, lin, const, top): h symmetric with an even positive diagonal, off-diagonal
    entries odd or even, strictly diagonally dominant, hence positive definite; top
    is below const, at the value of a drawn point, or free."""
    n = draw(st.integers(1, 3))
    h = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            h[i][j] = h[j][i] = draw(st.integers(-5, 5))
    for i in range(n):
        h[i][i] = 2 * ((sum(abs(x) for x in h[i]) + 2) // 2 + draw(st.integers(0, 3)))
    lin = [draw(st.integers(-12, 12)) for _ in range(n)]
    const = draw(st.integers(-20, 20))
    kind = draw(st.sampled_from(("below const", "attained", "free")))
    if kind == "below const":
        top = const - draw(st.integers(1, 10))
    elif kind == "attained":
        t = [draw(st.integers(-3, 3)) for _ in range(n)]
        top = int(q_of(h, lin, const, t))
    else:
        top = draw(st.integers(-30, 60))
    return tuple(map(tuple, h)), lin, const, top


@settings(max_examples=200)
@given(integer_forms())
def test_form_points_match_a_box_scan(form):
    """The integer core keeps exactly the t with Q(t) <= top, Q(t) an int, in
    lexicographic order; a value at top is kept."""
    h, lin, const, top = form
    points = form_points(h, lin, const, top)
    ts = [t for t, _ in points]
    assert ts == box_scan(mat(h), lin, const, top + 1)  # Q integral: Q <= top iff Q < top + 1
    assert all(s < t for s, t in zip(ts, ts[1:]))
    for t, val in points:
        assert type(val) is int and val == q_of(h, lin, const, t) <= top


def test_form_points_edge_values():
    h = ((4, 3, 0), (3, 6, 1), (0, 1, 2))  # odd off-diagonals
    assert form_points(h, [0, 0, 0], 7, 6) == []  # top < const = the minimum Q(0)
    assert form_points(h, [0, 0, 0], 7, 7) == [((0, 0, 0), 7)]  # top attained: kept
    assert form_points(((2,),), [-3], 0, -2) == [((1,), -2), ((2,), -2)]  # both ties kept
    assert form_points(((2,),), [-3], 0, -3) == []
    with pytest.raises(ValueError, match="even diagonal"):
        form_points(((3,),), [0], 0, 5)


@settings(max_examples=60)
@given(definite_forms(), st.fractions(min_value=0, max_value=2, max_denominator=4))
def test_a_bound_at_or_below_the_minimum_yields_nothing(form, drop):
    m, v, c, _bound = form
    lowest = min(q_of(m, v, c, t) for t in box_scan(m, v, c, c + 1))  # q(0) = c
    assert lattice_points(m, v, c, lowest - drop)[1] == []
    den, points = lattice_points(m, v, c, lowest + Fraction(1, 10**6))
    assert points and all(Fraction(num, den) == lowest for _t, num in points)


def test_repeated_enumeration_checks_definiteness_once():
    """The elimination runs once per integer form: lattice_points scales m by D = 6
    here, and the core called on that scaled form directly hits the same entry."""
    lattice.inertia.cache_clear()
    m = mat([[4, 1], [1, 3]])
    for bound in range(1, 8):
        list(enumerate_below(m, (Fraction(1, 3), Fraction(-1, 2)), Fraction(0), Fraction(bound)))
    form_points(((24, 6), (6, 18)), [1, 2], 0, 50)
    inertia(((24, 6), (6, 18)))  # the one eliminated form is this one
    info = lattice.inertia.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 8, 1)


def test_enumerate_below_rejects_indefinite_and_semidefinite_forms():
    for rows in ([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0, 1], [1, 0]]):
        with pytest.raises(ValueError, match="positive definite"):
            list(enumerate_below(mat(rows), (Fraction(1, 2), Fraction(0)), Fraction(0),
                                 Fraction(5)))


def test_a_matrix_of_python_ints_enumerates_like_its_fraction_matrix():
    cases = ((((2, 1), (1, 2)), (0, 0), Fraction(5), 19),
             (((3, 1, 0), (1, 2, 1), (0, 1, 4)), (Fraction(1, 3), 0, Fraction(-1, 2)),
              Fraction(40), 726))
    for rows, v, bound, count in cases:
        results = []
        for m in (rows, mat(rows)):
            adjugate.cache_clear()  # equal matrices share one cache entry
            results.append(lattice_points(m, v, 0, bound))
            assert list(enumerate_below(m, v, 0, bound)) == [t for t, _ in results[-1][1]]
        assert results[0] == results[1] and len(results[0][1]) == count


def test_a_float_matrix_entry_is_rejected():
    # also once its rational twin, an equal cache key, has been enumerated
    assert len(lattice_points(((2, 1), (1, 2)), (0, 0), 0, Fraction(5))[1]) == 19
    for m in (((2.0, 1.0), (1.0, 2.0)), ((2, Fraction(1, 2)), (0.5, 2))):
        with pytest.raises(ValueError, match="exact rationals"):
            lattice_points(m, (0, 0), 0, Fraction(5))


# -- layering ---------------------------------------------------------------------


def test_exact_layers_import_without_sympy():
    src = str(Path(torusmirror.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys\n"
            "import torusmirror.criteria, torusmirror.mirror, torusmirror.randomgen, "
            "torusmirror.transfer\n"
            "print('sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_morse_runs_with_sympy_blocked(tmp_path):
    # sympy and mpmath are test-only references: with their imports blocked,
    # isolation, every y enclosure, weighted products, `morse crit` and the
    # suite's morse module still run, and neither package gets loaded
    src = str(Path(torusmirror.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    trig_file = tmp_path / "trig.json"
    trig_file.write_text('{"f0": {"cos": {"1": [1, 1], "2": [-1, 3]}, "sin": {"1": [2, 5]}}}')
    code = ("import sys\n"
            "sys.modules['sympy'] = sys.modules['mpmath'] = None\n"
            "from fractions import Fraction as F\n"
            "from torusmirror import cli, morse\n"
            "f0 = morse.TrigPolynomial.from_dicts({1: F(1), 2: F(-1, 3)}, {1: F(2, 5)})\n"
            "f1 = morse.TrigPolynomial.from_dicts({2: F(1, 2)}, {1: F(-1), 2: F(1, 4)})\n"
            "f2 = morse.TrigPolynomial.from_dicts({1: F(-2, 3)}, {2: F(3, 2)})\n"
            "points = len(morse.critical_points(f0 - f1).points)\n"
            "entries = len(morse.m2(f0, f1, f2, weighted=True).entries)\n"
            "for g in (f0 - f1, f1 - f2, f0 - f2):\n"
            "    [p.y_interval for p in morse.critical_points(g).points]\n"
            f"crit = cli.main(['morse', 'crit', {str(trig_file)!r}])\n"
            "status = cli.main(['suite', '--modules', 'morse'])\n"
            "loaded = [m for m, v in sys.modules.items()\n"
            "          if v is not None and m.split('.')[0] in ('sympy', 'mpmath')]\n"
            "print()\n"
            "print(points, entries > 0, crit, status, loaded)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "4 True 0 0 []"
