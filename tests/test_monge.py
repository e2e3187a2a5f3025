"""Discrete Legendre duality: exactness on quadratics, the closed-form
quartic conjugate, involution and Hessian-duality errors, the batched line
search against one halving at a time, the per-grid transform cache, numpy
loading only with the first grid function, and input validation."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusmirror import criteria, monge
from torusmirror.cli import cmd_legendre
from torusmirror.monge import (
    ConvexGridFunction,
    _derivative_table,
    _newton_steps,
    DomainMismatchError,
    GradientRangeError,
    hessian_determinants,
    hessian_duality_check,
    involution_error,
    legendre,
    ma_residual,
)

H = Fraction(1, 32)


def quadratic(a):
    a = float(a)
    return ConvexGridFunction.sample(lambda x: 0.5 * a * x * x, [(-1, 1)], H)


# -- construction --------------------------------------------------------------


def test_grid_shape_and_convexity_are_validated():
    with pytest.raises(ValueError, match="not convex"):
        ConvexGridFunction.sample(lambda x: -x * x, [(-1, 1)], H)
    with pytest.raises(ValueError, match="shape"):
        ConvexGridFunction([(-1, 1)], H, np.zeros(5))
    with pytest.raises(ValueError, match="multiple"):
        ConvexGridFunction.sample(lambda x: x * x, [(0, Fraction(1, 3))], H)
    K = quadratic(2)
    assert K.convexity_margin == pytest.approx(2.0, abs=1e-9)


def test_values_are_a_read_only_copy():
    raw = quadratic(1).node_array()[0] ** 2
    K = ConvexGridFunction([(-1, 1)], H, raw)
    with pytest.raises(ValueError, match="read-only"):
        K.values[0] = 0.0
    raw[0] = 5.0  # the caller's array stays writable and apart
    assert K.values[0] == 1.0


def test_dual_box_outside_gradient_range_is_rejected():
    K = quadratic(1)  # gradients in about [-1, 1]
    for _ in range(2):  # a failed transform is not cached
        with pytest.raises(GradientRangeError):
            legendre(K, [(-3, 3)], H)
        with pytest.raises(DomainMismatchError):
            legendre(K, [(-1, 1), (-1, 1)], H)
    assert not K._duals


# -- exact families --------------------------------------------------------------


@pytest.mark.parametrize("a", [Fraction(1), Fraction(2), Fraction(1, 2)])
def test_quadratic_conjugate_is_quadratic(a):
    """(a x^2 / 2)^ = y^2 / (2a), recovered to rounding error."""
    K = quadratic(a)
    dual_box = [(-a / 2, a / 2)]
    dual = legendre(K, dual_box, H)
    ys = dual.node_array()[0]
    assert np.max(np.abs(dual.values - ys * ys / (2 * float(a)))) < 1e-12
    assert involution_error(K, dual_box, H) < 1e-12
    assert ma_residual(K) < 1e-12
    assert ma_residual(dual) < 1e-10


def test_quadratic_2d_duality_identities():
    K = ConvexGridFunction.sample(
        lambda x, y: x * x + 0.25 * y * y, [(-1, 1), (-1, 1)], Fraction(1, 16)
    )
    dual_box = [(-1, 1), (Fraction(-1, 4), Fraction(1, 4))]
    assert involution_error(K, dual_box, Fraction(1, 16)) < 1e-12
    dual = legendre(K, dual_box, Fraction(1, 16))
    assert ma_residual(dual) < 1e-10
    rep = hessian_duality_check(K, dual_box, Fraction(1, 16))
    assert rep.matched_points > 0
    assert rep.max_det_error < 1e-9
    assert rep.max_metric_error < 1e-8


def test_quartic_conjugate_matches_closed_form():
    """(x^4 / 4)^ = (3/4) y^{4/3} on a domain away from the origin."""
    K = ConvexGridFunction.sample(
        lambda x: 0.25 * x**4, [(Fraction(1, 2), 1)], Fraction(1, 64)
    )
    dual = legendre(K, [(Fraction(1, 4), Fraction(3, 4))], Fraction(1, 64))
    ys = dual.node_array()[0]
    assert np.max(np.abs(dual.values - 0.75 * ys ** (4.0 / 3.0))) < 1e-10


def test_quartic_is_a_negative_control_for_ma():
    K = ConvexGridFunction.sample(
        lambda x: 0.25 * x**4, [(Fraction(1, 2), 1)], Fraction(1, 32)
    )
    assert ma_residual(K) > 1.0  # det Hess = 3 x^2 is far from constant


def test_anisotropic_2d_cross_term_duality():
    """K = x^2/2 + x^4/12 + x y/10 + y^2/2 + y^4/6 on [-1, 1]^2 at h = 1/12.
    The cross term and the unequal quartic weights make the two axes of the
    batched refinement and Hessian read-off distinguishable."""
    h = Fraction(1, 12)
    K = ConvexGridFunction.sample(
        lambda x, y: 0.5 * x * x + x**4 / 12 + 0.1 * x * y + 0.5 * y * y + y**4 / 6,
        [(-1, 1), (-1, 1)], h,
    )
    dual_box = [(Fraction(-1, 2), Fraction(1, 2))] * 2
    bound = float(h) ** 2
    assert involution_error(K, dual_box, h) <= bound
    assert hessian_duality_check(K, dual_box, h, margin=0.1).max_det_error <= bound


# -- batched refinement ------------------------------------------------------------


def test_derivative_table_matches_numpy_polynomial():
    """Every partial derivative up to order 2 per axis of a stack of
    non-square tensor-product polynomials, against numpy's polynomial module."""
    from numpy.polynomial import polynomial as P

    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=(4, 5, 3))
    t = rng.uniform(0, 4, size=(4, 2))
    table = _derivative_table(coeffs, t, 2)
    assert table.shape == (4, 3, 3)
    for j in range(4):
        for r0 in range(3):
            for r1 in range(3):
                c = P.polyder(P.polyder(coeffs[j], r0, axis=0), r1, axis=1)
                want = P.polyval2d(t[j, 0], t[j, 1], c)
                assert table[j, r0, r1] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_singular_hessian_row_takes_the_gradient_step():
    rng = np.random.default_rng(0)
    hess = rng.normal(size=(5, 2, 2))
    hess = hess @ hess.transpose(0, 2, 1) + np.eye(2)
    hess[2] = [[1.0, 2.0], [2.0, 4.0]]  # exactly singular
    grad = rng.normal(size=(5, 2))
    step = _newton_steps(hess, grad)
    assert np.array_equal(step[2], grad[2])
    for j in (0, 1, 3, 4):
        assert np.array_equal(step[j], np.linalg.solve(hess[j], grad[j]))


def test_cached_tables_are_read_only():
    """Every call shares the cached power rows, inverse Vandermonde matrices,
    line-search steps and index tuples, so none may write to them."""
    assert monge._power_rows(5, 2) is monge._power_rows(5, 2)
    arrays = [*monge._power_rows(5, 2), *monge._power_rows(3, 0), *monge._taus()]
    arrays += [monge._inv_vander(m) for m in range(2, 6)]
    for n in (1, 2):
        grad, hess = monge._order_index(n)
        arrays += [*grad[1:], *hess[1:]]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_inverse_vandermonde_is_a_fresh_inverse_bit_for_bit():
    for m in range(2, 6):
        fresh = np.linalg.inv(np.vander(np.arange(m, dtype=float), m, increasing=True))
        cached = monge._inv_vander(m)
        assert cached is monge._inv_vander(m)
        assert cached.dtype == fresh.dtype and cached.tobytes() == fresh.tobytes()


def test_exact_layers_run_without_numpy():
    # numpy loads with the first grid function: importing every layer the
    # benchmark worker imports, plus criteria and cli, and running suite's
    # exact modules leave it out of sys.modules
    src = str(Path(monge.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys\n"
            "from fractions import Fraction as F\n"
            "from torusmirror import (ainfty, cli, criteria, fukaya_oh, intervals, lattice,\n"
            "                         mirror, monge, morse, novikov, randomgen, transfer, trees)\n"
            "status = cli.main(['suite', '--modules',\n"
            "                   'fo,mirror,morse,novikov,signs,transfer,trees'])\n"
            "before = 'numpy' in sys.modules\n"
            "K = monge.ConvexGridFunction.sample(lambda x: 0.25 * x**4, [(F(1, 2), 1)], F(1, 16))\n"
            "dual = monge.legendre(K, [(F(1, 4), F(3, 4))], F(1, 16))\n"
            "np = sys.modules.get('numpy')\n"
            "print()\n"
            "print(status, before, monge.np is np, type(dual.values) is np.ndarray)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False True True"


def _sequential_line_search(gain, t, best, rows, step, hi_t, halvings):
    """Reference model of `monge._line_search`: every pending row tries
    tau = 1, 1/2, ..., 2^-29 one halving at a time and stops at its first
    gain; the k of each accepted tau = 2^-k is appended to `halvings`."""
    pending = np.arange(len(rows))
    tau = 1.0
    for k in range(30):
        r = rows[pending]
        t_new = np.clip(t[r] + tau * step[pending], 0.0, hi_t)
        v_new = gain(r, t_new)
        better = v_new > best[r] + 1e-18
        t[r[better]], best[r[better]] = t_new[better], v_new[better]
        halvings += [k] * int(np.sum(better))
        pending = pending[~better]
        if not len(pending):
            break
        tau *= 0.5
    return pending


def convex_2d(t0, t1):
    """The legendre benchmark's 2D potential with tilt (t0, t1) on [-1, 1]^2,
    and its dual box."""
    f = lambda x, y: (0.5 * x * x + x**4 / 12 + 0.1 * x * y + 0.5 * y * y + y**4 / 12
                      + float(t0) * x + float(t1) * y)
    return f, [(-1, 1)] * 2, [(Fraction(-1, 2) + t0, Fraction(1, 2) + t0),
                              (Fraction(-1, 2) + t1, Fraction(1, 2) + t1)]


_FLAT = Fraction(1, 2**40)  # within the 1e-12 slack below the gradient range

LINE_SEARCH_CASES = [
    (lambda x: 0.25 * x**4, [(Fraction(1, 2), 1)],
     [(Fraction(1, 4), Fraction(3, 4))], Fraction(1, 16)),
    (lambda x: 0.25 * x**4, [(Fraction(1, 2), 1)],
     [(Fraction(1, 4), Fraction(3, 4))], Fraction(1, 32)),
    (lambda x: 0.25 * x**4, [(Fraction(1, 2), 1)],
     [(Fraction(1, 4), Fraction(3, 4))], Fraction(1, 64)),
    (*convex_2d(Fraction(1, 4), Fraction(-1, 8)), Fraction(1, 12)),
    # singular Hessians: dual nodes -2^-40 maximize over the flat quadrant,
    # whose stencils hold only zeros, so their rows take the gradient step
    (lambda x, y: max(0.0, x) ** 2 + max(0.0, y) ** 2, [(-1, 1)] * 2,
     [(-_FLAT, Fraction(1, 2) - _FLAT)] * 2, Fraction(1, 8)),
]


def test_batched_line_search_matches_sequential_halving(monkeypatch):
    """The refined transforms are bit-identical to those of the sequential
    halving loop, including rows that gain only after 20 or more halvings."""
    halvings = []
    for f, box, dual_box, h in LINE_SEARCH_CASES:
        K = ConvexGridFunction.sample(f, box, h)
        batched = legendre(K, dual_box, h).values
        with monkeypatch.context() as m:
            m.setattr(monge, "_line_search",
                      lambda *args: _sequential_line_search(*args, halvings))
            sequential = monge._transform(K, monge._as_box(dual_box), h).values
        assert batched.tobytes() == sequential.tobytes()
    assert max(halvings) >= 20


def test_benchmark_grids_are_pinned_bit_for_bit():
    """Forward and back transforms, involution errors and Hessian-duality
    reports on legendre-benchmark grids (quartic ladders with tilts, and the
    2D potential), byte for byte: a speed-up must not move one float bit."""
    F = Fraction
    grids = []
    for k in (-64, -37, -16, 0, 11, 29, 50, 64):
        tilt = F(k, 64)
        f = lambda x, t=float(tilt), c=(k % 16) / 8: 0.25 * x**4 + t * x + c
        dual_box = [(F(1, 4) + tilt, F(3, 4) + tilt)]
        grids += [(f, [(F(1, 2), 1)], dual_box, h) for h in (F(1, 16), F(1, 32), F(1, 64))]
    for tilt in ((F(1, 4), F(-1, 8)), (F(-7, 32), F(3, 32)), (F(0), F(1, 4))):
        grids += [(*convex_2d(*tilt), h) for h in (F(1, 12), F(1, 16))]
    digest = hashlib.sha256()
    for f, box, dual_box, h in grids:
        K = ConvexGridFunction.sample(f, box, h)
        inv = involution_error(K, dual_box, h)
        rep = hessian_duality_check(K, dual_box, h, margin=0.1)
        dual = legendre(K, dual_box, h)
        (back,) = dual._duals.values()
        for arr in (dual.values, back.values, np.float64(inv)):
            digest.update(arr.tobytes())
        digest.update(repr(rep).encode())
    assert digest.hexdigest() == "6afc0c0279d1413a2e4d9c9cffe55faf7f9acf4f4498f68d5ef535bb7e620a4a"


def test_transform_is_cached_per_dual_grid(monkeypatch, tmp_path):
    K = quadratic(1)
    box = [(Fraction(-1, 4), Fraction(1, 4))]
    dual = legendre(K, box, H)
    assert legendre(K, ((-0.25, 0.25),), Fraction(2, 64)) is dual
    finer = legendre(K, box, H / 2)
    narrower = legendre(K, [(Fraction(-1, 8), Fraction(1, 4))], H)
    assert [d.values.shape for d in (dual, finer, narrower)] == [(17,), (33,), (13,)]
    assert len(K._duals) == 3

    # one forward and one back transform per involution check: criterion 8
    # on one grid (a quartic and three quadratics) and the CLI command
    calls = []
    transform = monge._transform
    monkeypatch.setattr(monge, "_transform", lambda *a: calls.append(a) or transform(*a))
    assert criteria.legendre_duality([Fraction(1, 16)]).ok
    assert len(calls) == 8
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "box": [[-1, 1]], "h": [1, 32],
        "values": (K.node_array()[0] ** 2 / 2).tolist(),
        "dual_box": [[[-1, 2], [1, 2]]], "dual_h": [1, 32],
    }))
    del calls[:]
    assert cmd_legendre(str(path), 1e-6).status == "PASS"
    assert len(calls) == 2


def test_node_coordinates_are_correctly_rounded():
    """Float nodes equal float(lo + k h) bit for bit: on every grid of
    acceptance criterion 8 (the involution's back boxes are subgrids of
    these), on the quartic and 2D grids of the legendre benchmark with all
    their tilts, and on a grid whose integer numerators exceed 2^53."""
    F = Fraction
    boxes = []
    for h in (F(1, 16), F(1, 32), F(1, 64)):
        boxes += [((F(1, 2), F(1)), h), ((F(-1), F(1)), h)]
        boxes += [((-a / 2, a / 2), h) for a in (F(1), F(2), F(1, 2))]
        boxes += [((F(1, 4) + F(k, 64), F(3, 4) + F(k, 64)), h) for k in range(-64, 65)]
    for h in (F(1, 12), F(1, 16)):
        boxes += [((F(-1), F(1)), h)]
        boxes += [((F(-1, 2) + F(k, 32), F(1, 2) + F(k, 32)), h) for k in range(-8, 9)]
    boxes.append(((F(1, 3**40), 1 + F(1, 3**40)), F(1, 8)))
    for (lo, hi), h in boxes:
        K = ConvexGridFunction.sample(lambda x: x * x, [(lo, hi)], h)
        want = np.array([float(lo + k * h) for k in range(int((hi - lo) / h) + 1)])
        assert K.node_array()[0].tobytes() == want.tobytes()


# -- convergence under refinement ----------------------------------------------


def test_quartic_duality_errors_shrink_at_second_order():
    box = [(Fraction(1, 2), 1)]
    dual_box = [(Fraction(1, 4), Fraction(3, 4))]
    errs = []
    for h in (Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)):
        K = ConvexGridFunction.sample(lambda x: 0.25 * x**4, box, h)
        rep = hessian_duality_check(K, dual_box, h, margin=0.1)
        errs.append((involution_error(K, dual_box, h), rep.max_det_error))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert e_fine[0] < e_coarse[0] and e_fine[1] < e_coarse[1]
    order_det = float(np.log2(errs[0][1] / errs[2][1]) / 2)
    assert order_det >= 1.8


def test_two_grids_are_a_negative_control_for_the_det_order():
    """From h = 1/16 to 1/32 alone the quartic's det error falls at order
    1.75, so criterion 8's order check must fail there and only there."""
    out = criteria.legendre_duality([Fraction(1, 16), Fraction(1, 32)])
    assert out.failures == ["det order 1.75 < 1.8"]


# -- order reversal --------------------------------------------------------------


@settings(max_examples=25)
@given(st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=0.0, max_value=0.5))
def test_conjugation_reverses_pointwise_order(a, bump):
    """K <= L implies Khat >= Lhat."""
    K = quadratic(a)
    L = ConvexGridFunction(
        K.box, K.h, K.values + bump + 0.1 * K.node_array()[0] ** 2
    )
    dual_box = [(Fraction(-1, 4), Fraction(1, 4))]
    Kd = legendre(K, dual_box, H)
    Ld = legendre(L, dual_box, H)
    assert np.all(Kd.values >= Ld.values - 1e-12)


# -- discrete Hessian ------------------------------------------------------------


def test_hessian_determinants_shape():
    K = quadratic(1)
    dets = hessian_determinants(K)
    assert dets.shape == (len(K.node_array()[0]) - 2,)
    assert np.allclose(dets, 1.0)
