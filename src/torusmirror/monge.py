"""Discrete Legendre duality for convex potentials on rational grids.

A convex potential K is sampled on a uniform rational grid over a box; the
Legendre transform is computed by exact maximization over grid nodes plus a
local quadratic refinement step, giving O(h^2) accuracy.  The module also
checks the two desk-scale duality identities: the Monge-Ampere residual
(constancy of det Hess K) and the Hessian duality
det Hess K(x) * det Hess Khat(grad K(x)) = 1 together with the metric
agreement Hess K(x) = (Hess Khat(y))^{-1} at gradient-matched points.

Unlike the rest of the package this module is numerical: node coordinates
are rational, values are floats, and every check carries an explicit
tolerance.  Centered second differences define the discrete Hessian; the
boundary ring is excluded from all norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import numpy as np

Box = Tuple[Tuple[Fraction, Fraction], ...]


class GradientRangeError(ValueError):
    """The requested dual box is not inside the discrete gradient image."""


class DomainMismatchError(ValueError):
    pass


def _as_box(box) -> Box:
    return tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)


def _axis_nodes(lo: Fraction, hi: Fraction, h: Fraction) -> np.ndarray:
    n = (hi - lo) / h
    if n.denominator != 1 or n <= 0:
        raise ValueError("box side must be a positive integer multiple of h")
    return lo + h * np.arange(int(n) + 1)


@dataclass(frozen=True)
class ConvexGridFunction:
    """Samples of a convex function on a uniform grid over a rational box.

    The convexity certificate is the minimal eigenvalue of the centered
    second-difference Hessian over interior nodes (the margin); construction
    fails when it is below -tol.
    """

    box: Box
    h: Fraction
    values: np.ndarray
    convexity_margin: float = field(init=False)
    tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))
        object.__setattr__(self, "h", Fraction(self.h))
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        shape = tuple(len(_axis_nodes(lo, hi, self.h)) for lo, hi in self.box)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {shape}")
        if any(s < 3 for s in shape):
            raise ValueError("need at least 3 nodes per axis for interior checks")
        margin = float(np.min(_hessian_eigs(vals, float(self.h))))
        object.__setattr__(self, "convexity_margin", margin)
        if margin < -self.tol:
            raise ValueError(f"not convex: discrete Hessian margin {margin}")

    @property
    def n(self) -> int:
        return len(self.box)

    def axis_nodes(self, d: int) -> List[Fraction]:
        lo, hi = self.box[d]
        steps = int((hi - lo) / self.h)
        return [lo + k * self.h for k in range(steps + 1)]

    def node_array(self) -> List[np.ndarray]:
        """Float coordinate arrays, one per axis."""
        return [np.array([float(x) for x in self.axis_nodes(d)]) for d in range(self.n)]

    @staticmethod
    def sample(func: Callable[..., float], box, h) -> "ConvexGridFunction":
        box = _as_box(box)
        h = Fraction(h)
        axes = [_axis_nodes(lo, hi, h) for lo, hi in box]
        grids = np.meshgrid(*[a.astype(float) for a in axes], indexing="ij")
        vals = np.vectorize(func)(*grids)
        return ConvexGridFunction(box, h, vals)


# ---------------------------------------------------------------------------
# discrete derivatives
# ---------------------------------------------------------------------------


def _interior(shape: Tuple[int, ...]):
    return tuple(slice(1, s - 1) for s in shape)


def _second_diff(v: np.ndarray, d: int, h: float) -> np.ndarray:
    """Centered second difference along axis d, on interior of that axis."""
    up = np.roll(v, -1, axis=d)
    dn = np.roll(v, 1, axis=d)
    return (up - 2 * v + dn) / h**2


def _mixed_diff(v: np.ndarray, a: int, b: int, h: float) -> np.ndarray:
    pp = np.roll(np.roll(v, -1, axis=a), -1, axis=b)
    pm = np.roll(np.roll(v, -1, axis=a), 1, axis=b)
    mp = np.roll(np.roll(v, 1, axis=a), -1, axis=b)
    mm = np.roll(np.roll(v, 1, axis=a), 1, axis=b)
    return (pp - pm - mp + mm) / (4 * h**2)


def _first_diff(v: np.ndarray, d: int, h: float) -> np.ndarray:
    return (np.roll(v, -1, axis=d) - np.roll(v, 1, axis=d)) / (2 * h)


def _hessian_field(v: np.ndarray, h: float) -> np.ndarray:
    """Array of shape interior_shape + (n, n) of centered-difference Hessians."""
    n = v.ndim
    inner = _interior(v.shape)
    hess = np.empty(tuple(s - 2 for s in v.shape) + (n, n))
    for a in range(n):
        hess[..., a, a] = _second_diff(v, a, h)[inner]
        for b in range(a + 1, n):
            m = _mixed_diff(v, a, b, h)[inner]
            hess[..., a, b] = m
            hess[..., b, a] = m
    return hess

def _hessian_eigs(v: np.ndarray, h: float) -> np.ndarray:
    return np.linalg.eigvalsh(_hessian_field(v, h))


def gradient_field(K: ConvexGridFunction) -> np.ndarray:
    """Centered gradients at interior nodes, shape interior_shape + (n,)."""
    v = K.values
    hf = float(K.h)
    inner = _interior(v.shape)
    return np.stack([_first_diff(v, d, hf)[inner] for d in range(K.n)], axis=-1)


def hessian_determinants(K: ConvexGridFunction) -> np.ndarray:
    return np.linalg.det(_hessian_field(K.values, float(K.h)))


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------


def _check_dual_box(K: ConvexGridFunction, dual_box: Box) -> None:
    grads = gradient_field(K)
    for d, (lo, hi) in enumerate(dual_box):
        gmin, gmax = float(np.min(grads[..., d])), float(np.max(grads[..., d]))
        if float(lo) < gmin - 1e-12 or float(hi) > gmax + 1e-12:
            raise GradientRangeError(
                f"dual box axis {d} [{float(lo)}, {float(hi)}] not inside "
                f"discrete gradient range [{gmin}, {gmax}]"
            )


def _local_interpolant(v: np.ndarray, start: Sequence[int], sizes: Sequence[int]):
    """Tensor-product polynomial coefficients of v on the stencil block
    [start, start+sizes) in scaled coordinates t = (index - start)."""
    block = v[tuple(slice(s, s + m) for s, m in zip(start, sizes))].astype(float)
    coeffs = block
    for d, m in enumerate(sizes):
        vand = np.vander(np.arange(m, dtype=float), m, increasing=True)
        inv = np.linalg.inv(vand)
        coeffs = np.tensordot(inv, coeffs, axes=([1], [d]))
        coeffs = np.moveaxis(coeffs, 0, d)
    return coeffs


def _poly_eval_grad_hess(coeffs: np.ndarray, t: np.ndarray):
    n = coeffs.ndim

    def powers(x, m, deriv):
        p = np.zeros(m)
        for k in range(deriv, m):
            f = 1.0
            for j in range(deriv):
                f *= k - j
            p[k] = f * x ** (k - deriv)
        return p

    val_p = [powers(t[d], coeffs.shape[d], 0) for d in range(n)]
    d1_p = [powers(t[d], coeffs.shape[d], 1) for d in range(n)]
    d2_p = [powers(t[d], coeffs.shape[d], 2) for d in range(n)]

    def contract(choice):
        c = coeffs
        for d in range(n - 1, -1, -1):
            c = np.tensordot(choice[d], c, axes=([0], [d]))
        return float(c)

    val = contract(val_p)
    grad = np.array(
        [contract([d1_p[d] if e == d else val_p[e] for e in range(n)]) for d in range(n)]
    )
    hess = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            ch = []
            for e in range(n):
                if e == a and e == b:
                    ch.append(d2_p[e])
                elif e in (a, b):
                    ch.append(d1_p[e])
                else:
                    ch.append(val_p[e])
            hess[a, b] = contract(ch)
    return val, grad, hess


def legendre(K: ConvexGridFunction, dual_box, dual_h) -> ConvexGridFunction:
    """Discrete Legendre transform Khat(y) = max_x (<x, y> - K(x)).

    Exact maximization over grid nodes, then local refinement: a
    tensor-product polynomial interpolant of K (degree up to 4 per axis) on
    a stencil around the argmax is maximized by projected Newton ascent.
    The refined values carry the interpolation error O(h^5) for smooth K,
    so second differences of the transform remain second-order accurate.
    """
    dual_box = _as_box(dual_box)
    dual_h = Fraction(dual_h)
    if len(dual_box) != K.n:
        raise DomainMismatchError("dual box dimension mismatch")
    _check_dual_box(K, dual_box)

    v = K.values
    hf = float(K.h)
    axes = K.node_array()
    mesh = np.meshgrid(*axes, indexing="ij")
    flat_x = np.stack([m.ravel() for m in mesh], axis=-1)  # (#nodes, n)
    flat_v = v.ravel()

    dual_axes = [_axis_nodes(lo, hi, dual_h).astype(float) for lo, hi in dual_box]
    out_shape = tuple(len(a) for a in dual_axes)
    dual_mesh = np.meshgrid(*dual_axes, indexing="ij")
    ys = np.stack([m.ravel() for m in dual_mesh], axis=-1)  # (#dual, n)

    # columns of (x.y - K(x)) indexed by dual node
    scores = ys @ flat_x.T - flat_v[None, :]
    arg = np.argmax(scores, axis=1)
    base = scores[np.arange(len(ys)), arg]

    idx = np.array(np.unravel_index(arg, v.shape)).T  # (#dual, n)
    refined = base.copy()
    interp_cache = {}
    origin = np.array([float(lo) for lo, _ in K.box])
    for j in range(len(ys)):
        sizes = tuple(min(5, v.shape[d]) for d in range(K.n))
        start = tuple(
            int(np.clip(idx[j, d] - sizes[d] // 2, 0, v.shape[d] - sizes[d]))
            for d in range(K.n)
        )
        key = (start, sizes)
        if key not in interp_cache:
            interp_cache[key] = _local_interpolant(v, start, sizes)
        coeffs = interp_cache[key]
        y = ys[j]
        t = (idx[j] - np.array(start)).astype(float)
        hi_t = np.array(sizes, dtype=float) - 1.0
        # maximize y.x - P(x) = h*y.t - P(t) + const over the stencil hull
        _, g0, _ = _poly_eval_grad_hess(coeffs, t)
        best_val = hf * float(y @ t) - _poly_eval_grad_hess(coeffs, t)[0]
        for _ in range(60):
            val, grad_p, hess_p = _poly_eval_grad_hess(coeffs, t)
            grad = hf * y - grad_p
            if float(np.max(np.abs(grad))) < 1e-14:
                break
            try:
                step = np.linalg.solve(hess_p, grad)
            except np.linalg.LinAlgError:
                step = grad
            tau = 1.0
            improved = False
            for _ in range(30):
                t_new = np.clip(t + tau * step, 0.0, hi_t)
                v_new = hf * float(y @ t_new) - _poly_eval_grad_hess(coeffs, t_new)[0]
                if v_new > best_val + 1e-18:
                    t, best_val, improved = t_new, v_new, True
                    break
                tau *= 0.5
            if not improved:
                break
        x_pt = origin + np.array(start) * hf + t * hf
        refined[j] = float(y @ x_pt) - _poly_eval_grad_hess(coeffs, t)[0]
    return ConvexGridFunction(dual_box, dual_h, refined.reshape(out_shape))


def involution_error(K: ConvexGridFunction, dual_box, dual_h) -> float:
    """Sup-norm of legendre(legendre(K)) - K over interior nodes of the
    common domain: the largest subgrid of K's grid whose bounds lie inside
    the discrete gradient range of the dual (only there can the double
    transform recover K)."""
    Khat = legendre(K, dual_box, dual_h)
    grads = gradient_field(Khat)
    back_box = []
    offsets = []
    for d, (lo, hi) in enumerate(K.box):
        gmin, gmax = float(np.min(grads[..., d])), float(np.max(grads[..., d]))
        steps = int((hi - lo) / K.h)
        ks = [k for k in range(steps + 1)
              if gmin - 1e-12 <= float(lo + k * K.h) <= gmax + 1e-12]
        if len(ks) < 3:
            raise DomainMismatchError("common domain too small for interior norms")
        back_box.append((lo + ks[0] * K.h, lo + ks[-1] * K.h))
        offsets.append(ks[0])
    back = legendre(Khat, back_box, K.h)
    sub = K.values[tuple(
        slice(o, o + s) for o, s in zip(offsets, back.values.shape)
    )]
    diff = back.values - sub
    return float(np.max(np.abs(diff[_interior(diff.shape)])))


def ma_residual(K: ConvexGridFunction) -> float:
    """Max over interior nodes of |det Hess K - median(det Hess K)|."""
    dets = hessian_determinants(K)
    return float(np.max(np.abs(dets - np.median(dets))))


# ---------------------------------------------------------------------------
# Hessian duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HessianDualityReport:
    matched_points: int
    max_det_error: float  # max |det Hess K(x) * det Hess Khat(y) - 1|
    max_metric_error: float  # max entrywise |Hess K(x) - (Hess Khat(y))^{-1}|


def hessian_duality_check(
    K: ConvexGridFunction, dual_box, dual_h, margin: float = 0.0
) -> HessianDualityReport:
    """Check det Hess K(x) * det Hess Khat(y) = 1 and the metric identity
    Hess K(x) = (Hess Khat(y))^{-1} at gradient-matched points y = grad K(x).

    Matched points are the interior nodes x whose discrete gradient lands
    inside the dual grid (shrunk by the fixed `margin`, which keeps the
    evaluation region independent of the grid spacing in convergence
    studies); the dual Hessian is read off a local degree-4 polynomial
    interpolant of Khat at the matched point, so its error is one order
    better than the centered differences on the primal side.
    """
    Khat = legendre(K, dual_box, dual_h)
    hess_K = _hessian_field(K.values, float(K.h))
    grads = gradient_field(K)
    dual_vals = Khat.values
    dual_hf = float(Khat.h)
    dual_lo = np.array([float(lo) for lo, _ in Khat.box])
    interp_cache = {}

    def dual_hessian(y: np.ndarray):
        t_global = (y - dual_lo) / dual_hf
        if np.any(t_global < -1e-9) or np.any(
            t_global > np.array(dual_vals.shape) - 1 + 1e-9
        ):
            return None
        sizes = tuple(min(5, s) for s in dual_vals.shape)
        start = tuple(
            int(np.clip(np.floor(t_global[d]) - sizes[d] // 2 + 1, 0,
                        dual_vals.shape[d] - sizes[d]))
            for d in range(K.n)
        )
        key = (start, sizes)
        if key not in interp_cache:
            interp_cache[key] = _local_interpolant(dual_vals, start, sizes)
        _, _, hess_t = _poly_eval_grad_hess(
            interp_cache[key], t_global - np.array(start)
        )
        return hess_t / dual_hf**2

    det_errs: List[float] = []
    met_errs: List[float] = []
    flat_h = hess_K.reshape(-1, K.n, K.n)
    flat_g = grads.reshape(-1, K.n)
    for hess_x, y in zip(flat_h, flat_g):
        if margin and any(
            y[d] < float(lo) + margin or y[d] > float(hi) - margin
            for d, (lo, hi) in enumerate(Khat.box)
        ):
            continue
        hess_y = dual_hessian(y)
        if hess_y is None:
            continue
        det_errs.append(abs(np.linalg.det(hess_x) * np.linalg.det(hess_y) - 1.0))
        met_errs.append(float(np.max(np.abs(hess_x - np.linalg.inv(hess_y)))))
    if not det_errs:
        raise GradientRangeError("no interior gradient landed inside the dual grid")
    return HessianDualityReport(
        matched_points=len(det_errs),
        max_det_error=float(max(det_errs)),
        max_metric_error=float(max(met_errs)),
    )


# ---------------------------------------------------------------------------
# integral affine chart metadata
# ---------------------------------------------------------------------------


def validate_affine_chart(matrix: Sequence[Sequence[int]], translation: Sequence) -> bool:
    """Transition data for integral affine charts: matrix in SL(n, Z)."""
    m = [[Fraction(c) for c in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m) or len(list(translation)) != n:
        return False
    if any(c.denominator != 1 for row in m for c in row):
        return False
    from .lattice import mat_det

    return mat_det(tuple(tuple(r) for r in m)) == 1
