"""Discrete Legendre duality for convex potentials on rational grids.

A convex potential K is sampled on a uniform rational grid over a box.  Its
Legendre transform maximizes exactly over grid nodes, then refines a degree-4
interpolant around each argmax for O(h^2) accuracy.  The refinement and the
dual Hessian read-off run over all nodes at once: one batched contraction of
the stencil interpolants with per-axis power tables.  The inverse Vandermonde
matrix and the falling-factorial and exponent rows are read-only and cached
per stencil size.  A grid function keeps its transforms, so the involution and
Hessian checks on one grid share one forward transform.  Also checked: the
Monge-Ampere residual (constancy of det Hess K), and at y = grad K(x) both
det Hess K(x) * det Hess Khat(y) = 1 and Hess K(x) = (Hess Khat(y))^{-1}.

This module alone is numerical.  It imports numpy when the first grid function
is built, not at import.  Node coordinates are rational (their floats are
correctly rounded), values are floats, and every check carries an explicit
tolerance.  Centered differences of shifted interior slices define the
discrete gradient and Hessian, and every norm skips the boundary ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, List, Tuple

Box = Tuple[Tuple[Fraction, Fraction], ...]


class _LazyNumpy:
    """numpy's stand-in: the first attribute read imports numpy and rebinds np."""

    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _LazyNumpy()


class GradientRangeError(ValueError):
    """The requested dual box is not inside the discrete gradient image."""


class DomainMismatchError(ValueError):
    pass


def _as_box(box) -> Box:
    return tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)


def _axis_nodes(lo: Fraction, hi: Fraction, h: Fraction) -> np.ndarray:
    """Nodes lo + k h, k = 0, ..., (hi - lo) / h, as float(lo + k h): over a
    common denominator D node k is (a + k b) / D, and Python's int division
    rounds that quotient correctly."""
    n = (hi - lo) / h if h > 0 else Fraction(0)  # h <= 0 fails here, with no division
    if n.denominator != 1 or n <= 0:
        raise ValueError("box side must be a positive integer multiple of a positive h")
    steps = n.numerator
    den = lcm(lo.denominator, h.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = h.numerator * (den // h.denominator)
    return np.array([(a + k * b) / den for k in range(steps + 1)])


@dataclass(frozen=True)
class ConvexGridFunction:
    """Samples of a convex function on a uniform grid over a rational box.

    The convexity certificate is the minimal eigenvalue of the centered
    second-difference Hessian over interior nodes (the margin); construction
    fails when it is below -1e-9.  `legendre` keeps each transform of the
    grid with it, so the values are a read-only copy that cannot go stale.
    """

    box: Box
    h: Fraction
    values: np.ndarray
    convexity_margin: float = field(init=False)
    _duals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))
        object.__setattr__(self, "h", Fraction(self.h))
        # a copy: the write flag of an asarray view would lock the caller's array
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        shape = tuple(len(_axis_nodes(lo, hi, self.h)) for lo, hi in self.box)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {shape}")
        if any(s < 3 for s in shape):
            raise ValueError("need at least 3 nodes per axis for interior checks")
        if not np.isfinite(vals).all():  # a NaN margin would pass the certificate
            raise ValueError("values must be finite")
        margin = float(np.min(np.linalg.eigvalsh(_hessian_field(vals, float(self.h)))))
        object.__setattr__(self, "convexity_margin", margin)
        if margin < -1e-9:
            raise ValueError(f"not convex: discrete Hessian margin {margin}")

    @property
    def n(self) -> int:
        return len(self.box)

    def node_array(self) -> List[np.ndarray]:
        """Float coordinate arrays, one per axis."""
        return [_axis_nodes(lo, hi, self.h) for lo, hi in self.box]

    @staticmethod
    def sample(func: Callable[..., float], box, h) -> "ConvexGridFunction":
        box = _as_box(box)
        h = Fraction(h)
        axes = [_axis_nodes(lo, hi, h) for lo, hi in box]
        grids = np.meshgrid(*axes, indexing="ij")
        vals = np.vectorize(func)(*grids)
        return ConvexGridFunction(box, h, vals)


# ---------------------------------------------------------------------------
# discrete derivatives
# ---------------------------------------------------------------------------


def _shift(v: np.ndarray, step: dict) -> np.ndarray:
    """View of v's interior nodes moved by step[d] nodes along each axis d in step."""
    return v[tuple(slice(1 + step.get(d, 0), s - 1 + step.get(d, 0)) for d, s in enumerate(v.shape))]


def _second_diff(v: np.ndarray, d: int, h: float) -> np.ndarray:
    """Centered second difference along axis d, on the interior nodes."""
    return (_shift(v, {d: 1}) - 2 * _shift(v, {}) + _shift(v, {d: -1})) / h**2


def _mixed_diff(v: np.ndarray, a: int, b: int, h: float) -> np.ndarray:
    pp, pm = _shift(v, {a: 1, b: 1}), _shift(v, {a: 1, b: -1})
    mp, mm = _shift(v, {a: -1, b: 1}), _shift(v, {a: -1, b: -1})
    return (pp - pm - mp + mm) / (4 * h**2)


def _first_diff(v: np.ndarray, d: int, h: float) -> np.ndarray:
    return (_shift(v, {d: 1}) - _shift(v, {d: -1})) / (2 * h)


def _hessian_field(v: np.ndarray, h: float) -> np.ndarray:
    """Array of shape interior_shape + (n, n) of centered-difference Hessians."""
    n = v.ndim
    hess = np.empty(tuple(s - 2 for s in v.shape) + (n, n))
    for a in range(n):
        hess[..., a, a] = _second_diff(v, a, h)
        for b in range(a + 1, n):
            hess[..., a, b] = hess[..., b, a] = _mixed_diff(v, a, b, h)
    return hess


def gradient_field(K: ConvexGridFunction) -> np.ndarray:
    """Centered gradients at interior nodes, shape interior_shape + (n,)."""
    hf = float(K.h)
    return np.stack([_first_diff(K.values, d, hf) for d in range(K.n)], axis=-1)


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
            raise GradientRangeError(f"dual box axis {d} [{float(lo)}, {float(hi)}] not inside "
                                     f"discrete gradient range [{gmin}, {gmax}]")


def _local_interpolants(v: np.ndarray, centers: np.ndarray):
    """Tensor-product polynomial interpolants of v on stencil blocks of
    min(5, side) nodes per axis, one block per row of `centers` (J, n),
    placed at start = centers - size // 2 and clipped into the grid.

    Returns the block starts (J, n) and the coefficients (J, m_1, ..., m_n)
    in the scaled coordinates t = index - start of each block."""
    shape = np.array(v.shape)
    sizes = np.minimum(5, shape)
    starts = np.clip(centers - sizes // 2, 0, shape - sizes)
    n = v.ndim
    coeffs = v[tuple(
        (starts[:, d, None] + np.arange(m)).reshape(
            (-1,) + (1,) * d + (m,) + (1,) * (n - 1 - d))
        for d, m in enumerate(sizes)
    )]
    # one (m, m) @ (m, rest) product per block, the shape of solving one
    # block alone, so each block's coefficients round as they would alone
    for d, m in enumerate(sizes.tolist()):
        moved = np.moveaxis(coeffs, d + 1, 1)
        solved = _inv_vander(m) @ moved.reshape(len(starts), m, -1)
        coeffs = np.moveaxis(solved.reshape(moved.shape), 1, d + 1)
    return starts, coeffs


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # the cached tables below are shared by every call
    return a


@lru_cache(maxsize=8)
def _inv_vander(m: int) -> np.ndarray:
    """Read-only inverse of the Vandermonde matrix of the nodes 0, ..., m - 1."""
    return _frozen(np.linalg.inv(np.vander(np.arange(m, dtype=float), m, increasing=True)))


@lru_cache(maxsize=1)
def _taus():
    """Read-only line-search steps 2^-k: k = 0 alone, then k = 1, ..., 29."""
    return _frozen(np.ones(1)), _frozen(np.array([0.5**k for k in range(1, 30)]))


@lru_cache(maxsize=32)
def _power_rows(m: int, top: int):
    """Read-only rows r <= top of k (k-1) ... (k-r+1) and of max(k - r, 0), k < m."""
    k, r = np.arange(m), np.arange(top + 1)[:, None]
    return (_frozen(np.cumprod(np.vstack([np.ones(m), k - r[:-1]]), axis=0)),
            _frozen(np.maximum(k - r, 0)))


def _derivative_table(coeffs: np.ndarray, t: np.ndarray, top: int) -> np.ndarray:
    """Partial derivatives up to order `top` per axis of the tensor-product
    polynomials coeffs (J, m_1, ..., m_n), each at its own point t (J, n).

    Entry [j, r_1, ..., r_n] is d^r_1/dt_1^r_1 ... d^r_n/dt_n^r_n P_j(t_j):
    one batched contraction of the coefficients with per-axis tables of
    k (k-1) ... (k-r+1) t^(k-r)."""
    n = t.shape[1]
    operands = [coeffs, list(range(n + 1))]
    for d in range(n):
        falling, powers = _power_rows(coeffs.shape[d + 1], top)
        operands += [falling * t[:, d, None, None] ** powers, [0, n + 1 + d, d + 1]]
    return np.einsum(*operands, [0, *range(n + 1, 2 * n + 1)])


@lru_cache(maxsize=8)
def _order_index(n: int):
    """Read-only index tuples of orders e_a and e_a + e_b in a table of order 2."""
    unit = _frozen(np.eye(n, dtype=int))
    pair = _frozen(np.moveaxis(unit[:, None] + unit, -1, 0))
    return (slice(None), *unit.T), (slice(None), *pair)


def _grad_hess(coeffs: np.ndarray, t: np.ndarray):
    """Gradients (J, n) and Hessians (J, n, n) of the polynomials at t."""
    table = _derivative_table(coeffs, t, 2)
    grad, hess = _order_index(t.shape[1])
    return table[grad], table[hess]


def _newton_steps(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve hess[j] step[j] = grad[j] for a stack; a row whose Hessian is
    singular takes the gradient step step[j] = grad[j] instead."""
    try:
        return np.linalg.solve(hess, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = grad.copy()
        for j in range(len(hess)):
            try:
                steps[j] = np.linalg.solve(hess[j], grad[j])
            except np.linalg.LinAlgError:
                pass
        return steps


def _line_search(gain, t, best, rows, step, hi_t) -> np.ndarray:
    """Backtracking along step from t[rows], clipped to [0, hi_t]: each row
    takes the first tau = 2^-k, k < 30, whose trial gains more than 1e-18
    over best, and t and best take that trial in place.  A row's t and best
    stay put while it halves, so tau = 1 is tried for all rows in one call,
    and the other 29 halvings in one more.  Returns the positions in rows
    that no trial improved."""
    pending = np.arange(len(rows))
    for taus in _taus():
        r = rows[pending]
        t_new = np.clip(t[r][:, None] + taus[:, None] * step[pending][:, None], 0.0, hi_t)
        t_new = t_new.reshape(-1, t.shape[1])
        v_new = gain(np.repeat(r, len(taus)), t_new)
        better = v_new.reshape(len(r), len(taus)) > best[r][:, None] + 1e-18
        found = better.any(axis=1)
        first = np.flatnonzero(found) * len(taus) + np.argmax(better[found], axis=1)
        t[r[found]], best[r[found]] = t_new[first], v_new[first]
        pending = pending[~found]
        if not len(pending):
            break
    return pending


def legendre(K: ConvexGridFunction, dual_box, dual_h) -> ConvexGridFunction:
    """Discrete Legendre transform Khat(y) = max_x (<x, y> - K(x)).

    Exact maximization over grid nodes, then local refinement of all dual
    nodes at once: a tensor-product polynomial interpolant of K (degree up
    to 4 per axis) on a stencil around each argmax is maximized by Newton
    ascent clipped to the stencil hull (a gradient step where the Hessian is
    singular), until the gradient is below 1e-14, 30 step halvings gain
    nothing, or 60 iterations.  Each Newton iteration evaluates its step
    halvings in two batched calls (`_line_search`).  The refined values
    carry the interpolation error O(h^5) for smooth K, so second differences
    of the transform remain second-order accurate.

    The transform is computed once per (dual box, dual h) and kept with K,
    so repeated checks on one grid share it; a failed transform is not kept.
    """
    dual_box, dual_h = _as_box(dual_box), Fraction(dual_h)
    key = (dual_box, dual_h)
    if key not in K._duals:
        K._duals[key] = _transform(K, dual_box, dual_h)
    return K._duals[key]


def _transform(K: ConvexGridFunction, dual_box: Box, dual_h: Fraction) -> ConvexGridFunction:
    if len(dual_box) != K.n:
        raise DomainMismatchError("dual box dimension mismatch")
    _check_dual_box(K, dual_box)

    v, hf = K.values, float(K.h)
    mesh = np.meshgrid(*K.node_array(), indexing="ij")
    flat_x = np.stack([m.ravel() for m in mesh], axis=-1)  # (#nodes, n)

    dual_axes = [_axis_nodes(lo, hi, dual_h) for lo, hi in dual_box]
    out_shape = tuple(len(a) for a in dual_axes)
    dual_mesh = np.meshgrid(*dual_axes, indexing="ij")
    ys = np.stack([m.ravel() for m in dual_mesh], axis=-1)  # (#dual, n)

    # columns of (x.y - K(x)) indexed by dual node
    scores = ys @ flat_x.T - v.ravel()[None, :]
    idx = np.array(np.unravel_index(np.argmax(scores, axis=1), v.shape)).T  # (#dual, n)

    # maximize y.x - P(x) = h y.t - P(t) + const over each stencil hull
    starts, coeffs = _local_interpolants(v, idx)
    t = (idx - starts).astype(float)
    hi_t = np.array(coeffs.shape[1:], dtype=float) - 1.0

    def gain(rows, t_rows):
        p = _derivative_table(coeffs[rows], t_rows, 0).reshape(len(rows))
        return hf * np.sum(ys[rows] * t_rows, axis=1) - p

    active = np.arange(len(ys))
    best = gain(active, t)
    for _ in range(60):
        grad_p, hess_p = _grad_hess(coeffs[active], t[active])
        grad = hf * ys[active] - grad_p
        moving = ~(np.max(np.abs(grad), axis=1) < 1e-14)
        active = active[moving]
        if not len(active):
            break
        step = _newton_steps(hess_p[moving], grad[moving])
        # no gain after 30 halvings: done
        keep = np.ones(len(active), dtype=bool)
        keep[_line_search(gain, t, best, active, step, hi_t)] = False
        active = active[keep]
    origin = np.array([float(lo) for lo, _ in K.box])
    x_pt = origin + starts * hf + t * hf
    refined = np.sum(ys * x_pt, axis=1) - _derivative_table(coeffs, t, 0).reshape(len(ys))
    return ConvexGridFunction(dual_box, dual_h, refined.reshape(out_shape))


def involution_error(K: ConvexGridFunction, dual_box, dual_h) -> float:
    """Sup-norm of legendre(legendre(K)) - K over interior nodes of the
    common domain: the largest subgrid of K's grid whose bounds lie inside
    the discrete gradient range of the dual (only there can the double
    transform recover K)."""
    Khat = legendre(K, dual_box, dual_h)
    grads = gradient_field(Khat)
    back_box, offsets = [], []
    for d, ((lo, _), xs) in enumerate(zip(K.box, K.node_array())):
        gmin, gmax = float(np.min(grads[..., d])), float(np.max(grads[..., d]))
        ks = np.flatnonzero((gmin - 1e-12 <= xs) & (xs <= gmax + 1e-12))
        if len(ks) < 3:
            raise DomainMismatchError("common domain too small for interior norms")
        back_box.append((lo + int(ks[0]) * K.h, lo + int(ks[-1]) * K.h))
        offsets.append(int(ks[0]))
    back = legendre(Khat, back_box, K.h)
    sub = K.values[tuple(slice(o, o + s) for o, s in zip(offsets, back.values.shape))]
    return float(np.max(np.abs(_shift(back.values - sub, {}))))


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
    hess_x = _hessian_field(K.values, float(K.h)).reshape(-1, K.n, K.n)
    ys = gradient_field(K).reshape(-1, K.n)
    dual_vals = Khat.values
    dual_hf = float(Khat.h)
    dual_lo = np.array([float(lo) for lo, _ in Khat.box])
    dual_hi = np.array([float(hi) for _, hi in Khat.box])
    t = (ys - dual_lo) / dual_hf
    outside = (t < -1e-9) | (t > np.array(dual_vals.shape) - 1 + 1e-9)
    if margin:
        outside |= (ys < dual_lo + margin) | (ys > dual_hi - margin)
    matched = ~np.any(outside, axis=1)
    if not matched.any():
        raise GradientRangeError("no interior gradient landed inside the dual grid")
    hess_x, t = hess_x[matched], t[matched]
    starts, coeffs = _local_interpolants(dual_vals, np.floor(t).astype(int) + 1)
    hess_y = _grad_hess(coeffs, t - starts)[1] / dual_hf**2
    det_errs = np.abs(np.linalg.det(hess_x) * np.linalg.det(hess_y) - 1.0)
    met_errs = np.max(np.abs(hess_x - np.linalg.inv(hess_y)), axis=(1, 2))
    return HessianDualityReport(
        matched_points=len(det_errs),
        max_det_error=float(np.max(det_errs)),
        max_metric_error=float(np.max(met_errs)),
    )
