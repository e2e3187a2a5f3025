"""Per-layer tracing from outside the package.

``install`` wraps the public functions of each ``torusmirror`` layer in
place.  A function is rebound in every module that holds it (for example
``enumerate_below`` in ``lattice``, ``mirror`` and ``fukaya_oh``), and
methods are patched on their class, so internal calls are traced too.
Spans nest on one stack; a span's self time is its duration minus the
durations of the spans it directly contains.  Generators such as
``enumerate_below`` are timed per ``next()``, so the caller's loop body is
not charged to the layer.  Nothing under ``src/`` is changed on disk.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: list = []  # [start, time of child spans]

    def enter(self) -> None:
        self._stack.append([_clock(), 0.0])

    def leave(self, name: str, call: bool = True) -> None:
        start, child = self._stack.pop()
        dur = _clock() - start
        if call:
            self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; after(args, result) may add counts."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(name)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def generator_span(self, name: str, fn: Callable, kept: str) -> Callable:
        """Wrap a generator function: one call per creation, one span per next()."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        self.counts.setdefault(kept, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                self.enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.leave(name, call=False)
                self.counts[kept] += 1
                yield item

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Count calls without a span, for functions too small to time."""
        self.calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(original, replacement) -> int:
    """Replace original by replacement in every torusmirror module."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "torusmirror" or mod_name.startswith("torusmirror.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    if n == 0:
        raise RuntimeError(f"{original!r} is bound in no torusmirror module")
    return n


def _patch_method(cls, attr: str, replacement, static: bool = False) -> None:
    setattr(cls, attr, staticmethod(replacement) if static else replacement)


def install(tracer: Tracer) -> Dict[str, Callable[[], float]]:
    """Wrap every traced layer; return the derived metrics to read at the end."""
    from torusmirror import (
        ainfty, fukaya_oh, intervals, lattice, mirror, monge, morse, novikov,
        randomgen, transfer, trees,
    )

    T = tracer
    C = T.counts

    def fn(name, original, after=None):
        _rebind(original, T.span(name, original, after))

    # -- novikov: operators patched on the class, aliases included --------
    N = novikov.NovikovElem

    def mul_counts(args, out):
        a, b = args
        nb = len(b.terms) if isinstance(b, N) else 1
        C["novikov.mul_term_pairs"] += len(a.terms) * nb
        C["novikov.mul_terms_out"] += len(out.terms)

    add = N.__add__
    mul = N.__mul__
    _patch_method(N, "__add__", T.span("novikov.add", add))
    _patch_method(N, "__radd__", T.span("novikov.add", add))
    _patch_method(N, "__mul__", T.span("novikov.mul", mul, mul_counts))
    _patch_method(N, "__rmul__", T.span("novikov.mul", mul, mul_counts))
    _patch_method(N, "truncate", T.span("novikov.truncate", N.truncate))
    _patch_method(N, "inv", T.span("novikov.inv", N.inv))
    _patch_method(N, "q_power", T.counter("novikov.q_power", N.q_power), static=True)

    # -- lattice ---------------------------------------------------------
    matrices: set = set()

    def note_matrix(args, out):
        matrices.add(args[0])

    _rebind(lattice.enumerate_below,
            T.generator_span("lattice.enumerate_below", lattice.enumerate_below,
                             "lattice.points_kept"))
    fn("lattice.inertia", lattice.inertia, note_matrix)
    fn("lattice.hnf", lattice.hnf)

    # -- fukaya_oh ---------------------------------------------------------
    def m2_terms(args, out):
        C["fukaya_oh.m2_terms_out"] += sum(len(v.terms) for v in out.values())

    fn("fukaya_oh.m2", fukaya_oh.m2, m2_terms)
    fn("fukaya_oh.intersections", fukaya_oh.intersections)

    # -- mirror ------------------------------------------------------------
    fn("mirror.theta_basis", mirror.theta_basis)
    fn("mirror.theta_multiply", mirror.theta_multiply)

    def table_entries(args, out):
        C["mirror.table_entries"] += len(set(args[0]) | set(args[1]))

    fn("mirror.triangle_table", mirror.triangle_product_table)
    fn("mirror.compare_tables", mirror.compare_tables, table_entries)
    _patch_method(mirror.LaurentSeriesNd, "multiply",
                  T.span("mirror.laurent_multiply", mirror.LaurentSeriesNd.multiply))

    # -- ainfty ------------------------------------------------------------
    def entries(op) -> int:
        return sum(len(row) for row in op.entries.values())

    def structure_entries(args, out):
        C["ainfty.input_entries"] += sum(entries(op) for op in args[0].ops.values())

    def morphism_entries(args, out):
        C["ainfty.input_entries"] += sum(entries(op) for op in args[0].components.values())

    fn("ainfty.relation_defect", ainfty.relation_defect, structure_entries)
    fn("ainfty.morphism_defect", ainfty.morphism_defect, morphism_entries)
    fn("ainfty.bar_check", ainfty.bar_check, structure_entries)
    fn("ainfty.assemble_sequence", ainfty.assemble_sequence)

    # -- transfer and trees --------------------------------------------------
    retractions: dict = {}

    def note_retraction(args, out):
        retractions[id(args[0])] = args[0]

    fn("transfer.transfer_structure", transfer.transfer_structure, note_retraction)
    fn("transfer.transfer_morphism", transfer.transfer_morphism)
    fn("transfer.tree_sum", transfer.transfer_structure_by_trees)
    fn("transfer.validate", transfer.validate)

    def trees_out(args, out):
        C["trees.trees_out"] += len(out)

    fn("trees.enumerate_trees", trees.enumerate_trees, trees_out)

    # -- randomgen -----------------------------------------------------------
    fn("randomgen.random_dg_algebra", randomgen.random_dg_algebra)
    fn("randomgen.retraction", randomgen.retraction_onto_cohomology)
    fn("randomgen.corrupt_structure", randomgen.corrupt_structure)

    # -- morse and intervals ---------------------------------------------------
    cache = morse.critical_points
    info0 = cache.cache_info()
    fn("morse.critical_points", cache)
    fn("morse.m2", morse.m2)
    fn("morse.transversal_triple", morse.transversal_triple)
    fn("morse.morse_differential", morse.morse_differential)
    fn("morse.cohomology_ranks", morse.cohomology_ranks)
    _patch_method(morse.CirclePoint, "refine",
                  T.counter("morse.refine", morse.CirclePoint.refine))
    fn("intervals.eval_poly", intervals.eval_poly)

    # -- monge -----------------------------------------------------------------
    def grid_sizes(args, out):
        dual = out.values.size
        C["monge.dual_nodes"] += dual
        C["monge.score_bytes_computed"] += 8 * dual * args[0].values.size

    fn("monge.legendre", monge.legendre, grid_sizes)
    fn("monge.involution_error", monge.involution_error)
    fn("monge.hessian_duality", monge.hessian_duality_check)
    _patch_method(monge.ConvexGridFunction, "sample",
                  T.span("monge.sample", monge.ConvexGridFunction.sample), static=True)

    # counts added by the wrappers above and by the checks themselves
    for name in (
        "novikov.mul_term_pairs", "novikov.mul_terms_out", "fukaya_oh.m2_terms_out",
        "mirror.table_entries", "ainfty.input_entries", "ainfty.defect_raw_nonzero",
        "transfer.higher_entries", "trees.trees_out", "morse.draws", "morse.transversal",
        "monge.dual_nodes", "monge.score_bytes_computed",
    ):
        C.setdefault(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def cache_hit_ratio() -> float:
        info = cache.cache_info()
        hits, misses = info.hits - info0.hits, info.misses - info0.misses
        return ratio(hits, hits + misses)

    return {
        "novikov.mul_kept_ratio": lambda: ratio(C["novikov.mul_terms_out"],
                                                C["novikov.mul_term_pairs"]),
        "lattice.inertia_reuse_ratio": lambda: ratio(T.calls["lattice.inertia"], len(matrices)),
        "transfer.builds_per_retraction": lambda: ratio(T.calls["transfer.transfer_structure"],
                                                        len(retractions)),
        "morse.cache_hit_ratio": cache_hit_ratio,
        "morse.transversal_ratio": lambda: ratio(C["morse.transversal"], C["morse.draws"]),
    }


def report(tracer: Tracer, derived: Dict[str, Callable[[], float]]) -> Dict[str, float]:
    """Flat metric dict: <layer>.<fn>_calls, <layer>.<fn>_self_s, counts, ratios."""
    out: Dict[str, float] = {}
    for name, n in tracer.calls.items():
        out[f"{name}_calls"] = n
    for name, s in tracer.self_s.items():
        out[f"{name}_self_s"] = s
    out.update(tracer.counts)
    out.update({name: f() for name, f in derived.items()})
    return out
