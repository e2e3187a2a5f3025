"""Rooted planar trees, every internal valency >= 2, indexing composition and
transfer formulas; ``enumerate_binary`` keeps the trees of valency 2 alone.

A tree is a nested tuple: a leaf is ``()`` and an internal vertex is the
tuple of its >= 2 children in planar order.  Leaves are numbered 1..n left
to right implicitly; planar trees are rigid so no labels are stored.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .ainfty import compositions


def enumerate_trees(n: int) -> list:
    """All planar trees with n leaves (every internal valency is >= 2).

    Canonical order: depth-first lexicographic on child counts (smaller
    arities first, then recursively by child shape).
    """
    if n < 1:
        raise ValueError("need at least one leaf")
    return list(_gen(n, None))


def enumerate_binary(n: int) -> list:
    """All planar trees with n leaves and every internal valency exactly 2;
    the single leaf counts as the unique tree with one leaf."""
    if n < 1:
        raise ValueError("need at least one leaf")
    return list(_gen(n, 2))


@lru_cache(maxsize=None)
def _gen(n: int, max_val) -> tuple:
    if n == 1:
        return ((),)
    top = n if max_val is None else min(n, max_val)
    return tuple(
        combo
        for k in range(2, top + 1)
        for split in compositions(n, k)
        for combo in product(*(_gen(m, max_val) for m in split))
    )
