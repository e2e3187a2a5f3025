"""Rooted planar trees, every internal valency >= 2, indexing composition and
transfer formulas; ``enumerate_binary`` keeps the trees of valency 2 alone.

A tree is represented recursively: a leaf is ``PlanarTree(())`` and an
internal node holds an ordered tuple of >= 2 children.  Leaves are
numbered 1..n left to right implicitly; planar trees are rigid so no
labels are stored.

Text form: a leaf prints as ``.``, an internal node as the concatenation
of its children's text wrapped in parentheses, e.g. ``((..).)`` for the
left comb on three leaves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Tuple

from .ainfty import compositions


class PlanarTree:
    """Rooted planar tree; internal vertices have >= 2 ordered children."""

    __slots__ = ("children",)

    def __init__(self, children: Tuple["PlanarTree", ...] = ()):
        children = tuple(children)
        if len(children) == 1:
            raise ValueError("internal vertices need at least 2 children")
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return sum(c.leaf_count() for c in self.children)

    def internal_vertices(self) -> Iterator["PlanarTree"]:
        """Depth-first (root first) iteration over internal vertices."""
        if self.is_leaf:
            return
        yield self
        for c in self.children:
            yield from c.internal_vertices()

    # -- text form ------------------------------------------------------

    def to_text(self) -> str:
        if self.is_leaf:
            return "."
        return "(" + "".join(c.to_text() for c in self.children) + ")"

    @staticmethod
    def from_text(s: str) -> "PlanarTree":
        tree, rest = _parse(s)
        if rest:
            raise ValueError(f"trailing input {rest!r}")
        return tree

    def __eq__(self, other):
        return isinstance(other, PlanarTree) and self.children == other.children

    def __hash__(self):
        return hash(self.children)

    def __repr__(self):
        return f"PlanarTree({self.to_text()!r})"


LEAF = PlanarTree(())


def _parse(s: str) -> Tuple[PlanarTree, str]:
    if not s:
        raise ValueError("empty input")
    if s[0] == ".":
        return LEAF, s[1:]
    if s[0] != "(":
        raise ValueError(f"unexpected character {s[0]!r}")
    s = s[1:]
    children = []
    while s and s[0] != ")":
        child, s = _parse(s)
        children.append(child)
    if not s:
        raise ValueError("unbalanced parentheses")
    return PlanarTree(tuple(children)), s[1:]


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
        return (LEAF,)
    top = n if max_val is None else min(n, max_val)
    return tuple(
        PlanarTree(combo)
        for k in range(2, top + 1)
        for split in compositions(n, k)
        for combo in product(*(_gen(m, max_val) for m in split))
    )

