"""Planar tree enumeration against independent counting oracles."""

import pytest

from torusmirror.trees import enumerate_binary, enumerate_trees


def leaf_count(t):
    """Leaves of a nested-tuple tree: a leaf is (), a vertex its children."""
    return sum(map(leaf_count, t)) if t else 1


def valencies(t):
    """Child counts of the internal vertices of a nested-tuple tree."""
    return [len(t), *(v for c in t for v in valencies(c))] if t else []


def catalan_oracle(n_max):
    """Binary planar trees with n leaves, via the Segner convolution
    t(n) = sum_{i=1}^{n-1} t(i) t(n-i), t(1) = 1."""
    t = {1: 1}
    for n in range(2, n_max + 1):
        t[n] = sum(t[i] * t[n - i] for i in range(1, n))
    return t


def schroeder_oracle(n_max):
    """Planar trees with all valencies >= 2 and n leaves, via the linear
    recurrence (n+1) a(n+1) = 3(2n-1) a(n) - (n-2) a(n-1), a(1) = a(2) = 1."""
    a = {1: 1, 2: 1}
    for n in range(2, n_max):
        num = 3 * (2 * n - 1) * a[n] - (n - 2) * a[n - 1]
        assert num % (n + 1) == 0
        a[n + 1] = num // (n + 1)
    return a


def test_counts_match_oracles_up_to_seven_leaves():
    cat = catalan_oracle(7)
    sch = schroeder_oracle(7)
    for n in range(1, 8):
        assert len(enumerate_binary(n)) == cat[n]
        assert len(enumerate_trees(n)) == sch[n]


def test_known_prefixes():
    assert [len(enumerate_trees(n)) for n in range(1, 7)] == [1, 1, 3, 11, 45, 197]
    assert [len(enumerate_binary(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_is_duplicate_free_with_correct_leaf_counts(n):
    trees = enumerate_trees(n)
    assert len(set(trees)) == len(trees)
    assert all(leaf_count(t) == n for t in trees)
    assert all(v >= 2 for t in trees for v in valencies(t))
    binaries = enumerate_binary(n)
    assert all(v == 2 for t in binaries for v in valencies(t))
    assert set(binaries) <= set(trees)


def test_degenerate_inputs():
    for enumerate_ in (enumerate_trees, enumerate_binary):
        with pytest.raises(ValueError):
            enumerate_(0)
