"""The free-tree atlas (helpers.free_trees) against known counts and against
the independent Pruefer enumeration (helpers.all_trees)."""

import pytest

from helpers import all_trees, canonical_code, free_trees

# Number of free trees on n = 1, 2, ... vertices (OEIS A000055).
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


@pytest.mark.parametrize("n", range(1, len(FREE_TREE_COUNTS) + 1))
def test_counts(n):
    trees = free_trees(n)
    assert len(trees) == FREE_TREE_COUNTS[n - 1]
    assert all(t.n == n and t.is_tree() for t in trees)
    assert len({canonical_code(n, t.edges) for t in trees}) == len(trees)


@pytest.mark.parametrize("n", range(1, 8))
def test_matches_pruefer_enumeration(n):
    def codes(trees):
        return {canonical_code(n, t.edges) for t in trees}

    assert codes(free_trees(n)) == codes(all_trees(n))
