"""The free-tree atlas (helpers.free_trees) against known counts and against
the independent Pruefer enumeration (helpers.all_trees), and as ground truth
for the values that bracket the optimum."""

import pytest

from diffcolor import NotApplicable, exact_dc, label_auto, mp_value, upper_bound_report
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


@pytest.mark.parametrize("n", range(2, 11))
def test_values_bracket_the_optimum(n):
    """On every free tree with n <= 10: mp <= dc <= best bound, and a scheme
    never claims more than the optimum."""
    for t in free_trees(n):
        dc = exact_dc(t).dc
        assert mp_value(t) <= dc <= upper_bound_report(t).best
        try:
            value = label_auto(t).value
        except NotApplicable:
            continue
        assert value <= dc
