"""The free-tree atlas (helpers.free_trees) against known counts and against
the independent Pruefer enumeration (helpers.all_trees), and as ground truth
for the values that bracket the optimum and for the exact solver's totals."""

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


# n: (trees, sum of exact_dc(t).dc, sum of exact_dc(t).nodes) over free_trees(n).
EXACT_TOTALS = {
    2: (1, 1, 2), 3: (1, 1, 3), 4: (2, 3, 8), 5: (3, 5, 15), 6: (6, 14, 58),
    7: (11, 29, 79), 8: (23, 74, 3_518), 9: (47, 169, 23_328), 10: (106, 444, 330_146),
}


@pytest.mark.parametrize("n", sorted(EXACT_TOTALS))
def test_exact_totals(n):
    """The exact solver's answers and cost over every free tree with n <= 10.

    The dc total must never change: it is the optimum. The nodes total is the
    search's cost; a change that moves a bound the search starts from, or the
    search itself, re-pins it here and states the old and new totals in
    CHANGES.md."""
    results = [exact_dc(t) for t in free_trees(n)]
    got = (len(results), sum(r.dc for r in results), sum(r.nodes for r in results))
    assert got == EXACT_TOTALS[n]
