import random

import pytest

from diffcolor import (Labeling, OracleLimitError, OracleTimeoutError, Tree,
                       decision_dc_at_least, differential_value, exact_dc,
                       gen_caterpillar, gen_regular_caterpillar, gen_spider,
                       upper_bound_report)
from diffcolor.oracle import _search
from helpers import all_trees, naive_dc, path_graph, pruefer_to_edges


class TestDecision:
    def test_single_edge(self):
        witness = decision_dc_at_least(Tree(2, ((0, 1),)), 1)
        assert witness.labels == (1, 2)

    def test_star_infeasible_at_2(self):
        t, _ = gen_spider([1, 1, 1])
        assert decision_dc_at_least(t, 2) is None

    def test_c4_infeasible_at_2(self):
        c4 = Tree(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert decision_dc_at_least(c4, 2) is None

    def test_witness_achieves_d(self):
        t = path_graph(8)
        witness = decision_dc_at_least(t, 4)
        assert differential_value(t, witness) >= 4

    def test_d_out_of_range(self):
        t = path_graph(3)
        with pytest.raises(ValueError):
            decision_dc_at_least(t, 0)
        with pytest.raises(ValueError):
            decision_dc_at_least(t, 4)


class TestExact:
    def test_p5(self):
        r = exact_dc(path_graph(5))
        assert r.dc == 2
        assert differential_value(path_graph(5), r.witness) == 2

    def test_k13(self):
        assert exact_dc(gen_spider([1, 1, 1])[0]).dc == 1

    def test_regular_caterpillar_3_1(self):
        assert exact_dc(gen_regular_caterpillar(3, 1)[0]).dc == 3

    def test_paths_reach_half_n(self):
        for n in range(2, 13):
            assert exact_dc(path_graph(n)).dc == n // 2

    def test_never_exceeds_half_n(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 9)
            edges = tuple((rng.randrange(i), i) for i in range(1, n))
            assert exact_dc(Tree(n, edges)).dc <= n // 2

    def test_matches_naive_up_to_6(self):
        for n in range(1, 7):
            for t in all_trees(n):
                assert exact_dc(t).dc == naive_dc(t), t.edges

    def test_relabeling_invariance(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(3, 9)
            edges = tuple((rng.randrange(i), i) for i in range(1, n))
            t = Tree(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            t2 = Tree(n, tuple((perm[u], perm[v]) for u, v in edges))
            assert exact_dc(t).dc == exact_dc(t2).dc

    def test_deterministic_witness(self):
        t, _ = gen_caterpillar([1, 2, 1])
        assert exact_dc(t).witness == exact_dc(t).witness

    def test_edgeless_sentinel(self):
        r = exact_dc(Tree(3, ()))
        assert r.dc == 3 and r.witness == Labeling.identity(3)

    def test_single_vertex(self):
        assert exact_dc(Tree(1, ())).dc == 1

    def test_disconnected_forest(self):
        # two disjoint edges: {1,3} and {2,4} is best
        assert exact_dc(Tree(4, ((0, 1), (2, 3)))).dc == 2

    def test_stats_present(self):
        r = exact_dc(path_graph(6))
        assert r.nodes > 0 and r.millis >= 0
        assert r.to_json() == {"dc": 3, "labels": list(r.witness.labels),
                               "nodes": r.nodes, "millis": r.millis}


class TestLimits:
    def test_size_refusal(self):
        with pytest.raises(OracleLimitError, match="exceeds"):
            exact_dc(path_graph(15))

    def test_limit_override(self):
        assert exact_dc(path_graph(15), limit_n=15).dc == 7

    def test_timeout_reports_bracket(self):
        t = path_graph(12)
        with pytest.raises(OracleTimeoutError) as info:
            exact_dc(t, timeout_ms=0)
        assert info.value.bracket == (1, 6)  # nothing ruled out yet

    def test_decision_timeout_rules_nothing_out(self):
        t = gen_regular_caterpillar(6, 1)[0]  # dc = 6
        with pytest.raises(OracleTimeoutError) as info:
            decision_dc_at_least(t, 3, timeout_ms=0)
        low, high = info.value.bracket
        assert low <= exact_dc(t).dc <= high

    def test_timeout_keeps_explored_nodes(self):
        rng = random.Random(0)
        t = Tree(16, tuple(pruefer_to_edges([rng.randrange(16) for _ in range(14)], 16)))
        assert upper_bound_report(t).best == 8  # infeasible; refuting it takes seconds
        with pytest.raises(OracleTimeoutError) as info:
            decision_dc_at_least(t, 8, timeout_ms=200)
        assert info.value.nodes > 0
        with pytest.raises(OracleTimeoutError) as info:
            exact_dc(t, limit_n=16, timeout_ms=200)
        assert info.value.bracket == (1, 8) and info.value.nodes > 0

    def test_closed_bracket_answers_after_timeout(self):
        """P3's best bound is 1, so the first d tested is 1: a spent budget
        still answers dc = 1, with the identity witness."""
        result = exact_dc(path_graph(3), timeout_ms=0)
        assert result.dc == 1 and result.witness == Labeling.identity(3)

    def test_decision_at_1_needs_no_search(self):
        assert decision_dc_at_least(path_graph(3), 1, timeout_ms=0) == Labeling.identity(3)

    def test_search_at_1_is_the_identity(self):
        """Every numbering achieves d = 1; the search itself finds the
        identity in n nodes, so skipping it changes no witness."""
        rng = random.Random(1)
        trees = [t for n in range(1, 7) for t in all_trees(n)]
        for n in rng.choices(range(3, 15), k=300):
            code = [rng.randrange(n) for _ in range(n - 2)]
            trees.append(Tree(n, tuple(pruefer_to_edges(code, n))))
        for t in trees:
            assert _search(t.n, t.adjacency(), 1, None) == (tuple(range(1, t.n + 1)), t.n)

    def test_negative_timeout_rejected(self):
        t = path_graph(4)
        for timeout_ms in (-5, 10**400):  # 10**400 ms does not fit a float
            with pytest.raises(ValueError, match="timeout_ms"):
                exact_dc(t, timeout_ms=timeout_ms)
            with pytest.raises(ValueError, match="timeout_ms"):
                decision_dc_at_least(t, 1, timeout_ms=timeout_ms)

    def test_negative_limit_rejected(self):
        t = path_graph(3)
        with pytest.raises(ValueError, match="^limit_n must be non-negative, got -1$"):
            exact_dc(t, limit_n=-1)
        with pytest.raises(OracleLimitError, match="exceeds"):
            exact_dc(t, limit_n=0)

    def test_search_depth_not_bounded_by_recursion(self):
        t = gen_regular_caterpillar(400, 2)[0]  # n = 1200 numbers deep
        witness = decision_dc_at_least(t, 1)
        assert differential_value(t, witness) >= 1


class TestAgainstBounds:
    def test_exact_at_most_best(self):
        cases = [gen_spider(c)[0] for c in ((1, 2), (2, 2), (1, 1, 2), (3, 1))]
        cases += [gen_caterpillar(c)[0] for c in ((1, 1), (2, 2), (1, 0, 1))]
        for t in cases:
            assert exact_dc(t).dc <= upper_bound_report(t).best
