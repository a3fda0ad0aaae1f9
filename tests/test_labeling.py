import random

import pytest

from diffcolor import (Labeling, Tree, differential_value, evaluate,
                       gen_random_caterpillar, is_valid_labeling,
                       labeling_from_json)
from helpers import path_graph


class TestDifferentialValue:
    def test_p4_example(self):
        assert differential_value(path_graph(4), Labeling((2, 4, 1, 3))) == 2

    def test_star_example(self):
        t = Tree(4, ((0, 1), (0, 2), (0, 3)))
        assert differential_value(t, Labeling((1, 2, 3, 4))) == 1

    def test_edgeless_sentinel(self):
        assert differential_value(Tree(1, ()), Labeling((1,))) == 1
        assert differential_value(Tree(3, ()), Labeling((2, 3, 1))) == 3

    def test_rejects_invalid(self):
        t = path_graph(3)
        with pytest.raises(ValueError, match="expected 3 labels"):
            differential_value(t, Labeling((1, 2)))
        with pytest.raises(ValueError, match="duplicate"):
            differential_value(t, Labeling((1, 1, 3)))
        with pytest.raises(ValueError, match="out of range"):
            differential_value(t, Labeling((0, 2, 3)))


class TestIsValidLabeling:
    def test_valid(self):
        assert is_valid_labeling(path_graph(3), Labeling((1, 2, 3))) == (True, None)

    def test_duplicate(self):
        ok, why = is_valid_labeling(path_graph(3), Labeling((1, 1, 3)))
        assert not ok and "duplicate label 1" in why

    def test_out_of_range(self):
        ok, why = is_valid_labeling(path_graph(3), Labeling((0, 2, 3)))
        assert not ok and "out of range" in why

    def test_above_n(self):
        assert is_valid_labeling(path_graph(3), Labeling((1, 2, 4))) == (
            False, "label 4 of vertex 2 out of range 1..3")

    @pytest.mark.parametrize("labels, why", [
        ((1.5, 2), "label 1.5 of vertex 0 is not an integer"),
        ((True, 2), "label True of vertex 0 is not an integer"),
        ((1, 2.0), "label 2.0 of vertex 1 is not an integer"),
    ], ids=["float", "bool", "integral-float"])
    def test_non_integer(self, labels, why):
        t, labeling = path_graph(2), Labeling(labels)
        assert is_valid_labeling(t, labeling) == (False, why)
        with pytest.raises(ValueError, match=f"^invalid labeling: {why}$"):
            differential_value(t, labeling)
        with pytest.raises(ValueError, match=f"^invalid labeling: {why}$"):
            evaluate(t, labeling)

    def test_int_subclass_counts_as_integer(self):
        class Label(int):
            pass

        labeling = Labeling((Label(2), Label(1), Label(3)))
        assert is_valid_labeling(path_graph(3), labeling) == (True, None)
        assert differential_value(path_graph(3), labeling) == 1


def _random_tree(rng, n):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Tree(n, tuple(edges))


class TestProperties:
    def test_complement_symmetry(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(2, 12)
            t = _random_tree(rng, n)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            lab = Labeling(tuple(labels))
            assert differential_value(t, lab) == differential_value(t, lab.complement())

    def test_vertex_relabeling_invariance(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(2, 12)
            t = _random_tree(rng, n)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            perm = list(range(n))
            rng.shuffle(perm)  # perm[v] = new id of v
            t2 = Tree(n, tuple((perm[u], perm[v]) for u, v in t.edges))
            labels2 = [0] * n
            for v in range(n):
                labels2[perm[v]] = labels[v]
            assert (differential_value(t, Labeling(tuple(labels))) ==
                    differential_value(t2, Labeling(tuple(labels2))))

    def test_value_at_most_half_n_on_connected(self):
        rng = random.Random(5)
        for _ in range(100):
            t, _ = gen_random_caterpillar(rng, 8, 3)
            if t.n < 2:
                continue
            labels = list(range(1, t.n + 1))
            rng.shuffle(labels)
            assert differential_value(t, Labeling(tuple(labels))) <= t.n // 2


class TestJson:
    def test_round_trip(self):
        t = path_graph(3)
        ev = evaluate(t, Labeling((2, 3, 1)))  # path order 2,3,1 -> min(1, 2) = 1
        obj = ev.to_json()
        assert obj == {"n": 3, "labels": [2, 3, 1], "value": 1}
        assert labeling_from_json(obj).labels == (2, 3, 1)

    def test_from_json_errors(self):
        with pytest.raises(ValueError):
            labeling_from_json({"labels": [1, 2]})
        with pytest.raises(ValueError):
            labeling_from_json({"n": 3, "labels": [1, 2]})
        with pytest.raises(ValueError):
            labeling_from_json({"n": 2, "labels": [1, "2"]})

    @pytest.mark.parametrize("n, labels", [(True, [1]), (2.0, [1, 2]), ("2", [1, 2])])
    def test_from_json_requires_integer_n(self, n, labels):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            labeling_from_json({"n": n, "labels": labels})
