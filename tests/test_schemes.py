import hashlib
import json
import random
import time

import pytest

from diffcolor import (CaterpillarShape, MarkingState, NotApplicable,
                       SchemeError, SpiderShape, Tree, differential_value, gen_caterpillar,
                       gen_random_caterpillar, gen_regular_caterpillar,
                       gen_spider, label_auto,
                       label_general_caterpillar, label_regular_caterpillar,
                       label_spider_all_even, label_spider_all_odd,
                       mark_caterpillar, mp_value, parse_graph,
                       recognize_caterpillar, recognize_spider, upper_bound_report,
                       write_graph)
from diffcolor import schemes
from diffcolor.schemes import SCHEMES, _finish, run_scheme
from helpers import LABEL_SHAPE, free_trees, length_multisets, path_graph, small_peak


def labels_of(result):
    return result.labeling.labeling.labels


class TestRegularCaterpillar:
    def test_even_spine_2_2(self):
        _, shape = gen_regular_caterpillar(2, 2)
        r = label_regular_caterpillar(shape)
        # spine (1, 6); legs of the low spine vertex {4,5}, of the high {2,3}
        assert labels_of(r) == (1, 6, 4, 5, 2, 3)
        assert r.value == 3 and r.guarantee == 3
        assert r.optimal == "proved"

    def test_odd_spine_3_1(self):
        _, shape = gen_regular_caterpillar(3, 1)
        r = label_regular_caterpillar(shape)
        assert labels_of(r) == (1, 6, 2, 4, 3, 5)  # spine (1,6,2), legs (4,3,5)
        assert r.value == 3  # ceil((6-1)/2)

    def test_single_spine_star(self):
        _, shape = gen_regular_caterpillar(1, 2)
        r = label_regular_caterpillar(shape)
        assert labels_of(r) == (1, 2, 3)
        assert r.value == 1

    def test_rejects_non_regular(self):
        _, shape = gen_caterpillar([2, 1])
        with pytest.raises(ValueError, match="not a regular"):
            label_regular_caterpillar(shape)

    def test_rejects_zero_legs(self):
        shape = recognize_caterpillar(Tree(1, ()))
        with pytest.raises(ValueError, match="at least one leg"):
            label_regular_caterpillar(shape)

    def test_value_matches_bound_family(self):
        for s in range(1, 7):
            for delta in range(1, 5):
                tree, shape = gen_regular_caterpillar(s, delta)
                r = label_regular_caterpillar(shape)
                n = tree.n
                expected = n // 2 if s % 2 == 0 else (n - delta + 1) // 2
                assert r.value == expected == r.guarantee
                assert r.value <= n // 2


class TestSpiderAllEven:
    def test_two_paths(self):
        _, shape = gen_spider([2, 2])
        r = label_spider_all_even(shape)
        # center 1; level-2 vertices {2,3}; level-1 vertices {4,5}
        assert labels_of(r) == (1, 4, 2, 5, 3)
        assert r.value == 2 == shape.n_even

    def test_three_paths(self):
        _, shape = gen_spider([2, 2, 2])
        r = label_spider_all_even(shape)
        assert labels_of(r) == (1, 5, 2, 6, 3, 7, 4)
        assert r.value == 3

    def test_single_path(self):
        _, shape = gen_spider([2])
        r = label_spider_all_even(shape)
        assert labels_of(r) == (1, 3, 2)
        assert r.value == 1

    def test_rejects_odd_length(self):
        _, shape = gen_spider([2, 3])
        with pytest.raises(ValueError, match="even"):
            label_spider_all_even(shape)

    def test_family(self):
        for lengths in length_multisets((2, 4), 4, 100):
            tree, shape = gen_spider(lengths)
            r = label_spider_all_even(shape)
            assert r.value == shape.n_even == r.guarantee
            assert r.optimal == "proved"
            assert r.value == tree.n // 2  # all-even spiders meet the general bound


class TestSpiderAllOdd:
    def test_star(self):
        _, shape = gen_spider([1, 1, 1])
        r = label_spider_all_odd(shape)
        assert labels_of(r) == (2, 3, 1, 4)  # center 2; leaves {1,3,4}
        assert r.value == 1 == shape.n_even + 1

    def test_two_paths_of_three(self):
        _, shape = gen_spider([3, 3])
        r = label_spider_all_odd(shape)
        # center 4; one path (7,3,6), the other (1,5,2)
        assert labels_of(r) == (4, 7, 3, 6, 1, 5, 2)
        assert r.value == 3 == shape.n_even + 1

    def test_single_edge_path(self):
        _, shape = gen_spider([1])
        r = label_spider_all_odd(shape)
        assert labels_of(r) == (1, 2)
        assert r.value == 1

    def test_rejects_even_length(self):
        _, shape = gen_spider([1, 2])
        with pytest.raises(ValueError, match="odd"):
            label_spider_all_odd(shape)

    def test_family(self):
        for lengths in length_multisets((1, 3, 5), 4, 100):
            tree, shape = gen_spider(lengths)
            r = label_spider_all_odd(shape)
            assert r.value == shape.n_even + 1 == r.guarantee
            assert r.value == (tree.n - shape.p + 1) // 2
            assert r.value <= tree.n // 2


class TestGeneralCaterpillar:
    def test_four_spine_vertices(self):
        _, shape = gen_caterpillar([1, 1, 1, 1])
        r = label_general_caterpillar(shape)
        # spine (2,7,1,4); legs (6,3,5,8)
        assert labels_of(r) == (2, 7, 1, 4, 6, 3, 5, 8)
        assert r.value == 3
        assert r.guarantee == 1  # ceil(8/2) - 1 - 2
        assert r.optimal == "unknown"

    def test_pseudo_leg_path(self):
        _, shape = gen_caterpillar([1, 0, 1])
        r = label_general_caterpillar(shape)
        assert labels_of(r) == (2, 5, 3, 4, 1)
        assert r.value == 2  # equals the exact optimum for this path

    def test_two_spine_vertices(self):
        _, shape = gen_caterpillar([2, 1])
        r = label_general_caterpillar(shape)
        assert labels_of(r) == (2, 3, 4, 5, 1)
        assert r.value == 1
        assert r.guarantee == (5 + 1) // 2 - 2 - 2

    def test_marking_state_groups(self):
        _, shape = gen_caterpillar([1, 0, 1])
        state = mark_caterpillar(shape)
        assert state.middle == 2  # rightmost spine vertex
        assert state.pseudo_leg_owner == ((1, 2),)  # legless middle adopted
        assert state.middle_low_legs == (4,)
        assert state.middle_high_legs == ()

    def test_marking_invariants_random(self):
        rng = random.Random(424242)
        for _ in range(300):
            _, shape = gen_random_caterpillar(rng, 25, 6)
            state = mark_caterpillar(shape)  # validate() runs inside
            n = shape.n
            lows = len(state.low_spine) + len(state.low_legs)
            highs = len(state.high_spine) + len(state.high_legs)
            assert 2 * lows < n and 2 * highs <= n

    def test_middle_neighbours_keep_their_slots_on_opposite_sides(self):
        """The labeler's walk starts at the middle vertex's low spine
        neighbour and ends at its high one; the marking must put each
        neighbour in a spine group and two neighbours in different groups."""
        shapes = [shape for n in range(2, 13) for t in free_trees(n)
                  if (shape := recognize_caterpillar(t)) is not None]
        rng = random.Random(9090)
        for k in range(2000):
            if k % 2:  # about half the interior legless
                interior = [0 if rng.random() < 0.5 else rng.randint(1, 4)
                            for _ in range(rng.randint(0, 60))]
                shapes.append(gen_caterpillar([rng.randint(1, 4), *interior,
                                               rng.randint(1, 4)])[1])
            else:
                shapes.append(gen_random_caterpillar(rng, 40, 6)[1])
        for shape in shapes:
            state = mark_caterpillar(shape)
            spine = shape.spine_vertices
            mid = spine.index(state.middle)
            neighbours = spine[max(mid - 1, 0):mid] + spine[mid + 1:mid + 2]
            assert all(v in state.low_spine or v in state.high_spine for v in neighbours)
            assert len({v in state.low_spine for v in neighbours}) == len(neighbours)

    def test_guarantee_random(self):
        rng = random.Random(77)
        for _ in range(300):
            tree, shape = gen_random_caterpillar(rng, 30, 8)
            r = label_general_caterpillar(shape)
            assert r.value >= (shape.n + 1) // 2 - shape.delta - 2
            assert r.value <= tree.n // 2

    def test_rejects_single_vertex(self):
        shape = recognize_caterpillar(Tree(1, ()))
        with pytest.raises(ValueError, match="n >= 2"):
            label_general_caterpillar(shape)


# mark_caterpillar of gen_caterpillar([3, 3]) (n = 8), field by field
MARKED_3_3 = dict(low_spine=frozenset({0}), high_spine=frozenset(), middle=1,
                  low_legs=frozenset(), high_legs=frozenset({2, 3, 4}),
                  middle_low_legs=(5, 6), middle_high_legs=(7,), pseudo_leg_owner=())


class TestMarkingCheck:
    def test_unchanged_state_passes(self):
        _, shape = gen_caterpillar([3, 3])
        assert mark_caterpillar(shape) == MarkingState(**MARKED_3_3)
        MarkingState(**MARKED_3_3).validate(shape)

    # Each state breaks one rule and keeps the ones checked before it. With
    # the partition holding, the high-side total can only be off through a
    # repeated middle leg, which the set-based partition check does not see.
    @pytest.mark.parametrize("changes, message", [
        (dict(middle_low_legs=(5,)), "do not partition the vertices"),
        (dict(high_legs=frozenset({2, 3, 8})), "do not partition the vertices"),
        (dict(low_legs=frozenset({5, 6, 7}), middle_low_legs=(), middle_high_legs=()),
         "violates the balance condition"),
        (dict(middle_low_legs=(5, 6, 7), middle_high_legs=()), "low-side total"),
        (dict(middle_high_legs=(7, 7)), "high-side total"),
    ], ids=["partition", "outside-0..n-1", "balance", "low-side", "high-side"])
    def test_each_rule_raises(self, changes, message):
        _, shape = gen_caterpillar([3, 3])
        with pytest.raises(SchemeError, match=message):
            MarkingState(**{**MARKED_3_3, **changes}).validate(shape)

    def test_label_fails_when_the_check_fails(self, monkeypatch):
        def reject(self, shape):
            raise SchemeError("rejected")

        monkeypatch.setattr(MarkingState, "validate", reject)
        with pytest.raises(SchemeError, match="rejected"):
            label_general_caterpillar(gen_caterpillar([3, 3])[1])

    def test_check_runs_once_per_label(self, monkeypatch):
        calls = []
        check = MarkingState.validate

        def counting(self, shape):
            calls.append(shape)
            check(self, shape)

        monkeypatch.setattr(MarkingState, "validate", counting)
        for count, legs in enumerate(([3, 3], [1, 0, 1], [2, 0, 0, 1, 0, 3]), start=1):
            label_general_caterpillar(gen_caterpillar(legs)[1])
            assert len(calls) == count

    def test_labeler_marks_once(self, monkeypatch):
        calls = []
        mark = schemes.mark_caterpillar

        def counting(shape):
            calls.append(shape)
            return mark(shape)

        monkeypatch.setattr(schemes, "mark_caterpillar", counting)
        _, shape = gen_caterpillar([2, 0, 0, 1, 0, 3])
        label_general_caterpillar(shape)
        assert calls == [shape]


class TestMpValue:
    def test_p5(self):
        assert mp_value(path_graph(5)) == 2

    def test_regular_caterpillar(self):
        t, _ = gen_regular_caterpillar(3, 2)
        assert mp_value(t) == 4

    def test_spider_3_3(self):
        t, _ = gen_spider([3, 3])
        assert mp_value(t) == 3

    def test_forest(self):
        assert mp_value(Tree(4, ((0, 1), (2, 3)))) == 2

    def test_rejects_non_forest(self):
        with pytest.raises(ValueError, match="forest"):
            mp_value(Tree(3, ((0, 1), (1, 2), (0, 2))))

    def test_matches_regular_caterpillar_bound_small(self):
        for s in range(1, 13):
            for delta in range(1, 7):
                t, _ = gen_regular_caterpillar(s, delta)
                n = t.n
                expected = n // 2 if s % 2 == 0 else (n - delta + 1) // 2
                assert mp_value(t) == expected


class TestLabelAuto:
    def test_prefers_regular_scheme(self):
        t, _ = gen_regular_caterpillar(3, 2)
        assert label_auto(t).scheme == "regular-cat"

    def test_p5_goes_to_even_spider(self):
        r = label_auto(path_graph(5))
        assert r.scheme == "spider-even"
        assert r.optimal == "proved" and r.value == 2

    def test_p7_goes_to_odd_spider(self):
        r = label_auto(path_graph(7))
        assert r.scheme == "spider-odd" and r.value == 3

    def test_mixed_parity_caterpillar_falls_back(self):
        r = label_auto(path_graph(6))  # arms (2,3): mixed parity
        assert r.scheme == "general-cat"

    def test_mixed_parity_non_caterpillar_rejected(self):
        t, _ = gen_spider([2, 2, 3])
        with pytest.raises(ValueError, match="no scheme applies"):
            label_auto(t)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            label_auto(Tree(1, ()))


class TestDeterminism:
    def test_schemes_are_deterministic(self):
        _, shape = gen_caterpillar([2, 0, 3, 1])
        a = label_general_caterpillar(shape)
        b = label_general_caterpillar(shape)
        assert labels_of(a) == labels_of(b)

    def test_every_result_is_a_bijection(self):
        # differential_value re-validates: recomputing equals the stored value
        rng = random.Random(1)
        for _ in range(50):
            tree, shape = gen_random_caterpillar(rng, 12, 4)
            r = label_general_caterpillar(shape)
            assert differential_value(tree, r.labeling.labeling) == r.value


@pytest.mark.parametrize("kind", ["caterpillar", "spider"])
class TestFinishSelfCheck:
    """_finish re-evaluates labels on the shape; every inconsistency it traps
    is a SchemeError, never a wrong result."""

    @staticmethod
    def scheme_output(kind):
        """A shape, its proved scheme's name, that scheme's labels as a list,
        and their value."""
        if kind == "caterpillar":
            _, shape = gen_regular_caterpillar(3, 2)
            result = label_regular_caterpillar(shape)
        else:
            _, shape = gen_spider([2, 2, 4])
            result = label_spider_all_even(shape)
        return shape, result.scheme, list(labels_of(result)), result.value

    def test_unassigned_vertex(self, kind):
        shape, scheme, labels, value = self.scheme_output(kind)
        labels[-1] = 0
        with pytest.raises(SchemeError, match="non-bijective.*out of range"):
            _finish(scheme, shape, labels, value)

    def test_repeated_label(self, kind):
        shape, scheme, labels, value = self.scheme_output(kind)
        labels[1] = labels[0]
        with pytest.raises(SchemeError, match="non-bijective.*duplicate"):
            _finish(scheme, shape, labels, value)

    def test_value_differs_from_expected(self, kind):
        # a proved scheme must reach its guarantee exactly, not exceed it
        shape, scheme, labels, value = self.scheme_output(kind)
        with pytest.raises(SchemeError, match=f"achieved {value}, expected {value - 1}"):
            _finish(scheme, shape, labels, value - 1)

    def test_value_below_guarantee(self, kind):
        shape, _, labels, value = self.scheme_output(kind)
        with pytest.raises(SchemeError, match=f"below guarantee {value + 1}"):
            _finish("general-cat", shape, labels, value + 1)


SCHEME_IDS = ["regular-cat", "spider-even", "spider-odd", "general-cat"]
FAMILY_TREES = [
    ("regular-cat", gen_caterpillar([2, 2, 2])[0]),
    ("spider-even", gen_spider([2, 2, 4])[0]),
    ("spider-odd", gen_spider([1, 3, 3])[0]),
    ("general-cat", gen_caterpillar([1, 0, 2, 1])[0]),
]


@pytest.mark.parametrize("scheme, tree", FAMILY_TREES, ids=SCHEME_IDS)
def test_label_auto_builds_no_tree(monkeypatch, scheme, tree):
    """Schemes check their labels on the input tree itself, not on a rebuilt Tree."""
    tree = parse_graph(write_graph(tree))
    built = []
    init = Tree.__init__

    def counting_init(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Tree, "__init__", counting_init)
    assert label_auto(tree).scheme == scheme
    assert built == []


def forbid_shape_edges(monkeypatch):
    """Make reading either shape's edges tuple fail the test."""
    def no_edges(shape):
        raise AssertionError(f"{type(shape).__name__}.edges was built")

    for shape_type in (CaterpillarShape, SpiderShape):
        monkeypatch.setattr(shape_type, "edges", property(no_edges))


@pytest.mark.parametrize("scheme, tree", FAMILY_TREES, ids=SCHEME_IDS)
def test_run_scheme_builds_no_shape_edges(monkeypatch, scheme, tree):
    """run_scheme, and so label_auto, checks the labels on the input tree's
    own edges: neither shape's edge tuple is ever built."""
    tree = parse_graph(write_graph(tree))
    forbid_shape_edges(monkeypatch)
    assert label_auto(tree).scheme == scheme
    assert run_scheme(tree, scheme).scheme == scheme


@pytest.mark.parametrize("scheme, tree", FAMILY_TREES, ids=SCHEME_IDS)
def test_shapes_build_no_edges(monkeypatch, scheme, tree):
    """A shape streams its pairs to the label_* check, to to_tree() and to
    the generators: none of them builds the shape's edge tuple."""
    shape = SCHEMES[scheme][1](tree)
    forbid_shape_edges(monkeypatch)
    assert labels_of(LABEL_SHAPE[scheme](shape)) == labels_of(run_scheme(tree, scheme))
    rebuilt = shape.to_tree()
    assert rebuilt.n == tree.n and set(rebuilt.edges) == set(tree.edges)
    cat_tree, cat = gen_caterpillar([1, 0, 2, 1])
    assert recognize_caterpillar(cat_tree) == cat
    spider_tree, spider = gen_spider([2, 2, 4])
    assert recognize_spider(spider_tree) == spider


# every value and guarantee here is at least 2, so a labeling of value 1 fails both
@pytest.mark.parametrize("scheme, tree", [
    *FAMILY_TREES[:3], ("general-cat", gen_caterpillar([1, 1, 0, 1, 1, 1])[0]),
], ids=SCHEME_IDS)
def test_swapped_labels_raise_scheme_error(monkeypatch, scheme, tree):
    """A draft that swaps two labels, so that an edge's labels differ by 1, is
    trapped by _finish through run_scheme and through the public call."""
    shape_class, recognize, draft, optimal = SCHEMES[scheme]
    u, v = tree.edges[0]

    def swapped(shape):
        labels, *rest = draft(shape)
        x = labels[u]
        w = labels.index(x + 1 if x < tree.n else x - 1)
        labels[v], labels[w] = labels[w], labels[v]
        return labels, *rest

    monkeypatch.setitem(SCHEMES, scheme, (shape_class, recognize, swapped, optimal))
    monkeypatch.setattr(schemes, draft.__name__, swapped)
    with pytest.raises(SchemeError, match=f"^{scheme}: achieved 1, "):
        run_scheme(tree, scheme)
    with pytest.raises(SchemeError, match=f"^{scheme}: achieved 1, "):
        LABEL_SHAPE[scheme](recognize(tree))


def _shuffled(rng, tree):
    perm = list(range(tree.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in tree.edges]
    rng.shuffle(edges)
    return Tree(tree.n, tuple(edges))


def _arm_lengths(rng, total, p, parity):
    lengths = []
    for _ in range(p):
        x = max(1, int(total / p * rng.uniform(0.75, 1.25)))
        lengths.append(x + (x % 2 != parity))
    return lengths


def _golden_tree(family, seed):
    """A seeded tree of n ~ 2.5e3..4.5e3 with shuffled vertex ids."""
    rng = random.Random(seed)
    if family == "regular-cat":
        tree = gen_caterpillar([3] * 751)[0]
    elif family == "sec53":
        tree = gen_caterpillar([1 if i % 2 == 0 else 5 for i in range(1001)])[0]
    elif family == "legless-cat":
        interior = [0 if rng.random() < 0.5 else rng.randint(1, 4) for _ in range(1800)]
        tree = gen_caterpillar([rng.randint(1, 4), *interior, rng.randint(1, 4)])[0]
    elif family == "even-spider":
        tree = gen_spider(_arm_lengths(rng, 4000, 4, 0))[0]
    elif family == "odd-spider":
        tree = gen_spider(_arm_lengths(rng, 3000, 5, 1))[0]
    else:  # many short arms
        tree = gen_spider([2] * 1500)[0]
    return _shuffled(rng, tree)


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# Pinned outputs: a change to graph, schemes or bounds must reproduce these
# scheme and bound JSON objects byte for byte.
GOLDEN = {
    # family: (seed, n, scheme, sha256 of scheme JSON, sha256 of bounds JSON)
    "regular-cat": (101, 3004, "regular-cat",
        "e7a72be7eebe2a0f5d0e2d81ef47156737a191798d9cc0d5c0f753a2402a8a8d",
        "321cc23b6ba0b1ea3ea467c79d8d82a0b3e120639e776869b42c0837e219d69e"),
    "sec53": (102, 4002, "general-cat",
        "8f4da15c8c8a09416e7a0f9121b19670de87887c6e6027ba2547a4fe5774f762",
        "3b9e6a710b24af4f9bdc6efd38c84222cea78b9ab11c27183976d7d7e58a8a8a"),
    "legless-cat": (103, 4076, "general-cat",
        "61bfddddae4fcc0b3fe0dbfa6e4ce1165b79e6817885e3fe58c7008e75061304",
        "85bfec14b31ce1bb844cf35fb5c34bd84624b9907b115efb6a49f11cd0f8c2b4"),
    "even-spider": (104, 4397, "spider-even",
        "3b162dc10250ad021a7647720fba314c79e069b81ba038cdfd9b9558c2c9c896",
        "a65cf0b60362762ca7485da2cdb6f7bd030ee47572aaa81621db04b22bd5c083"),
    "odd-spider": (105, 3234, "spider-odd",
        "d3ab34b373786d02f665524c6abb0782698675d1b7234235edfef6e309f9e5f1",
        "d3824f78db097dd5c1e074cacd26cb95d163269ea6875a3c15b247ca8169826e"),
    "short-spider": (106, 3001, "spider-even",
        "573197af62a471a6cc4d9206a2ee9a299e21753c0b3567a95f532f5d934ff46a",
        "bb5769597f976e5581a38b643427ba49649d88e8139abd0f3b5f0c602c28889d"),
}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_golden_outputs(family):
    seed, n, scheme, scheme_sha, bounds_sha = GOLDEN[family]
    tree = _golden_tree(family, seed)
    result = label_auto(tree)
    assert (tree.n, result.scheme) == (n, scheme)
    assert _sha(result.to_json()) == scheme_sha
    assert _sha(upper_bound_report(tree).to_json()) == bounds_sha


def _large_tree(family, rng, n):
    """A tree of family with about n vertices, vertex ids shuffled."""
    if family == "regular-cat":
        tree = gen_caterpillar([3] * (n // 4))[0]
    elif family == "legless-cat":
        interior = [0 if rng.random() < 0.5 else rng.randint(1, 4) for _ in range(n * 4 // 9)]
        tree = gen_caterpillar([rng.randint(1, 4), *interior, rng.randint(1, 4)])[0]
    elif family == "sec53":
        delta = rng.randint(2, 8)
        tree = gen_caterpillar([1 if i % 2 == 0 else delta
                                for i in range(2 * (n // (delta + 3)) + 1)])[0]
    else:
        parity = 0 if family == "even-spider" else 1
        tree = gen_spider(_arm_lengths(rng, n, rng.randint(1, 9), parity))[0]
    return _shuffled(rng, tree)


@pytest.mark.parametrize("family, scheme", [
    ("regular-cat", "regular-cat"), ("legless-cat", "general-cat"), ("sec53", "general-cat"),
    ("even-spider", "spider-even"), ("odd-spider", "spider-odd")])
def test_large_n_bracket(family, scheme):
    """Each scheme at n of 1e3 to 1e4, as label_auto picks it: its value is
    the value of its labels and lies between its guarantee and the best bound."""
    rng = random.Random(f"large-{family}")
    for n in (1000, 3000, 10000):
        tree = _large_tree(family, rng, n)
        assert 0.8 * n <= tree.n <= 1.3 * n
        result = label_auto(tree)
        assert result.scheme == scheme
        assert result.guarantee <= result.value <= upper_bound_report(tree).best
        assert result.value == differential_value(tree, result.labeling.labeling)


def test_general_cat_memory_tracks_its_output():
    """label_auto on a relabeled sec53 caterpillar (k = 1000, delta = 8,
    n = 11,002), recognition cached, builds each marking group once and
    checks the groups without copies: its traced peak stays under 200 bytes
    per vertex."""
    tree = _shuffled(random.Random(53), gen_caterpillar([1 if i % 2 == 0 else 8
                                                         for i in range(2001)])[0])
    assert tree.n == 11_002
    recognize_caterpillar(tree)  # both shapes are cached before tracing starts
    recognize_spider(tree)
    with small_peak(200 * tree.n):
        assert label_auto(tree).scheme == "general-cat"


@pytest.mark.parametrize("lengths", [[2] * 25000 + [50000], [1] * 25000 + [50001]],
                         ids=["even", "odd"])
def test_broom_spider_scales(lengths):
    """Brooms (many short paths, one long one) took time quadratic in n when
    each level rescanned every path: tens of seconds at n = 1e5."""
    tree, _ = gen_spider(lengths)
    start = time.perf_counter()
    result = label_auto(tree)
    report = upper_bound_report(tree)
    assert time.perf_counter() - start < 10
    assert result.value == report.best


ATLAS = [t for n in range(1, 13) for t in free_trees(n)]  # 987 free trees


def test_scheme_table_agrees_with_label_auto():
    """On every free tree with n <= 12, each row labels the tree or says why
    not, and label_auto is the first row that labels it."""
    assert list(SCHEMES) == ["regular-cat", "spider-even", "spider-odd", "general-cat"]
    for t in ATLAS:
        labeled = []
        for name in SCHEMES:
            try:
                assert run_scheme(t, name).scheme == name
                labeled.append(name)
            except NotApplicable:
                pass
        if labeled:
            result = label_auto(t)
            assert result.scheme == labeled[0]
            assert result.guarantee <= result.value <= upper_bound_report(t).best
        else:
            with pytest.raises(NotApplicable, match="no scheme applies") as exc:
                label_auto(t)
            assert all(f"{name}: " in str(exc.value) for name in SCHEMES)


def test_forest_fails_every_row_with_its_reason():
    forest = Tree(4, ((0, 1), (2, 3)))
    reasons = []
    for name, (shape_class, *_) in SCHEMES.items():
        with pytest.raises(NotApplicable) as exc:
            run_scheme(forest, name)
        assert str(exc.value) == f"input is not a {shape_class}"
        reasons.append(f"{name}: {exc.value}")
    assert reasons == ["regular-cat: input is not a caterpillar",
                       "spider-even: input is not a spider",
                       "spider-odd: input is not a spider",
                       "general-cat: input is not a caterpillar"]
    with pytest.raises(NotApplicable) as exc:
        label_auto(forest)
    assert str(exc.value) == "no scheme applies: " + "; ".join(reasons)


def test_shapeless_row_labels_a_forest(monkeypatch):
    """A row whose reader hands the draft the Tree itself, or None, fits the
    table unchanged: a scheme for every forest needs no shape."""
    def draft(t):
        return schemes._number(t.n, range(t.n)), 1  # any bijection separates by 1
    row = ("forest", lambda t: t if t.is_forest() else None, draft, "unknown")
    monkeypatch.setitem(SCHEMES, "forest", row)
    forest = Tree(5, ((0, 1), (2, 3), (3, 4)))
    assert run_scheme(forest, "forest") == label_auto(forest)
    assert label_auto(forest).to_json() == {
        "scheme": "forest", "labels": [1, 2, 3, 4, 5], "value": 1,
        "guarantee": 1, "optimal": "unknown"}
    triangle = Tree(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(NotApplicable) as exc:
        label_auto(triangle)
    assert str(exc.value).endswith("; forest: input is not a forest")


def test_label_auto_atlas_digest():
    """label_auto's JSON on all 987 free trees with n <= 12 (None where no
    scheme applies), pinned before the scheme table replaced its if-chain."""
    outputs = []
    for t in ATLAS:
        try:
            outputs.append(label_auto(t).to_json())
        except NotApplicable:
            outputs.append(None)
    assert (len(outputs), outputs.count(None)) == (987, 417)
    assert _sha(outputs) == "09a3b64dc4dcd47be33f320faa507c29f6ef70b35c7a81baee82103170bab75a"
