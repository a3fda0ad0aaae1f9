import json
import random
import re
import sys
import tracemalloc

import pytest

from diffcolor import (MAX_N, SCHEMES, CaterpillarShape, GraphParseError,
                       NotApplicable, SizeLimitError, SpiderShape, Tree,
                       bipartition_sizes, gen_caterpillar, gen_random_caterpillar,
                       gen_regular_caterpillar, gen_spider, label_auto,
                       mp_value, parse_graph, recognize_caterpillar,
                       recognize_spider, run_scheme, upper_bound_report, write_graph)
from diffcolor import graph
from diffcolor.graph import _EdgeError
from helpers import (length_multisets, parse_outcome, partitions, path_graph,
                     reference_caterpillar_shape, reference_coloring,
                     reference_parse_lines, reference_spider_shape, shuffled,
                     small_peak)


class TestTree:
    def test_basic(self):
        t = Tree(3, ((1, 0), (1, 2)))
        assert t.m == 2
        assert t.edges == ((0, 1), (1, 2))  # normalized
        assert t.is_tree()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Tree(2, ((0, 0),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Tree(2, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Tree(2, ((0, 2),))

    # two faults on 4 vertices: the first in edge order is reported, with its index
    @pytest.mark.parametrize("edges, index, message", [
        ([(0, 1), (1, 0), (2, 2)], 1, "duplicate edge (0, 1)"),
        ([(2, 2), (0, 1), (1, 0)], 0, "self-loop at vertex 2"),
        ([(0, 9), (0, 1), (1, 0)], 0, "endpoint out of range 0..3: (0, 9)"),
        ([(0, 1), (1, 0), (0, 9)], 1, "duplicate edge (0, 1)"),
        ([(1, 2), (2, 1), (0, 1), (0, 1)], 1, "duplicate edge (1, 2)"),
        ([(0, 1), (1.0, 2), (1, 0)], 1, "non-integer endpoint (1.0, 2)"),
        ([(0, 1), (1, 0), (1.0, 2)], 1, "duplicate edge (0, 1)"),
        ([(False, 1), (2, 2)], 0, "non-integer endpoint (False, 1)"),
        ([(0, 1), (2, 2), (True, 3)], 1, "self-loop at vertex 2"),
        ([(1, 2), (0, 1.5), (2, 1)], 1, "non-integer endpoint (0, 1.5)"),
        ([(3, 3), (0, 1.5)], 0, "self-loop at vertex 3"),
    ], ids=["dup-then-loop", "loop-then-dup", "range-then-dup", "dup-then-range",
            "two-dups", "float-then-dup", "dup-then-float", "bool-then-loop",
            "loop-then-bool", "half-then-dup", "loop-then-half"])
    def test_first_fault_in_edge_order(self, edges, index, message):
        with pytest.raises(_EdgeError) as info:
            Tree(4, edges)
        assert type(info.value) is _EdgeError and str(info.value) == message
        assert info.value.index == index

    @pytest.mark.parametrize("edge", [(0, 1.0), (False, True), (0, "1"), (None, 1)])
    def test_rejects_non_integer_endpoint(self, edge):
        with pytest.raises(ValueError, match=r"^non-integer endpoint \("):
            Tree(2, [edge])

    def test_int_subclass_endpoints_accepted(self):
        class Vertex(int):
            pass

        assert Tree(2, [(Vertex(1), Vertex(0))]).edges == ((0, 1),)

    def test_edges_read_once(self):
        assert Tree(3, iter([(1, 0), (1, 2)])).edges == ((0, 1), (1, 2))

    def test_list_edges_become_tuples(self):
        t = Tree(3, [[0, 1], [1, 2]])
        assert t.edges == ((0, 1), (1, 2))
        assert all(type(e) is tuple for e in t.edges)

    def test_forest_and_connectivity(self):
        forest = Tree(4, ((0, 1), (2, 3)))
        assert forest.is_forest()
        assert not forest.is_connected()
        cycle = Tree(3, ((0, 1), (1, 2), (0, 2)))
        assert not cycle.is_forest()
        assert cycle.is_connected()

    def test_too_few_edges_skip_the_traversal(self):
        # n - 1 edges are needed to connect n vertices; with fewer, the
        # answer must not cost an O(n) degree pass, adjacency or coloring.
        t = Tree(10**6, ())
        assert not t.is_connected()
        assert "_structure" not in t.__dict__


class TestTreeMemory:
    def test_parsed_tree_keeps_one_flat_array(self):
        """A Tree keeps its edges in one array('i'), 8 bytes an edge: a
        parsed, relabeled 1e5-vertex caterpillar keeps at most 16 bytes per
        vertex (128 when each edge was a tuple of two int objects), and
        parsing it peaks at no more than 200 bytes per vertex."""
        text = write_graph(shuffled(random.Random(18), gen_regular_caterpillar(25_000, 3)[0]))
        tracemalloc.start()
        try:
            tree = parse_graph(text)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.n == 100_000 and tree.is_tree()
        assert live <= 16 * tree.n, f"{live / tree.n:.1f} bytes per vertex kept"
        assert peak <= 200 * tree.n, f"{peak / tree.n:.1f} bytes per vertex at the peak"

    def test_item_path_keeps_only_the_structural_results(self):
        """The degree and XOR lists are locals of the one structural pass: on
        the same caterpillar, with the results of label_auto,
        upper_bound_report and mp_value kept, the tree and those results hold
        at most 110 bytes per vertex (about 99; 147 when a Tree kept the
        lists)."""
        text = write_graph(shuffled(random.Random(18), gen_regular_caterpillar(25_000, 3)[0]))
        tracemalloc.start()
        try:
            tree = parse_graph(text)
            kept = label_auto(tree), upper_bound_report(tree), mp_value(tree)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tree.n == 100_000 and kept[0].scheme == "regular-cat"
        assert live <= 110 * tree.n, f"{live / tree.n:.1f} bytes per vertex kept"

    def test_edges_view_is_built_on_first_read(self):
        t = parse_graph("p 3 2\ne 2 1\ne 2 3\n")
        assert "edges" not in t.__dict__
        assert t.edges is t.edges == ((0, 1), (1, 2))


# write_graph's text for a header over the vertex limit: each reading must
# refuse it at the header, ahead of its 300,000 edges
OVER_LIMIT = f"p {MAX_N + 1} 300000\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, 300001))


class TestSizeLimit:
    # only values just above the limit, each refused before any O(n) work
    @pytest.mark.parametrize("call, n", [
        (lambda: Tree(MAX_N + 1, ()), MAX_N + 1),
        (lambda: gen_regular_caterpillar(MAX_N, 1), 2 * MAX_N),
        (lambda: gen_caterpillar([1, MAX_N, 1]), MAX_N + 5),
        (lambda: gen_spider([MAX_N]), MAX_N + 1),
        (lambda: gen_random_caterpillar(random.Random(0), MAX_N, 1), 2 * MAX_N),
        (lambda: parse_graph(f"p {MAX_N + 1} 0\n"), MAX_N + 1),
    ], ids=["tree", "regular-cat", "cat", "spider", "random-cat", "parse"])
    def test_refused_before_allocation(self, call, n):
        with small_peak(), pytest.raises(SizeLimitError, match=f"^n={n} exceeds the vertex limit"):
            call()

    @pytest.mark.parametrize("text", [
        OVER_LIMIT, f"p {MAX_N + 1} 2\ne 1 2\ne x y\n", "c x\n" + OVER_LIMIT,
        "c\n\r\n\rc y\r" + OVER_LIMIT, "c\n" * 300_000 + OVER_LIMIT,
    ], ids=["canonical", "later-bad-line", "comment-first", "blank-and-comment-lines",
            "many-comments-first"])
    def test_header_refused_before_the_edges(self, text):
        with small_peak(), pytest.raises(SizeLimitError, match=f"^n={MAX_N + 1} exceeds"):
            parse_graph(text)

    # the lines are read in order, so the size limit is checked when the
    # header is reached: an earlier line's error, or the header's own, comes first
    @pytest.mark.parametrize("text, message", [
        (f"c x\ne 1 2\np {MAX_N + 1} 1\n", "line 2: edge line before header"),
        (f"x\np {MAX_N + 1} 0\n", "line 1: malformed line 'x'"),
        (f"c x\n\tp {MAX_N + 1} 0\n", f"line 2: malformed line '\\tp {MAX_N + 1} 0'"),
        (f"c x\np {MAX_N + 1} 0 0\n", f"line 2: malformed header 'p {MAX_N + 1} 0 0'"),
        (f"c x\np {MAX_N + 1} x\n", f"line 2: malformed header 'p {MAX_N + 1} x'"),
    ], ids=["edge-before", "bad-line-before", "tab-before-header", "four-fields", "bad-m"])
    def test_earlier_errors_win_over_the_size_limit(self, text, message):
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == message

    # a line is read only when the loop reaches it, so skipping many comment
    # lines costs no memory in proportion to them
    @pytest.mark.parametrize("text, outcome", [
        ("c\n" * 300_000 + "p 2 1\ne 1 2\n", "Tree(n=2, edges=((0, 1),))"),
        ("c x\n" * 300_000 + "x\n", (GraphParseError, "line 300001: malformed line 'x'")),
    ], ids=["valid", "bad-line-last"])
    def test_leading_comments_read_in_small_memory(self, text, outcome):
        with small_peak():
            assert parse_outcome(parse_graph, text) == outcome

    def test_over_long_edge_run_refused_before_decoding(self):
        # the run's lines are counted against the header's m before they are
        # decoded, so the loop names line 3 without reading the rest
        text = "p 300001 1\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, 300001))
        with small_peak(), pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == "line 3: more than the declared 1 edges"

    def test_canonical_header_refused_without_a_tree(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError("Tree built for a header over the limit")

        monkeypatch.setattr("diffcolor.graph.Tree", refuse)
        with pytest.raises(SizeLimitError):
            parse_graph(OVER_LIMIT)


class TestParseGraph:
    def test_single_edge(self):
        t = parse_graph("p 2 1\ne 1 2\n")
        assert t.n == 2 and t.edges == ((0, 1),)

    def test_p3(self):
        t = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
        assert t.n == 3 and t.edges == ((0, 1), (1, 2))
        assert t.is_tree()

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match="line 3.*duplicate"):
            parse_graph("p 2 2\ne 1 2\ne 1 2\n")

    def test_comments_ignored(self):
        t = parse_graph("c generated\np 2 1\nc mid comment\ne 1 2\n")
        assert t.n == 2

    @pytest.mark.parametrize("char", ["\x0c", "\x85", "\u2028"],
                             ids=["form-feed", "next-line", "line-separator"])
    def test_comment_holds_any_character_but_a_line_end(self, char):
        text = "p 2 1\ne 1 2\n"
        assert repr(parse_graph(f"c page{char}break\n{text}")) == repr(parse_graph(text))
        with pytest.raises(GraphParseError, match="^line 3: self-loop: 'e 1 1'$"):
            parse_graph(f"c x{char}y\np 2 1\ne 1 1\n")

    def test_malformed_header(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("p 2\ne 1 2\n")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError, match="line 2.*malformed"):
            parse_graph("p 2 1\nx 1 2\n")

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphParseError, match="line 2.*out of range"):
            parse_graph("p 2 1\ne 1 3\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError, match="declares 2 edges, found 1"):
            parse_graph("p 3 2\ne 1 2\n")

    def test_too_many_edges(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("p 3 1\ne 1 2\ne 2 3\n")

    def test_duplicate_header(self):
        with pytest.raises(GraphParseError, match="^line 3: duplicate header$"):
            parse_graph("p 3 2\ne 1 2\np 3 2\n")

    @pytest.mark.parametrize("text", ["", "c only a comment\n"], ids=["empty", "comment-only"])
    def test_missing_header(self, text):
        with pytest.raises(GraphParseError, match="^line 1: missing header$"):
            parse_graph(text)

    def test_edge_before_header(self):
        with pytest.raises(GraphParseError, match="line 1.*before header"):
            parse_graph("e 1 2\np 2 1\n")

    def test_self_loop(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_graph("p 2 1\ne 1 1\n")

    @pytest.mark.parametrize("bad, reason", [
        ("e 3 1", "duplicate"), ("e 2 2", "self-loop"),
        ("e 0 2", "out of range"), ("e 2 4", "out of range")])
    def test_edge_fault_names_its_line_as_written(self, bad, reason):
        text = f"c x\np 3 3\ne 1 2\nc between\ne 1 3\nc\n{bad}\n"
        with pytest.raises(GraphParseError, match=reason) as info:
            parse_graph(text)
        assert info.value.line_no == 7
        assert str(info.value).endswith(repr(bad))

    def test_non_positive_vertex_count_names_header(self):
        with pytest.raises(GraphParseError, match="line 2: vertex count must be positive"):
            parse_graph("c x\np 0 0\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    @pytest.mark.parametrize("text, line_no", [
        ("p 2 1\ne 1 {}\n", 2), ("c x\np {} 0\n", 2)], ids=["edge", "header"])
    def test_over_long_number_names_its_line(self, text, line_no):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(GraphParseError) as info:
            parse_graph(text.format("1" * (limit + 1)))
        assert str(info.value) == f"line {line_no}: number with more than {limit} digits"

    @pytest.mark.parametrize("text", [
        "p 2 1\ne 1 2\n\n", "\np 2 1\n\ne 1 2\n", "p 2 1\ne 1 2\n\n\n"],
        ids=["trailing", "leading-and-inner", "two-trailing"])
    def test_empty_lines_skipped(self, text):
        assert repr(parse_graph(text)) == repr(parse_graph("p 2 1\ne 1 2\n"))

    def test_empty_lines_keep_line_numbers(self):
        with pytest.raises(GraphParseError, match="^line 4: self-loop: 'e 2 2'$"):
            parse_graph("p 2 1\n\n\ne 2 2\n")

    @pytest.mark.parametrize("blank", [" ", "\t"])
    def test_blank_but_not_empty_line_is_malformed(self, blank):
        with pytest.raises(GraphParseError) as info:
            parse_graph(f"p 2 1\ne 1 2\n{blank}\n")
        assert str(info.value) == f"line 3: malformed line {blank!r}"

    def test_round_trip_bit_exact(self):
        text = "p 4 3\ne 1 2\ne 2 3\ne 2 4\n"
        assert write_graph(parse_graph(text)) == text

    def test_round_trip_tree(self):
        t = gen_spider([2, 3, 1])[0]
        assert parse_graph(write_graph(t)) == t


# Python before 3.10.7 reads ints of any length; the readings agree on LONG either way.
LONG = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1)


class TestCanonicalFastPath:
    """parse_graph reads a run of canonical edge lines after the header in
    bulk and every other line one at a time: it must agree with the reference
    line reader on every text, the run's boundaries included."""

    @pytest.mark.parametrize("text", [
        "p 3 2\ne 1 2\ne 2 3\n", "p 1 0\n", "p 4 3\ne 4 1\ne 2 4\ne 3 4\n",
        "c hi\np 2 1\ne 1 2\n", "p 2 1\nc x\ne 1 2\n", "p 2 1\r\ne 1 2\r\n",
        "p 2 1\ne 1 2", "p 2 1\ne 1 2\n\n", "p 2 1\x0be 1 2\n", "p 2 1\ne 1 2\u2028",
        "p 2 1\ne 01 2\n", "p 02 1\ne 1 2\n", "p 3 1\ne 1 2 3\n",
        "p 3 3\ne 1 2\ne 2 3\n", "p 3 1\ne 1 2\ne 2 3\n", "p 2 1\ne 1 1\n",
        "p 2 2\ne 1 2\ne 2 1\n", "p 2 1\ne 1 3\n", "p 2 1\ne 0 1\n", "p 0 0\n",
        f"p 2 1\ne 1 {LONG}\n", f"p {LONG} 0\n", "p 2 1\ne 1  2\n",
        "p 2 1\ne 1 \u0662\n", "p 2 1\ne 1,2\n", "p 3 2\ne 1 2\t\ne 2 3\n",
        "p 2 1\ne 1e0 2\n", "", "e 1 2\np 2 1\n", f"p {MAX_N + 1} 0\n", OVER_LIMIT,
        f"p {MAX_N + 1} 2\ne 1 2\ne x y\n", "p 3 2\ne 01 2\ne 2 3\n",
        "p 3 2\ne 1 2\ne 2 03\n", "p 3 2\r\ne 1 2\ne 2 3\n", "p 3 2\nc\ne 1 2\ne 2 3\n",
        "p 3 2\ne 1 2\ne 2 3\ne 1 3\n", "p 4 3\ne 1 2\ne 2 3\nc x\ne 3 4\n",
        "p 4 3\ne 1 2\ne 2 3\ne 3 4\r\n", "p 3 3\ne 1 2\ne 2 3\ne 1 2\n",
        "p 3 2\ne 1 2\ne 2 3\np 3 2\n",
    ], ids=["valid", "single-vertex", "unsorted", "comment-first", "comment-mid",
            "crlf", "no-final-newline", "trailing-blank-line", "vertical-tab",
            "line-separator", "edge-leading-zero", "header-leading-zero",
            "three-numbers", "m-too-high", "m-too-low", "self-loop", "duplicate",
            "out-of-range", "zero-endpoint", "p-0-0", "long-edge-number",
            "long-header-number", "double-space", "non-ascii-digit", "comma",
            "trailing-tab", "exponent", "empty", "edge-before-header", "over-max-n",
            "over-max-n-edges", "over-max-n-bad-line", "run-first-leading-zero",
            "run-last-leading-zero", "crlf-header", "comment-after-header",
            "run-past-m", "comment-after-run", "crlf-after-run", "run-duplicate-last",
            "header-after-run"])
    def test_agrees_with_the_line_reading(self, text):
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_lines, text)

    @pytest.mark.parametrize("comments", ["", "c one\nc two\nc three\n"])
    def test_edges_decoded_by_one_json_loads(self, monkeypatch, comments):
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s: calls.append(s) or loads(s))
        t = gen_spider([2, 3, 1])[0]
        assert parse_graph(comments + write_graph(t)) == t
        assert len(calls) == 1

    def test_leading_zero_in_the_run_read_by_the_loop(self):
        assert parse_graph("p 3 2\ne 01 2\ne 2 3\n") == parse_graph("p 3 2\ne 1 2\ne 2 3\n")

    def test_rejected_run_builds_one_tree(self, monkeypatch):
        t = gen_spider([2, 3, 1])[0]
        _, *lines = write_graph(t).splitlines(keepends=True)
        text = f"p {t.n} {t.m + 1}\n" + "".join(lines) + lines[0]  # the first edge again
        built = []
        monkeypatch.setattr("diffcolor.graph.Tree",
                            lambda n, edges: built.append(n) or Tree(n, edges))
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {t.m + 2}: duplicate edge: {lines[0][:-1]!r}"
        assert built == [t.n]


class TestRecognizeCaterpillar:
    def test_p4(self):
        shape = recognize_caterpillar(path_graph(4))
        assert shape.leg_counts == (1, 1)
        assert shape.spine_vertices == (1, 2)

    def test_star(self):
        t = gen_spider([1, 1, 1, 1])[0]
        shape = recognize_caterpillar(t)
        assert shape.leg_counts == (4,)
        assert shape.spine_vertices == (0,)

    def test_spider_rejected(self):
        t = gen_spider([2, 2, 2])[0]
        assert recognize_caterpillar(t) is None

    def test_single_vertex(self):
        shape = recognize_caterpillar(Tree(1, ()))
        assert shape.leg_counts == (0,)

    def test_single_edge(self):
        shape = recognize_caterpillar(Tree(2, ((0, 1),)))
        assert shape.leg_counts == (1,)
        assert shape.spine_vertices == (0,)  # smaller id is the spine

    def test_spine_orientation_smaller_endpoint_first(self):
        # caterpillar with spine 5-2-4: endpoints 5 and 4, so 4 comes first
        t = Tree(6, ((5, 2), (2, 4), (5, 0), (2, 1), (4, 3)))
        shape = recognize_caterpillar(t)
        assert shape.spine_vertices == (4, 2, 5)

    def test_requires_connected_tree(self):
        assert recognize_caterpillar(Tree(4, ((0, 1), (2, 3)))) is None
        assert recognize_caterpillar(Tree(3, ((0, 1), (1, 2), (0, 2)))) is None


# Forests and graphs with a cycle, some with as many edges as a tree on n vertices.
NON_TREES = [Tree(4, ((0, 1), (2, 3))), Tree(7, ((0, 1), (1, 2), (3, 4), (4, 5), (4, 6))),
             Tree(3, ((0, 1), (1, 2), (0, 2))), Tree(4, ((0, 1), (1, 2), (0, 2))),
             Tree(5, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4)))]


@pytest.mark.parametrize("tree", NON_TREES,
                         ids=["two-edges", "path-and-star", "triangle",
                              "triangle-and-isolated", "square-with-pendant"])
def test_cached_shapes_are_none_off_connected_trees(tree):
    """The cached shapes carry the connected-tree guard themselves, so a
    direct reader gets None, as the recognizers do, not an error from the
    code that builds a shape."""
    assert tree._structure[3:] == (None, None)


def _zero_swapped(tree, x):
    """tree with the ids 0 and x exchanged."""
    swap = {0: x, x: 0}
    return Tree(tree.n, [(swap.get(u, u), swap.get(v, v)) for u, v in tree.edges])


class TestVertexZeroInEveryRole:
    """0 is both a vertex id and the XOR identity: the recognizers must give
    the adjacency-list reference's shapes wherever vertex 0 sits."""

    @pytest.mark.parametrize("tree", [
        gen_caterpillar([2, 0, 1, 3])[0], gen_caterpillar([1, 1])[0],
        gen_caterpillar([4])[0], gen_spider([2, 3, 1])[0], gen_spider([3, 3])[0],
        path_graph(6), path_graph(7)],
        ids=["caterpillar", "two-spine", "star", "spider", "even-path-spider",
             "even-path", "odd-path"])
    def test_matches_the_reference(self, tree):
        for x in range(tree.n):  # 0 takes the place of each vertex in turn
            t = _zero_swapped(tree, x)
            assert recognize_caterpillar(t) == reference_caterpillar_shape(t)
            assert recognize_spider(t) == reference_spider_shape(t)

    def test_zero_as_spine_vertex_arm_vertex_and_center(self):
        cat = gen_caterpillar([2, 0, 1, 3])[0]  # spine 0-1-2-3
        end = recognize_caterpillar(_zero_swapped(cat, 3))
        assert end.spine_vertices == (0, 2, 1, 3)
        assert end.leg_vertices == ((7, 8, 9), (6,), (), (4, 5))
        legless = recognize_caterpillar(_zero_swapped(cat, 1))
        assert legless.spine_vertices == (1, 0, 2, 3)
        assert legless.leg_vertices == ((4, 5), (), (6,), (7, 8, 9))
        spider = gen_spider([2, 3, 1])[0]  # center 0, arms 1-2, 3-4-5, 6
        assert recognize_spider(spider).center == 0
        arm = recognize_spider(_zero_swapped(spider, 4))
        assert arm.center == 4 and arm.path_vertices == ((1, 2), (3, 0, 5), (6,))


class TestRecognizersOnShuffledIds:
    """The caterpillar test reads each non-leaf's non-leaf degree from the
    peel's first layer, where leaf 0 is never peeled: both recognizers must
    give the adjacency-list reference's shapes on shuffled ids, with vertex
    0 in every role."""

    TREES = {
        "n3": path_graph(3),
        "star": gen_spider([1] * 6)[0],
        "double-star": gen_caterpillar([3, 4])[0],
        "thin-double-star": gen_caterpillar([1, 1])[0],
        "short-spider-3": gen_spider([2, 2, 2])[0],
        "short-spider-7": gen_spider([2] * 7)[0],
        "spider-one-long-arm": gen_spider([4, 1, 1, 1])[0],
        "spider-two-long-arms": gen_spider([3, 1, 2, 1, 1])[0],
        "spider-three-long-arms": gen_spider([2, 1, 2, 2])[0],
        "caterpillar": gen_caterpillar([2, 0, 1, 0, 3])[0],
    }

    @pytest.mark.parametrize("tree", TREES.values(), ids=TREES.keys())
    def test_matches_the_reference(self, tree):
        rng = random.Random(30)
        for _ in range(3):
            shuffled_tree = shuffled(rng, tree)
            for x in range(tree.n):  # 0 takes the place of each vertex in turn
                t = _zero_swapped(shuffled_tree, x)
                assert recognize_caterpillar(t) == reference_caterpillar_shape(t)
                assert recognize_spider(t) == reference_spider_shape(t)

    @pytest.mark.parametrize("lengths, caterpillar", [
        ([1, 1, 1], True), ([4, 1, 1, 1], True), ([3, 1, 2, 1, 1], True),
        ([2, 2, 2], False), ([2] * 7, False), ([2, 1, 2, 2], False)])
    def test_spider_is_a_caterpillar_with_two_long_arms_at_most(self, lengths, caterpillar):
        t = shuffled(random.Random(31), gen_spider(lengths)[0])
        assert (recognize_caterpillar(t) is not None) == caterpillar
        assert sorted(recognize_spider(t).path_lengths) == sorted(lengths)

    def test_zero_as_leaf_of_a_spine_end(self):
        # path 0-1-2-3-4: leaf 0 hangs on the end 1, whose non-leaf degree is 1
        shape = recognize_caterpillar(path_graph(5))
        assert shape.spine_vertices == (1, 2, 3)
        assert shape.leg_vertices == ((0,), (), (4,))
        # 0 and 5 are leaves of end 1, 6 of end 3: the spine is 1-2-3
        t = Tree(7, ((0, 1), (5, 1), (1, 2), (2, 3), (3, 6), (2, 4)))
        assert recognize_caterpillar(t).leg_vertices == ((0, 5), (4,), (6,))

    def test_zero_as_center(self):
        star = recognize_caterpillar(gen_spider([1] * 4)[0])
        assert star.spine_vertices == (0,) and star.leg_vertices == ((1, 2, 3, 4),)
        assert recognize_caterpillar(gen_spider([2] * 4)[0]) is None
        assert recognize_spider(gen_spider([2] * 4)[0]).center == 0


def assert_public_twin(shape):
    """The public constructor accepts shape's fields and gives the same record."""
    twin = type(shape)(*shape._values())
    assert twin == shape and hash(twin) == hash(shape) and repr(twin) == repr(shape)
    counts = "leg_counts" if isinstance(shape, CaterpillarShape) else "path_lengths"
    assert getattr(twin, counts) == getattr(shape, counts) and twin.n == shape.n


class TestTrustedShapes:
    """The structural pass and the generators build shapes with no id check,
    so every shape they return must be one the public constructor, which
    checks, accepts as it is; and that check must be the public path only."""

    @pytest.mark.parametrize("tree", [*TestRecognizersOnShuffledIds.TREES.values(),
                                      Tree(1, ()), Tree(2, ((0, 1),)), path_graph(6)],
                             ids=[*TestRecognizersOnShuffledIds.TREES, "n1", "n2", "path-6"])
    def test_recognized_shapes_pass_the_public_checks(self, tree):
        rng = random.Random(30)
        for _ in range(3):
            shuffled_tree = shuffled(rng, tree)
            for x in range(tree.n):
                t = _zero_swapped(shuffled_tree, x)
                for shape in (recognize_caterpillar(t), recognize_spider(t)):
                    if shape is not None:
                        assert_public_twin(shape)

    def test_generated_shapes_pass_the_public_checks(self):
        rng = random.Random(31)
        shapes = [gen_caterpillar(counts)[1] for counts in ([0], [3], [1, 1], [2, 0, 1, 0, 3])]
        shapes += [gen_regular_caterpillar(s, delta)[1] for s in (1, 4) for delta in (1, 3)]
        shapes += [gen_random_caterpillar(rng, 12, 4)[1] for _ in range(20)]
        shapes += [gen_spider(lengths)[1] for lengths in ([1], [2, 2], [1, 3, 3], [2] * 9)]
        for shape in shapes:
            assert_public_twin(shape)

    FAMILIES = {  # the six large-trees families, at small n
        "regular-cat": (gen_regular_caterpillar(40, 3)[0], "regular-cat"),
        "sec53": (gen_caterpillar([1, 5] * 12 + [1])[0], "general-cat"),
        "legless-cat": (gen_caterpillar([2, 0, 0, 3, 1, 0, 4, 0, 0, 0, 2, 1])[0], "general-cat"),
        "even-spider": (gen_spider([30, 24, 18, 40])[0], "spider-even"),
        "odd-spider": (gen_spider([31, 25, 19])[0], "spider-odd"),
        "short-spider": (gen_spider([2] * 60)[0], "spider-even"),
    }

    @pytest.mark.parametrize("tree, scheme", FAMILIES.values(), ids=FAMILIES.keys())
    def test_item_path_runs_no_id_check(self, monkeypatch, tree, scheme):
        def check_vertices(*blocks):
            raise AssertionError("_check_vertices ran")

        monkeypatch.setattr(graph, "_check_vertices", check_vertices)
        with pytest.raises(AssertionError, match="_check_vertices ran"):
            CaterpillarShape((0,), ((1,),))  # the public path still checks
        rng = random.Random(32)
        for t in (shuffled(rng, tree) for _ in range(2)):
            assert label_auto(t).scheme == scheme
            applied = []
            for name in SCHEMES:
                try:
                    applied.append(run_scheme(t, name).scheme)
                except NotApplicable:
                    pass
            assert scheme in applied
            assert upper_bound_report(t).best >= label_auto(t).value
            assert mp_value(t) >= 1
        for t, shape in (gen_caterpillar([1, 0, 2]), gen_regular_caterpillar(3, 2),
                         gen_random_caterpillar(random.Random(33))):
            assert recognize_caterpillar(t) == shape
        t, shape = gen_spider([2, 2, 4])
        assert recognize_spider(t) == shape


class TestRecognizeSpider:
    def test_k13(self):
        shape = recognize_spider(gen_spider([1, 1, 1])[0])
        assert shape.path_lengths == (1, 1, 1)

    def test_p5_degenerate_center(self):
        shape = recognize_spider(path_graph(5))
        assert shape.p == 2
        assert sorted(shape.path_lengths) == [2, 2]
        assert shape.center == 2

    def test_p4_tie_breaks_to_smaller_id(self):
        # path 3-1-0-2: interior vertices 1 and 0 are equally balanced
        t = Tree(4, ((3, 1), (1, 0), (0, 2)))
        shape = recognize_spider(t)
        assert shape.center == 0
        assert sorted(shape.path_lengths) == [1, 2]

    def test_two_branch_vertices_rejected(self):
        t = gen_caterpillar([2, 2])[0]
        assert recognize_spider(t) is None

    def test_tiny_rejected(self):
        assert recognize_spider(Tree(1, ())) is None
        assert recognize_spider(Tree(2, ((0, 1),))) is None

    def test_requires_connected_tree(self):
        assert recognize_spider(Tree(4, ((0, 1), (2, 3)))) is None
        # a 4-cycle with a pendant vertex has exactly one vertex of degree 3
        assert recognize_spider(Tree(5, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4)))) is None


class TestGenerators:
    def test_regular_caterpillar(self):
        t, shape = gen_regular_caterpillar(2, 2)
        assert t.n == 6 and shape.leg_counts == (2, 2)
        t, shape = gen_regular_caterpillar(1, 3)
        assert t.n == 4 and t.degrees()[0] == 3  # K_{1,3}
        t, shape = gen_regular_caterpillar(3, 1)
        assert t.n == 6 and shape.leg_counts == (1, 1, 1)

    def test_regular_caterpillar_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_regular_caterpillar(0, 1)
        with pytest.raises(ValueError):
            gen_regular_caterpillar(1, 0)

    def test_caterpillar_p5(self):
        t, shape = gen_caterpillar([1, 0, 1])
        assert t.n == 5
        assert sorted(t.degrees()) == [1, 1, 2, 2, 2]  # it is a path

    def test_caterpillar_comparison_family_member(self):
        t, shape = gen_caterpillar([1, 3, 1])
        assert t.n == 8 and shape.delta == 3

    def test_caterpillar_rejects_legless_endpoint(self):
        with pytest.raises(ValueError):
            gen_caterpillar([0, 1])
        with pytest.raises(ValueError):
            gen_caterpillar([])

    def test_spider(self):
        t, shape = gen_spider([1, 1, 1])
        assert t.n == 4 and t.degrees()[0] == 3
        t, shape = gen_spider([2, 2, 2])
        assert t.n == 7
        lengths = [3, 3]
        t, shape = gen_spider(lengths)
        levels = (1, *(sum(x >= level for x in lengths) for level in range(1, 4)))
        assert t.n == 7 and shape.n_even == 2 == sum(levels[2::2]) and levels == (1, 2, 2, 2)

    def test_spider_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            gen_spider([])
        with pytest.raises(ValueError):
            gen_spider([2, 0])

    def test_random_caterpillar_canonical(self):
        rng = random.Random(7)
        for _ in range(50):
            t, shape = gen_random_caterpillar(rng, 12, 5)
            assert shape.leg_counts[0] >= 1 and shape.leg_counts[-1] >= 1
            assert t.n == shape.n


@pytest.mark.parametrize("call, what, bad", [
    (lambda: gen_caterpillar([1.7, 2]), "leg counts", 1.7),
    (lambda: gen_caterpillar(["1", "2"]), "leg counts", "1"),
    (lambda: gen_regular_caterpillar(2, 1.5), "leg count", 1.5),
    (lambda: gen_regular_caterpillar(2.5, 1), "spine length", 2.5),
    (lambda: gen_spider([2.9]), "path lengths", 2.9),
    (lambda: gen_spider([True, True]), "path lengths", True),
    (lambda: gen_random_caterpillar(random.Random(1), 3.5, 2), "max_spine and max_legs", 3.5),
], ids=["float-legs", "str-legs", "float-delta", "float-spine", "float-path", "bool-path",
        "float-max-spine"])
def test_generators_reject_non_integers(call, what, bad):
    """Generators take integers by Tree's rule (bools are not) and name the
    argument they reject instead of truncating or failing further in."""
    with pytest.raises(ValueError, match=f"^expected integer {what}, got {re.escape(repr(bad))}$"):
        call()


class TestShapeInvariants:
    def test_spider_counting_identities_exhaustive(self):
        # n = N_e + N_o + 1 and N_o - N_e <= p for every shape with n <= 12
        checked = 0
        for total in range(1, 12):
            for lengths in partitions(total):
                _, shape = gen_spider(lengths)
                counts = [1] + [0] * max(lengths)  # vertices per level, the center at 0
                for verts in shape.path_vertices:
                    for level, _ in enumerate(verts, start=1):
                        counts[level] += 1
                n_odd = sum(counts[1::2])
                assert shape.n_even == sum(counts[2::2])
                assert shape.n == shape.n_even + n_odd + 1
                assert n_odd - shape.n_even <= shape.p
                assert len(counts) == max(lengths) + 1
                for level, count in enumerate(counts):
                    assert count == (1 if level == 0 else sum(1 for x in lengths if x >= level))
                checked += 1
        assert checked > 100

    def test_caterpillar_round_trip(self):
        for s in range(1, 7):
            for delta in range(1, 5):
                t, shape = gen_regular_caterpillar(s, delta)
                again = recognize_caterpillar(t)
                assert again is not None
                assert again.leg_counts == shape.leg_counts

    def test_random_caterpillar_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            t, shape = gen_random_caterpillar(rng, 15, 4)
            again = recognize_caterpillar(t)
            assert again is not None
            counts = again.leg_counts
            assert counts in (shape.leg_counts, shape.leg_counts[::-1])

    def test_spider_round_trip(self):
        # With p <= 2 the generated tree is a path and recognition re-centers
        # it at a most-balanced vertex, so exact round-trip needs a structural
        # center (p >= 3) or an already-balanced split.
        for lengths in length_multisets((1, 2, 3, 4, 5), 4, 100):
            t, shape = gen_spider(lengths)
            again = recognize_spider(t)
            if shape.p >= 3 or (shape.p == 2 and
                                abs(lengths[0] - lengths[1]) <= 1):
                assert again is not None
                assert sorted(again.path_lengths) == sorted(shape.path_lengths)
            elif t.n >= 3:
                assert again is not None
                assert again.n == shape.n
                assert again.p == 2
            else:
                assert again is None

    def test_shape_to_tree_matches_generator(self):
        t, shape = gen_caterpillar([2, 1, 3])
        assert shape.to_tree() == t
        t, shape = gen_spider([2, 4])
        assert shape.to_tree() == t

    def test_shape_edges_in_to_tree_order(self):
        # caterpillar: spine path first, then each spine vertex's legs;
        # spider: each path from the center outward
        _, cat = gen_caterpillar([2, 0, 1])
        assert cat.edges == ((0, 1), (1, 2), (0, 3), (0, 4), (2, 5))
        _, spider = gen_spider([2, 1])
        assert spider.edges == ((0, 1), (1, 2), (0, 3))
        for shape in (cat, spider):
            assert shape.to_tree().edges == shape.edges

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CaterpillarShape((0, 1), ((2,), ()))  # legless right endpoint
        with pytest.raises(ValueError):
            SpiderShape(0, ((1,), ()))  # an empty path


class TestBipartition:
    def test_p5(self):
        assert bipartition_sizes(path_graph(5)) == (3, 2)

    def test_regular_caterpillar(self):
        t, _ = gen_regular_caterpillar(3, 2)
        assert bipartition_sizes(t) == (5, 4)

    def test_spider_3_3(self):
        t, _ = gen_spider([3, 3])
        assert bipartition_sizes(t) == (4, 3)

    def test_sizes_sum_to_n(self):
        rng = random.Random(3)
        for _ in range(50):
            t, _ = gen_random_caterpillar(rng, 10, 4)
            a, b = bipartition_sizes(t)
            assert a + b == t.n and a >= b

    def test_odd_cycle_rejected(self):
        with pytest.raises(ValueError, match="odd cycle"):
            bipartition_sizes(Tree(3, ((0, 1), (1, 2), (0, 2))))

    def test_even_cycle_tolerated(self):
        c4 = Tree(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert bipartition_sizes(c4) == (2, 2)


class TestOneColoringRule:
    """A graph with n - 1 edges is peeled toward vertex 0; a tree is colored
    from that peel, every other graph by one traversal of adjacency()."""

    @pytest.mark.parametrize("graph", [
        Tree(1, ()),
        _zero_swapped(gen_caterpillar([2, 0, 1, 3])[0], 9),
        gen_spider([2, 3, 1])[0],
        Tree(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5))),
        Tree(9, ((5, 0), (5, 7), (8, 1), (3, 8), (2, 3))),
        Tree(5, ((1, 2), (2, 3), (3, 4), (1, 4))),
    ], ids=["single-vertex", "zero-leaf", "zero-center", "triangle-beside-path",
            "forest", "zero-beside-cycle"])
    def test_matches_the_reference(self, graph, monkeypatch):
        colors, components, bipartite = reference_coloring(graph)
        tree = components == 1 and graph.m == graph.n - 1
        traversals = []
        adjacency = Tree.adjacency
        monkeypatch.setattr(Tree, "adjacency", lambda t: traversals.append(t) or adjacency(t))
        got_colors, got_components, got_bipartite = graph._structure[:3]
        assert (got_components, got_bipartite) == (components, bipartite)
        if bipartite:
            assert list(got_colors) == colors
        assert graph.is_forest() == (graph.m == graph.n - components)
        assert graph.is_tree() == tree
        assert len(traversals) == (not tree)


class TestDerivedCache:
    def test_mutating_adjacency_does_not_leak(self):
        t, shape = gen_caterpillar([2, 0, 1])
        fresh = Tree(t.n, t.edges).adjacency()
        adj = t.adjacency()
        adj[0].append(5)
        adj[1].clear()
        adj.append([0])
        assert recognize_caterpillar(t) == shape
        assert t.is_tree()
        assert t.adjacency() == fresh
        t.adjacency()[2].clear()
        assert t.adjacency() == fresh

    @pytest.mark.parametrize("tree", [gen_random_caterpillar(random.Random(5), 30, 4)[0],
                                      gen_spider([4, 2, 6, 2])[0]], ids=["caterpillar", "spider"])
    def test_tree_path_builds_no_adjacency(self, tree, monkeypatch):
        # parsing, label_auto, the bounds and mp_value read the one structural pass only
        rng = random.Random(6)
        perm = rng.sample(range(tree.n), tree.n)
        edges = [(perm[u], perm[v]) for u, v in tree.edges]
        rng.shuffle(edges)
        text = write_graph(Tree(tree.n, edges))
        calls = []

        def refuse(t):
            calls.append(t)
            raise AssertionError("adjacency() called on the tree path")

        monkeypatch.setattr(Tree, "adjacency", refuse)
        t = parse_graph(text)
        label_auto(t)
        upper_bound_report(t)
        mp_value(t)
        assert not calls and "_structure" in t.__dict__
        # the pass's degree and XOR lists are locals: only its results stay
        assert t.__dict__.keys() == {"n", "_ends", "_structure"}

    def test_caches_stay_out_of_eq_hash_repr(self):
        a, _ = gen_spider([2, 3, 3])
        b = Tree(a.n, a.edges)
        assert a.is_tree()
        assert recognize_spider(a) is not None
        assert recognize_caterpillar(a) is None
        bipartition_sizes(a)
        assert "_structure" in a.__dict__ and "_structure" not in b.__dict__
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert b.is_forest()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert len({a, b}) == 1

    def test_too_few_edges_leave_the_pass_unrun(self):
        t = Tree(10**6, ())
        assert not t.is_connected() and not t.is_tree()
        assert "_structure" not in t.__dict__

    def test_odd_cycle_raises_every_call(self):
        cycle = Tree(5, ((0, 1), (1, 2), (0, 2), (3, 4)))
        for _ in range(3):
            with pytest.raises(ValueError, match="odd cycle"):
                bipartition_sizes(cycle)
        assert cycle.component_count() == 2
        assert not cycle.is_forest()

    def test_recognition_is_shared(self):
        t, _ = gen_caterpillar([1, 0, 2])
        assert recognize_caterpillar(t) is recognize_caterpillar(t)
        assert recognize_spider(t) is recognize_spider(t)

    def test_recognition_still_checks_tree(self):
        # two paths of 3: each component alone is a caterpillar and a spider
        forest = Tree(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
        for _ in range(2):
            assert recognize_caterpillar(forest) is None
            assert recognize_spider(forest) is None
