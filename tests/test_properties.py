"""Hypothesis properties of recognition, evaluation, the schemes and the
graph file format on caterpillars and spiders (n <= 200) with randomly
permuted vertex ids; of the coloring and component count on random trees,
forests and graphs with one cycle; of every layer on forests of several trees
and on trees plus one edge, none of which is a caterpillar or a spider; of
both recognizers against their adjacency-list reference on trees up to
n ~ 2000, and of the spider's arm order on spiders of 3-40 arms; of every
applicable scheme against its guarantee and the best bound on caterpillars
and parity-uniform spiders up to n ~ 4000; and of
mp_value against the best bound on spiders, regular caterpillars and paths;
and of differential_value against the edge minimum on trees up to n = 60."""

import random
import re
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffcolor import (SCHEMES, GraphParseError, Labeling, NotApplicable,
                       Tree, bipartition_sizes, differential_value,
                       gen_caterpillar, gen_regular_caterpillar, gen_spider,
                       label_auto, label_general_caterpillar, mark_caterpillar,
                       mp_value, parse_graph, recognize_caterpillar, recognize_spider,
                       run_scheme, upper_bound_report, write_graph)
from helpers import (LABEL_SHAPE, parse_outcome, path_graph, pruefer_to_edges,
                     reference_caterpillar_shape, reference_coloring,
                     reference_parse_lines, reference_spider_shape)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def caterpillars(draw):
    counts = draw(st.lists(st.integers(0, 9), min_size=1, max_size=20))
    counts[0] = max(counts[0], 1)
    counts[-1] = max(counts[-1], 1)
    return gen_caterpillar(counts)[0]


@st.composite
def parity_uniform_spiders(draw):
    odd = draw(st.booleans())
    halves = draw(st.lists(st.integers(0, 7), min_size=1, max_size=12))
    return gen_spider([2 * k + (1 if odd else 2) for k in halves])[0]


@st.composite
def spiders(draw):
    return gen_spider(draw(st.lists(st.integers(1, 15), min_size=1, max_size=12)))[0]


@st.composite
def relabeled(draw, trees):
    """A tree from trees with permuted vertex ids and shuffled edge order."""
    tree = draw(trees)
    rng = random.Random(draw(seeds))
    perm = rng.sample(range(tree.n), tree.n)
    edges = [(perm[u], perm[v]) for u, v in tree.edges]
    rng.shuffle(edges)
    return Tree(tree.n, tuple(edges))


def _pruefer_edges(rng, n):
    """The edges of a uniform random labeled tree on 0..n-1."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return pruefer_to_edges([rng.randrange(n) for _ in range(n - 2)], n)


@st.composite
def pruefer_trees(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    return Tree(n, _pruefer_edges(random.Random(draw(seeds)), n))


@st.composite
def forests(draw, min_trees=1, max_trees=8):
    """A disjoint union of random trees (isolated vertices included); the
    relabeled strategy shuffles the ids across the trees."""
    rng = random.Random(draw(seeds))
    edges = []
    n = 0
    for size in draw(st.lists(st.integers(1, 30), min_size=min_trees, max_size=max_trees)):
        edges += [(n + u, n + v) for u, v in _pruefer_edges(rng, size)]
        n += size
    return Tree(n, edges)


@st.composite
def maybe_extra_edge(draw, graphs, always=False):
    """A graph from graphs, as drawn (never when always) or with one random
    edge it lacks, which closes a cycle (odd or even) or joins two components."""
    t = draw(graphs)
    if not (always or draw(st.booleans())) or 2 * t.m == t.n * (t.n - 1):  # kept, or complete
        return t
    rng = random.Random(draw(seeds))
    while (edge := tuple(sorted(rng.sample(range(t.n), 2)))) in t.edges:
        pass
    return Tree(t.n, (*t.edges, edge))


@given(relabeled(maybe_extra_edge(pruefer_trees(200) | forests())))
def test_coloring_matches_the_reference_search(tree):
    """Peeling leaves gives the component count, forest and tree tests and
    color classes of a breadth-first search over the neighbour lists."""
    colors, components, bipartite = reference_coloring(tree)
    assert tree.component_count() == components
    assert tree.is_forest() == (tree.m == tree.n - components)
    assert tree.is_tree() == (components == 1 and tree.m == tree.n - 1)
    if bipartite:
        ones = colors.count(1)
        assert bipartition_sizes(tree) == (max(tree.n - ones, ones), min(tree.n - ones, ones))
        assert list(tree._structure[0]) == colors
    else:
        with pytest.raises(ValueError, match="odd cycle"):
            bipartition_sizes(tree)
    if tree.is_forest():
        peeled = tree._structure[0]
        assert all(peeled[u] != peeled[v] for u, v in tree.edges)
    assert tree.degrees() == [len(nbrs) for nbrs in tree.adjacency()]


@given(relabeled(forests(2, 4)
                 | maybe_extra_edge(pruefer_trees(200, min_n=3), always=True)))
def test_non_trees_fail_every_layer(graph):
    """A forest of several trees, or a tree plus one edge (a cycle), is neither
    a caterpillar nor a spider: each scheme row and label_auto give their
    reasons, and a connected one gets only the bound every graph has."""
    assert not graph.is_tree()
    assert recognize_caterpillar(graph) is None and recognize_spider(graph) is None
    for name, (shape_class, *_) in SCHEMES.items():
        with pytest.raises(NotApplicable, match=f"^input is not a {shape_class}$"):
            run_scheme(graph, name)
    with pytest.raises(NotApplicable, match="^no scheme applies: regular-cat: "):
        label_auto(graph)
    if graph.is_connected():
        assert upper_bound_report(graph).entries == (("thm1", graph.n // 2),)
    else:
        with pytest.raises(ValueError, match="disconnected"):
            upper_bound_report(graph)


@st.composite
def large_caterpillars(draw):
    rng = random.Random(draw(seeds))
    max_legs = draw(st.integers(0, 6))
    counts = [rng.randint(0, max_legs) for _ in range(draw(st.integers(1, 300)))]
    counts[0] = max(counts[0], 1)
    counts[-1] = max(counts[-1], 1)
    return gen_caterpillar(counts)[0]


@st.composite
def large_spiders(draw):
    rng = random.Random(draw(seeds))
    max_length = draw(st.integers(1, 50))
    return gen_spider([rng.randint(1, max_length) for _ in range(draw(st.integers(1, 40)))])[0]


@given(relabeled(large_caterpillars() | large_spiders() | pruefer_trees(2000)))
def test_recognizers_match_the_adjacency_reference(tree):
    assert recognize_caterpillar(tree) == reference_caterpillar_shape(tree)
    assert recognize_spider(tree) == reference_spider_shape(tree)


# 3-40 arms of lengths 1-60, about half of them of length 2
many_armed_spiders = st.lists(st.just(2) | st.integers(1, 60), min_size=3, max_size=40).map(
    lambda lengths: gen_spider(lengths)[0])


@given(relabeled(many_armed_spiders))
def test_spider_arms_in_order_of_first_vertex(tree):
    assert recognize_spider(tree) == reference_spider_shape(tree)


@st.composite
def large_regular_caterpillars(draw):
    return gen_regular_caterpillar(draw(st.integers(1, 300)), draw(st.integers(1, 8)))[0]


@st.composite
def large_parity_uniform_spiders(draw):
    rng = random.Random(draw(seeds))
    parity = draw(st.integers(1, 2))
    max_half = draw(st.integers(0, 49))  # lengths up to 99 (odd) or 100 (even)
    return gen_spider([2 * rng.randint(0, max_half) + parity
                       for _ in range(draw(st.integers(1, 40)))])[0]


@given(relabeled(large_caterpillars() | large_regular_caterpillars()
                 | large_parity_uniform_spiders()))
def test_large_schemes_land_in_their_bracket(tree):
    """Every applicable scheme lands between its guarantee and the best bound,
    and a proved scheme reaches the best bound: the paper's optimality claims
    at sizes where the oracle cannot check them."""
    best = upper_bound_report(tree).best
    applied = 0
    for name, (_, _, _, optimality) in SCHEMES.items():
        try:
            result = run_scheme(tree, name)
        except NotApplicable:
            continue
        applied += 1
        assert result.guarantee <= result.value <= best
        if optimality == "proved":
            assert result.value == best
    assert applied


@st.composite
def mp_optimal_trees(draw):
    """A spider (3-40 paths of lengths 1-60), a regular caterpillar (spine
    s <= 80, delta <= 20 legs each) or a path."""
    kind = draw(st.sampled_from(("spider", "regular-cat", "path")))
    if kind == "spider":
        return gen_spider(draw(st.lists(st.integers(1, 60), min_size=3, max_size=40)))[0]
    if kind == "regular-cat":
        return gen_regular_caterpillar(draw(st.integers(1, 80)), draw(st.integers(1, 20)))[0]
    return path_graph(draw(st.integers(2, 2000)))


@given(relabeled(mp_optimal_trees()))
def test_bipartition_reaches_the_best_bound(tree):
    """The abstract's main claim: the Miller-Pritikin (bipartition) scheme
    is optimal on spiders and regular caterpillars, i.e. mp_value(t) equals
    the best upper bound. By counting:

    - Spider: the center and the even levels form one color class, of size
      N_e + 1; the odd levels form the other, of at least N_e vertices,
      since a path of length L has ceil(L/2) odd levels and floor(L/2) even
      ones. So min(|U|, |V|) = min(N_e + 1, floor(n/2)), the best of thm3
      and thm1. A path with n >= 3 is a two-path spider; P2 has thm1 = 1.
    - Regular caterpillar with spine s and delta legs per spine vertex: for
      odd s the smaller class has (s + 1)/2 + delta (s - 1)/2 vertices,
      which is ceil((n - delta)/2) = thm2; for even s the classes are
      balanced, so the smaller has n/2 = thm1 vertices."""
    assert mp_value(tree) == upper_bound_report(tree).best


@given(relabeled(caterpillars() | parity_uniform_spiders()), seeds)
def test_shapes_schemes_and_bounds_agree(tree, seed):
    """Each recognized shape has the tree's edges and values a labeling as the
    tree does; label_auto lands between its guarantee and the best bound."""
    shapes = [s for s in (recognize_caterpillar(tree), recognize_spider(tree)) if s]
    assert shapes
    labeling = Labeling(tuple(random.Random(seed).sample(range(1, tree.n + 1), tree.n)))
    for shape in shapes:
        assert {(min(e), max(e)) for e in shape.edges} == set(tree.edges)
        assert len(shape.edges) == tree.m
        assert differential_value(shape, labeling) == differential_value(tree, labeling)
    result = label_auto(tree)
    assert result.guarantee <= result.value <= upper_bound_report(tree).best


@given(relabeled(caterpillars() | spiders() | parity_uniform_spiders()))
def test_run_scheme_matches_the_direct_call(tree):
    """Each applicable scheme gives the same result checked on the input tree
    (run_scheme) as checked on the recognized shape (the public label_*)."""
    for name, (_, recognize, _, _) in SCHEMES.items():
        shape = recognize(tree)
        try:
            direct = None if shape is None else LABEL_SHAPE[name](shape)
        except NotApplicable:
            direct = None
        if direct is None:
            with pytest.raises(NotApplicable):
                run_scheme(tree, name)
        else:
            assert run_scheme(tree, name) == direct


@given(relabeled(caterpillars() | spiders()))
def test_graph_file_round_trip(tree):
    back = parse_graph(write_graph(tree))
    assert back == tree and hash(back) == hash(tree)


# One edit of one line of a graph file; each takes the line and a number.
LINE_EDITS = [
    lambda line, k: line,                                     # keep it
    lambda line, k: "{0} {2} {1}\n".format(*line.split()),    # swap its numbers
    lambda line, k: "",                                       # delete it
    lambda line, k: line + line,                              # repeat it
    lambda line, k: line.replace("\n", "\r\n"),               # CRLF
    lambda line, k: line.rstrip("\n"),                        # drop its newline
    lambda line, k: "c note\n" + line,                        # comment before it
    lambda line, k: line + "\n",                              # blank line after it
    lambda line, k: line.replace(" ", " 0", 1),               # leading zero
    lambda line, k: line.replace(" ", "  ", 1),               # double space
    lambda line, k: ",".join(line.rsplit(" ", 1)),            # comma before the last number
    lambda line, k: line.replace("\n", "\t\n"),               # trailing tab
    lambda line, k: line.replace("\n", f" {k}\n"),            # a third number
    lambda line, k: " ".join(line.split(" ")[:-1] + [f"{k}\n"]),  # last number -> k
]


@given(relabeled(caterpillars() | spiders()), st.integers(0, 10**6),
       st.sampled_from(LINE_EDITS), st.integers(0, 250))
def test_parse_agrees_with_the_line_reading(tree, at, edit, k):
    """A write_graph text with one line edited: parse_graph and the reference
    line reader give the same Tree or the same error."""
    lines = write_graph(tree).splitlines(keepends=True)
    i = at % len(lines)
    lines[i] = edit(lines[i], k)
    text = "".join(lines)
    assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_lines, text)


@st.composite
def commented_files(draw):
    """(tree, text, bad): a relabeled tree's write_graph lines with comment
    and empty lines put in, each line ended by a break drawn from "\n",
    "\r\n" and "\r", the last break perhaps dropped; bad is whether one edge
    line after the header became "e x y"."""
    tree = draw(relabeled(caterpillars() | spiders()))
    lines = write_graph(tree).splitlines()
    bad = draw(st.booleans())
    if bad:
        lines[draw(st.integers(1, len(lines) - 1))] = "e x y"
    comments = st.just("") | st.builds("c {}".format, st.text(st.characters(
        blacklist_characters="\r\n"), max_size=6)) | st.just("c")
    for at, comment in draw(st.lists(st.tuples(st.integers(0, 10**6), comments), max_size=12)):
        lines.insert(at % (len(lines) + 1), comment)
    breaks = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                           min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        breaks[-1] = ""
    return tree, "".join(map(str.__add__, lines, breaks)), bad


@given(commented_files())
def test_comments_and_line_breaks_keep_the_tree(case):
    """Comment and empty lines and any mix of line breaks leave the tree; a
    malformed edge line is named by its line number in the text, where a
    "\r" break and the "\n" of an empty line after it make one break."""
    tree, text, bad = case
    if bad:
        k = re.split(r"\r\n|\r|\n", text).index("e x y") + 1
        assert parse_outcome(parse_graph, text) == (
            GraphParseError, f"line {k}: malformed edge line 'e x y'")
    else:
        assert parse_graph(text) == tree


@given(pruefer_trees(60), seeds)
def test_differential_value_is_the_edge_minimum(tree, seed):
    """The value of a random labeling is its smallest |label difference|
    over the edges, n on the edgeless graph, and the same on a shape of the
    tree as on the tree."""
    labeling = Labeling(tuple(random.Random(seed).sample(range(1, tree.n + 1), tree.n)))
    labels = labeling.labels
    value = differential_value(tree, labeling)
    if tree.m:
        assert value == min(abs(labels[u] - labels[v]) for u, v in tree.edges)
    assert differential_value(Tree(tree.n, ()), labeling) == tree.n
    for shape in recognize_caterpillar(tree), recognize_spider(tree):
        if shape is not None:
            assert differential_value(shape, labeling) == value


@given(relabeled(caterpillars() | spiders()), seeds)
def test_complement_keeps_the_value(tree, seed):
    labeling = Labeling(tuple(random.Random(seed).sample(range(1, tree.n + 1), tree.n)))
    assert differential_value(tree, labeling.complement()) == differential_value(tree, labeling)


@given(relabeled(caterpillars()))
def test_general_cat_labels_follow_the_marking(tree):
    """The middle vertex gets ceil(n/2), the three low groups smaller numbers
    and the three high groups larger ones (every drawn caterpillar has n >= 2).
    More exactly, the seven groups take consecutive runs of numbers in label
    order: middle_low_legs 1..a, then the low spine, the low legs, the
    middle, the high legs, the high spine and middle_high_legs, ending at n;
    so numbering their concatenation from 1 gives exactly the labels."""
    shape = recognize_caterpillar(tree)
    state = mark_caterpillar(shape)
    labels = label_general_caterpillar(shape).labeling.labeling.labels
    middle = (tree.n + 1) // 2
    assert labels[state.middle] == middle
    assert all(labels[v] < middle
               for v in (*state.low_spine, *state.low_legs, *state.middle_low_legs))
    assert all(labels[v] > middle
               for v in (*state.high_spine, *state.high_legs, *state.middle_high_legs))
    first = 1
    for group in (state.middle_low_legs, state.low_spine, state.low_legs, (state.middle,),
                  state.high_legs, state.high_spine, state.middle_high_legs):
        assert sorted(labels[v] for v in group) == list(range(first, first + len(group)))
        first += len(group)
    assert first == tree.n + 1
    assert [labels[v] for v in chain.from_iterable(state.groups())] == list(range(1, tree.n + 1))
