"""Shared test utilities: independent brute-force value computation,
exhaustive enumeration of small structures, and reference implementations.

naive_dc deliberately re-implements the objective from scratch (permutations,
inline abs differences) so it can serve as an independent check on the
package's exact solver. reference_coloring, reference_caterpillar_shape and
reference_spider_shape work from neighbour lists, as the package did before
it read degrees and neighbour XORs instead. reference_parse_lines reads a
graph file one line at a time throughout, as the package did before it read
a run of edge lines in bulk.
"""

import collections
import contextlib
import functools
import heapq
import itertools
import sys
import tracemalloc
from itertools import filterfalse, islice

from diffcolor import (CaterpillarShape, GraphParseError, SizeLimitError,
                       SpiderShape, Tree, label_general_caterpillar,
                       label_regular_caterpillar, label_spider_all_even,
                       label_spider_all_odd)
from diffcolor.graph import _LINE, _EdgeError, check_vertex_count

# scheme name -> the public function that labels a shape and checks on its edges
LABEL_SHAPE = {"regular-cat": label_regular_caterpillar, "spider-even": label_spider_all_even,
               "spider-odd": label_spider_all_odd, "general-cat": label_general_caterpillar}


def naive_dc(t: Tree) -> int:
    """Best achievable minimum edge difference, by trying all n! labelings."""
    if not t.edges:
        return t.n
    best = 0
    for perm in itertools.permutations(range(1, t.n + 1)):
        worst = min(abs(perm[u] - perm[v]) for u, v in t.edges)
        if worst > best:
            best = worst
    return best


def pruefer_to_edges(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def canonical_code(n, edges):
    """Isomorphism-invariant encoding of a tree (rooted at its centers)."""
    if n == 1:
        return "()"
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        remaining -= len(layer)
        layer = nxt
    centers = [v for v in range(n) if deg[v] >= 1]

    def code(root, parent):
        return "(" + "".join(sorted(code(u, root) for u in adj[root] if u != parent)) + ")"

    return min(code(c, -1) for c in centers)


def all_trees(n):
    """All non-isomorphic connected trees on n vertices (one representative each)."""
    if n == 1:
        return [Tree(1, ())]
    if n == 2:
        return [Tree(2, ((0, 1),))]
    seen = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = pruefer_to_edges(seq, n)
        key = canonical_code(n, edges)
        if key not in seen:
            seen[key] = Tree(n, tuple(edges))
    return list(seen.values())


@functools.cache
def free_trees(n):
    """All non-isomorphic trees on n vertices (one representative each), grown
    from those on n - 1 by attaching a leaf at every vertex. Far faster than
    all_trees, which stays as the independent cross-check."""
    if n == 1:
        return (Tree(1, ()),)
    seen = {}
    for t in free_trees(n - 1):
        for v in range(n - 1):
            edges = (*t.edges, (v, n - 1))
            key = canonical_code(n, edges)
            if key not in seen:
                seen[key] = Tree(n, edges)
    return tuple(seen.values())


def partitions(total, max_part=None):
    """All multisets of positive integers summing to total (non-increasing)."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def length_multisets(values, max_paths, max_n):
    """Multisets over the given path lengths, up to max_paths paths, with
    total vertex count 1 + sum <= max_n."""
    for p in range(1, max_paths + 1):
        for combo in itertools.combinations_with_replacement(values, p):
            if 1 + sum(combo) <= max_n:
                yield combo


def path_graph(n):
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def shuffled(rng, tree):
    """tree with its vertex ids permuted (rng.sample) and its edges shuffled."""
    perm = rng.sample(range(tree.n), tree.n)
    edges = [(perm[u], perm[v]) for u, v in tree.edges]
    rng.shuffle(edges)
    return Tree(tree.n, tuple(edges))


@contextlib.contextmanager
def small_peak(limit=1 << 20):
    """Fails unless the block's traced allocations peak below limit bytes: a
    size refusal must come before anything of the refused size is built, and
    a labeling holds its transient memory to a budget per vertex."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, f"peak {peak} bytes"


def parse_outcome(parse, text):
    """What parse makes of text: the Tree's repr (so a bool endpoint would
    not pass for an int), or the error's type and message."""
    try:
        return repr(parse(text))
    except (ValueError, SizeLimitError) as exc:
        return type(exc), str(exc)


def reference_coloring(t):
    """(colors, component count, bipartite?) by breadth-first search over
    t.adjacency() from each component's smallest vertex, which gets color 0."""
    adj = t.adjacency()
    color = [None] * t.n
    components = 0
    bipartite = True
    for root in range(t.n):
        if color[root] is not None:
            continue
        components += 1
        color[root] = 0
        queue = collections.deque([root])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if color[u] is None:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    bipartite = False
    return color, components, bipartite


def reference_caterpillar_shape(t):
    """The caterpillar recognizer as it was on adjacency lists."""
    if t.n == 1:
        return CaterpillarShape((0,), ((),))
    if t.n == 2:
        return CaterpillarShape((0,), ((1,),))
    adj = t.adjacency()
    on_spine = [len(nbrs) >= 2 for nbrs in adj]
    is_spine = on_spine.__getitem__
    ends = []
    for v, nbrs in enumerate(adj):
        if on_spine[v]:
            inner = sum(map(is_spine, nbrs))
            if inner > 2:
                return None
            if inner == 1:
                ends.append(v)
    spine_count = on_spine.count(True)
    if spine_count == 1:
        spine = [on_spine.index(True)]
    else:
        spine = [ends[0]]
        prev = -1
        while len(spine) < spine_count:
            cur = spine[-1]
            nxt = next(u for u in adj[cur] if on_spine[u] and u != prev)
            spine.append(nxt)
            prev = cur
    legs = tuple(tuple(sorted(filterfalse(is_spine, adj[v]))) for v in spine)
    return CaterpillarShape(tuple(spine), legs)


def reference_spider_shape(t):
    """The spider recognizer as it was on adjacency lists."""
    adj = t.adjacency()

    def arm(prev: int, cur: int) -> tuple[int, ...]:
        """The vertices from cur away from prev, up to the first one whose
        degree is not 2."""
        verts = [cur]
        while len(adj[cur]) == 2:
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
            verts.append(cur)
        return tuple(verts)

    big = [v for v, nbrs in enumerate(adj) if len(nbrs) >= 3]
    if len(big) > 1:
        return None
    if big:
        center = big[0]
    elif t.n < 3:
        return None
    else:  # a path: center at a most-balanced interior vertex, ties to the smaller id
        start = min(v for v, nbrs in enumerate(adj) if len(nbrs) == 1)
        path = (start, *arm(start, adj[start][0]))
        center = path[min(range(1, t.n - 1), key=lambda i: (abs(t.n - 1 - 2 * i), path[i]))]
    arms = tuple(arm(center, first) for first in sorted(adj[center]))
    return SpiderShape(center, arms)


def reference_parse_lines(text: str) -> Tree:
    """The line reader as the package had it before the edge run was read in
    bulk: parse_graph line by line, each line read as the loop reaches it."""
    n = m = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    for line_no, match in enumerate(_LINE.finditer(text), start=1):
        line = match[1]
        fields = line.split(" ")
        kind = fields[0]
        if kind == "c" or not line:  # "c" alone, "c ...", or an empty line
            continue
        if kind == "e":
            if n is None:
                raise GraphParseError(line_no, "edge line before header")
        elif kind == "p":
            if n is not None:
                raise GraphParseError(line_no, "duplicate header")
        else:
            raise GraphParseError(line_no, f"malformed line {line!r}")
        if not (len(fields) == 3 and line.isascii()
                and fields[1].isdigit() and fields[2].isdigit()):
            what = "edge line" if kind == "e" else "header"
            raise GraphParseError(line_no, f"malformed {what} {line!r}")
        if len(edges) == m:  # m is None until the header is read
            raise GraphParseError(line_no, f"more than the declared {m} edges")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:  # more digits than int() reads
            raise GraphParseError(
                line_no, f"number with more than {sys.get_int_max_str_digits()} digits") from None
        if kind == "e":
            edges.append((u - 1, v - 1))
        else:
            check_vertex_count(u)
            n, m, header_line = u, v, line_no
    if n is None:
        raise GraphParseError(1, "missing header")
    if len(edges) != m:
        raise GraphParseError(header_line, f"header declares {m} edges, found {len(edges)}")
    try:
        return Tree(n, edges)
    except _EdgeError as exc:  # read the lines again, up to the rejected edge's
        numbered = enumerate((match[1] for match in _LINE.finditer(text)), start=1)
        e_lines = ((no, line) for no, line in numbered if line[:1] == "e")
        line_no, line = next(islice(e_lines, exc.index, None))
        raise GraphParseError(line_no, f"{exc.reason}: {line!r}") from None
    except ValueError as exc:  # a vertex count Tree rejects
        raise GraphParseError(header_line, str(exc)) from None
