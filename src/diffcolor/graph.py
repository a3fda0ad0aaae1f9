"""Graph container, graph-file I/O, tree-class recognition, and generators.

Vertices are integers 0..n-1 internally; graph files are 1-based.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import sub

from ._record import Record


MAX_N = 2_000_000  # vertex limit; larger inputs are refused before any O(n) work


class SizeLimitError(Exception):
    """An input asks for more than MAX_N vertices (deliberately not a
    ValueError: the CLI reports it as a resource refusal, exit 3)."""


def check_vertex_count(n: int) -> None:
    if n > MAX_N:
        raise SizeLimitError(f"n={n} exceeds the vertex limit MAX_N={MAX_N}")


class GraphParseError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _is_int(x) -> bool:
    """An integer, where bools (JSON's true/false) do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


class _EdgeError(ValueError):
    """Tree rejects edges[index]; reason names the broken rule."""

    def __init__(self, index: int, reason: str, detail: str):
        super().__init__(f"{reason} {detail}")
        self.index, self.reason = index, reason


def _edge_fault(n: int, u, v) -> tuple[str, str] | None:
    """The first rule edge (u, v) of a graph on n vertices breaks, as
    (reason, detail), or None."""
    if not (_is_int(u) and _is_int(v)):
        return "non-integer endpoint", f"({u!r}, {v!r})"
    if u == v:
        return "self-loop", f"at vertex {u}"
    if not (0 <= u < n and 0 <= v < n):
        return "endpoint out of range", f"0..{n - 1}: ({u}, {v})"
    return None


class Tree(Record):
    """A simple undirected graph.

    Despite the name, arbitrary simple graphs are representable; operations
    that need a connected tree (or forest) check and raise explicitly; the
    cached shapes, and so the recognizers, are None off connected trees.
    edges is an iterable of vertex pairs, read once; endpoints must be ints
    (not bools). Edge i is kept normalized, smaller endpoint first, at
    _ends[2i] and _ends[2i + 1] of one flat array('i'): 8 bytes an edge.
    The edges field is a view of that array, a tuple of (u, v) pairs built
    on first read (by ==, hash or repr) and cached; the package's own
    passes read the array.

    One structural pass (_structure) runs on first use and caches only its
    tuple, outside ==, hash and repr; component_count(), bipartition_sizes,
    recognize_caterpillar and recognize_spider index it directly. degrees()
    counts the array afresh; adjacency() alone builds neighbour lists, for
    its callers and to color non-trees.
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not _is_int(n):
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("vertex count must be positive")
        check_vertex_count(n)
        ends = array("i")
        append = ends.append
        fault = None
        for u, v in edges:
            # plain ints in range and not a loop pass one chained comparison;
            # _edge_fault names what is wrong with any other edge
            if not (type(u) is int is type(v) and (0 <= u < v < n or 0 <= v < u < n)):
                fault = _edge_fault(n, u, v)
                if fault:
                    break
            if u < v:
                append(u)
                append(v)
            else:
                append(v)
                append(u)
        m = len(ends) >> 1  # the index of the faulty edge, if any
        # each normalized pair read as one 64-bit int: a duplicate edge repeats one
        if len(set(memoryview(ends).cast("B").cast("Q"))) != m:
            seen: set[tuple[int, int]] = set()
            it = iter(ends)
            for i, e in enumerate(zip(it, it)):  # name the first, ahead of any later fault
                if e in seen:
                    raise _EdgeError(i, "duplicate edge", f"{e}")
                seen.add(e)
        if fault:
            raise _EdgeError(m, *fault)
        self.__dict__.update(n=n, _ends=ends)  # the edges field is derived from _ends

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) pairs with u < v, in input order."""
        return tuple(self._pairs())

    @property
    def m(self) -> int:
        return len(self._ends) >> 1

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """The edges as (u, v) pairs, read from the array."""
        it = iter(self._ends)
        return zip(it, it)

    @cached_property
    def _structure(self) -> tuple[bytes, int, bool, CaterpillarShape | None, SpiderShape | None]:
        """(colors, components, bipartite, caterpillar, spider), from one pass: a
        color byte per vertex, 0 at each component's smallest vertex; the
        component count; False if the colors clash across an odd cycle; the
        caterpillar and the spider shape, each None off connected trees.

        A graph with n - 1 edges gets each vertex's degree and the XOR of its
        neighbours' ids (deg and nx, locals of this pass) and one list of its
        leaves, in ascending order. Copies of deg and nx are peeled from the
        leaves toward vertex 0: each leaf but vertex 0 comes off its one
        remaining neighbour's degree and XOR, so a peeled vertex keeps degree 1
        and an XOR entry holding that neighbour, its parent. A vertex whose
        last neighbour was peeled into it, left at degree 0, is a root and
        stays. Once the first layer, the leaves, is peeled, both copies are
        copied again (core_deg and core_nx), with a leaf 0, never peeled, taken
        off its neighbour's degree: the caterpillar test reads these. If no
        vertex keeps degree >= 2 at the end of the peel, vertex 0 was the only
        root: the graph is a tree, colored in reverse peel order from vertex 0
        at color 0, and both shapes are built from the leaves, the first layer's
        copies and deg and nx before the lists are dropped, unchecked, since
        the range-checked edges and the full peel prove the ids are 0..n-1. Any
        other graph is colored by one depth-first traversal of adjacency() from
        each component's smallest vertex.
        """
        n = self.n
        if self.m == n - 1:
            deg = [0] * n
            nx = [0] * n
            for u, v in self._pairs():
                deg[u] += 1
                deg[v] += 1
                nx[u] ^= v
                nx[v] ^= u
            leaves = [v for v, d in enumerate(deg) if d == 1]
            left, parent = list(deg), list(nx)  # the peel's copies
            order: list[int] = []  # the vertices the peel makes leaves, in turn
            _peel(leaves, left, parent, order.append)
            core_deg, core_nx = list(left), list(parent)  # as the first layer left them
            if deg[0] == 1:  # leaf 0 is never peeled: take it off its neighbour's count
                core_deg[nx[0]] -= 1
            _peel(order, left, parent, order.append)  # order grows as it is read
            if max(left) < 2:
                color = bytearray(n)
                for v in chain(reversed(order), reversed(leaves)):
                    if v:
                        color[v] = color[parent[v]] ^ 1
                del left, parent, order  # freed before the shapes are built
                return (bytes(color), 1, True, _caterpillar_shape(n, leaves, core_deg, core_nx),
                        _spider_shape(n, leaves, deg, nx))
        adj = self.adjacency()
        color = bytearray(b"\x02") * n  # 2 = not yet reached
        components = 0
        bipartite = True
        root = 0
        while root != -1:
            components += 1
            color[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                cv = color[v]
                for u in adj[v]:
                    cu = color[u]
                    if cu == 2:
                        color[u] = 1 - cv
                        stack.append(u)
                    elif cu == cv:
                        bipartite = False
            root = color.find(2, root + 1)
        return bytes(color), components, bipartite, None, None

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists, built afresh on each call; the caller may modify them."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self._pairs():
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for v in self._ends:
            deg[v] += 1
        return deg

    def component_count(self) -> int:
        return self._structure[1]

    def is_connected(self) -> bool:
        # fewer than n - 1 edges cannot connect n vertices: no O(n) traversal
        return self.m >= self.n - 1 and self.component_count() == 1

    def is_tree(self) -> bool:
        return self.m == self.n - 1 and self.is_connected()

    def is_forest(self) -> bool:
        return self.m == self.n - self.component_count()


# A newline followed by neither a canonical edge line "e U V\n" nor the end of the text.
_NOT_EDGE_LINE = re.compile(r"\n(?!e [0-9]+ [0-9]+\n|\Z)")
# A line (group 1) and its line break; the last match is always empty.
_LINE = re.compile(r"([^\r\n]*)(?:\r\n|\r|\n|\Z)")


def parse_graph(text: str) -> Tree:
    """Parse the graph file format: comments "c ...", one header "p <n> <m>",
    then m edge lines "e <u> <v>" with 1-based endpoints. A line ends at
    "\n", "\r\n" or "\r", so a comment may hold any other character. A line
    that is empty or holds only "c" is skipped like a comment; a line of
    spaces is malformed.

    Raises GraphParseError (with line number) on any format violation; the
    edge rules themselves (range, self-loop, duplicate) are Tree's. A header
    over MAX_N vertices raises SizeLimitError as soon as it is read.

    The text is read one line at a time, each line only when the loop
    reaches it. A header ending in "\n" may be followed by a run of
    canonical edge lines, as write_graph emits them ("e U V\n" in ASCII
    digits and single spaces); that run is found by one regex search and
    decoded by one json.loads, and the loop goes on after it. A run of more
    than the declared edges, counted before it is decoded, or one holding a
    number JSON refuses (leading zeros, more digits than int() reads) is left
    to the loop, which names the line. Tree reads the edges as pairs drawn
    from the decoded ints.
    """
    n = m = None
    header_line = line_no = 0
    ends: list[int] = []  # the 1-based endpoints, two an edge, in file order
    pos = 0  # where the line loop starts; it starts again after a run of edge lines
    while pos is not None:
        lines, pos = enumerate(_LINE.finditer(text, pos), start=line_no + 1), None
        for line_no, match in lines:
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
            if len(ends) // 2 == m:  # m is None until the header is read
                raise GraphParseError(line_no, f"more than the declared {m} edges")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:  # more digits than int() reads
                raise GraphParseError(line_no, "number with more than "
                                      f"{sys.get_int_max_str_digits()} digits") from None
            if kind == "e":
                ends += u, v
                continue
            check_vertex_count(u)
            n, m, header_line = u, v, line_no
            start = match.end()
            if text[start - 1:start + 2] != "\ne ":  # a run follows only "\n" and "e "
                continue
            stop = _NOT_EDGE_LINE.search(text, start - 1)
            end = stop.end() if stop else len(text)  # the run is text[start:end], perhaps empty
            if text.count("\n", start, end) > m:  # the loop names the first line past the m-th edge
                continue
            try:
                # "e 1 2\ne 2 3\n" -> "[1,2,2,3]": the C decoder makes the ints from the text
                ends = json.loads(
                    "[" + text[start + 2:end - 1].replace(" ", ",").replace("\ne,", ",") + "]")
            except ValueError:  # a number with leading zeros, or longer than int() reads
                continue
            line_no += len(ends) // 2
            pos = end
            break
    if n is None:
        raise GraphParseError(1, "missing header")
    if len(ends) // 2 != m:
        raise GraphParseError(header_line, f"header declares {m} edges, found {len(ends) // 2}")
    ints = map(sub, ends, repeat(1))  # 0-based, made one at a time as Tree reads the pairs
    del ends  # so the 1-based list is freed when Tree has read it
    try:
        return Tree(n, zip(ints, ints))
    except _EdgeError as exc:  # read the lines again, up to the rejected edge's
        numbered = enumerate((match[1] for match in _LINE.finditer(text)), start=1)
        e_lines = ((no, line) for no, line in numbered if line[:1] == "e")
        line_no, line = next(islice(e_lines, exc.index, None))
        raise GraphParseError(line_no, f"{exc.reason}: {line!r}") from None
    except ValueError as exc:  # a vertex count Tree rejects
        raise GraphParseError(header_line, str(exc)) from None


def write_graph(t: Tree) -> str:
    """Serialize to the graph file format (1-based, newline-terminated)."""
    return f"p {t.n} {t.m}\n" + ("e %d %d\n" * t.m) % tuple(map((1).__add__, t._ends))


def _is_int_run(values, first: int, n: int) -> bool:
    """Whether values are the ints first..first+n-1, each once; a bool or
    another subclass of int does not count. Linear, in builtins only, with a
    flag per value for the ones seen, not a hash set."""
    if not (len(values) == n and set(map(type, values)) == {int}
            and min(values) == first and max(values) == first + n - 1):
        return False
    seen = [False] * (first + n)
    for v in values:
        seen[v] = True
    return seen.count(True) == n


def _check_vertices(*blocks: tuple[int, ...]) -> None:
    """The shapes' partition rule: the n ids in the blocks are 0..n-1."""
    vertices = [*chain.from_iterable(blocks)]
    if not _is_int_run(vertices, 0, len(vertices)):
        raise ValueError("shape vertices must be exactly 0..n-1")


class _Shape(Record):
    """Base of the two tree shapes: a subclass gives n and _pairs(), the edges
    streamed as (u, v) pairs like a Tree's; edges and to_tree() read them.
    The public constructors check every field, the ids by _check_vertices."""

    @classmethod
    def _trusted(cls, *values):
        """The shape with these field values, in field order, and no check: for
        the structural pass and the generators, whose ids are 0..n-1 already."""
        shape = cls.__new__(cls)
        shape.__dict__.update(zip(cls._fields, values))
        return shape

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._pairs())

    def to_tree(self) -> Tree:
        return Tree(self.n, self._pairs())


class CaterpillarShape(_Shape):
    """A caterpillar: spine vertices in path order, each with its legs.

    Canonical form: when the spine has length >= 2, both spine endpoints carry
    at least one leg (a legless endpoint would itself be a leaf).
    """

    _fields = ("spine_vertices", "leg_vertices")

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        s = len(self.spine_vertices)
        if s == 0:
            raise ValueError("caterpillar needs at least one spine vertex")
        if len(self.leg_vertices) != s:
            raise ValueError("spine and leg sequences must have equal length")
        if s >= 2 and not (self.leg_counts[0] and self.leg_counts[-1]):
            raise ValueError("spine endpoints must have at least one leg")
        _check_vertices(self.spine_vertices, *self.leg_vertices)

    @cached_property
    def leg_counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.leg_vertices))

    @property
    def s(self) -> int:
        return len(self.spine_vertices)

    @property
    def n(self) -> int:
        return self.s + sum(self.leg_counts)

    @property
    def delta(self) -> int:
        return max(self.leg_counts)

    @property
    def is_regular(self) -> bool:
        return len(set(self.leg_counts)) == 1

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """Spine edges in path order, then each spine vertex's legs."""
        spine = self.spine_vertices
        legs = ((v, leg) for v, vlegs in zip(spine, self.leg_vertices) for leg in vlegs)
        return chain(zip(spine, spine[1:]), legs)


class SpiderShape(_Shape):
    """A spider: a center vertex joined to vertex-disjoint paths.

    path_vertices[i] lists path i's vertices at levels 1..path_lengths[i],
    level = distance from the center.
    """

    _fields = ("center", "path_vertices")

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if len(self.path_vertices) == 0:
            raise ValueError("spider needs at least one path")
        if 0 in self.path_lengths:
            raise ValueError("spider paths must be non-empty")
        _check_vertices((self.center,), *self.path_vertices)

    @cached_property
    def path_lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self.path_vertices))

    @property
    def p(self) -> int:
        return len(self.path_vertices)

    @property
    def n(self) -> int:
        return 1 + sum(self.path_lengths)

    @property
    def n_even(self) -> int:
        """The paper's N_e: a path of length L has L // 2 even-level vertices."""
        return sum(length // 2 for length in self.path_lengths)

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """Each path's edges from the center outward, paths in order."""
        center = (self.center,)
        return chain.from_iterable(zip(chain(center, verts), verts) for verts in self.path_vertices)


def _peel(vertices: Iterable[int], left: list[int], parent: list[int],
          append: Callable[[int], None]) -> None:
    """Peel each of the vertices but 0 that still has a neighbour: take it off
    that neighbour's entries in left (degree) and parent (XOR), and append
    the neighbour if that leaves it a leaf."""
    for v in vertices:
        if v and left[v]:  # else v is vertex 0 or a root
            p = parent[v]
            parent[p] ^= v
            d = left[p] = left[p] - 1
            if d == 1:
                append(p)


def recognize_caterpillar(t: Tree) -> CaterpillarShape | None:
    """Return the caterpillar shape of t, or None if t is not a connected tree
    or removing all leaves does not leave a path.

    The spine is oriented so the endpoint with the smaller vertex id comes
    first. Degenerate cases: n=1 -> one spine vertex with no legs; n=2 -> the
    smaller id is the spine vertex, the other its leg.
    """
    return t._structure[3]


def _caterpillar_shape(n: int, leaves: list[int], core_deg: list[int],
                       core_nx: list[int]) -> CaterpillarShape | None:
    """The caterpillar shape of a tree on n vertices, from its leaves in
    ascending order and each vertex's entries once the leaves are peeled: a
    leaf keeps 1 and its neighbour, a non-leaf its non-leaf degree and the
    XOR of its non-leaf neighbours."""
    if n < 3:  # one spine vertex, 0, and the other vertex, if any, its leg
        return CaterpillarShape._trusted((0,), (tuple(range(1, n)),))
    # the non-leaves form a subtree, a path exactly when none has more than two non-leaf neighbours
    if max(core_deg) > 2:
        return None
    parent = core_nx.__getitem__
    leaves = sorted(leaves, key=parent)  # by neighbour, ascending within (stable)
    legs = {v: tuple(vlegs) for v, vlegs in groupby(leaves, parent)}  # in ascending v
    # each end of a path of two non-leaves or more has one non-leaf
    # neighbour, so at least one leg: a single spine vertex is the only one with legs
    if len(legs) == 1:
        spine = list(legs)
    else:
        spine = _walk(core_nx, *(v for v in legs if core_deg[v] == 1))  # smaller end first
    return CaterpillarShape._trusted(tuple(spine), tuple(legs.get(v, ()) for v in spine))


def recognize_spider(t: Tree) -> SpiderShape | None:
    """Return the spider shape of t, or None (always None if t is not a
    connected tree).

    Accepted: exactly one vertex of degree >= 3 (the center) with all others
    of degree <= 2; additionally, a path with n >= 3 counts as a spider with
    p=2, centered at a most-balanced interior vertex (ties -> smaller id).
    Single vertices and single edges are rejected.
    """
    return t._structure[4]


def _spider_shape(n: int, leaves: list[int], deg: list[int], nx: list[int]) -> SpiderShape | None:
    """The spider shape of a tree on n vertices, from its leaves, degrees and
    neighbour XORs: each arm is walked once, leaf to center, and read outward,
    and the arms are put in order of first vertex by one slot per vertex."""
    branches = n - len(leaves) - deg.count(2)  # vertices of degree >= 3
    if n < 3 or branches > 1:
        return None
    if branches == 1:
        center = next(compress(range(n), map((2).__lt__, deg)))
    else:  # a path: center at a most-balanced interior vertex, ties to the smaller id
        path = _walk(nx, *leaves)
        center = min(path[(n - 1) // 2], path[n // 2])  # the one or two most balanced
    arms = [None] * n  # each arm at the slot of its first vertex
    for leaf in leaves:
        arm = _walk(nx, leaf, center)
        arm.pop()  # the center
        arm.reverse()
        arms[arm[0]] = tuple(arm)
    return SpiderShape._trusted(center, tuple(filter(None, arms)))


def _walk(nx: list[int], leaf: int, stop: int) -> list[int]:
    """The vertices from leaf to stop, both included, along vertices of degree 2."""
    walk = [leaf]
    prev, cur = leaf, nx[leaf]
    while cur != stop:
        walk.append(cur)
        prev, cur = cur, nx[cur] ^ prev  # nx[cur] with the vertex it came from XORed out
    walk.append(cur)
    return walk


def _ints(what: str, *xs) -> tuple[int, ...]:
    """xs as a tuple, or a ValueError naming what if one is not an integer."""
    for x in xs:
        if not _is_int(x):
            raise ValueError(f"expected integer {what}, got {x!r}")
    return xs


def _id_blocks(start: int, sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Consecutive vertex-id blocks of the given sizes, the first at start."""
    bounds = tuple(accumulate(sizes, initial=start))
    check_vertex_count(bounds[-1])
    return tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))


def gen_regular_caterpillar(s: int, delta: int) -> tuple[Tree, CaterpillarShape]:
    """Caterpillar with s spine vertices, each carrying exactly delta legs."""
    if _ints("spine length", s)[0] < 1:
        raise ValueError("spine length must be positive")
    if _ints("leg count", delta)[0] < 1:
        raise ValueError("leg count must be positive")
    check_vertex_count(s * (delta + 1))
    return gen_caterpillar([delta] * s)


def gen_caterpillar(leg_counts) -> tuple[Tree, CaterpillarShape]:
    """Caterpillar from per-spine-vertex leg counts (canonical shape required:
    with two or more spine vertices both endpoints need at least one leg).

    Spine vertices are 0..s-1 in path order; legs follow in spine order.
    """
    counts = _ints("leg counts", *leg_counts)
    if not counts:
        raise ValueError("leg counts must be non-empty")
    if any(c < 0 for c in counts):
        raise ValueError("leg counts must be non-negative")
    s = len(counts)
    if s >= 2 and (counts[0] < 1 or counts[-1] < 1):
        raise ValueError("spine endpoints must have at least one leg")
    shape = CaterpillarShape._trusted(tuple(range(s)), _id_blocks(s, counts))
    return shape.to_tree(), shape


def gen_spider(path_lengths) -> tuple[Tree, SpiderShape]:
    """Spider with the given path lengths; center is vertex 0, paths follow
    in input order. A radius-k star is gen_spider([k] * p).
    """
    lengths = _ints("path lengths", *path_lengths)
    if not lengths:
        raise ValueError("path lengths must be non-empty")
    if any(x < 1 for x in lengths):
        raise ValueError("path lengths must be positive")
    shape = SpiderShape._trusted(0, _id_blocks(1, lengths))
    return shape.to_tree(), shape


def gen_random_caterpillar(rng, max_spine: int = 30,
                           max_legs: int = 8) -> tuple[Tree, CaterpillarShape]:
    """Random canonical caterpillar drawn with rng.randint (a random.Random):
    spine length in 1..max_spine, interior leg counts in 0..max_legs,
    endpoint leg counts in 1..max_legs.
    """
    if min(_ints("max_spine and max_legs", max_spine, max_legs)) < 1:
        raise ValueError("bounds must be positive")
    check_vertex_count(max_spine * (max_legs + 1))  # the largest caterpillar it can draw
    s = rng.randint(1, max_spine)
    counts = []
    for i in range(s):
        endpoint = i == 0 or i == s - 1
        counts.append(rng.randint(1 if endpoint else 0, max_legs))
    return gen_caterpillar(counts)


def bipartition_sizes(t: Tree) -> tuple[int, int]:
    """Sizes of the two color classes of a bipartite graph, larger first."""
    colors, _, bipartite, _, _ = t._structure
    if not bipartite:
        raise ValueError("graph contains an odd cycle and is not bipartite")
    ones = colors.count(1)
    return max(t.n - ones, ones), min(t.n - ones, ones)
