"""Constructive labeling schemes for caterpillars and spiders.

Four schemes are provided:

  label_regular_caterpillar  optimal for caterpillars whose spine vertices all
                             carry the same number of legs,
  label_spider_all_even      optimal for spiders whose paths all have even length,
  label_spider_all_odd       optimal for spiders whose paths all have odd length,
  label_general_caterpillar  any caterpillar; guarantees value >= ceil(n/2)-delta-2.

SCHEMES lists them in label_auto's order of preference, each with the shape
class it labels, the reader of the draft's input (from a Tree to its shape, or
None, as on every graph that is not a connected tree), the scheme's draft (from
that input to its labels and guarantee) and its optimality: "proved" when the
guarantee is the proved optimum, "unknown" when it is only a lower bound.
A draft lists the vertices in label order, and _number gives the k-th vertex
of that list the number k. The general caterpillar's draft reaches the marking
only through mark_caterpillar: its list is the concatenation of the
MarkingState's seven groups, tuples in label order, in groups()'s number order.
A draft's own guard is the only statement of when its scheme applies: it
raises NotApplicable (a ValueError) with the reason. run_scheme(t, name)
reads the draft's input and runs one row; label_auto runs the first row that
applies and otherwise names every row's reason, on any graph.

Every result is checked by _finish before it is returned: the labels must be
a bijection onto 1..n and reach the guarantee, exactly for a proved scheme.
run_scheme checks them on the edges of the Tree it was given; the four
label_* functions, which take a shape, check them on the shape's edges.

mp_value computes the differential value the classic forest bipartition scheme
guarantees, min(|U|, |V|); no labeling is constructed for it.

All schemes are deterministic: identical shapes yield identical labelings.
"""

from __future__ import annotations

from itertools import chain

from ._record import Record
from .graph import (CaterpillarShape, SpiderShape, Tree, bipartition_sizes,
                    recognize_caterpillar, recognize_spider)
from .labeling import EvaluatedLabeling, Graph, Labeling, differential_value


class SchemeError(RuntimeError):
    """A scheme produced an inconsistent state; indicates a bug, not bad input."""


class NotApplicable(ValueError):
    """The input is outside the class a scheme labels; the message says why."""


class SchemeResult(Record):
    _fields = ("scheme", "labeling", "guarantee", "optimal")

    @property
    def value(self) -> int:
        return self.labeling.value

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "labels": list(self.labeling.labeling.labels),
            "value": self.value,
            "guarantee": self.guarantee,
            "optimal": self.optimal,
        }


def _finish(scheme: str, graph: Graph, labels: list[int], guarantee: int) -> SchemeResult:
    """Evaluate scheme's labels on graph, the input Tree or the shape they
    label (the two have the same edge set); a vertex left at 0 is not a
    bijection. A proved scheme must reach its guarantee exactly."""
    optimal = SCHEMES[scheme][3]
    labeling = Labeling(tuple(labels))
    try:
        value = differential_value(graph, labeling)
    except ValueError as exc:
        raise SchemeError(f"{scheme}: non-bijective output: {exc}") from exc
    if optimal == "proved" and value != guarantee:
        raise SchemeError(f"{scheme}: achieved {value}, expected {guarantee}")
    if value < guarantee:
        raise SchemeError(f"{scheme}: achieved {value}, below guarantee {guarantee}")
    return SchemeResult(scheme, EvaluatedLabeling(labeling, value), guarantee, optimal)


Draft = tuple[list[int], int]  # labels and guarantee, what _finish checks


def _number(n: int, order) -> list[int]:
    """Labels that give the k-th vertex of order the number k. A vertex that
    order omits keeps 0, which _finish rejects as non-bijective."""
    labels = [0] * n
    for k, v in enumerate(order, start=1):
        labels[v] = k
    return labels


def label_regular_caterpillar(shape: CaterpillarShape) -> SchemeResult:
    """Optimal labeling for a regular caterpillar.

    The spine alternates between the lowest and highest numbers left to right;
    each spine vertex's legs get a block of consecutive mid-range numbers on
    the opposite end from its own. Achieves n/2 for an even spine and
    ceil((n - delta)/2) for an odd one, matching the upper bound.
    """
    return _finish("regular-cat", shape, *_regular_cat(shape))


def _regular_cat(shape: CaterpillarShape) -> Draft:
    if not shape.is_regular:
        raise NotApplicable("shape is not a regular caterpillar")
    delta = shape.delta
    if delta < 1:
        raise NotApplicable("regular caterpillar scheme needs at least one leg per spine vertex")
    n, spine, legs = shape.n, shape.spine_vertices, shape.leg_vertices
    order = chain(spine[::2], *legs[1::2], *legs[::2], spine[1::2])
    return _number(n, order), n // 2 if shape.s % 2 == 0 else (n - delta + 1) // 2


def _levels(paths: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Entry l - 1 holds the level-l vertices of paths in path order; so
    entries [::2] are the odd levels and [1::2] the even ones. The paths are
    sorted by non-increasing length (a reverse sort keeps ties in input
    order), and each band of levels that the same paths reach is one zip of
    their slices: linear work in n."""
    ends = [*map(len, paths), 0]
    levels = []
    for count in range(len(paths), 0, -1):  # levels reached by exactly count paths
        if ends[count] < ends[count - 1]:
            levels += zip(*(path[ends[count]:ends[count - 1]] for path in paths[:count]))
    return levels


def label_spider_all_even(shape: SpiderShape) -> SchemeResult:
    """Optimal labeling for a spider whose paths all have even length.

    The center gets 1; even-level vertices get 2..N_e+1 by increasing level,
    odd-level vertices get N_e+2..n likewise, each level ordered by
    non-increasing path length. Achieves N_e, which here equals floor(n/2).
    """
    return _finish("spider-even", shape, *_spider_even(shape))


def _spider_even(shape: SpiderShape) -> Draft:
    if any(length % 2 for length in shape.path_lengths):
        raise NotApplicable("all path lengths must be even")
    levels = _levels(sorted(shape.path_vertices, key=len, reverse=True))
    order = chain((shape.center,), *levels[1::2], *levels[::2])
    return _number(shape.n, order), shape.n_even


def label_spider_all_odd(shape: SpiderShape) -> SchemeResult:
    """Optimal labeling for a spider whose paths all have odd length.

    The center gets ceil(n/2). Paths are sorted by non-increasing length and
    split alternately into two groups: odd sorted positions form the outer
    group (odd levels take the highest numbers, even levels sit just below
    the center), even sorted positions form the inner group (odd levels take
    the lowest numbers, even levels sit just above the center). Achieves
    N_e + 1 = ceil((n - p)/2).
    """
    return _finish("spider-odd", shape, *_spider_odd(shape))


def _spider_odd(shape: SpiderShape) -> Draft:
    if any(length % 2 == 0 for length in shape.path_lengths):
        raise NotApplicable("all path lengths must be odd")
    paths = sorted(shape.path_vertices, key=len, reverse=True)
    inner, outer = _levels(paths[1::2]), _levels(paths[::2])
    order = chain(*inner[::2], *reversed(outer[1::2]), (shape.center,),
                  *inner[1::2], *reversed(outer[::2]))
    return _number(shape.n, order), shape.n_even + 1


class MarkingState(Record):
    """Marking-phase outcome for the general caterpillar scheme.

    The seven groups partition the vertices, each a tuple in label order;
    groups() lists them in number order. middle receives ceil(n/2), low_spine
    / low_legs / middle_low_legs the numbers below it and high_spine /
    high_legs / middle_high_legs those above it. Legless spine vertices
    appear in pseudo_leg_owner, mapped to the spine vertex that adopted them.
    """

    _fields = ("low_spine", "high_spine", "middle", "low_legs", "high_legs",
               "middle_low_legs", "middle_high_legs", "pseudo_leg_owner")

    def groups(self) -> tuple[tuple[int, ...], ...]:
        return (self.middle_low_legs, self.low_spine, self.low_legs, (self.middle,),
                self.high_legs, self.high_spine, self.middle_high_legs)

    def validate(self, shape: CaterpillarShape) -> None:
        """Check the partition, balance, low-side and high-side rules, in
        that order. The groups are read in place, not copied: one slot per
        vertex holds the number of the group that took it, so a vertex that
        is not an int, is in no group or two, or lies outside 0..n-1 breaks
        the partition; one listed twice within its group breaks a side total."""
        n = shape.n
        taken = [0] * n
        for number, group in enumerate(self.groups(), start=1):
            if not set(map(type, group)) <= {int}:  # a bool is no vertex either
                raise SchemeError("marking groups do not partition the vertices")
            for v in group:
                if not 0 <= v < n or taken[v] not in (0, number):
                    raise SchemeError("marking groups do not partition the vertices")
                taken[v] = number
        if 0 in taken:
            raise SchemeError("marking groups do not partition the vertices")
        lows = len(self.low_spine) + len(self.low_legs)
        highs = len(self.high_spine) + len(self.high_legs)
        if not (2 * lows < n and 2 * highs <= n):
            raise SchemeError("marking violates the balance condition")
        if lows + len(self.middle_low_legs) + 1 != (n + 1) // 2:
            raise SchemeError("low-side total is not ceil(n/2)")
        if highs + len(self.middle_high_legs) != n // 2:
            raise SchemeError("high-side total is not floor(n/2)")


def mark_caterpillar(shape: CaterpillarShape) -> MarkingState:
    """Run the marking phase and return its MarkingState, validated: the one
    entry point to the marking, which the general caterpillar labeler uses."""
    state = _marking(shape)
    state.validate(shape)
    return state


def _marking(shape: CaterpillarShape) -> MarkingState:
    """The marking phase by spine position, unvalidated: one MarkingState
    whose groups are the tuples the phase builds, each in label order."""
    s, n = shape.s, shape.n
    counts = shape.leg_counts
    # Alternate sides along the spine, then scan right to left for the vertex
    # whose removal balances the two sides (its legs fill the remainder); if
    # none does, validate refuses the state, as its balance rule is this scan's.
    low_side = [i % 2 == 0 for i in range(s)]
    # The high side holds the other n - lows vertices.
    lows = sum(1 if low_side[i] else counts[i] for i in range(s))
    for mid in range(s - 1, -1, -1):
        excl_lows = lows - (1 if low_side[mid] else counts[mid])
        if 2 * excl_lows < n and 2 * (n - 1 - counts[mid] - excl_lows) <= n:
            break
        low_side[mid] = not low_side[mid]
        lows = excl_lows + (1 if low_side[mid] else counts[mid])

    # Legless spine vertices become pseudo-legs of their right neighbor unless
    # they own one already, except that the middle vertex adopts its legless
    # right neighbor. A pseudo-leg keeps its side and moves from the spine
    # group to the legs unless its owner is the middle vertex, so both of the
    # middle vertex's spine neighbors keep their slots. They lie on opposite
    # sides: the alternation put mid - 1 and mid + 1 on one side, and the
    # balance scan flipped every position right of mid exactly once.
    pseudo_owner: dict[int, int] = {}  # pseudo-leg position -> owner position
    for i in range(s - 1):
        if i != mid and counts[i] == 0 and i - 1 not in pseudo_owner:
            pseudo_owner[i] = mid if i == mid + 1 else i + 1
    # owner -> the pseudo-leg that left the spine for it (each owns at most one)
    adopted = {o: i for i, o in pseudo_owner.items() if o != mid}

    # Walk the spine slots cyclically away from the middle vertex, oriented
    # so its low spine neighbor is the walk's first vertex and its high
    # neighbor the last. Numbers follow the walk, so those neighbors take the
    # innermost spine numbers, low/high ranks stay aligned along the spine
    # (in particular across pseudo-legs, whose two spine neighbors share a
    # side) and every adjacent difference meets the guarantee. A one-vertex
    # spine has an empty walk either way.
    walk = [j for j in chain(range(mid + 1, s), range(mid)) if pseudo_owner.get(j, mid) == mid]
    if low_side[mid - 1] if mid else (s > 1 and not low_side[1]):
        walk.reverse()  # the leftward walk is the rightward one reversed
    low_owners = [j for j in walk if low_side[j]]
    high_owners = [j for j in walk if not low_side[j]]
    spine, legs = shape.spine_vertices, shape.leg_vertices

    def group(j):  # owner j's legs, then the pseudo-leg it adopted
        return (*legs[j], spine[adopted[j]]) if j in adopted else legs[j]

    # Legs fill the mid-range outward from ceil(n/2), grouped by owner: low
    # owners' legs upward in walk order, high owners' downward in reverse.
    low_spine = tuple(spine[j] for j in low_owners)
    low_legs = tuple(chain.from_iterable(map(reversed, map(group, high_owners))))
    high_legs = tuple(chain.from_iterable(map(group, low_owners)))
    high_spine = tuple(spine[j] for j in high_owners)
    low_mid_count = (n + 1) // 2 - len(low_spine) - len(low_legs) - 1
    return MarkingState(low_spine, high_spine, spine[mid], low_legs, high_legs,
                        tuple(legs[mid][:low_mid_count]), tuple(legs[mid][low_mid_count:]),
                        tuple(sorted((spine[i], spine[o]) for i, o in pseudo_owner.items())))


def label_general_caterpillar(shape: CaterpillarShape) -> SchemeResult:
    """Label any caterpillar with guaranteed value >= ceil(n/2) - delta - 2.

    Marking picks a middle spine vertex splitting the rest evenly, turns
    legless spine vertices into pseudo-legs of a spine neighbor, and splits
    the middle vertex's legs between the extreme low and extreme high
    numbers. It walks the spine cyclically away from the middle vertex,
    oriented so that its low spine neighbor comes first, and lists its seven
    groups in number order: the low middle legs, the low spine slots in walk
    order, the legs of the high slots grouped by owner, the middle vertex,
    the legs of the low slots, the high spine slots in walk order and the
    high middle legs. The labels number that list from 1 to n.
    """
    return _finish("general-cat", shape, *_general_cat(shape))


def _general_cat(shape: CaterpillarShape) -> Draft:
    if shape.n < 2:
        raise NotApplicable("general caterpillar scheme needs n >= 2")
    order = chain.from_iterable(mark_caterpillar(shape).groups())
    return _number(shape.n, order), (shape.n + 1) // 2 - shape.delta - 2


def mp_value(t: Tree) -> int:
    """Differential value the bipartition scheme for forests guarantees:
    min(|U|, |V|) over the 2-coloring. No labeling is produced.
    """
    if not t.is_forest():
        raise ValueError("input is not a forest")
    return bipartition_sizes(t)[1]


# name: (shape class, the reader of the draft's input, draft, optimality), in label_auto's order
SCHEMES = {
    "regular-cat": ("caterpillar", recognize_caterpillar, _regular_cat, "proved"),
    "spider-even": ("spider", recognize_spider, _spider_even, "proved"),
    "spider-odd": ("spider", recognize_spider, _spider_odd, "proved"),
    "general-cat": ("caterpillar", recognize_caterpillar, _general_cat, "unknown"),
}


def run_scheme(t: Tree, name: str) -> SchemeResult:
    """Label t with the named scheme, checked on t's own edges;
    NotApplicable says why it cannot."""
    shape_class, recognize, draft, _ = SCHEMES[name]
    shape = recognize(t)
    if shape is None:
        raise NotApplicable(f"input is not a {shape_class}")
    return _finish(name, t, *draft(shape))


def label_auto(t: Tree) -> SchemeResult:
    """Label t with the first scheme in SCHEMES that applies; when none
    does, NotApplicable names each scheme's reason."""
    reasons = []
    for name in SCHEMES:
        try:
            return run_scheme(t, name)
        except NotApplicable as exc:
            reasons.append(f"{name}: {exc}")
    raise NotApplicable("no scheme applies: " + "; ".join(reasons))
