"""Vertex labelings and their differential value.

A labeling assigns the numbers 1..n bijectively to the vertices; its value is
the minimum |difference| across edges. Everything here is exact integer
arithmetic on immutable values.
"""

from __future__ import annotations

from ._record import Record
from .graph import CaterpillarShape, SpiderShape, Tree, _is_int, _is_int_run

Graph = Tree | CaterpillarShape | SpiderShape  # anything with n and _pairs()


class Labeling(Record):
    """labels[v] is the number assigned to vertex v, from {1..n}."""

    _fields = ("labels",)

    @property
    def n(self) -> int:
        return len(self.labels)

    @staticmethod
    def identity(n: int) -> "Labeling":
        return Labeling(tuple(range(1, n + 1)))

    def complement(self) -> "Labeling":
        """Mirror labeling x -> n+1-x; it has the same differential value."""
        n = self.n
        return Labeling(tuple(n + 1 - x for x in self.labels))


def is_valid_labeling(t: Graph, labeling: Labeling) -> tuple[bool, str | None]:
    """Check that the labels are integers (bools excluded) forming a bijection
    onto {1..n}; returns (ok, first violation or None)."""
    n = t.n
    labels = labeling.labels
    if len(labels) != n:
        return False, f"expected {n} labels, got {len(labels)}"
    # builtins accept a valid labeling; the loop below only names a violation
    if _is_int_run(labels, 1, n):
        return True, None
    seen = set()
    for v, x in enumerate(labels):
        if not _is_int(x):
            return False, f"label {x!r} of vertex {v} is not an integer"
        if not 1 <= x <= n:
            return False, f"label {x} of vertex {v} out of range 1..{n}"
        if x in seen:
            return False, f"duplicate label {x} at vertex {v}"
        seen.add(x)
    return True, None


def differential_value(t: Graph, labeling: Labeling) -> int:
    """Minimum |label difference| over edges; n for an edgeless graph (one
    more than any value an edge could constrain to).
    """
    ok, why = is_valid_labeling(t, labeling)
    if not ok:
        raise ValueError(f"invalid labeling: {why}")
    labels = labeling.labels
    best = len(labels)
    for u, v in t._pairs():
        d = abs(labels[u] - labels[v])
        if d < best:
            best = d
    return best


class EvaluatedLabeling(Record):
    _fields = ("labeling", "value")

    def to_json(self) -> dict:
        return {
            "n": self.labeling.n,
            "labels": list(self.labeling.labels),
            "value": self.value,
        }


def evaluate(t: Graph, labeling: Labeling) -> EvaluatedLabeling:
    return EvaluatedLabeling(labeling, differential_value(t, labeling))


def labeling_from_json(obj: dict) -> Labeling:
    """Read the labeling interchange object {"n": int, "labels": [int, ...]};
    an included "value" field is ignored (it is recomputed on evaluation).
    """
    try:
        n = obj["n"]
        labels = obj["labels"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"labeling object must contain 'n' and 'labels': {exc}") from exc
    if not _is_int(n):
        raise ValueError("'n' must be an integer")
    if not isinstance(labels, list) or not all(map(_is_int, labels)):
        raise ValueError("'labels' must be a list of integers")
    if n != len(labels):
        raise ValueError(f"'n' is {n} but 'labels' has {len(labels)} entries")
    return Labeling(tuple(labels))
