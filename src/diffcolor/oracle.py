"""Exact computation of the maximum differential value at desk scale.

The decision procedure assigns the numbers 1..n to vertices in increasing
order; number t may land on a vertex only when every already-numbered
neighbor carries a number <= t - d. Completeness makes the results ground
truth: a returned witness achieves d, and infeasible means no labeling does.

Intended for small graphs; exact_dc refuses inputs above a configurable size
instead of hanging, and honors an optional wall-clock budget.
"""

from __future__ import annotations

import time

from ._record import Record
from .bounds import upper_bound_report
from .graph import Tree
from .labeling import Labeling

DEFAULT_LIMIT_N = 14

_TIMEOUT_CHECK_MASK = 255


class OracleLimitError(Exception):
    """Input exceeds the configured exact-solver size limit."""


class OracleTimeoutError(Exception):
    """Time budget exhausted; carries the still-open bracket for the result."""

    def __init__(self, message: str, bracket: tuple[int, int], nodes: int):
        super().__init__(message)
        self.bracket = bracket
        self.nodes = nodes


class _Timeout(Exception):
    """The deadline passed during _search; carries the nodes explored."""

    def __init__(self, nodes: int):
        super().__init__(nodes)
        self.nodes = nodes


class ExactResult(Record):
    _fields = ("dc", "witness", "nodes", "millis")

    def to_json(self) -> dict:
        return {"dc": self.dc, "labels": list(self.witness.labels),
                "nodes": self.nodes, "millis": self.millis}


def _search(n: int, adj: list[list[int]], d: int,
            deadline: float | None) -> tuple[tuple[int, ...] | None, int]:
    """Backtracking core. Returns (labels or None, nodes explored).

    Number t goes to the first vertex, in id order, that fits; placed[t]
    remembers it, so backtracking resumes number t at the next vertex. An
    explicit loop, not recursion, so n is not bounded by the call stack.
    Complement symmetry (x -> n+1-x preserves the value) is broken by never
    letting vertex 0 take a number above ceil(n/2), halving the search.
    The deterministic vertex order makes the witness reproducible.
    """
    label_of = [0] * n
    placed = [0] * (n + 1)
    half = (n + 1) // 2
    nodes = 0
    t, v = 1, 0
    while True:
        if v == 0:  # first visit of number t
            if t > n:
                return tuple(label_of), nodes
            if deadline is not None and (nodes & _TIMEOUT_CHECK_MASK) == 0 \
                    and time.monotonic() > deadline:
                raise _Timeout(nodes)
            if label_of[0] == 0 and t > half:
                v = n
        room = t + d <= n
        while v < n:
            if not label_of[v]:
                # a numbered neighbor needs t - lu >= d; an unnumbered one
                # needs a number t + d or above to remain
                for u in adj[v]:
                    lu = label_of[u]
                    if (t - lu < d) if lu else not room:
                        break
                else:  # every neighbor allows t at v
                    break
            v += 1
        if v < n:
            label_of[v] = t
            placed[t] = v
            nodes += 1
            t, v = t + 1, 0
        elif t == 1:
            return None, nodes
        else:
            t -= 1
            v = placed[t]
            label_of[v] = 0
            v += 1


def _deadline(started: float, timeout_ms: int | None) -> float | None:
    if timeout_ms is None:
        return None
    if timeout_ms < 0:
        raise ValueError(f"timeout_ms must be non-negative, got {timeout_ms}")
    try:
        return started + timeout_ms / 1000.0
    except OverflowError:
        raise ValueError("timeout_ms is too large to convert to a float") from None


def decision_dc_at_least(t: Tree, d: int, *,
                         timeout_ms: int | None = None) -> Labeling | None:
    """Witness labeling of value >= d, or None if none exists (complete)."""
    if not 1 <= d <= t.n:
        raise ValueError(f"d must lie in 1..{t.n}, got {d}")
    deadline = _deadline(time.monotonic(), timeout_ms)
    if d == 1:  # any numbering achieves 1, so there is nothing to search
        return Labeling.identity(t.n)
    try:
        labels, _ = _search(t.n, t.adjacency(), d, deadline)
    except _Timeout as exc:
        # an unfinished decision refutes no d, so only 1 <= dc <= n is known
        raise OracleTimeoutError(f"decision at d={d} timed out", (1, t.n), exc.nodes) from None
    return Labeling(labels) if labels is not None else None


def exact_dc(t: Tree, *, limit_n: int = DEFAULT_LIMIT_N,
             timeout_ms: int | None = None) -> ExactResult:
    """Maximum differential value with an optimal witness, by descending
    search from the best applicable upper bound (the bounds are tight on the
    tree classes of interest, so the first test usually succeeds).

    Edgeless graphs evaluate to the sentinel n. Disconnected graphs are
    supported (numbers range over the whole graph, components constrain
    independently); the descent then starts from n - 1.
    """
    if limit_n < 0:
        raise ValueError(f"limit_n must be non-negative, got {limit_n}")
    if t.n > limit_n:
        raise OracleLimitError(
            f"n={t.n} exceeds the exact-solver limit {limit_n}; raise limit_n to override")
    started = time.monotonic()
    deadline = _deadline(started, timeout_ms)
    if t.m == 0:
        return ExactResult(t.n, Labeling.identity(t.n), 0, 0)
    if t.n >= 2 and t.is_connected():
        start = upper_bound_report(t).best
    else:
        start = t.n - 1
    adj = t.adjacency()
    total_nodes = 0
    for d in range(start, 1, -1):
        try:
            labels, nodes = _search(t.n, adj, d, deadline)
        except _Timeout as exc:
            raise OracleTimeoutError(
                f"timed out while testing d={d}; result lies in [1, {d}]",
                (1, d), total_nodes + exc.nodes) from None
        total_nodes += nodes
        if labels is not None:
            millis = int((time.monotonic() - started) * 1000)
            return ExactResult(d, Labeling(labels), total_nodes, millis)
    # every numbering achieves d = 1; the search there would visit exactly n nodes
    millis = int((time.monotonic() - started) * 1000)
    return ExactResult(1, Labeling.identity(t.n), total_nodes + t.n, millis)
