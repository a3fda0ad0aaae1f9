"""Upper bounds on the maximum achievable differential value.

Three bounds are implemented:
  thm1  floor(n/2), valid for every connected graph,
  thm2  ceil((n - delta)/2) for regular caterpillars with an odd spine
        (with an even spine the bound coincides with thm1, so no entry),
  thm3  N_e + 1 for spiders, where N_e counts even-level vertices.

Class bounds are emitted exactly when the recognizer accepts the input.
"""

from __future__ import annotations

from ._record import Record
from .graph import Tree, recognize_caterpillar, recognize_spider


class BoundReport(Record):
    _fields = ("entries",)

    @property
    def best(self) -> int:
        return min(value for _, value in self.entries)

    def __getitem__(self, name: str) -> int:
        return dict(self.entries)[name]

    def __contains__(self, name: str) -> bool:
        return name in dict(self.entries)

    def to_json(self) -> dict:
        return {"bounds": dict(self.entries), "best": self.best}


def upper_bound_report(t: Tree) -> BoundReport:
    """All applicable upper bounds for a connected graph with n >= 2."""
    if t.n < 2:
        raise ValueError("bounds are defined for n >= 2")
    if not t.is_connected():
        raise ValueError("input graph is disconnected")
    entries = [("thm1", t.n // 2)]
    cat = recognize_caterpillar(t)
    if cat is not None and cat.is_regular and cat.s % 2 == 1:
        entries.append(("thm2", (t.n - cat.delta + 1) // 2))
    spider = recognize_spider(t)
    if spider is not None:
        entries.append(("thm3", spider.n_even + 1))
    return BoundReport(tuple(entries))
