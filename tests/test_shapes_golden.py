"""Pinned tree-class recognition and generators: the sha256 of
(recognize_caterpillar(t), recognize_spider(t)) on every free tree with
n <= 12, on seeded paths with n = 3..400 and shuffled vertex ids (every center
tie), and on seeded shuffled spiders and caterpillars; and the sha256 of the
(Tree, shape) pairs that gen_caterpillar and gen_spider return.

Each pair is written by _text, which puts a shape's counts (leg_counts,
path_lengths) ahead of its vertex lists as the shapes' repr did when they
stored the counts as fields. The digests were recorded before the spider arm
walk, the shape checks, the generators' id blocks and the derived counts were
merged; any change to a shape shows up here.
Regenerate them (only for a deliberate output change) with

    PYTHONPATH=src python tests/test_shapes_golden.py
"""

import hashlib
import random
import re
from pathlib import Path

from diffcolor import (CaterpillarShape, SpiderShape, gen_caterpillar,
                       gen_random_caterpillar, gen_spider, recognize_caterpillar,
                       recognize_spider)
from helpers import free_trees, path_graph, shuffled

# sha256 of the recognized shapes, and of the generators' (Tree, shape) pairs
SHAPES_SHA = "33923f19532a5c56fb8b287839c0f0e878f9b34e7e0913905ef192dc3911cd28"
GENERATED_SHA = "52b006d2df7fbc7526627d19c44b6d02d1cd1b7b8b075e444b52b9c8b0f91ee6"


COUNTS = {CaterpillarShape: "leg_counts", SpiderShape: "path_lengths"}


def _text(pair) -> str:
    """repr(pair), each shape in it written with its counts first."""
    def item(x):
        if type(x) not in COUNTS:
            return repr(x)
        fields = ", ".join(f"{name}={getattr(x, name)!r}"
                           for name in (COUNTS[type(x)], *x._fields))
        return f"{type(x).__qualname__}({fields})"
    return "(" + ", ".join(map(item, pair)) + ")"


def _generated():
    rng = random.Random(1010)
    for _ in range(300):
        yield gen_spider([rng.randint(1, 9) for _ in range(rng.randint(1, 8))])
    for _ in range(300):
        yield gen_random_caterpillar(rng, 25, 6)
    yield gen_caterpillar([0])
    for s in range(2, 6):  # bare paths as caterpillars
        yield gen_caterpillar([1, *[0] * (s - 2), 1])


def _trees():
    for n in range(1, 13):
        yield from free_trees(n)
    rng = random.Random(2020)
    for n in range(3, 401):
        yield shuffled(rng, path_graph(n))
    for tree, _ in _generated():
        yield shuffled(rng, tree)


def _digests():
    shapes = [_text((recognize_caterpillar(t), recognize_spider(t))) for t in _trees()]
    generated = [_text(pair) for pair in _generated()]
    assert len(shapes) == 987 + 398 + 605 and len(generated) == 605
    return tuple(hashlib.sha256("\n".join(reprs).encode()).hexdigest()
                 for reprs in (shapes, generated))


def test_shapes_digest():
    assert _digests() == (SHAPES_SHA, GENERATED_SHA)


if __name__ == "__main__":
    path = Path(__file__)
    text = path.read_text(encoding="utf-8")
    for name, digest in zip(("SHAPES_SHA", "GENERATED_SHA"), _digests()):
        text = re.sub(rf'^{name} = ".*"$', f'{name} = "{digest}"', text, flags=re.M)
    path.write_text(text, encoding="utf-8")
