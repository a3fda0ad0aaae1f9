"""Pinned general-caterpillar scheme: the sha256 of its labels and of its
marking on every caterpillar of the free-tree atlas with 2 <= n <= 12, on 300
seeded random caterpillars with shuffled vertex ids, and on the sec53 family.

The digests were recorded before the scheme's marking was computed in one
pass; any change to its labels or groups shows up here. Regenerate them (only
for a deliberate output change) with

    PYTHONPATH=src python tests/test_general_cat_golden.py
"""

import hashlib
import json
import random
import re
from pathlib import Path

from diffcolor import (gen_caterpillar, gen_random_caterpillar,
                       label_general_caterpillar, mark_caterpillar,
                       recognize_caterpillar)
from helpers import free_trees, shuffled

# sha256 over all shapes of the label lists, and of the marking fields
LABELS_SHA = "3141a9f22166317fce3c938531715d27609db59ffce8ed9a2306dadfd63ccb6b"
MARKING_SHA = "b6a1b0de96c434fcc86cd82944c9a3b659308b9d321d514551f59cf43b8da3c1"


def _trees():
    for n in range(2, 13):
        yield from free_trees(n)
    rng = random.Random(8080)
    for _ in range(300):
        yield shuffled(rng, gen_random_caterpillar(rng, 30, 8)[0])
    for k in (1, 2, 5, 20):
        for delta in (1, 3, 10):
            yield gen_caterpillar([1 if i % 2 == 0 else delta for i in range(2 * k + 1)])[0]


def _marking_fields(state):
    return [sorted(value) if isinstance(value, frozenset) else value
            for value in state._values()]


def _digests():
    labels, markings = [], []
    for tree in _trees():
        shape = recognize_caterpillar(tree)
        if shape is not None:
            labels.append(label_general_caterpillar(shape).to_json())
            markings.append(_marking_fields(mark_caterpillar(shape)))
    assert len(labels) == 559 + 300 + 12
    return tuple(hashlib.sha256(json.dumps(obj).encode()).hexdigest()
                 for obj in (labels, markings))


def test_general_cat_digest():
    assert _digests() == (LABELS_SHA, MARKING_SHA)


if __name__ == "__main__":
    path = Path(__file__)
    text = path.read_text(encoding="utf-8")
    for name, digest in zip(("LABELS_SHA", "MARKING_SHA"), _digests()):
        text = re.sub(rf'^{name} = ".*"$', f'{name} = "{digest}"', text, flags=re.M)
    path.write_text(text, encoding="utf-8")
