"""Pinned scheme outputs: for each scheme in SCHEMES, the sha256 of its
run_scheme JSON, or of its NotApplicable message, on every free tree with
n <= 12 and on seeded regular caterpillars, parity-uniform spiders and
mixed-parity spiders with shuffled vertex ids.

The digests were recorded before the schemes listed their vertices in label
order; any change to a scheme's labels, guarantee or refusal shows up here.
Regenerate them (only for a deliberate output change) with

    PYTHONPATH=src python tests/test_scheme_labels_golden.py
"""

import hashlib
import json
import random
import re
from pathlib import Path

from diffcolor import (SCHEMES, NotApplicable, gen_regular_caterpillar,
                       gen_spider, run_scheme)
from helpers import free_trees, shuffled

# scheme name -> sha256 over all trees of its JSON or refusal
SCHEME_SHA = {
    "regular-cat": "1efca6fa6c36b97d15db79d40969f72c57f37a987b366af7ace1a7d4b2aff094",
    "spider-even": "b5a6e8584dd9d96b613d9447050be8655aee1c234040ca7b7eda957d66aa7d0a",
    "spider-odd": "7fd6012cd9a61461b2d05763b4f480b1861780868ba751632b732387dabbbe8b",
    "general-cat": "ab10d38dbb1d55ed0b3eff2ed297bf94b5fd5c5d6785fc8428ea0e4edbd775a5",
}


def _trees():
    for n in range(1, 13):
        yield from free_trees(n)
    rng = random.Random(1717)
    for _ in range(150):
        yield shuffled(rng, gen_regular_caterpillar(rng.randint(1, 25), rng.randint(1, 6))[0])
    for _ in range(150):
        parity = rng.randint(1, 2)
        lengths = [2 * rng.randint(0, 12) + parity for _ in range(rng.randint(1, 10))]
        yield shuffled(rng, gen_spider(lengths)[0])
    for _ in range(100):
        yield shuffled(rng, gen_spider([rng.randint(1, 15) for _ in range(rng.randint(1, 10))])[0])


def _outcome(tree, name):
    try:
        return run_scheme(tree, name).to_json()
    except NotApplicable as exc:
        return str(exc)


def _digests():
    trees = list(_trees())
    assert len(trees) == 987 + 400
    return {name: hashlib.sha256(json.dumps([_outcome(t, name) for t in trees]).encode())
            .hexdigest() for name in SCHEMES}


def test_scheme_digests():
    assert _digests() == SCHEME_SHA


if __name__ == "__main__":
    path = Path(__file__)
    text = path.read_text(encoding="utf-8")
    for name, digest in _digests().items():
        text = re.sub(rf'^    "{name}": ".*",$', f'    "{name}": "{digest}",', text, flags=re.M)
    path.write_text(text, encoding="utf-8")
