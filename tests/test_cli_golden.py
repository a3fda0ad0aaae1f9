"""Pinned CLI bytes: the exit code and the sha256 of stdout of every scheme
command on a fixed set of small inputs, edge cases included.

The table in cli_golden.txt was recorded before the scheme table replaced
the CLI's own applicability checks; any change to which scheme runs, or to
what it prints, shows up here. Regenerate it (only for a deliberate output
change) with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.txt
"""

import hashlib
import io
from pathlib import Path

import pytest

from diffcolor.cli import run

GOLDEN_PATH = Path(__file__).with_name("cli_golden.txt")

# name: graph-file text, or the CLI's own --family flags
INPUTS = {
    "single-vertex": "p 1 0\n",
    "single-edge": "p 2 1\ne 1 2\n",
    "p3": "p 3 2\ne 1 2\ne 2 3\n",
    "p5": "p 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n",
    "p6": "p 6 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n",
    "forest": "p 4 2\ne 1 2\ne 3 4\n",
    "triangle": "p 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "spider-2,2,2": ["--family", "spider", "--paths", "2,2,2"],
    "spider-1,1,3": ["--family", "spider", "--paths", "1,1,3"],
    "spider-2,2,3": ["--family", "spider", "--paths", "2,2,3"],
    "cat-2,1": ["--family", "cat", "--leg-list", "2,1"],
    "sec53-2-3": ["--family", "sec53", "--k", "2", "--delta", "3"],
    "cat-10,9": ["--family", "cat", "--leg-list", "10,9"],
}

COMMANDS = [
    *(["label", "--scheme", scheme, "--format", fmt]
      for scheme in ("auto", "regular-cat", "spider-even", "spider-odd", "general-cat")
      for fmt in ("json", "plain", "dot")),
    ["compare-mp"],
    ["export", "--scheme", "auto"],
]


def _key(name, command):
    return " ".join([name, *command])


def _run(name, command, tmp_dir):
    source = INPUTS[name]
    if isinstance(source, str):
        path = Path(tmp_dir) / f"{name}.gr"
        path.write_text(source, encoding="utf-8")
        source = ["--in", str(path)]
    out, err = io.StringIO(), io.StringIO()
    code = run([command[0], *source, *command[1:]], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def golden():
    table = {}
    for line in GOLDEN_PATH.read_text(encoding="utf-8").splitlines():
        key, code, digest = line.rsplit(" ", 2)
        table[key] = (int(code), digest)
    return table


def test_table_covers_every_case(golden):
    assert set(golden) == {_key(name, c) for name in INPUTS for c in COMMANDS}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cli_bytes(name, golden, tmp_path):
    for command in COMMANDS:
        code, out, err = _run(name, command, tmp_path)
        key = _key(name, command)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == golden[key], key
        if code != 0:
            assert err.startswith("error: ") and err.count("\n") == 1 \
                and err.endswith("\n"), (key, err)


NO_SCHEME = ("error: no scheme applies: regular-cat: input is not a caterpillar; "
             "spider-even: input is not a spider; spider-odd: input is not a spider; "
             "general-cat: input is not a caterpillar\n")
NOT_A_CATERPILLAR = "error: input is not a caterpillar\n"

# (input, command, stderr) on the inputs that are not connected trees
NON_TREE_ERRORS = [
    ("forest", ["label"], NO_SCHEME),
    ("forest", ["export", "--scheme", "auto"], NO_SCHEME),
    ("forest", ["compare-mp"], NOT_A_CATERPILLAR),
    ("forest", ["bound"], "error: input graph is disconnected\n"),
    ("triangle", ["label"], NO_SCHEME),
    ("triangle", ["export", "--scheme", "auto"], NO_SCHEME),
    ("triangle", ["compare-mp"], NOT_A_CATERPILLAR),
]


@pytest.mark.parametrize("name, command, stderr", NON_TREE_ERRORS,
                         ids=[_key(name, command) for name, command, _ in NON_TREE_ERRORS])
def test_non_tree_names_every_reason(name, command, stderr, tmp_path):
    # a graph that is not a connected tree fails each scheme row like any
    # other tree of the wrong class, so each row gives its own reason
    assert _run(name, command, tmp_path) == (2, "", stderr)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            for command in COMMANDS:
                code, out, _ = _run(name, command, tmp)
                digest = hashlib.sha256(out.encode()).hexdigest()
                print(_key(name, command), code, digest)
