"""Pinned CLI surface: the --help text of the top-level parser and of every
subcommand at a terminal width of 80, and the usage errors argparse reports.

Each line of cli_surface.txt pins a case's exit code and the sha256 of all
that run() writes to stdout and to stderr, the streams it was given and the
process streams together, so the pin holds wherever argparse's output goes.
Regenerate it (only for a deliberate change to the CLI surface) with

    PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.txt
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

from diffcolor.cli import run

GOLDEN_PATH = Path(__file__).with_name("cli_surface.txt")

COMMANDS = ("gen", "label", "eval", "bound", "exact", "compare-mp", "export")

ARGVS = {
    "help": ["--help"],
    **{f"{command} --help": [command, "--help"] for command in COMMANDS},
    "no command": [],
    "unknown command": ["frobnicate"],
    "gen without family": ["gen"],
    "bad format choice": ["bound", "--format", "xml"],
    "non-integer limit": ["exact", "--limit-n", "x"],
    "eval without labeling": ["eval", "--in", "g.gr"],
    "unknown flag": ["label", "--bogus"],
}


def surface(argv):
    """(exit code, stdout text, stderr text) of run(argv), captured from the
    given streams and from the process streams."""
    out, err, proc_out, proc_err = (io.StringIO() for _ in range(4))
    with contextlib.redirect_stdout(proc_out), contextlib.redirect_stderr(proc_err):
        code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue() + proc_out.getvalue(), err.getvalue() + proc_err.getvalue()


def _line(case):
    code, *texts = surface(ARGVS[case])
    return " ".join([case, str(code), *(hashlib.sha256(t.encode()).hexdigest() for t in texts)])


@pytest.fixture(scope="module")
def golden():
    lines = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    return {line.rsplit(" ", 3)[0]: line for line in lines}


def test_table_covers_every_case(golden):
    assert set(golden) == set(ARGVS)


@pytest.mark.parametrize("case", ARGVS)
def test_cli_surface(case, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _line(case) == golden[case]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for case in ARGVS:
        print(_line(case))
