"""The package's public names: everything __all__ lists resolves, and the
distribution carries the package's name."""

from pathlib import Path

import pytest

import diffcolor


def test_all_names_resolve():
    assert [name for name in diffcolor.__all__ if not hasattr(diffcolor, name)] == []
    assert len(set(diffcolor.__all__)) == len(diffcolor.__all__)
    namespace = {}
    exec("from diffcolor import *", namespace)  # raises on a stale __all__ entry
    assert set(diffcolor.__all__) <= namespace.keys()


def test_optimality_is_a_string_not_an_export():
    # a scheme's optimality is the string in its SCHEMES row
    assert "Optimality" not in diffcolor.__all__
    assert not hasattr(diffcolor, "Optimality")
    assert {row[3] for row in diffcolor.SCHEMES.values()} == {"proved", "unknown"}


def test_distribution_is_named_after_the_package():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "diffcolor"
    assert project["scripts"] == {"diffcolor": "diffcolor.cli:main"}
