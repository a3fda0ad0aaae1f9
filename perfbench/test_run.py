"""Checks of the benchmark itself: the same seed gives the same inputs and
the same oracle node count (so two commits are compared on identical work),
and the output checks reject wrong outputs."""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from diffcolor import Labeling, label_auto, parse_graph  # noqa: E402


def test_input_digests_repeat_per_seed(tmp_path):
    def large(seed):
        return bench.digest(text for _, _, text in bench.large_trees(seed, 12))

    assert large(7) == large(7) != large(8)
    assert bench.digest(bench.exact_small(7, 6)) == bench.digest(bench.exact_small(7, 6))
    workdir = tmp_path / "cli"
    first_argvs, first = bench.cli_small(7, workdir)
    second_argvs, second = bench.cli_small(7, workdir)
    assert first == second and first_argvs == second_argvs
    assert {argv[0] for argv in first_argvs} == set(bench.CLI_COMMANDS)


def test_large_trees_prefix_and_scheme_mix():
    items = bench.large_trees(3, 6)
    assert items == bench.large_trees(3, 12)[:6]
    assert [family for family, _, _ in items] == list(bench.LARGE_FAMILIES)
    schemes = {label_auto(parse_graph(text)).scheme for _, _, text in items}
    assert schemes == set(bench.SCHEMES)


def test_oracle_nodes_repeat():
    texts = [text for text in bench.exact_small(7, 9) if parse_graph(text).n == 12]
    runs = [[bench.trace_oracle(bench.Spans(), text) for text in texts] for _ in range(2)]
    assert runs[0] == runs[1]
    assert all(nodes > 0 for nodes, _ in runs[0])


def test_checks_reject_wrong_outputs():
    tree, result, report, mp, _ = bench.run_large(bench.large_trees(5, 1)[0][2])
    bench.check_large(tree, result, report, mp)
    labels = list(result.labeling.labeling.labels)
    labels[0] = labels[1]
    bad = type(result.labeling)(Labeling(tuple(labels)), result.value)
    with pytest.raises(bench.CheckError, match="bijection"):
        bench.check_large(tree, type(result)(result.scheme, bad, result.guarantee,
                                             result.optimal), report, mp)
    with pytest.raises(bench.CheckError, match="above the best bound"):
        bench.check_large(tree, result, report, report.best + 1)

    argv = ["gen", "regular-cat", "--spine", "3", "--legs", "2"]
    proc = subprocess.CompletedProcess(argv, 0, b"p 9 8\n", b"")
    with pytest.raises(bench.CheckError, match="differs"):
        bench.check_cli(argv, proc)
    with pytest.raises(bench.CheckError, match="exit 2"):
        bench.check_cli(argv, subprocess.CompletedProcess(argv, 2, b"", b"error: x"))
