import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import diffcolor
from diffcolor import (MAX_N, SCHEMES, parse_graph, recognize_caterpillar,
                       recognize_spider)
from diffcolor.cli import FAMILIES, _build_parser, _read_well_formed, run
from helpers import pruefer_to_edges, small_peak


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestGen:
    def test_regular_cat_golden(self):
        code, out, _ = capture(["gen", "regular-cat", "--spine", "2", "--legs", "2"])
        assert code == 0
        assert out == "p 6 5\ne 1 2\ne 1 3\ne 1 4\ne 2 5\ne 2 6\n"

    def test_out_file(self, tmp_path):
        path = tmp_path / "g.gr"
        code, out, _ = capture(["gen", "spider", "--paths", "1,1,1",
                                "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text() == "p 4 3\ne 1 2\ne 1 3\ne 1 4\n"

    def test_random_requires_seed(self):
        code, _, err = capture(["gen", "random-cat"])
        assert code == 2 and "seed" in err

    def test_random_seeded_deterministic(self):
        a = capture(["gen", "random-cat", "--seed", "5"])
        b = capture(["gen", "random-cat", "--seed", "5"])
        assert a == b and a[0] == 0

    def test_missing_flags(self):
        code, _, err = capture(["gen", "regular-cat"])
        assert code == 2 and "requires" in err

    def test_bad_leg_list(self):
        code, _, err = capture(["gen", "cat", "--leg-list", "0,1"])
        assert code == 2

    def test_round_trip_recognition(self):
        for family, flags, counts in [
            ("regular-cat", ["--spine", "3", "--legs", "2"], (2, 2, 2)),
            ("cat", ["--leg-list", "1,0,2"], (1, 0, 2)),
            ("sec53", ["--k", "2", "--delta", "3"], (1, 3, 1, 3, 1)),
        ]:
            code, out, _ = capture(["gen", family] + flags)
            assert code == 0
            shape = recognize_caterpillar(parse_graph(out))
            assert shape.leg_counts in (counts, counts[::-1])
        code, out, _ = capture(["gen", "spider", "--paths", "3,1,2"])
        assert code == 0
        spider = recognize_spider(parse_graph(out))
        assert sorted(spider.path_lengths) == [1, 2, 3]
        code, out, _ = capture(["gen", "random-cat", "--seed", "13"])
        assert code == 0
        assert recognize_caterpillar(parse_graph(out)) is not None


class TestLabel:
    def test_auto_on_regular_caterpillar_is_proved(self):
        for s in range(1, 5):
            for delta in range(1, 3):
                code, out, _ = capture(["label", "--family", "regular-cat",
                                        "--spine", str(s), "--legs", str(delta)])
                assert code == 0
                obj = json.loads(out)
                assert obj["optimal"] == "proved"
                assert obj["scheme"] == "regular-cat"
                assert obj["value"] == obj["guarantee"]

    def test_named_scheme_from_file(self, tmp_path):
        path = tmp_path / "p5.gr"
        path.write_text("p 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
        code, out, _ = capture(["label", "--in", str(path),
                                "--scheme", "general-cat"])
        assert code == 0
        assert json.loads(out)["optimal"] == "unknown"

    def test_plain_format(self):
        code, out, _ = capture(["label", "--family", "regular-cat", "--spine", "2",
                                "--legs", "2", "--format", "plain"])
        assert code == 0
        assert out == "1 1\n2 6\n3 4\n4 5\n5 2\n6 3\n"

    def test_dot_format(self):
        code, out, _ = capture(["label", "--family", "spider", "--paths", "1,1,1",
                                "--format", "dot"])
        assert code == 0
        assert out.startswith("graph G {")
        assert '1 [label="1"];' in out

    def test_wrong_scheme_for_input(self):
        code, _, err = capture(["label", "--family", "cat", "--leg-list", "2,1",
                                "--scheme", "regular-cat"])
        assert code == 2 and "not a regular caterpillar" in err

    def test_two_input_sources_rejected(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p 2 1\ne 1 2\n")
        code, _, err = capture(["label", "--in", str(path),
                                "--family", "spider", "--paths", "1,1"])
        assert code == 2 and "exactly one input source" in err

    def test_no_input_source_rejected(self):
        code, _, err = capture(["label"])
        assert code == 2


class TestEval:
    def test_value(self, tmp_path):
        g = tmp_path / "p4.gr"
        g.write_text("p 4 3\ne 1 2\ne 2 3\ne 3 4\n")
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"n": 4, "labels": [2, 4, 1, 3]}))
        code, out, _ = capture(["eval", "--in", str(g), "--labeling", str(lab)])
        assert code == 0
        assert json.loads(out) == {"n": 4, "labels": [2, 4, 1, 3], "value": 2}
        code, out, _ = capture(["eval", "--in", str(g), "--labeling", str(lab),
                                "--format", "plain"])
        assert code == 0 and out == "2\n"

    def test_invalid_labeling(self, tmp_path):
        g = tmp_path / "p2.gr"
        g.write_text("p 2 1\ne 1 2\n")
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"n": 2, "labels": [1, 1]}))
        code, _, err = capture(["eval", "--in", str(g), "--labeling", str(lab)])
        assert code == 2 and "duplicate" in err

    def test_boolean_label_rejected(self, tmp_path):
        g = tmp_path / "p3.gr"
        g.write_text("p 3 2\ne 1 2\ne 2 3\n")
        lab = tmp_path / "lab.json"
        lab.write_text('{"n": 3, "labels": [1, 3, true]}')
        code, _, err = capture(["eval", "--in", str(g), "--labeling", str(lab)])
        assert code == 2 and "list of integers" in err and err.count("\n") == 1

    def test_non_integer_n_rejected(self, tmp_path):
        g = tmp_path / "p2.gr"
        g.write_text("p 2 1\ne 1 2\n")
        lab = tmp_path / "lab.json"
        lab.write_text('{"n": 2.0, "labels": [1, 2]}')
        code, out, err = capture(["eval", "--in", str(g), "--labeling", str(lab)])
        assert code == 2 and out == "" and "'n' must be an integer" in err


class TestBound:
    def test_p5_json(self):
        code, out, _ = capture(["bound", "--family", "cat", "--leg-list", "1,0,1"])
        assert code == 0
        assert json.loads(out) == {"bounds": {"thm1": 2, "thm3": 3}, "best": 2}

    def test_plain(self):
        code, out, _ = capture(["bound", "--family", "regular-cat", "--spine", "3",
                                "--legs", "2", "--format", "plain"])
        assert code == 0
        assert out == "thm1 4\nthm2 4\nbest 4\n"


class TestExact:
    def test_p5(self, tmp_path):
        path = tmp_path / "p5.gr"
        path.write_text("p 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
        code, out, _ = capture(["exact", "--in", str(path)])
        assert code == 0
        obj = json.loads(out)
        assert obj["dc"] == 2
        assert sorted(obj["labels"]) == [1, 2, 3, 4, 5]
        assert obj["nodes"] > 0 and obj["millis"] >= 0

    def test_plain(self):
        code, out, _ = capture(["exact", "--family", "spider", "--paths", "1,1,1",
                                "--format", "plain"])
        assert code == 0
        assert out.splitlines()[0] == "dc 1"

    def test_limit_refusal_exit_3(self):
        code, _, err = capture(["exact", "--family", "regular-cat", "--spine", "8",
                                "--legs", "1", "--limit-n", "10"])
        assert code == 3 and "exceeds" in err

    def test_timeout_exit_3(self):
        code, _, err = capture(["exact", "--family", "regular-cat", "--spine", "6",
                                "--legs", "1", "--timeout-ms", "0"])
        assert code == 3 and "timed out" in err

    def test_timeout_on_closed_bracket_exit_0(self):
        code, out, err = capture(["exact", "--family", "spider", "--paths", "1,1",
                                  "--timeout-ms", "0", "--format", "plain"])
        assert (code, out.splitlines()[0], err) == (0, "dc 1", "")

    def test_negative_timeout_exit_2(self):
        code, _, err = capture(["exact", "--family", "spider", "--paths", "1,1,1",
                                "--timeout-ms", "-5"])
        assert code == 2 and "timeout_ms" in err and err.count("\n") == 1

    def test_huge_timeout_exit_2(self):
        code, _, err = capture(["exact", "--family", "spider", "--paths", "1,1",
                                "--timeout-ms", "1" + "0" * 400])
        assert code == 2 and err == "error: timeout_ms is too large to convert to a float\n"

    def test_negative_limit_exit_2(self):
        assert capture(["exact", "--family", "spider", "--paths", "1,1", "--limit-n", "-1"]) \
            == (2, "", "error: limit_n must be non-negative, got -1\n")

    def test_zero_limit_exit_3(self):
        code, out, err = capture(["exact", "--family", "spider", "--paths", "1,1",
                                  "--limit-n", "0"])
        assert (code, out) == (3, "") and "exceeds the exact-solver limit 0" in err

    def test_threads_flag_is_gone(self):
        code, _, _ = capture(["exact", "--family", "spider", "--paths", "1,1,1",
                              "--threads", "2"])
        assert code == 2


class TestCompareMp:
    def test_sec53_small(self):
        code, out, _ = capture(["compare-mp", "--family", "sec53",
                                "--k", "2", "--delta", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 5 + 3 + 2 * 3
        assert obj["mp"] == 2 * 2 + 1
        assert obj["scheme_value"] >= obj["scheme_guarantee"]
        assert obj["bound_best"] == obj["n"] // 2

    def test_rejects_non_caterpillar(self):
        code, _, err = capture(["compare-mp", "--family", "spider",
                                "--paths", "2,2,2"])
        assert code == 2 and "not a caterpillar" in err


class TestExport:
    def test_plain_graph(self):
        code, out, _ = capture(["export", "--family", "spider", "--paths", "1,1"])
        assert code == 0
        assert out == "graph G {\n  1;\n  2;\n  3;\n  1 -- 2;\n  1 -- 3;\n}\n"

    def test_with_scheme_labels(self):
        code, out, _ = capture(["export", "--family", "regular-cat", "--spine", "1",
                                "--legs", "2", "--scheme", "auto"])
        assert code == 0
        assert out == ('graph G {\n  1 [label="1"];\n  2 [label="2"];\n'
                       '  3 [label="3"];\n  1 -- 2;\n  1 -- 3;\n}\n')

    def test_with_labeling_file(self, tmp_path):
        g = tmp_path / "p3.gr"
        g.write_text("p 3 2\ne 1 2\ne 2 3\n")
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"n": 3, "labels": [1, 3, 2]}))
        code, out, _ = capture(["export", "--in", str(g), "--labeling", str(lab)])
        assert code == 0 and '2 [label="3"];' in out

    def test_rejects_both_label_sources(self, tmp_path):
        g = tmp_path / "p2.gr"
        g.write_text("p 2 1\ne 1 2\n")
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"n": 2, "labels": [1, 2]}))
        code, _, err = capture(["export", "--in", str(g), "--labeling", str(lab),
                                "--scheme", "auto"])
        assert code == 2


class TestErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"], stdout=io.StringIO(), stderr=io.StringIO()) == 2

    def test_argparse_writes_to_the_given_streams(self, capsys):
        code, out, err = capture(["gen"])
        assert (code, out) == (2, "") and err.startswith("usage: diffcolor gen")
        code, out, err = capture(["bound", "--help"])
        assert (code, err) == (0, "") and out.startswith("usage: diffcolor bound")
        assert capsys.readouterr() == ("", "")

    def test_missing_file(self):
        code, _, err = capture(["bound", "--in", "/nonexistent/x.gr"])
        assert code == 2

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("p 2 1\ne 1 5\n")
        code, _, err = capture(["bound", "--in", str(path)])
        assert code == 2 and "line 2" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    @pytest.mark.parametrize("text, line_no", [
        ("p 2 1\ne 1 {}\n", 2), ("p {} 0\n", 1)], ids=["edge", "header"])
    def test_over_long_number_names_its_line(self, tmp_path, text, line_no):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.gr"
        path.write_text(text.format("1" * (limit + 1)))
        message = f"error: line {line_no}: number with more than {limit} digits\n"
        assert capture(["bound", "--in", str(path)]) == (2, "", message)

    def test_edgeless_header_rejected_without_traversal(self, tmp_path):
        path = tmp_path / "edgeless.gr"
        path.write_text("p 1000000 0\n")
        code, out, err = capture(["bound", "--in", str(path)])
        assert (code, out, err) == (2, "", "error: input graph is disconnected\n")

    @pytest.mark.parametrize("text, message", [
        ("p 3 2\ne 1 2\np 3 2\n", "line 3: duplicate header"),
        ("", "line 1: missing header"),
        ("c only a comment\n", "line 1: missing header"),
    ], ids=["duplicate", "empty", "comment-only"])
    def test_header_errors(self, tmp_path, text, message):
        path = tmp_path / "bad.gr"
        path.write_text(text)
        assert capture(["bound", "--in", str(path)]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--family", "cat"], "cat requires --leg-list"),
        (["--family", "spider"], "spider requires --paths"),
        (["--family", "sec53"], "sec53 requires --k and --delta"),
        (["--family", "sec53", "--k", "0", "--delta", "1"], "sec53 requires k >= 1 and delta >= 1"),
        (["--family", "cat", "--leg-list", "1,x"],
         "malformed --leg-list '1,x': invalid literal for int() with base 10: 'x'"),
        (["--family", "cat", "--leg-list", "1,-1,1"], "leg counts must be non-negative"),
        (["--family", "random-cat", "--seed", "1", "--spine", "0"], "bounds must be positive"),
    ])
    def test_family_flag_errors(self, flags, message):
        assert capture(["label", *flags]) == (2, "", f"error: {message}\n")

    # Each input asks for just over MAX_N vertices and is refused before any
    # allocation of that size (the library's generators: tests/test_graph.py).
    @pytest.mark.parametrize("argv, n", [
        (["gen", "cat", "--leg-list", f"1,{MAX_N},1"], MAX_N + 5),
        (["gen", "sec53", "--k", str(MAX_N // 4), "--delta", "1"], MAX_N + 2),
    ], ids=["cat", "sec53"])
    def test_generator_over_size_limit_exit_3(self, argv, n):
        with small_peak():
            result = capture(argv)
        assert result == (3, "", f"error: n={n} exceeds the vertex limit MAX_N={MAX_N}\n")

    @pytest.mark.parametrize("command", ["export", "exact"])
    def test_header_over_size_limit_exit_3(self, tmp_path, command):
        path = tmp_path / "huge.gr"
        path.write_text(f"p {MAX_N + 1} 0\n")
        extra = ["--limit-n", str(10 * MAX_N)] if command == "exact" else []
        with small_peak():
            result = capture([command, "--in", str(path), *extra])
        assert result == (3, "", f"error: n={MAX_N + 1} exceeds the vertex limit MAX_N={MAX_N}\n")

    @pytest.mark.parametrize("digit", ["\uff11", "\u0661", "\u00b2"])
    def test_non_ascii_digit_rejected(self, tmp_path, digit):
        path = tmp_path / "bad.gr"
        path.write_text(f"p 2 1\ne {digit} 2\n", encoding="utf-8")
        code, _, err = capture(["bound", "--in", str(path)])
        assert code == 2 and "line 2" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_deeply_nested_labeling_rejected(self, tmp_path, command):
        # json's decoder raises RecursionError, not JSONDecodeError, on deep nesting
        g = tmp_path / "p3.gr"
        g.write_text("p 3 2\ne 1 2\ne 2 3\n")
        lab = tmp_path / "lab.json"
        lab.write_text("[" * 5000 + "]" * 5000)
        code, out, err = capture([command, "--in", str(g), "--labeling", str(lab)])
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed labeling file") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "export"])
    @pytest.mark.parametrize("content, reason", [
        pytest.param(b"[" + b"1" * 5000 + b"]", "Exceeds the limit (", marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"),
            reason="int() has no digit limit before Python 3.10.7"), id="long-int"),
        pytest.param(b'{"n": 1, "labels": [1]}\xff', "'utf-8' codec can't decode byte 0xff",
                     id="not-utf-8"),
    ])
    def test_undecodable_labeling_names_the_file(self, tmp_path, command, content, reason):
        g = tmp_path / "p3.gr"
        g.write_text("p 3 2\ne 1 2\ne 2 3\n")
        lab = tmp_path / "lab.json"
        lab.write_bytes(content)
        code, out, err = capture([command, "--in", str(g), "--labeling", str(lab)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed labeling file {lab}: {reason}")
        assert err.count("\n") == 1

    def test_non_utf8_graph_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.gr"
        path.write_bytes(b"c caf\xe9\np 2 1\ne 1 2\n")
        message = (f"error: malformed graph file {path}: 'utf-8' codec can't decode "
                   "byte 0xe9 in position 5: invalid continuation byte\n")
        assert capture(["bound", "--in", str(path)]) == (2, "", message)

    def test_import_skips_process_pool(self):
        # Every subcommand pays for what diffcolor.cli imports. Without site
        # (-S), nothing else has loaded these either: argparse, with gettext,
        # loads only for help and usage errors, random only for random-cat.
        code = ("import io, sys, diffcolor.cli as cli; "
                "heavy = ('concurrent.futures', 'multiprocessing', 'dataclasses', "
                "'inspect', 'argparse', 'gettext', 'random'); "
                "loaded = lambda: sorted(m for m in heavy if m in sys.modules); "
                "print(loaded()); "
                "print(cli.run(['label', '--family', 'spider', '--paths', '2,2'], "
                "stdout=io.StringIO()), loaded()); "
                "print(cli.run(['gen', 'cat', '--leg-list', '1,0,2', '--format', 'x'], "
                "stdout=io.StringIO(), stderr=io.StringIO()), loaded()); "
                "print(cli.run(['--help'], stdout=io.StringIO()), loaded())")
        src = str(Path(diffcolor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n0 []\n2 ['argparse', 'gettext']\n0 ['argparse', 'gettext']\n"

    # Lines argparse reads but the small reader leaves to it: run must print
    # what argparse's namespace makes the handler return, or argparse's own
    # help or usage error.
    @pytest.mark.parametrize("argv", [
        ["bound", "--family", "regular-cat", "--sp", "3", "--legs", "1"],
        ["label", "--family", "cat", "--leg-list", "1,0,2", "--format=plain"],
        ["gen", "random-cat", "--seed", "1", "--seed", "2"],
        ["gen", "random-cat", "--seed", "-1"],
        ["gen", "--spine", "2", "--legs", "2", "regular-cat"],
        ["gen", "--spine", "2", "--legs", "2", "--", "regular-cat"],
        ["label", "--family", "cat", "--help", "--leg-list", "1,0,2"],
        ["gen", "regular-cat", "--spine", "2", "--legs"],
        ["eval", "--in", "g.gr"],
        ["gen"],
        [],
    ], ids=["abbreviation", "flag=value", "repeated-flag", "negative-number", "family-last",
            "double-dash", "help-mid-line", "missing-value", "missing-required", "no-family",
            "empty"])
    def test_reader_declines_to_argparse(self, argv, capsys):
        assert _read_well_formed(argv) is None
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            reference = exc.code, *capsys.readouterr()
        else:
            reference = 0, args.handler(args), ""
        assert capture(argv) == reference

    @pytest.mark.parametrize("argv", [
        ["gen", "regular-cat", "--spine", "2", "--legs", "2"],
        ["label", "--in", "g.gr", "--scheme", "general-cat", "--format", "dot", "--out", "x"],
        ["eval", "--labeling", "l.json", "--in", "g.gr"],
        ["exact", "--family", "spider", "--paths", "2,2", "--limit-n", "9", "--timeout-ms", "0"],
        ["export", "--family", "sec53", "--k", "1", "--delta", "2", "--scheme", "auto"],
        ["compare-mp", "--in", ""],
    ])
    def test_reader_matches_argparse(self, argv):
        args = _read_well_formed(argv)
        assert args is not None and vars(args) == vars(_build_parser().parse_args(argv))


class TestDeterminism:
    def test_identical_argv_identical_output(self):
        argvs = [
            ["gen", "random-cat", "--seed", "99", "--spine", "12", "--legs", "4"],
            ["label", "--family", "cat", "--leg-list", "2,0,1"],
            ["bound", "--family", "spider", "--paths", "2,3"],
        ]
        for argv in argvs:
            assert capture(argv) == capture(argv)

    def test_exact_deterministic_up_to_timing(self):
        a = json.loads(capture(["exact", "--family", "spider", "--paths", "2,2"])[1])
        b = json.loads(capture(["exact", "--family", "spider", "--paths", "2,2"])[1])
        a.pop("millis")
        b.pop("millis")
        assert a == b


# Fuzzed command lines: each flag with values it may take, some of them bad.
# GRAPH, LABELING and MISSING stand for files in a temporary directory.
# --out is left out, since it writes wherever its value points.
SMALL_INTS = ("-1", "0", "1", "2", "3", "x")
VOCABULARY = {
    "--in": ("GRAPH", "LABELING", "MISSING"),
    "--labeling": ("LABELING", "GRAPH", "MISSING"),
    "--family": (*FAMILIES, "tree"),
    "--scheme": ("auto", *SCHEMES, "mp"),
    "--format": ("json", "plain", "dot"),
    "--leg-list": ("1,0,2", "2", "1,x", ""),
    "--paths": ("2,2", "1,3", "3,3,3", "0"),
    "--help": (),
    **{flag: SMALL_INTS for flag in ("--spine", "--legs", "--k", "--delta", "--seed",
                                      "--limit-n", "--timeout-ms")},
}
COMMANDS = ("gen", "label", "eval", "bound", "exact", "compare-mp", "export")
# each family with the flags it needs
FAMILY_FLAGS = {"regular-cat": ["--spine", "2", "--legs", "2"], "cat": ["--leg-list", "1,0,2"],
                "spider": ["--paths", "2,2"], "sec53": ["--k", "1", "--delta", "2"],
                "random-cat": ["--seed", "1", "--spine", "3"]}


@st.composite
def command_lines(draw):
    """A subcommand and up to 8 tokens: an input source or none, then flags,
    each followed by one of its values or by none. Most lines name an input
    source, so that more of them get past that check."""
    command = draw(st.sampled_from(COMMANDS))
    families = [[family, *flags] for family, flags in FAMILY_FLAGS.items()]
    if command == "gen":
        sources = [[], *families]
    else:
        sources = [[], ["--in", "GRAPH"], *(["--family", *family] for family in families)]
    groups = [draw(st.sampled_from(sources)), *draw(st.lists(
        st.sampled_from(sorted(VOCABULARY)).flatmap(
            lambda flag: st.sampled_from([[flag], *([flag, v] for v in VOCABULARY[flag])])),
        max_size=2))]
    return [command, *[token for group in groups for token in group][:8]]


@st.composite
def small_trees(draw):
    """write_graph-style text of a tree with n <= 16, plus up to two edges
    that may repeat one, loop or close a cycle."""
    n = draw(st.integers(1, 16))
    edges = pruefer_to_edges(draw(st.lists(st.integers(0, n - 1), min_size=n - 2,
                                           max_size=n - 2)), n) if n >= 2 else []
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2))
    return "".join([f"p {n} {len(edges)}\n", *(f"e {u + 1} {v + 1}\n" for u, v in edges)])


# header and edge tokens joined by spaces, so no number grows near MAX_N
# unless it is MAX_N + 1, which the header check refuses before any work
GRAPH_TOKENS = ("p", "e", "c", "0", "1", "2", "3", "16", str(MAX_N + 1), "x", "-1",
                "\n", "\r\n")

graph_files = st.one_of(
    small_trees().map(str.encode),
    st.lists(st.sampled_from(GRAPH_TOKENS), max_size=12).map(
        lambda tokens: " ".join(tokens).encode()),
    st.binary(max_size=40))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 18) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "labels", "value"]), inner, max_size=3),
    max_leaves=8)


@st.composite
def labeling_files(draw):
    labels = draw(st.permutations(range(1, draw(st.integers(1, 17)) + 1)))
    obj = draw(st.just({"n": len(labels), "labels": labels}) | json_values)
    return json.dumps(obj)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(command_line=command_lines(), graph=graph_files, labeling=labeling_files())
def test_fuzzed_command_lines_exit_cleanly(fuzz_dir, command_line, graph, labeling):
    (fuzz_dir / "g.gr").write_bytes(graph)
    (fuzz_dir / "lab.json").write_text(labeling, encoding="utf-8")
    paths = {"GRAPH": "g.gr", "LABELING": "lab.json", "MISSING": "missing"}
    argv = [str(fuzz_dir / paths[t]) if t in paths else t for t in command_line]
    if argv[0] == "exact":
        argv += ["--timeout-ms", "200"]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    assert code in (0, 2, 3), argv
    if code:
        assert "error: " in (err.getvalue().splitlines() or [""])[-1], argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


@given(command_line=command_lines())
def test_reader_agrees_with_argparse(command_line):
    # whatever the small reader accepts, argparse reads the same way
    args = _read_well_formed(command_line)
    if args is not None:
        assert vars(args) == vars(_build_parser().parse_args(command_line))
