"""Command-line interface.

    diffcolor gen <family> [flags]        write a graph file
    diffcolor label  (--in F | --family ...) [--scheme S]   run a scheme
    diffcolor eval   --in F --labeling F                    value of a labeling
    diffcolor bound  (--in F | --family ...)                upper bounds
    diffcolor exact  (--in F | --family ...)                exact solver
    diffcolor compare-mp (--in F | --family ...)            bipartition scheme
                                                            vs general scheme
    diffcolor export (--in F | --family ...) [--labeling F | --scheme S]  DOT

Exit codes: 0 success, 2 validation error, 3 size limit (MAX_N vertices, the
exact solver's limit) or exact-solver timeout.
All output is deterministic for identical argv (random generation requires
an explicit --seed).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .bounds import upper_bound_report
from .graph import (SizeLimitError, Tree, check_vertex_count, gen_caterpillar,
                    gen_random_caterpillar, gen_regular_caterpillar, gen_spider,
                    parse_graph, write_graph)
from .labeling import evaluate, labeling_from_json
from .oracle import (DEFAULT_LIMIT_N, OracleLimitError, OracleTimeoutError,
                     exact_dc)
from .schemes import SCHEMES, label_auto, mp_value, run_scheme

FAMILIES = ("regular-cat", "cat", "spider", "sec53", "random-cat")


class CliError(ValueError):
    pass


def _add_family_flags(sp: argparse.ArgumentParser, positional: bool) -> None:
    if positional:
        sp.add_argument("family", choices=FAMILIES)
    else:
        sp.add_argument("--in", dest="in_path")
        sp.add_argument("--family", choices=FAMILIES)
    sp.add_argument("--spine", type=int, help="spine length (max length for random-cat)")
    sp.add_argument("--legs", type=int, help="legs per spine vertex (max for random-cat)")
    sp.add_argument("--leg-list", help="comma-separated per-spine leg counts, e.g. 1,0,2")
    sp.add_argument("--paths", help="comma-separated spider path lengths, e.g. 3,3")
    sp.add_argument("--k", type=int, help="sec53: half spine length (2k+1 spine vertices)")
    sp.add_argument("--delta", type=int, help="sec53: legs per even spine vertex")
    sp.add_argument("--seed", type=int, help="seed for random generation (mandatory)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcolor",
        description="Maximum differential coloring of caterpillars and spiders.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
            ("gen", _cmd_gen, "generate a graph file"),
            ("label", _cmd_label, "run a labeling scheme"),
            ("eval", _cmd_eval, "evaluate a labeling against a graph"),
            ("bound", _cmd_bound, "report upper bounds"),
            ("exact", _cmd_exact, "exact maximum differential value"),
            ("compare-mp", _cmd_compare_mp,
             "bipartition-scheme value vs general caterpillar scheme"),
            ("export", _cmd_export, "DOT export, optionally annotated with labels")):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        if name != "eval":  # eval reads its graph from --in alone
            _add_family_flags(sp, positional=name == "gen")
    command = sub.choices
    command["label"].add_argument("--scheme", choices=("auto", *SCHEMES), default="auto")
    command["label"].add_argument("--format", choices=("json", "plain", "dot"), default="json")
    command["eval"].add_argument("--in", dest="in_path", required=True)
    command["eval"].add_argument("--labeling", required=True)
    command["exact"].add_argument("--limit-n", type=int, default=DEFAULT_LIMIT_N)
    command["exact"].add_argument("--timeout-ms", type=int)
    command["export"].add_argument("--labeling")
    command["export"].add_argument("--scheme", choices=("auto", *SCHEMES))
    # the shared flags come last, so each subcommand's help lists them last
    for name in ("eval", "bound", "exact"):
        command[name].add_argument("--format", choices=("json", "plain"), default="json")
    for sp in command.values():
        sp.add_argument("--out")
    return parser


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"malformed {what} {text!r}: {exc}") from exc


def _generate(args: argparse.Namespace) -> Tree:
    family = args.family
    if family == "regular-cat":
        if args.spine is None or args.legs is None:
            raise CliError("regular-cat requires --spine and --legs")
        return gen_regular_caterpillar(args.spine, args.legs)[0]
    if family == "cat":
        if args.leg_list is None:
            raise CliError("cat requires --leg-list")
        return gen_caterpillar(_parse_int_list(args.leg_list, "--leg-list"))[0]
    if family == "spider":
        if args.paths is None:
            raise CliError("spider requires --paths")
        return gen_spider(_parse_int_list(args.paths, "--paths"))[0]
    if family == "sec53":
        if args.k is None or args.delta is None:
            raise CliError("sec53 requires --k and --delta")
        if args.k < 1 or args.delta < 1:
            raise CliError("sec53 requires k >= 1 and delta >= 1")
        check_vertex_count(args.k * (args.delta + 3) + 2)  # 2k + 1 spine, k + 1 + k * delta legs
        counts = [1 if i % 2 == 0 else args.delta for i in range(2 * args.k + 1)]
        return gen_caterpillar(counts)[0]
    if family == "random-cat":
        if args.seed is None:
            raise CliError("random generation requires --seed for reproducibility")
        maxima = {"max_spine": args.spine, "max_legs": args.legs}
        return gen_random_caterpillar(
            random.Random(args.seed), **{k: v for k, v in maxima.items() if v is not None})[0]


def _resolve_tree(args: argparse.Namespace) -> Tree:
    has_in = getattr(args, "in_path", None) is not None
    has_family = getattr(args, "family", None) is not None
    if has_in == has_family:
        raise CliError("exactly one input source required: --in FILE or --family NAME")
    if has_in:
        with open(args.in_path, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    return _generate(args)


def _read_labeling(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
            raise CliError(f"malformed labeling file {path}: {exc}") from exc
    return labeling_from_json(obj)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _plain_pairs(labels) -> str:
    return "".join(f"{v + 1} {x}\n" for v, x in enumerate(labels))


def to_dot(t: Tree, labels=None) -> str:
    """DOT text; node name = 1-based vertex id, displayed text = its label."""
    lines = ["graph G {"]
    for v in range(t.n):
        if labels is None:
            lines.append(f"  {v + 1};")
        else:
            lines.append(f'  {v + 1} [label="{labels[v]}"];')
    lines.extend(f"  {u + 1} -- {v + 1};" for u, v in t.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _run_scheme(t: Tree, name: str):
    return label_auto(t) if name == "auto" else run_scheme(t, name)


def _cmd_gen(args) -> str:
    return write_graph(_generate(args))


def _cmd_label(args) -> str:
    tree = _resolve_tree(args)
    result = _run_scheme(tree, args.scheme)
    if args.format == "json":
        return _json_text(result.to_json())
    if args.format == "plain":
        return _plain_pairs(result.labeling.labeling.labels)
    return to_dot(tree, result.labeling.labeling.labels)


def _cmd_eval(args) -> str:
    evaluated = evaluate(_resolve_tree(args), _read_labeling(args.labeling))
    if args.format == "json":
        return _json_text(evaluated.to_json())
    return f"{evaluated.value}\n"


def _cmd_bound(args) -> str:
    report = upper_bound_report(_resolve_tree(args))
    if args.format == "json":
        return _json_text(report.to_json())
    lines = "".join(f"{name} {value}\n" for name, value in report.entries)
    return lines + f"best {report.best}\n"


def _cmd_exact(args) -> str:
    result = exact_dc(_resolve_tree(args), limit_n=args.limit_n,
                      timeout_ms=args.timeout_ms)
    if args.format == "json":
        return _json_text(result.to_json())
    return f"dc {result.dc}\n" + _plain_pairs(result.witness.labels)


def _cmd_compare_mp(args) -> str:
    tree = _resolve_tree(args)
    result = run_scheme(tree, "general-cat")
    payload = {
        "n": tree.n,
        "mp": mp_value(tree),
        "scheme_value": result.value,
        "scheme_guarantee": result.guarantee,
        "bound_best": upper_bound_report(tree).best,
    }
    return _json_text(payload)


def _cmd_export(args) -> str:
    tree = _resolve_tree(args)
    if args.labeling is not None and args.scheme is not None:
        raise CliError("give either --labeling or --scheme, not both")
    labels = None
    if args.labeling is not None:
        labeling = _read_labeling(args.labeling)
        evaluate(tree, labeling)  # validates against the graph
        labels = labeling.labels
    elif args.scheme is not None:
        labels = _run_scheme(tree, args.scheme).labeling.labeling.labels
    return to_dot(tree, labels)


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one command line; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr  # where argparse prints help and usage errors
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    finally:
        sys.stdout, sys.stderr = saved
    try:
        text = args.handler(args)
        if args.out is None:
            stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=stderr)
        return 2
    except (SizeLimitError, OracleLimitError, OracleTimeoutError) as exc:
        print(f"error: {exc}", file=stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
