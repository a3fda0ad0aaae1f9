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
an explicit --seed), except exact's millis, which is wall-clock time.

Each subcommand's flags are declared once, in _COMMANDS. A well-formed
command line is read from that table directly; argparse, built from the same
table, is imported only for --help, usage errors and the spellings the small
reader leaves to it (see _read_well_formed).
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"malformed {what} {text!r}: {exc}") from exc


def _generate(args) -> Tree:
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
        import random  # only this family draws

        maxima = {"max_spine": args.spine, "max_legs": args.legs}
        return gen_random_caterpillar(
            random.Random(args.seed), **{k: v for k, v in maxima.items() if v is not None})[0]


def _resolve_tree(args) -> Tree:
    has_in = getattr(args, "in_path", None) is not None
    has_family = getattr(args, "family", None) is not None
    if has_in == has_family:
        raise CliError("exactly one input source required: --in FILE or --family NAME")
    if has_in:
        with open(args.in_path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise CliError(f"malformed graph file {args.in_path}: {exc}") from exc
        return parse_graph(text)
    return _generate(args)


def _read_labeling(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        # bad JSON or UTF-8, an int longer than int() reads, or deep nesting
        except (ValueError, RecursionError) as exc:
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
    lines.extend(f"  {u + 1} -- {v + 1};" for u, v in t._pairs())
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


def _flag(option, kind=str, choices=None, default=None, required=False, help=None):
    """One row of a subcommand's flag table; an option without dashes is positional."""
    dest = "in_path" if option == "--in" else option.lstrip("-").replace("-", "_")
    return option, dest, kind, choices, default, required, help


_SOURCE = (_flag("--in"), _flag("--family", choices=FAMILIES))
_SHAPE = (
    _flag("--spine", int, help="spine length (max length for random-cat)"),
    _flag("--legs", int, help="legs per spine vertex (max for random-cat)"),
    _flag("--leg-list", help="comma-separated per-spine leg counts, e.g. 1,0,2"),
    _flag("--paths", help="comma-separated spider path lengths, e.g. 3,3"),
    _flag("--k", int, help="sec53: half spine length (2k+1 spine vertices)"),
    _flag("--delta", int, help="sec53: legs per even spine vertex"),
    _flag("--seed", int, help="seed for random generation (mandatory)"))
_FORMAT = _flag("--format", choices=("json", "plain"), default="json")
_OUT = _flag("--out")

# Each subcommand: its handler, its help line and its flags in help order.
# Both readers of a command line, _read_well_formed and _build_parser, read
# this table and nothing else.
_COMMANDS = {
    "gen": (_cmd_gen, "generate a graph file",
            (_flag("family", choices=FAMILIES), *_SHAPE, _OUT)),
    "label": (_cmd_label, "run a labeling scheme", (
        *_SOURCE, *_SHAPE, _flag("--scheme", choices=("auto", *SCHEMES), default="auto"),
        _flag("--format", choices=("json", "plain", "dot"), default="json"), _OUT)),
    "eval": (_cmd_eval, "evaluate a labeling against a graph", (
        _flag("--in", required=True), _flag("--labeling", required=True), _FORMAT, _OUT)),
    "bound": (_cmd_bound, "report upper bounds", (*_SOURCE, *_SHAPE, _FORMAT, _OUT)),
    "exact": (_cmd_exact, "exact maximum differential value", (
        *_SOURCE, *_SHAPE, _flag("--limit-n", int, default=DEFAULT_LIMIT_N),
        _flag("--timeout-ms", int), _FORMAT, _OUT)),
    "compare-mp": (_cmd_compare_mp, "bipartition-scheme value vs general caterpillar scheme",
                   (*_SOURCE, *_SHAPE, _OUT)),
    "export": (_cmd_export, "DOT export, optionally annotated with labels", (
        *_SOURCE, *_SHAPE, _flag("--labeling"), _flag("--scheme", choices=("auto", *SCHEMES)),
        _OUT)),
}


def _read_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of argv, when argv is a subcommand, its
    positional (gen's family) and then exact flag names, each at most once
    and each followed by a value that does not start with "-" and passes
    the flag's type and choices, with every required flag given. Anything
    else (help, usage errors, abbreviations, "--flag=value", repeats,
    negative numbers, "--") returns None and is left to argparse."""
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None:
        return None
    handler, _, flags = row
    positional = [flag for flag in flags if flag[0][0] != "-"]
    named = {flag[0]: flag for flag in flags if flag[0][0] == "-"}
    tokens = argv[1:]
    rest = tokens[len(positional):]
    if len(tokens) < len(positional) or len(rest) % 2:
        return None
    given = list(zip(positional, tokens))
    for option, value in zip(rest[::2], rest[1::2]):
        flag = named.pop(option, None)  # popped, so a repeated flag is not found
        if flag is None:
            return None
        given.append((flag, value))
    args = {"command": argv[0], "handler": handler}
    args.update((dest, default) for _, dest, _, _, default, _, _ in flags)
    for (_, dest, kind, choices, _, _, _), value in given:
        if value[:1] == "-":
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    if any(required for _, _, _, _, _, required, _ in named.values()):  # not given
        return None
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser of the same table: the source of help text and
    usage errors, imported only when _read_well_formed declines a line."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="diffcolor",
        description="Maximum differential coloring of caterpillars and spiders.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        for option, dest, kind, choices, default, required, help in flags:
            if option[0] == "-":
                sp.add_argument(option, dest=dest, type=kind, choices=choices,
                                default=default, required=required, help=help)
            else:
                sp.add_argument(option, type=kind, choices=choices, help=help)
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one command line; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = list(argv)
    args = _read_well_formed(argv)
    if args is None:
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = stdout, stderr  # where argparse prints help and usage errors
        try:
            args = _build_parser().parse_args(argv)
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
