"""Seeded inputs, timed items, output checks and layer probes for the
diffcolor benchmark. `run.py` is the entry point; this module expects
`diffcolor` to be importable (run.py puts `src/` on the path).

Workloads (closed loops with one caller; the seed makes every input):
  large-trees  96 trees of n = 2e3..2.5e4 read from graph-file text, each
               parsed, labeled by label_auto, bounded, compared with mp_value
               and serialized to JSON; sizes are stratified (see large_trees).
               Oracle-free; the two quadratic schemes make the tail.
  cli-small    sequential `python -m diffcolor.cli` subprocesses cycling
               through the seven subcommands on small files written in setup
               (n <= ~300, `exact` on n <= 10); start-up and import dominate.
  exact-small  uniform random labeled trees (Pruefer), n = 12, 13, 14 cycled,
               solved by exact_dc. Only the traced oracle probe uses them. Solve
               times span 1 ms to 8 s, so the ~100 trees a run can solve give
               an items/s that differs by 20-35% (quartile spread over median)
               between seeds, even when sampled stratified by n and by the
               bound gap; no end-to-end bound could hold on that.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import math
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from diffcolor import (Tree, decision_dc_at_least, differential_value,
                       exact_dc, gen_caterpillar, gen_random_caterpillar,
                       gen_spider, is_valid_labeling, label_auto,
                       label_general_caterpillar, label_regular_caterpillar,
                       label_spider_all_even, label_spider_all_odd, mp_value,
                       parse_graph, recognize_caterpillar, recognize_spider,
                       upper_bound_report, write_graph)
from diffcolor import cli

LARGE_FAMILIES = ("regular-cat", "sec53", "legless-cat", "even-spider",
                  "odd-spider", "short-spider")
LARGE_STRATA = 16  # size strata per family, a power of two
LARGE_COUNT = LARGE_STRATA * len(LARGE_FAMILIES)
LARGE_N = (2000, 25000)

EXACT_NS = (12, 13, 14)
CLI_COMMANDS = ("gen", "label", "eval", "bound", "exact", "compare-mp", "export")
CLI_COUNT = 84  # twelve rounds of the seven subcommands

# Scheme name (SchemeResult.scheme) -> span name, direct call, shape source,
# and the large-trees family whose calls fit the scheme's exponent.
SCHEMES = {
    "regular-cat": ("schemes.regular_cat", label_regular_caterpillar, "cat", "regular-cat"),
    "general-cat": ("schemes.general_cat", label_general_caterpillar, "cat", "legless-cat"),
    "spider-even": ("schemes.spider_even", label_spider_all_even, "spider", "even-spider"),
    "spider-odd": ("schemes.spider_odd", label_spider_all_odd, "spider", "odd-spider"),
}

_MILLIS = re.compile(rb'"millis": \d+')


class CheckError(Exception):
    """An item's output is wrong."""


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _relabel(rng: random.Random, tree: Tree) -> Tree:
    perm = list(range(tree.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in tree.edges]
    rng.shuffle(edges)
    return Tree(tree.n, tuple(edges))


def _arm_lengths(rng: random.Random, n: int, p: int, parity: int) -> list[int]:
    """p long arms of one parity whose lengths sum to about n - 1."""
    lengths = []
    for _ in range(p):
        x = max(2 - parity, int((n - 1) / p * rng.uniform(0.75, 1.25)))
        lengths.append(x + (x % 2 != parity))
    return lengths


def _large_tree(rng: random.Random, family: str, n: int, j: int) -> Tree:
    """The j-th tree of a family; shape parameters cycle with j so that every
    seed gets the same mix of them."""
    if family == "regular-cat":
        delta = 1 + j % 8
        return gen_caterpillar([delta] * (n // (delta + 1)))[0]
    if family == "sec53":
        delta = 2 + j % 7
        k = (n - 2) // (delta + 3)
        return gen_caterpillar([1 if i % 2 == 0 else delta for i in range(2 * k + 1)])[0]
    if family == "legless-cat":
        interior = [0 if rng.random() < 0.5 else rng.randint(1, 4)
                    for _ in range(int(n / 2.25) - 2)]
        return gen_caterpillar([rng.randint(1, 4), *interior, rng.randint(1, 4)])[0]
    if family == "even-spider":
        return gen_spider(_arm_lengths(rng, n, 3 + j % 4, 0))[0]
    if family == "odd-spider":
        return gen_spider(_arm_lengths(rng, n, 3 + j % 4, 1))[0]
    return gen_spider([2] * ((n - 1) // 2))[0]


def large_trees(seed: int, count: int = LARGE_COUNT) -> list[tuple[str, int, str]]:
    """(family, n, graph text) per item; a smaller count gives a prefix.

    Families cycle. The j-th tree of a family takes log n from the middle
    fifth of stratum bitrev(j) of LARGE_STRATA equal strata of
    [log 2e3, log 2.5e4]: every seed gets nearly the same size mix, which
    keeps the quadratic tail steady across seeds, and any prefix of the list,
    such as a run that stops mid-list, covers the size range evenly.
    """
    rng = random.Random(seed)
    lo, hi = LARGE_N
    bits = LARGE_STRATA.bit_length() - 1
    items = []
    for i in range(count):
        f, j = i % len(LARGE_FAMILIES), i // len(LARGE_FAMILIES)
        stratum = int(f"{j % LARGE_STRATA:0{bits}b}"[::-1], 2)
        n = round(lo * (hi / lo) ** ((stratum + rng.uniform(0.4, 0.6)) / LARGE_STRATA))
        tree = _relabel(rng, _large_tree(rng, LARGE_FAMILIES[f], n, j))
        items.append((LARGE_FAMILIES[f], tree.n, write_graph(tree)))
    return items


def pruefer_tree(rng: random.Random, n: int) -> Tree:
    """Uniform random labeled tree on n >= 2 vertices."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(n, tuple(edges))


def exact_small(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [write_graph(pruefer_tree(rng, EXACT_NS[i % len(EXACT_NS)]))
            for i in range(count)]


def _small_tree(rng: random.Random, i: int) -> Tree:
    """A tree with n <= ~300 that some scheme labels."""
    kind = i % 4
    if kind == 0:
        tree = gen_random_caterpillar(rng, 40, 6)[0]
    elif kind == 1:
        tree = gen_caterpillar([rng.randint(1, 6)] * rng.randint(1, 40))[0]
    else:
        lengths = [rng.randint(1, 15) for _ in range(rng.randint(3, 8))]
        tree = gen_spider([x + (x % 2 != kind % 2) for x in lengths])[0]
    return _relabel(rng, tree)


def cli_small(seed: int, workdir: Path) -> tuple[list[list[str]], str]:
    """Write the input files into workdir (a path relative to the directory
    the commands run in); returns the argv list and the inputs' digest."""
    rng = random.Random(seed)
    argvs, files = [], []
    for i in range(CLI_COUNT):
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        if cmd == "gen":
            argvs.append(["gen", "random-cat", "--seed", str(rng.randrange(10**6)),
                          "--spine", "40", "--legs", "6"])
            continue
        if cmd == "exact":
            tree = pruefer_tree(rng, rng.randint(8, 10))
        elif cmd == "compare-mp":
            tree = _relabel(rng, gen_random_caterpillar(rng, 40, 6)[0])
        else:
            tree = _small_tree(rng, i)
        graph = workdir / f"{i:03d}-{cmd}.graph"
        files.append((graph, write_graph(tree)))
        argv = [cmd, "--in", str(graph)]
        if cmd == "eval":
            labels = list(range(1, tree.n + 1))
            rng.shuffle(labels)
            labeling = workdir / f"{i:03d}-{cmd}.json"
            files.append((labeling, json.dumps({"n": tree.n, "labels": labels})))
            argv += ["--labeling", str(labeling)]
        elif cmd == "export":
            argv += ["--scheme", "auto"]
        argvs.append(argv)
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in files:
        path.write_text(text, encoding="utf-8")
    return argvs, digest([" ".join(a) for a in argvs] + [t for _, t in files])


# ----------------------------------------------------------------- items

def run_large(text: str):
    tree = parse_graph(text)
    result = label_auto(tree)
    report = upper_bound_report(tree)
    mp = mp_value(tree)
    out = json.dumps({"scheme": result.to_json(), "bounds": report.to_json(), "mp": mp})
    return tree, result, report, mp, out


def check_large(tree, result, report, mp) -> None:
    labeling = result.labeling.labeling
    ok, why = is_valid_labeling(tree, labeling)
    if not ok:
        raise CheckError(f"{result.scheme}: not a bijection: {why}")
    value = differential_value(tree, labeling)
    if value != result.value:
        raise CheckError(f"{result.scheme}: reports {result.value}, recomputed {value}")
    if not result.guarantee <= value <= report.best:
        raise CheckError(f"{result.scheme}: value {value} outside "
                         f"[{result.guarantee}, {report.best}]")
    if mp > report.best:
        raise CheckError(f"mp_value {mp} above the best bound {report.best}")


def check_exact(tree, result) -> None:
    value = differential_value(tree, result.witness)
    if value != result.dc:
        raise CheckError(f"witness has value {value}, dc is {result.dc}")
    lower = mp_value(tree)
    try:
        lower = max(lower, label_auto(tree).value)
    except ValueError:  # no scheme applies to this tree
        pass
    best = upper_bound_report(tree).best
    if not lower <= result.dc <= best:
        raise CheckError(f"dc {result.dc} outside [{lower}, {best}]")


def run_cli(argv: list[str], env: dict, root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "diffcolor.cli", *argv],
                          capture_output=True, env=env, cwd=root, timeout=60)


def check_cli(argv: list[str], proc: subprocess.CompletedProcess) -> float:
    """Compare with the in-process run of the same argv (exact's millis
    aside); returns the in-process run's seconds."""
    if proc.returncode != 0:
        raise CheckError(f"{argv[0]}: exit {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()[-200:]}")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cli.run(argv, stdout=out, stderr=err)
    seconds = time.perf_counter() - start
    if code != 0:
        raise CheckError(f"{argv[0]}: in-process exit {code}: {err.getvalue().strip()}")
    want, got = out.getvalue().encode(), proc.stdout
    if argv[0] == "exact":
        want, got = _MILLIS.sub(b"", want), _MILLIS.sub(b"", got)
    if want != got:
        raise CheckError(f"{argv[0]}: subprocess stdout differs from cli.run")
    return seconds


# ---------------------------------------------------------------- tracing

class Spans:
    """Per-layer call records: name -> [(n, seconds, tag)]."""

    def __init__(self):
        self.calls: dict[str, list[tuple[int, float, str]]] = {}

    def time(self, name: str, n: int, tag: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.calls.setdefault(name, []).append((n, time.perf_counter() - start, tag))
        return out

    def total(self, name: str) -> float:
        return sum(s for _, s, _ in self.calls.get(name, ()))

    def work(self) -> dict:
        return {name: {"calls": len(c), "vertices": sum(n for n, _, _ in c)}
                for name, c in sorted(self.calls.items())}

    def exponent(self, name: str, tag: str | None = None) -> float:
        """Least-squares slope of log(seconds) against log(n)."""
        pts = [(math.log(n), math.log(s)) for n, s, t in self.calls.get(name, ())
               if tag is None or t == tag]
        if len({x for x, _ in pts}) < 2:
            raise CheckError(f"{name}: too few sizes to fit an exponent")
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        return (sum((x - mx) * (y - my) for x, y in pts)
                / sum((x - mx) ** 2 for x, _ in pts))


def trace_large(spans: Spans, item) -> None:
    """Time each layer's public function on one large-trees item."""
    family, n, text = item
    tree = spans.time("graph.parse", n, family, parse_graph, text)
    shapes = {"cat": spans.time("graph.recognize_caterpillar", n, family,
                                recognize_caterpillar, tree),
              "spider": spans.time("graph.recognize_spider", n, family,
                                   recognize_spider, tree)}
    result = spans.time("schemes.label_auto", n, family, label_auto, tree)
    name, scheme, source, _ = SCHEMES[result.scheme]
    direct = spans.time(name, n, family, scheme, shapes[source])
    report = spans.time("bounds.report", n, family, upper_bound_report, tree)
    mp = spans.time("schemes.mp_value", n, family, mp_value, tree)
    spans.time("labeling.differential_value", n, family, differential_value,
               tree, direct.labeling.labeling)
    spans.time("graph.write", n, family, write_graph, tree)
    if direct.labeling != result.labeling:
        raise CheckError(f"{name}: direct call differs from label_auto")
    check_large(tree, result, report, mp)


def trace_oracle(spans: Spans, text: str) -> tuple[int, int]:
    """exact_dc on one tree, then decision_dc_at_least at every d from the
    best upper bound down to dc. Returns (search nodes, infeasible decisions)."""
    tree = parse_graph(text)
    result = spans.time("oracle.exact", tree.n, "", exact_dc, tree)
    best = upper_bound_report(tree).best
    for d in range(best, result.dc - 1, -1):
        feasible = d == result.dc
        name = "oracle.feasible_decision" if feasible else "oracle.infeasible_decision"
        witness = spans.time(name, tree.n, "", decision_dc_at_least, tree, d)
        if (witness is not None) != feasible:
            raise CheckError(f"decision at d={d} disagrees with dc={result.dc}")
    check_exact(tree, result)
    return result.nodes, best - result.dc


def trace_cli(spans: Spans, argv: list[str], env: dict, root: Path) -> float:
    """Time one subcommand as a subprocess; returns the in-process seconds."""
    proc = spans.time(f"cli.{argv[0]}", 0, "", run_cli, argv, env, root)
    return check_cli(argv, proc)


def interpreter_seconds(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def import_ms(env: dict) -> float:
    """Cumulative `-X importtime` of diffcolor.cli, which includes the package."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import diffcolor.cli"],
                          capture_output=True, text=True, env=env, check=True, timeout=60)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "diffcolor.cli":
            return int(fields[1]) / 1000
    raise CheckError("no importtime line for diffcolor.cli")
