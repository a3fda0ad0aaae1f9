#!/usr/bin/env python3
"""Benchmark of the diffcolor package.

    python3 perfbench/run.py --workload large-trees --seed 1 --seconds 20 --trace 0

Needs no installation: the package is imported from src/, and bytecode is
cached under perfbench/.work/pycache, never in src/. One process runs at a
time, with at most one child process (the cli-small subcommands).

--trace 0 runs one end-to-end workload of BENCHMARK.json for --seconds of
busy time, checking every item's output, and reports its end_to_end metrics.
--trace 1 runs the layer probes instead and reports the per_layer metrics;
each layer is probed on the inputs of the workload it serves (see MOVES), so
every traced run reports every layer. The probes are fixed lists, not timed
loops, so their counts (oracle.nodes) repeat exactly for a seed. The last
stdout line is the JSON result; the line before it holds the run's metadata
(input digests, src/ line count, Python, nproc, and in traced runs the
tracing overhead and each layer's calls and vertices).

Times are scaled to a reference CPU speed. A shared host's speed drifts by a
third within minutes, which would swamp the differences between commits, so
a run times a fixed pure-Python loop after every item and multiplies every
reported time by REFERENCE_S / (mean loop time); rates are divided by it.
The metadata line gives the mean loop time (calibration_ms), from which the
raw times follow.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path("perfbench") / ".work"  # relative to ROOT, the working directory
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
PROBE_LARGE = 48   # first items of large-trees: eight per family, n up to 2e4
PROBE_EXACT = 30   # Pruefer trees, ten each of n = 12, 13, 14
PROBE_CLI = 35     # first argvs of cli-small: five per subcommand
PROBE_REPEATS = 5  # bare interpreter starts and import timings
CALIBRATION_LOOPS = 160_000
REFERENCE_S = 0.010  # calibration loop time on the reference CPU

LARGE = "items_per_s, item_ms_p50 on large-trees"
# The end-to-end metric and workload each per-layer metric should move.
MOVES = {
    "graph.parse_s": LARGE,
    "graph.recognize_caterpillar_s": LARGE,
    "graph.recognize_spider_s": LARGE,
    "graph.write_s": "setup_s on large-trees, item_ms_p50 on cli-small",
    "graph.parse_exp": LARGE,
    "labeling.differential_value_s": "items_per_s on large-trees",
    "schemes.label_auto_s": "items_per_s on large-trees",
    "schemes.regular_cat_s": "item_ms_p90 on large-trees",
    "schemes.general_cat_s": "item_ms_p90 on large-trees",
    "schemes.spider_even_s": "item_ms_p90 on large-trees",
    "schemes.spider_odd_s": "item_ms_p90 on large-trees",
    "schemes.mp_value_s": "items_per_s on large-trees",
    "schemes.regular_cat_exp": "item_ms_p90 on large-trees",
    "schemes.general_cat_exp": "item_ms_p90 on large-trees",
    "schemes.spider_even_exp": "item_ms_p90 on large-trees",
    "schemes.spider_odd_exp": "item_ms_p90 on large-trees",
    "bounds.report_s": "items_per_s on large-trees",
    "bounds.report_exp": "items_per_s on large-trees",
    "cli.interpreter_ms": "nothing: the start-up floor of cli-small",
    "cli.import_ms": "item_ms_p50 on cli-small",
    "cli.run_ms": "item_ms_p50 on cli-small",
}
MOVES.update({f"cli.{cmd}_ms_p50": "item_ms_p50 on cli-small"
              for cmd in ("gen", "label", "eval", "bound", "exact", "compare-mp", "export")})
# exact-small is no end-to-end workload (see bench.py); its oracle probe is
# the measure, and cli-small's `exact` calls carry the oracle end to end.
MOVES.update({f"oracle.{m}": "oracle time on exact-small inputs; item_ms_p50 on cli-small"
              for m in ("exact_s", "nodes", "nodes_per_s", "infeasible_decisions",
                        "infeasible_decision_s", "feasible_decision_s")})


class Speed:
    """Samples the calibration loop; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i
        self.samples.append(time.perf_counter() - start)

    @property
    def factor(self) -> float:
        # The loop time is bimodal on a shared host (two speeds, switching
        # within seconds); the mean follows the mix where a median would jump.
        return REFERENCE_S / statistics.fmean(self.samples)


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONPYCACHEPREFIX=str(ROOT / WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _attempt(failures: list[str], fn, *args):
    """Run one item; a raised error becomes a counted failure, not an abort."""
    try:
        return fn(*args)
    except Exception as exc:  # any failing item is reported and counted
        failures.append(f"{type(exc).__name__}: {exc}")
        return None


def _setup(speed: Speed, build) -> tuple[object, float, str]:
    """Build the inputs at least SETUP_REPEATS times and for SETUP_SECONDS:
    (inputs, median seconds, digest)."""
    seconds, digests, inputs = [], set(), None
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_SECONDS:
        inputs = None  # drop the previous copy so peak RSS holds one
        start = time.perf_counter()
        inputs, digest = build()
        seconds.append(time.perf_counter() - start)
        digests.add(digest)
        speed.sample()
    if len(digests) != 1:
        raise RuntimeError("the same seed built different inputs")
    return inputs, statistics.median(seconds), digest


def _measure(speed: Speed, items, run, check,
             seconds: float) -> tuple[list[float], list[str]]:
    """Closed loop of whole passes over the items until at least `seconds`
    of busy time at the reference speed: every run then weighs each item
    alike, whatever the host's speed. Each output is checked between items,
    outside the timing."""
    latencies, failures, busy, i = [], [], 0.0, 0
    while busy * speed.factor < seconds or i % len(items):
        item = items[i % len(items)]
        i += 1
        start = time.perf_counter()
        out = _attempt(failures, run, item)
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        busy += elapsed
        if out is not None:
            _attempt(failures, check, item, out)
        speed.sample()
    return latencies, failures


def _end_to_end(latencies: list[float], setup_s: float, peak_kib: int) -> dict:
    return {"setup_s": setup_s,
            "items_per_s": len(latencies) / sum(latencies),
            "item_ms_p50": statistics.median(latencies) * 1e3,
            "item_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "peak_rss_mib": peak_kib / 1024}


def run_large_trees(bench, args, speed: Speed):
    def build():
        items = bench.large_trees(args.seed)
        return items, bench.digest(text for _, _, text in items)

    items, setup_s, digest = _setup(speed, build)
    latencies, failures = _measure(speed, items, lambda item: bench.run_large(item[2]),
                                   lambda item, out: bench.check_large(*out[:4]),
                                   args.seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (_end_to_end(latencies, setup_s, peak), len(latencies), failures,
            {"input_digest": {"large-trees": digest}})


def run_cli_small(bench, args, speed: Speed):
    workdir = WORK / "cli-small"
    env = _env()
    try:
        argvs, setup_s, digest = _setup(speed, lambda: bench.cli_small(args.seed, workdir))
        bench.run_cli(argvs[0], env, ROOT)  # warm-up: fills the bytecode cache
        latencies, failures = _measure(speed, argvs, lambda argv: bench.run_cli(argv, env, ROOT),
                                       bench.check_cli, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (_end_to_end(latencies, setup_s, peak), len(latencies), failures,
            {"input_digest": {"cli-small": digest}})


def run_traced(bench, args, speed: Speed):
    """Every layer probe, each on its own workload's inputs for this seed."""
    env = _env()
    workdir = WORK / "cli-small"
    large = bench.large_trees(args.seed, PROBE_LARGE)
    exact = bench.exact_small(args.seed, PROBE_EXACT)
    spans, failures = bench.Spans(), []
    try:
        argvs, cli_digest = bench.cli_small(args.seed, workdir)
        argvs = argvs[:PROBE_CLI]
        bench.run_cli(argvs[0], env, ROOT)  # warm-up: fills the bytecode cache

        untraced = {"large-trees": lambda: [bench.run_large(text) for _, _, text in large],
                    "cli-small": lambda: [bench.run_cli(argv, env, ROOT) for argv in argvs]}
        start = time.perf_counter()
        untraced[args.workload]()
        untraced_s = time.perf_counter() - start

        walls = {}
        start = time.perf_counter()
        for item in large:
            _attempt(failures, bench.trace_large, spans, item)
            speed.sample()
        walls["large-trees"] = time.perf_counter() - start

        nodes = infeasible = 0
        for text in exact:
            out = _attempt(failures, bench.trace_oracle, spans, text)
            if out is not None:
                nodes += out[0]
                infeasible += out[1]
            speed.sample()

        interpreter, imports, runs = [], [], []
        for _ in range(PROBE_REPEATS):
            interpreter.append(bench.interpreter_seconds(env))
            imports.append(bench.import_ms(env))
            speed.sample()
        start = time.perf_counter()
        for argv in argvs:
            runs.append(_attempt(failures, bench.trace_cli, spans, argv, env, ROOT))
            speed.sample()
        walls["cli-small"] = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {f"{name}_s": spans.total(name) for name in spans.calls
               if not name.startswith("cli.")}
    metrics["graph.parse_exp"] = spans.exponent("graph.parse")
    metrics["bounds.report_exp"] = spans.exponent("bounds.report")
    for name, _, _, family in bench.SCHEMES.values():
        metrics[f"{name}_exp"] = spans.exponent(name, family)
    metrics["oracle.nodes"] = nodes
    metrics["oracle.nodes_per_s"] = nodes / metrics["oracle.exact_s"]
    metrics["oracle.infeasible_decisions"] = infeasible
    metrics["cli.interpreter_ms"] = statistics.median(interpreter) * 1e3
    metrics["cli.import_ms"] = statistics.median(imports)
    metrics["cli.run_ms"] = statistics.median(r for r in runs if r is not None) * 1e3
    for cmd in bench.CLI_COMMANDS:
        metrics[f"cli.{cmd}_ms_p50"] = statistics.median(
            s for _, s, _ in spans.calls[f"cli.{cmd}"]) * 1e3
    meta = {"input_digest": {
                "large-trees": bench.digest(text for _, _, text in large),
                "exact-small": bench.digest(exact),
                "cli-small": cli_digest},
            "trace_overhead_s": walls[args.workload] - untraced_s,
            "layer_work": spans.work()}
    return metrics, len(large) + len(exact) + len(argvs), failures, meta


def _src_lines() -> int:
    return sum(1 for path in (SRC / "diffcolor").glob("*.py")
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diffcolor" / "__init__.py").is_file():
        print(f"error: {SRC / 'diffcolor'} is missing; run from a diffcolor checkout",
              file=sys.stderr)
        return 2

    os.chdir(ROOT)
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(ROOT / WORK / "pycache")
    sys.path.insert(0, str(SRC))
    import bench  # needs src/ on the path

    runs = {"large-trees": run_large_trees, "cli-small": run_cli_small}
    runner = run_traced if args.trace else runs[args.workload]
    speed = Speed()
    metrics, attempted, failures, meta = runner(bench, args, speed)

    declared = config["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured {sorted(metrics)}, declared {[m['name'] for m in declared]}")
    scale = {"s": speed.factor, "ms": speed.factor, "1/s": 1 / speed.factor}
    metrics = {m["name"]: metrics[m["name"]] * scale.get(m["unit"], 1) for m in declared}
    for message in failures[:20]:
        print(f"failed: {message}", file=sys.stderr)
    for m in declared:
        module = m["name"].split(".")[0] if args.trace else args.workload
        moves = f"  -> {MOVES[m['name']]}" if args.trace else ""
        print(f"{module:12} {m['name']:32} {metrics[m['name']]:14.6g} {m['unit']}{moves}")
    print(f"{'':12} {'fail_ratio':32} {len(failures) / attempted:14.6g} ratio"
          f"  ({len(failures)} of {attempted})")
    meta.update(calibration_ms=REFERENCE_S / speed.factor * 1e3,
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, src_lines=_src_lines(),
                python=platform.python_version(), nproc=len(os.sched_getaffinity(0)))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
