"""recperf benchmark: the real CLI, one child process at a time, on seeded inputs.

Usage:
    python3 bench/run.py --workload sparse_random|dense_crosstable|ladder|all
                         --seed N --seconds S --trace 0|1

Each round runs, as fresh `python -m recperf.cli` processes with
PYTHONPATH=src,

    recperf rank INPUT --format json --clamp-scores --method both
    recperf check INPUT --spectral --format json

in a closed loop with a single client, until another round would overrun
--seconds. Each command runs under bench/peak_rss.py, which writes the
command's own peak RSS when it exits. Every report is checked
(bench/checks.py) against an oracle the benchmark computes itself
(bench/workloads.py). With --trace 1 each round
also runs the same two commands under bench/tracer.py, and the per-layer
metrics come from those spans; the untraced commands give the tracing
overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
lines before it print every metric by name with its unit, the sample
counts, the environment and the input sizes.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import check_problems, load_report, rank_problems
from tracer import summarize
from workloads import (
    ELO_SCALE,
    WORKLOADS,
    input_stats,
    make_schedule,
    oracle_ratings,
    write_input,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
PEAK_RSS = Path(__file__).resolve().parent / "peak_rss.py"

TIE_TOL = 1e-6 * ELO_SCALE  # the CLI's default tie tolerance for the Elo model
HARD_LIMIT_S = 170.0  # per workload, so a hung child cannot hold a run past 180 s
COMMANDS = {
    "rank": ["--format", "json", "--clamp-scores", "--method", "both"],
    "check": ["--spectral", "--format", "json"],
}


@dataclass(frozen=True)
class Exit:
    code: int
    wall_s: float
    rss_mb: float | None = None  # None when the command recorded no peak


def child_env() -> dict[str, str]:
    """recperf from the checkout's sources, with bytecode compiled beforehand.

    recperf's bytecode is cached as an installed package would have it, and
    the children write none, so nothing is written outside the checkout.
    """
    compileall.compile_dir(SRC / "recperf", quiet=1)
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}


def spawn(args: list[str], out: Path, env: dict, deadline: float) -> Exit:
    """Run `python ARGS` to exit, stdout to `out`; time it from spawn to exit.

    A child still running at `deadline` is killed and exits -9.
    """
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        actions = [(os.POSIX_SPAWN_DUP2, stdout.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, stderr.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=actions)
        finished = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                timeout = max(0.0, deadline - time.perf_counter())
                finished = bool(select.select([pidfd], [], [], timeout)[0])
            finally:
                os.close(pidfd)
        finally:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        wall = time.perf_counter() - start
    return Exit(os.waitstatus_to_exitcode(status), wall)


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def layer_metrics(cmd: str, trace: dict, report) -> dict[str, float]:
    """Per-layer metrics of one traced command, named `<cmd>.<module>.<fn>.<stat>`.

    A wrapped function the command did not call has 0 calls and 0 s; a
    function recperf no longer has gets no metric at all.
    """
    stats = summarize(trace["spans"])
    out: dict[str, float] = {}
    for name in trace["functions"]:
        entry = stats.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{cmd}.{name}.self_s"] = entry["self_s"]
        out[f"{cmd}.{name}.calls"] = entry["calls"]
        layer = f"{cmd}.{name.partition('.')[0]}.self_s"  # a layer is a recperf module
        out[layer] = out.get(layer, 0.0) + entry["self_s"]
    # Whichever format parser ran; the other one reads 0.
    parsers = [f"{cmd}.io.parse_tournament_{fmt}.self_s" for fmt in ("json", "csv")]
    if all(p in out for p in parsers):
        out[f"{cmd}.io.parse.self_s"] = sum(out[p] for p in parsers)
    if cmd == "rank":
        out["rank.tournament.derived_bytes"] = trace["derived_bytes"]
        solver = report["solver"]  # rank_problems has checked max_method_delta
        out["rank.solver.method_delta"] = solver["max_method_delta"]
        if "iterations" in solver.get("iterative", {}):
            out["rank.solver.iterations"] = solver["iterative"]["iterations"]
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<46} {value:>14.6g} {unit:<6} {note}".rstrip())


class Session:
    """One workload's input file, oracle and child environment."""

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        workload = WORKLOADS[name]
        WORK.mkdir(exist_ok=True)
        self.env = child_env()
        schedule = make_schedule(name, seed, size)
        self.path = WORK / f"{name}.{workload.fmt}"
        write_input(schedule, workload.fmt, self.path)
        self.input_stats = input_stats(schedule, self.path)
        self.oracle = dict(zip(schedule.players,
                               oracle_ratings(schedule.score_matrix()).tolist()))

    def import_time(self) -> float:
        ex = spawn(["-c", "import recperf.cli"], WORK / "import.out", self.env, self.deadline)
        if ex.code != 0:
            raise RuntimeError(f"`import recperf.cli` exited {ex.code}; "
                               f"see {WORK / 'import.err'}")
        return ex.wall_s

    def command(self, cmd: str, traced: bool) -> tuple[Exit, list[str], dict | None]:
        """Run one command; return its exit, the problems in its output and,
        when traced and passing, its per-layer metrics."""
        out = WORK / f"{cmd}.out"
        spans = WORK / f"{cmd}.spans.json"
        peak = WORK / f"{cmd}.peak_kb"
        args = [cmd, str(self.path), *COMMANDS[cmd]]
        args = [str(TRACER), str(spans), *args] if traced else ["-m", "recperf.cli", *args]
        spans.unlink(missing_ok=True)
        peak.unlink(missing_ok=True)
        ex = spawn([str(PEAK_RSS), str(peak), *args], out, self.env, self.deadline)
        report = load_report(out)
        if cmd == "rank":
            problems = rank_problems(ex.code, report, self.oracle, TIE_TOL)
        else:
            problems = check_problems(ex.code, report)
        try:
            ex = Exit(ex.code, ex.wall_s, int(peak.read_text(encoding="ascii")) / 1024.0)
        except (OSError, ValueError):
            problems.append("the command recorded no peak RSS")
        layer = None
        if traced and not problems:
            layer = layer_metrics(cmd, json.loads(spans.read_text(encoding="utf-8")), report)
        return ex, problems, layer


@dataclass
class Samples:
    setup: list[float] = field(default_factory=list)
    runs: dict[tuple[str, bool], list[Exit]] = field(
        default_factory=lambda: {(c, t): [] for c in COMMANDS for t in (False, True)})
    layers: dict[str, list[dict]] = field(default_factory=lambda: {c: [] for c in COMMANDS})
    attempted: int = 0
    failed: int = 0


def _round(session: Session, trace: bool, samples: Samples) -> None:
    """One set-up sample, then rank and check; with trace, then both traced.

    Set-up is sampled every round so it is timed under the same conditions
    as the commands.
    """
    samples.setup.append(session.import_time())
    for traced in (False, True) if trace else (False,):
        for cmd in COMMANDS:
            ex, problems, layer = session.command(cmd, traced)
            samples.attempted += 1
            if problems:
                samples.failed += 1
                print(f"FAILED {cmd}{' (traced)' if traced else ''}: {'; '.join(problems)}")
            samples.runs[cmd, traced].append(ex)
            if layer is not None:
                samples.layers[cmd].append(layer)


def measure(session: Session, seconds: float, trace: bool) -> Samples:
    """Closed loop of rounds until another round would overrun `seconds`."""
    session.import_time()  # warms the file cache; not timed
    # The first commands after a pause run slower on a shared host, so one
    # warm-up round goes first: its outputs are checked, its timings dropped.
    warm_up = Samples()
    _round(session, trace, warm_up)
    samples = Samples(attempted=warm_up.attempted, failed=warm_up.failed)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        _round(session, trace, samples)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds or now >= session.deadline:
            return samples


def report_metrics(samples: Samples, trace: bool) -> dict[str, float]:
    """Metric values from the samples; prints each with its unit and sample count."""
    metrics: dict[str, float] = {}

    def timing(metric: str, unit: str, values: list[float]) -> None:
        q1, median, q3 = _quartiles(values)
        metrics[metric] = median
        _print_metric(metric, median, unit,
                      f"median of {len(values)}; q1 {q1:.4f} q3 {q3:.4f}")

    print("end-to-end (untraced):")
    timing("setup_s", "s", samples.setup)
    for cmd in COMMANDS:
        runs = samples.runs[cmd, False]
        timing(f"{cmd}_s", "s", [e.wall_s for e in runs])
        rss = [e.rss_mb for e in runs if e.rss_mb is not None]
        if rss:
            timing(f"{cmd}_rss_mb", "MB", rss)
    metrics["ok_ratio"] = 1.0 - samples.failed / samples.attempted
    _print_metric("ok_ratio", metrics["ok_ratio"], "1", f"{samples.attempted} attempted")
    _print_metric("fail_ratio", samples.failed / samples.attempted, "1",
                  f"{samples.failed} failed")
    if not trace:
        return metrics

    print("per-layer (traced; median over traced commands):")
    for cmd, layers in samples.layers.items():
        for metric in sorted({k for layer in layers for k in layer}):
            metrics[metric] = statistics.median(
                layer[metric] for layer in layers if metric in layer)
    untraced, traced = (
        [a.wall_s + b.wall_s for a, b in zip(samples.runs["rank", t], samples.runs["check", t])]
        for t in (False, True))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    for metric in sorted(k for k in metrics if "." in k):
        if metrics.get(f"{metric.rpartition('.')[0]}.calls") == 0:
            continue  # a function the command never calls; still in the last line
        unit = ("s" if metric.endswith("_s") else "B" if metric.endswith("_bytes")
                else "rating" if metric.endswith("method_delta") else "count")
        note = "computed from array sizes" if metric.endswith("_bytes") else ""
        _print_metric(metric, metrics[metric], unit, note)
    print(f"  ({len(traced)} traced rounds; functions never called are not listed)")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Measure one workload; returns its result (correct, counts, metric values).

    Prints the environment, the input and every metric with its unit.
    """
    session = Session(name, seed, size)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"env {json.dumps(environment(seed))}")
    print(f"input {json.dumps(session.input_stats)}")
    samples = measure(session, seconds, trace)
    return {"correct": samples.failed == 0, "attempted": samples.attempted,
            "failed": samples.failed, "metrics": report_metrics(samples, trace)}


def result_line(result: dict, spec: list[dict], prefix: str = "") -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json lists, with their units.

    Also returns the names of those the run did not measure, for example
    the metrics of a function recperf no longer has.
    """
    values = result["metrics"]
    line = {prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec if m["name"] in values}
    return line, [prefix + m["name"] for m in spec if m["name"] not in values]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recperf" / "cli.py").is_file():
        print(f"recperf sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        line["correct"] = line["correct"] and result["correct"]
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics, missing = result_line(result, spec, prefix)
        line["metrics"].update(metrics)
        if missing:
            print(f"NOT MEASURED: {', '.join(missing)}")
            line["correct"] = False
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
