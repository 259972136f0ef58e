"""Self-test of the benchmark on tiny inputs.

Run with `PYTHONPATH=src python3 -m pytest -q bench`. Every workload goes
through the real CLI and the output checks; corrupted reports must fail the
checks, so the correctness gate is not vacuous.
"""

from __future__ import annotations

import copy
import json
import time

import numpy as np
import pytest

import run
from checks import check_problems, load_report, rank_problems
from workloads import WORKLOADS, make_schedule, oracle_ratings, write_input

SEED = 7


def _run_cli(tmp_path, workload: str, cmd: str):
    """Run one benchmarked command on the tiny input; return (code, report, oracle)."""
    w = WORKLOADS[workload]
    schedule = make_schedule(workload, SEED, "tiny")
    path = tmp_path / f"{workload}.{w.fmt}"
    write_input(schedule, w.fmt, path)
    oracle = dict(zip(schedule.players, oracle_ratings(schedule.score_matrix()).tolist()))
    out = tmp_path / f"{cmd}.out"
    ex = run.spawn(["-m", "recperf.cli", cmd, str(path), *run.COMMANDS[cmd]],
                   out, run.child_env(), time.perf_counter() + 60)
    return ex.code, load_report(out), oracle


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_inputs_are_seeded(workload):
    a = make_schedule(workload, SEED, "tiny")
    b = make_schedule(workload, SEED, "tiny")
    c = make_schedule(workload, SEED + 1, "tiny")
    assert a.players == b.players
    assert (a.score_matrix() == b.score_matrix()).all()
    assert (a.first != c.first).any() or (a.score_first != c.score_first).any()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_rank_passes_and_perturbed_rating_fails(tmp_path, workload):
    code, report, oracle = _run_cli(tmp_path, workload, "rank")
    assert rank_problems(code, report, oracle, run.TIE_TOL) == []

    bad = copy.deepcopy(report)
    bad["players"][0]["rating"] += 2 * run.TIE_TOL
    assert rank_problems(code, bad, oracle, run.TIE_TOL)
    bad = copy.deepcopy(report)
    bad["solver"]["max_method_delta"] = 2 * run.TIE_TOL
    assert rank_problems(code, bad, oracle, run.TIE_TOL)
    assert rank_problems(1, report, oracle, run.TIE_TOL)
    assert rank_problems(0, None, oracle, run.TIE_TOL)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_check_passes_and_flipped_verdict_fails(tmp_path, workload):
    code, report, _ = _run_cli(tmp_path, workload, "check")
    assert check_problems(code, report) == []

    bad = copy.deepcopy(report)
    bad["diagnostics"]["connected"] = False
    assert check_problems(code, bad)
    bad = copy.deepcopy(report)
    bad["diagnostics"]["has_minus_one"] = True
    assert check_problems(code, bad)
    unresolved = copy.deepcopy(report)
    unresolved["diagnostics"]["has_minus_one"] = "unresolved"
    del unresolved["diagnostics"]["multiplicity_one"]
    assert check_problems(code, unresolved) == []


def test_traced_run_reports_every_metric(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = run.run_workload("ladder", SEED, seconds=0, trace=True, size="tiny")
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    for metric in spec["end_to_end"]:
        assert metric["name"] in result["metrics"] and metric["name"] in printed
    line, missing = run.result_line(result, spec["per_layer"])
    assert missing == []
    assert list(line) == [m["name"] for m in spec["per_layer"]]
    assert line["rank.tournament.derive.calls"]["value"] >= 1
    assert line["check.diagnostics.spectral_diagnostics.calls"]["value"] >= 1
    assert line["rank.solver.iterations"]["value"] >= 1


def test_unmeasured_metric_is_reported_not_zero():
    spec = [{"name": "rank.solver.iterate.self_s", "unit": "s"},
            {"name": "rank.solver.gone.self_s", "unit": "s"}]
    result = {"metrics": {"rank.solver.iterate.self_s": 0.5}}
    line, missing = run.result_line(result, spec)
    assert line == {"rank.solver.iterate.self_s": {"value": 0.5, "unit": "s"}}
    assert missing == ["rank.solver.gone.self_s"]


def test_peak_rss_is_the_commands_own(tmp_path):
    # The parent's high-water mark goes far above what the command needs;
    # wait4 would report at least that, the command's own VmHWM must not.
    ballast = np.ones(160 * 2**20 // 8)
    peak = tmp_path / "peak_kb"
    ex = run.spawn([str(run.PEAK_RSS), str(peak), "-m", "platform"], tmp_path / "out",
                   run.child_env(), time.perf_counter() + 60)
    assert ex.code == 0 and ballast.sum() > 0
    assert 0 < int(peak.read_text()) / 1024 < 60
