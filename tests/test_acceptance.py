"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go;
tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import recperf as rp
from recperf.cli import (
    EXIT_BOUNDARY,
    EXIT_DISCONNECTED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)

from conftest import (
    forced_bipartite,
    forced_disconnected,
    is_single_round_robin,
    random_round_robin,
    random_tournament,
)
from reference import (
    centered_offsets,
    centering_drift,
    consistency_residual,
    essentially_identical,
    limit_power_check,
    min_shift_distance,
    permute_tournament,
    score_ranking,
)

FIXTURES = Path(__file__).parent / "fixtures"
MODEL = rp.elo()
REFERENCE_RATING = 400.0 * math.log10(3.0) * 2.0 / 3.0


def report(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {text}")


def reference_derived():
    t = rp.build_tournament(
        ["A", "B", "C"], [("A", "B", 1.0), ("A", "C", 0.5), ("B", "C", 1.0)]
    )
    return rp.derive(t)


@pytest.fixture(scope="module")
def corpus():
    """200 random P1+P2 tournaments with Elo-like initial ratings."""
    rng = np.random.default_rng(20260810)
    items = []
    for _ in range(200):
        t = random_tournament(rng, n_max=12)
        d = rp.derive(t)
        r = rng.uniform(1000.0, 2600.0, d.n)
        items.append((d, r))
    return items


def test_criterion_1_reference_instance():
    d = reference_derived()
    expected = np.array([REFERENCE_RATING, 0.0, -REFERENCE_RATING])
    rp.solve_direct(d, rp.offsets(d, MODEL))  # warm the LAPACK path before timing
    start = time.perf_counter()
    direct = rp.solve_direct(d, rp.offsets(d, MODEL))
    iterative = rp.iterate(d, rp.offsets(d, MODEL))
    elapsed = time.perf_counter() - start
    err_direct = float(np.abs(direct.ratings - expected).max())
    err_iter = float(np.abs(iterative.ratings - expected).max())
    ok = err_direct <= 1e-3 and err_iter <= 1e-3 and elapsed < 0.010
    report(1, ok, f"reference solve: direct err {err_direct:.2e}, iterative err "
                  f"{err_iter:.2e}, {elapsed * 1e3:.2f} ms")
    assert err_direct <= 1e-3
    assert err_iter <= 1e-3
    assert elapsed < 0.010


def test_criterion_2_conservation(corpus):
    start = time.perf_counter()
    worst = 0.0
    for d, r in corpus:
        sigma = float(d.m @ r)
        budget = 1e-9 * (1.0 + abs(sigma))
        out = rp.iterate(d, rp.offsets(d, MODEL), r, record_trace=True)
        drift = max(abs(float(d.m @ step) - sigma) for step in out.trace)
        worst = max(worst, drift / budget)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 5.0
    report(2, ok, f"conservation at every iteration: worst drift {worst:.2e} of "
                  f"budget over 200 instances in {elapsed:.2f} s")
    assert worst <= 1.0
    assert elapsed < 5.0


def test_criterion_3_iterative_equals_direct(corpus):
    worst = 0.0
    for d, r in corpus:
        chat = centered_offsets(d, MODEL)
        tol = 1e-10 * max(1.0, float(np.abs(chat).max()))
        direct = rp.solve_direct(d, rp.offsets(d, MODEL), r)
        iterative = rp.iterate(d, rp.offsets(d, MODEL), r, tol=tol)
        delta = float(np.abs(direct.ratings - iterative.ratings).max())
        worst = max(worst, delta / (10.0 * tol))
    ok = worst <= 1.0
    report(3, ok, f"iterative vs direct: worst delta {worst:.2e} of the 10*tol budget")
    assert worst <= 1.0


def test_criterion_4_centering_drift_identity():
    rng = np.random.default_rng(40404)
    worst = 0.0
    for _ in range(50):
        t = random_tournament(rng)
        d = rp.derive(t)
        r = rng.uniform(0.0, 2500.0, d.n)
        c = rp.offsets(d, MODEL)
        mu = float(d.m @ c) / float(d.m.sum())
        steps = int(rng.integers(0, 51))
        drift = centering_drift(d, MODEL, r, steps)
        budget = 1e-9 * (steps + 1) * float(np.abs(c).max())
        deviation = float(np.abs(drift - (steps + 1) * mu).max())
        worst = max(worst, deviation / budget)
    ok = worst <= 1.0
    report(4, ok, f"raw-minus-centered iterate identity: worst {worst:.2e} of budget")
    assert worst <= 1.0


def test_criterion_5_graph_vs_spectral_oracle():
    rng = np.random.default_rng(50505)
    instances = [random_tournament(rng, n_max=10, require_p1p2=False) for _ in range(140)]
    instances += [forced_disconnected(rng) for _ in range(30)]
    instances += [forced_bipartite(rng) for _ in range(30)]
    mismatches = 0
    max_abs = 0.0
    for t in instances:
        d = rp.derive(t)
        structure = rp.check_structure(d)
        spectral = rp.spectral_diagnostics(d)
        max_abs = max(max_abs, float(np.abs(spectral.eigenvalues).max()))
        if structure.connected != (spectral.multiplicity_one == 1):
            mismatches += 1
        if structure.bipartite != spectral.has_minus_one:
            mismatches += 1
    ok = mismatches == 0 and max_abs <= 1.0 + 1e-9
    report(5, ok, f"graph vs spectral verdicts on 200 instances: {mismatches} "
                  f"mismatches, max |eigenvalue| - 1 = {max_abs - 1.0:.1e}")
    assert mismatches == 0
    assert max_abs <= 1.0 + 1e-9


def test_criterion_6_power_limit():
    triangle = reference_derived()
    reached = limit_power_check(triangle, 40, 1e-10)
    team = rp.build_tournament(
        ["A", "B", "C", "D"],
        [("A", "C", 0.8), ("A", "D", 0.6), ("B", "C", 0.7), ("B", "D", 0.4)],
    )
    stuck = limit_power_check(rp.derive(team), 1000, 1e-10)
    ok = reached.converged and reached.deviation <= 1e-10 and not stuck.converged
    report(6, ok, f"power limit: triangle reached {reached.deviation:.2e} at "
                  f"l={reached.steps}; team stuck at {stuck.deviation:.2f} after 1000")
    assert reached.converged and reached.steps <= 40
    assert reached.deviation <= 1e-10
    assert not stuck.converged


def test_criterion_7_round_robin_coincidence():
    rng = np.random.default_rng(70707)
    mismatches = 0
    worst_identity = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        t = random_round_robin(rng, n)
        assert is_single_round_robin(t)
        d = rp.derive(t)
        x = rp.solve_direct(d, rp.offsets(d, MODEL)).ratings
        if rp.rank_from_ratings(x, 0.0) != score_ranking(d, 0.0):
            mismatches += 1
        chat = centered_offsets(d, MODEL)
        gaps = chat[:, None] - chat[None, :]
        expected = (n / (n - 1)) * (x[:, None] - x[None, :])
        worst_identity = max(worst_identity, float(np.abs(gaps - expected).max()))
    ok = mismatches == 0 and worst_identity <= 1e-9
    report(7, ok, f"round-robin coincidence: {mismatches} ranking mismatches, "
                  f"offset-gap identity worst {worst_identity:.2e}")
    assert mismatches == 0
    assert worst_identity <= 1e-9


def test_criterion_8_consistency():
    rng = np.random.default_rng(80808)
    worst_fixed_point = 0.0
    loud = 0
    for _ in range(50):
        t = random_tournament(rng)
        while is_single_round_robin(t):
            t = random_tournament(rng)
        d = rp.derive(t)
        x = rp.solve_direct(d, rp.offsets(d, MODEL)).ratings
        worst_fixed_point = max(worst_fixed_point, consistency_residual(d, MODEL, x))
        fake = MODEL.scale * (d.s - d.s.mean())
        if consistency_residual(d, MODEL, fake) > 1e-3:
            loud += 1
    ok = worst_fixed_point <= 1e-9 and loud >= 45
    report(8, ok, f"consistency: solver residual worst {worst_fixed_point:.2e}; "
                  f"score-vector imposter flagged in {loud}/50")
    assert worst_fixed_point <= 1e-9
    assert loud >= 45


def test_criterion_9_r_independence_and_anonymity():
    rng = np.random.default_rng(90909)
    worst_shift = 0.0
    ranking_mismatches = 0
    worst_perm = 0.0
    for _ in range(50):
        t = random_tournament(rng)
        d = rp.derive(t)
        r1 = rng.uniform(-500.0, 3000.0, d.n)
        r2 = rng.uniform(-500.0, 3000.0, d.n)
        x1 = rp.solve_direct(d, rp.offsets(d, MODEL), r1).ratings
        x2 = rp.solve_direct(d, rp.offsets(d, MODEL), r2).ratings
        worst_shift = max(worst_shift, min_shift_distance(x1, x2))
        if not essentially_identical(x1, x2, 1e-9):
            ranking_mismatches += 1  # counted below too, but flag loudly
        if rp.rank_from_ratings(x1, 1e-6 * MODEL.scale) != rp.rank_from_ratings(
            x2, 1e-6 * MODEL.scale
        ):
            ranking_mismatches += 1
        perm = rng.permutation(d.n)
        moved = permute_tournament(t, perm)
        d_moved = rp.derive(moved)
        c_moved = rp.offsets(d_moved, MODEL)
        x_moved = rp.solve_direct(d_moved, c_moved, r1[np.argsort(perm)]).ratings
        worst_perm = max(worst_perm, float(np.abs(x_moved[perm] - x1).max()))
    ok = worst_shift <= 1e-9 and ranking_mismatches == 0 and worst_perm <= 1e-9
    report(9, ok, f"r-independence worst shift {worst_shift:.2e}, ranking "
                  f"mismatches {ranking_mismatches}, anonymity worst {worst_perm:.2e}")
    assert worst_shift <= 1e-9
    assert ranking_mismatches == 0
    assert worst_perm <= 1e-9


def test_criterion_10_robustness_in_the_model():
    d = reference_derived()
    base = rp.solve_direct(d, rp.offsets(d, MODEL)).ratings
    nudged = rp.solve_direct(d, rp.offsets(d, rp.elo(400.0 * (1.0 + 1e-6)))).ratings
    moved = float(np.abs(nudged - base).max())
    ok = moved <= 1e-2
    report(10, ok, f"model-scale robustness: solution moved {moved:.2e}")
    assert moved <= 1e-2


def test_criterion_11_cli_end_to_end(capsys):
    code_json = main(["rank", str(FIXTURES / "reference.json"), "--format", "json"])
    out_json = capsys.readouterr().out
    code_csv = main(["rank", str(FIXTURES / "reference.csv"), "--format", "json"])
    out_csv = capsys.readouterr().out
    identical = json.loads(out_json) == json.loads(out_csv)

    code_p1 = main(["rank", str(FIXTURES / "disconnected.json")])
    capsys.readouterr()
    code_boundary = main(["rank", str(FIXTURES / "boundary.json")])
    capsys.readouterr()
    code_osc = main(["rank", str(FIXTURES / "team_2v2.json"), "--method", "iterative"])
    capsys.readouterr()

    ok = (
        code_json == EXIT_OK
        and code_csv == EXIT_OK
        and identical
        and code_p1 == EXIT_DISCONNECTED
        and code_boundary == EXIT_BOUNDARY
        and code_osc == EXIT_NO_CONVERGENCE
    )
    with capsys.disabled():
        report(11, ok, f"CLI: JSON/CSV reports identical={identical}, exit codes "
                       f"P1={code_p1}, boundary={code_boundary}, oscillation={code_osc}")
    assert code_json == EXIT_OK and code_csv == EXIT_OK
    assert identical
    assert code_p1 == EXIT_DISCONNECTED
    assert code_boundary == EXIT_BOUNDARY
    assert code_osc == EXIT_NO_CONVERGENCE
