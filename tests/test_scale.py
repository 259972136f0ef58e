"""The CSR core against the dense oracle of reference.py, up to n = 1000,
memory bounds that only an O(pairs) core can meet at n = 5000 and
n = 20000, and the paper's contract at n = 20000 where it needs no oracle:
agreement of the two methods, consistency, conservation, r-independence
and anonymity.

Every case must give the oracle's StructureReport and lopsided pairs
exactly, direct ratings within 1e-9 * scale, fixed-point iteration counts
within one step, and lambda_2, lambda_min and the spectral gap within the
reported Ritz bounds plus 1e-12 of rounding.
"""

import contextlib
import dataclasses
import io
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from recperf import (
    ConvergenceError,
    SingularSystemError,
    Tournament,
    build_tournament,
    check_structure,
    derive,
    elo,
    iterate,
    load_tournament,
    lopsided_pairs,
    offsets,
    parse_tournament,
    solve_direct,
    spectral_diagnostics,
    tournament_to_json,
)
from recperf import diagnostics, solver
from recperf.cli import EXIT_NO_CONVERGENCE, EXIT_OK, main
from recperf.diagnostics import UNRESOLVED

from conftest import chain_with_triangle, ladder_records
from reference import (
    consistency_residual,
    dense_derive,
    dense_eigenvalues,
    dense_iterate,
    dense_lopsided_pairs,
    dense_solve,
    dense_structure,
    iteration_error_bound,
    permute_tournament,
    tournament_to_csv,
)

MODEL = elo()
ROUNDING = 1e-12  # the dense eigensolver's own error, on top of the Ritz bounds
FIXTURES = Path(__file__).parent / "fixtures"


def random_records(rng, n: int, games: int) -> tuple[list[str], list[tuple[str, str, float]]]:
    """Labels and game records: a ring through every player plus `games` random pairings.

    Scores are interior except for about one game in six, decisive either
    way, so some pairs are lopsided.
    """
    names = [f"P{k}" for k in range(n)]
    ring = rng.permutation(n)
    first = np.concatenate([ring, rng.integers(0, n, games)])
    second = np.concatenate([np.roll(ring, 1), rng.integers(0, n - 1, games)])
    second[n:] += second[n:] >= first[n:]
    score = rng.uniform(0.05, 0.95, first.size)
    decisive = rng.random(first.size) < 1 / 6
    score[decisive] = rng.integers(0, 2, decisive.sum())
    return names, [(names[a], names[b], float(x)) for a, b, x in zip(first, second, score)]


def random_schedule(rng, n: int, games: int) -> Tournament:
    return build_tournament(*random_records(rng, n, games))


def assert_extremes_match(report, dense: np.ndarray, structure) -> None:
    """lambda_2, lambda_min and the gap of `report` against the full dense
    spectrum, whose top len(components) eigenvalues are the unit ones."""
    ones = len(structure.components)
    assert report.multiplicity_one == ones
    assert report.has_minus_one is structure.bipartite
    rest = dense[:-ones]
    assert abs(report.lambda_2 - rest[-1]) <= report.lambda_2_bound + ROUNDING
    assert abs(report.lambda_min - rest[0]) <= report.lambda_min_bound + ROUNDING
    gap = 1.0 - max(abs(rest[-1]), abs(rest[0]))
    bound = max(report.lambda_2_bound, report.lambda_min_bound)
    assert abs(report.spectral_gap - gap) <= bound + ROUNDING


def symmetric_mbar(d, sparse):
    """diag(sqrt(shares)) Mbar diag(1 / sqrt(shares)) as a scipy CSR matrix: symmetric,
    with Mbar's eigenvalues."""
    root = np.sqrt(d.m)
    rows = np.repeat(np.arange(d.n), np.diff(d.indptr))
    return sparse.csr_matrix((d.weights * root[rows] / root[d.indices], d.indices, d.indptr),
                             shape=(d.n, d.n))


def assert_agrees(t: Tournament, *, iterates: bool) -> None:
    d, dd = derive(t), dense_derive(t)
    structure = check_structure(d)
    assert structure == dense_structure(dd)
    assert tuple(map(tuple, lopsided_pairs(t).tolist())) == dense_lopsided_pairs(t)
    assert_extremes_match(spectral_diagnostics(d), dense_eigenvalues(dd), structure)
    if not structure.connected:
        with pytest.raises(SingularSystemError):
            solve_direct(d, offsets(d, MODEL, clamp_scores=True))
        return
    r = np.random.default_rng(t.n).uniform(1000.0, 2600.0, t.n)
    direct = solve_direct(d, offsets(d, MODEL, clamp_scores=True), r)
    oracle = dense_solve(dd, MODEL, r, clamp_scores=True)
    assert np.abs(direct.ratings - oracle).max() <= 1e-9 * MODEL.scale
    if iterates:
        steps = iterate(d, offsets(d, MODEL, clamp_scores=True), r).iterations
        assert abs(steps - dense_iterate(dd, MODEL, r, clamp_scores=True)[1]) <= 1


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_random_schedules_agree(n):
    t = random_schedule(np.random.default_rng(n), n, 5 * n)
    assert_agrees(t, iterates=True)


def test_chain_with_triangle_agrees():
    # connected, not bipartite, but far too slowly mixing to iterate
    assert_agrees(chain_with_triangle(500), iterates=False)


def test_spectral_verdicts_agree_with_bfs_at_a_tiny_gap():
    # eigenvalues 3.1e-7 from 1 and from -1 are not 1 and -1
    d = derive(chain_with_triangle(2000))
    structure, spectral = check_structure(d), spectral_diagnostics(d)
    assert spectral.multiplicity_one == len(structure.components) == 1
    assert spectral.has_minus_one is structure.bipartite is False


def test_failed_iteration_names_the_bfs_verdict(tmp_path, capsys):
    # P2 holds, yet the spectral gap is only 5.5e-7
    t = chain_with_triangle(1500)
    d = derive(t)
    with pytest.raises(ConvergenceError) as excinfo:
        iterate(d, offsets(d, MODEL), max_iter=10)
    assert "converges, but not within 10 steps" in str(excinfo.value)
    assert "bipartite" not in str(excinfo.value)
    path = tmp_path / "chain.json"
    path.write_text(tournament_to_json(t))
    code = main(["rank", str(path), "--method", "iterative", "--max-iter", "1000"])
    err = capsys.readouterr().err
    assert code == EXIT_NO_CONVERGENCE
    assert "converges, but not within 1000 steps" in err and "bipartite" not in err


def test_a_slow_mixer_converges_at_n_2000():
    # the spectral gap is 3.1e-6, so plain steps would need millions; the
    # conjugate-gradient steps finish under the default cap, within the stop's bound
    sparse = pytest.importorskip("scipy.sparse")
    eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
    d = derive(build_tournament(*ladder_records(2000)))
    c = offsets(d, MODEL)
    out = iterate(d, c)
    sym = symmetric_mbar(d, sparse)
    # the two eigenvalues nearest 1 + 1e-3 are 1 and lambda_2
    lambda_2 = eigsh(sym, k=2, sigma=1.001, which="LM", tol=1e-13,
                     return_eigenvectors=False).min()
    bound = iteration_error_bound(d, c - d.shares @ c, out.ratings, 0.0, lambda_2)
    direct = solve_direct(d, c)
    assert np.abs(out.ratings - direct.ratings).max() <= bound
    # a few windows of plain steps, then CG from their iterate
    assert out.iterations <= 2 * direct.iterations + 4 * solver._WINDOW


@pytest.mark.parametrize("name, iterates", [
    ("team_2v2.json", False),  # bipartite: the iteration oscillates
    ("disconnected.json", False),
    ("reference.csv", True),
])
def test_fixtures_agree(name, iterates):
    assert_agrees(load_tournament(FIXTURES / name).tournament, iterates=iterates)


def test_csv_input_agrees():
    t = random_schedule(np.random.default_rng(7), 300, 1500)
    back = parse_tournament(tournament_to_csv(t)).tournament
    assert back == t
    assert_agrees(back, iterates=True)


def sparse_records(n: int, games: int) -> tuple[list[str], list[tuple[str, str, float]]]:
    """A ring plus random pairings, `games` in all: connected, not bipartite, interior scores."""
    rng = np.random.default_rng(5000)
    ring = rng.permutation(n)
    first = np.concatenate([ring, rng.integers(0, n, games - n)])
    second = np.concatenate([np.roll(ring, 1), rng.integers(0, n - 1, games - n)])
    second[n:] += second[n:] >= first[n:]
    score = rng.uniform(0.05, 0.95, games)
    names = [f"P{k}" for k in range(n)]
    return names, [(names[a], names[b], x)
                   for a, b, x in zip(first.tolist(), second.tolist(), score.tolist())]


def sparse_schedule_json(path: Path, n: int, games: int) -> None:
    """The schedule of `sparse_records` as a JSON file of match records."""
    names, records = sparse_records(n, games)
    path.write_text(json.dumps({
        "players": names,
        "matches": [{"a": a, "b": b, "score_a": x} for a, b, x in records],
    }))


def traced_main(argv: list[str]) -> tuple[int, str, int]:
    """Exit code, stdout and tracemalloc peak of one CLI run."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), peak


def test_memory_stays_linear_in_pairs(tmp_path):
    # one dense n x n float array at n = 5000 would be 200 MB
    path = tmp_path / "sparse.json"
    sparse_schedule_json(path, 5000, 10_000)
    d = derive(load_tournament(path).tournament)
    assert sum(a.nbytes for a in (d.m, d.s, d.indptr, d.indices, d.weights)) < 1_000_000
    del d
    code, out, peak = traced_main(["rank", str(path), "--method", "both", "--format", "json"])
    assert code == EXIT_OK
    assert len(json.loads(out)["players"]) == 5000
    assert peak < 40_000_000
    # the failure path words its error from the BFS, not from the spectrum
    code, _, peak = traced_main(["rank", str(path), "--method", "iterative", "--max-iter", "5"])
    assert code == EXIT_NO_CONVERGENCE
    assert peak < 40_000_000


def test_spectral_report_repeats_exactly_and_survives_relabelling():
    t = random_schedule(np.random.default_rng(301), 300, 1500)
    d = derive(t)
    report, again = spectral_diagnostics(d), spectral_diagnostics(d)
    for field in dataclasses.fields(report):
        assert np.array_equal(getattr(report, field.name), getattr(again, field.name))
    perm = np.random.default_rng(302).permutation(t.n)
    moved = spectral_diagnostics(derive(permute_tournament(t, perm)))
    assert abs(moved.lambda_2 - report.lambda_2) <= (
        moved.lambda_2_bound + report.lambda_2_bound + ROUNDING)
    assert abs(moved.lambda_min - report.lambda_min) <= (
        moved.lambda_min_bound + report.lambda_min_bound + ROUNDING)
    assert (moved.multiplicity_one, moved.has_minus_one) == (1, False)


def test_spectral_memory_stays_linear_at_n_20000():
    # the dense eigensolver needed one 20000 x 20000 array: 3.2 GB
    d = derive(random_schedule(np.random.default_rng(20000), 20_000, 400_000))
    check_structure(d)  # the BFS runs here, outside the traced peak, and is kept on d
    tracemalloc.start()
    try:
        report = spectral_diagnostics(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000_000
    assert (report.multiplicity_one, report.has_minus_one) == (1, False)
    assert max(report.lambda_2_bound, report.lambda_min_bound) < 1e-6


@pytest.fixture(scope="module")
def n_20000():
    """400k games among 20000 players, solved both ways from random initial ratings."""
    names, records = random_records(np.random.default_rng(20001), 20_000, 380_000)
    d = derive(build_tournament(names, records))
    r = np.random.default_rng(20002).uniform(1000.0, 2600.0, d.n)
    return SimpleNamespace(
        names=names, records=records, d=d, r=r,
        direct=solve_direct(d, offsets(d, MODEL, clamp_scores=True), r),
        iterative=iterate(d, offsets(d, MODEL, clamp_scores=True), r),
    )


def test_direct_and_iterative_agree_at_n_20000(n_20000):
    gap = np.abs(n_20000.direct.ratings - n_20000.iterative.ratings).max()
    assert gap <= 1e-9 * MODEL.scale


def test_direct_ratings_reproduce_themselves_at_n_20000(n_20000):
    # CG stops at a residual of 1e-13 * |chat|_inf, under 1e-13 * scale here;
    # the bound leaves room for rounding at |x|_inf of about 2000
    residual = consistency_residual(n_20000.d, MODEL, n_20000.direct.ratings,
                                    clamp_scores=True)
    assert residual <= 1e-12 * MODEL.scale


def test_ratings_conserve_the_total_strength_at_n_20000(n_20000):
    d, r = n_20000.d, n_20000.r
    for outcome in (n_20000.direct, n_20000.iterative):
        assert abs(d.m @ outcome.ratings - d.m @ r) <= 1e-12 * (d.m @ np.abs(r))


def test_shifting_r_shifts_the_ratings_at_n_20000(n_20000):
    d = n_20000.d
    shift = np.random.default_rng(20003).uniform(-500.0, 500.0, d.n)
    moved = iterate(d, offsets(d, MODEL, clamp_scores=True), n_20000.r + shift).ratings
    expected = n_20000.iterative.ratings + d.shares @ shift
    assert np.abs(moved - expected).max() <= 1e-9 * MODEL.scale


def test_relabelling_permutes_the_ratings_at_n_20000(n_20000):
    # player k becomes player perm[k] under a new label; rebuilt from the
    # records, as the dense relabelling of reference.py would take 3.2 GB
    perm = np.random.default_rng(20004).permutation(len(n_20000.names))
    labels = [f"Q{k}" for k in range(perm.size)]
    rename = dict(zip(n_20000.names, (labels[k] for k in perm)))
    t = build_tournament(labels, [(rename[a], rename[b], x) for a, b, x in n_20000.records])
    r = np.empty_like(n_20000.r)
    r[perm] = n_20000.r
    d = derive(t)
    moved = solve_direct(d, offsets(d, MODEL, clamp_scores=True), r).ratings
    assert np.abs(moved[perm] - n_20000.direct.ratings).max() <= 1e-9 * MODEL.scale


def test_spectral_gap_matches_arpack_at_n_5000():
    sparse = pytest.importorskip("scipy.sparse")
    eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
    d = derive(random_schedule(np.random.default_rng(5000), 5000, 25_000))
    report = spectral_diagnostics(d)
    sym = symmetric_mbar(d, sparse)
    lambda_2 = eigsh(sym, k=2, which="LA", tol=1e-13, return_eigenvectors=False).min()
    lambda_min = eigsh(sym, k=1, which="SA", tol=1e-13, return_eigenvectors=False)[0]
    gap = 1.0 - max(abs(lambda_2), abs(lambda_min))
    bound = max(report.lambda_2_bound, report.lambda_min_bound)
    assert abs(report.spectral_gap - gap) <= bound + 1e-10
    assert abs(report.lambda_2 - lambda_2) <= report.lambda_2_bound + 1e-10
    assert abs(report.lambda_min - lambda_min) <= report.lambda_min_bound + 1e-10


def test_the_spectrum_resolves_at_n_100000():
    # a ring plus random pairings, 500k games: Lanczos settles after 97 steps on
    # two vectors, with bounds near 7e-10 against tol = 1.4e-9
    sparse = pytest.importorskip("scipy.sparse")
    eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
    d = derive(build_tournament(*sparse_records(100_000, 500_000)))
    report = spectral_diagnostics(d)
    assert (report.multiplicity_one, report.has_minus_one) == (1, False)
    sym = symmetric_mbar(d, sparse)
    lambda_2 = eigsh(sym, k=2, which="LA", tol=1e-13, return_eigenvectors=False).min()
    lambda_min = eigsh(sym, k=1, which="SA", tol=1e-13, return_eigenvectors=False)[0]
    assert abs(report.lambda_2 - lambda_2) <= report.lambda_2_bound + ROUNDING
    assert abs(report.lambda_min - lambda_min) <= report.lambda_min_bound + ROUNDING


def test_the_spectrum_resolves_a_slow_mixer_at_n_8000():
    # the spectral gap is 1.9e-7: Lanczos runs 5,301 steps on two vectors
    sparse = pytest.importorskip("scipy.sparse")
    eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
    d = derive(build_tournament(*ladder_records(8000)))
    structure, report = check_structure(d), spectral_diagnostics(d)
    assert (report.multiplicity_one, report.has_minus_one) == (1, False)
    assert (len(structure.components), structure.bipartite) == (1, False)
    sym = symmetric_mbar(d, sparse)
    # the two eigenvalues nearest 1 + 1e-4 are 1 and lambda_2; lambda_min is nearest -1 - 1e-4
    lambda_2 = eigsh(sym, k=2, sigma=1 + 1e-4, which="LM", tol=1e-13,
                     return_eigenvectors=False).min()
    lambda_min = eigsh(sym, k=1, sigma=-1 - 1e-4, which="LM", tol=1e-13,
                       return_eigenvectors=False)[0]
    assert abs(report.lambda_2 - lambda_2) <= report.lambda_2_bound + ROUNDING
    assert abs(report.lambda_min - lambda_min) <= report.lambda_min_bound + ROUNDING


def test_a_run_the_budget_ends_never_reads_resolved(monkeypatch):
    # two Lanczos vectors put lambda_2 at 0.293 +- 0.193, well clear of 1, yet
    # the true lambda_2 lies beyond that bound: a Ritz bound shows that some
    # eigenvalue lies near the Ritz value, not that it is the extreme one
    t = random_schedule(np.random.default_rng(3), 400, 2000)
    monkeypatch.setattr(diagnostics, "_MAX_STEPS", 2)
    report = spectral_diagnostics(derive(t))
    assert report.lanczos_steps == 2
    dense = dense_eigenvalues(dense_derive(t))
    assert report.lambda_2 + report.lambda_2_bound < dense[-2]
    assert report.lambda_min - report.lambda_min_bound > dense[0]
    assert report.multiplicity_one == report.has_minus_one == UNRESOLVED


def test_a_basis_cut_short_leaves_the_verdicts_unresolved(tmp_path, monkeypatch, capsys):
    # 16 Lanczos vectors put lambda_2 at 0.993 +- 0.02 and lambda_min at
    # -0.995 +- 0.02: neither bound keeps clear of 1 or -1
    t = chain_with_triangle(400)
    monkeypatch.setattr(diagnostics, "_MAX_STEPS", 16)
    report = spectral_diagnostics(derive(t))
    assert report.lanczos_steps == 16
    assert report.multiplicity_one == report.has_minus_one == UNRESOLVED
    path = tmp_path / "chain.json"
    path.write_text(tournament_to_json(t))
    assert main(["check", str(path), "--spectral", "--format", "json"]) == EXIT_OK
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diag["multiplicity_one"] == diag["has_minus_one"] == "unresolved"
    assert main(["check", str(path), "--spectral"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "multiplicity of eigenvalue 1: unresolved   eigenvalue -1 present: unresolved" in out
    assert "estimated iterations to 1e-10: unresolved" in out
