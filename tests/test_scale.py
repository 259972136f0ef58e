"""The CSR core against the dense oracle of reference.py, up to n = 1000,
and a memory bound that only an O(pairs) core can meet at n = 5000.

Every case must give the oracle's StructureReport and lopsided pairs
exactly, direct ratings within 1e-9 * scale, fixed-point iteration counts
within one step, and eigenvalues within 1e-12.
"""

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

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
    parse_tournament,
    solve_direct,
    spectral_diagnostics,
    tournament_to_json,
)
from recperf.cli import EXIT_NO_CONVERGENCE, EXIT_OK, main

from reference import (
    dense_derive,
    dense_eigenvalues,
    dense_iterate,
    dense_lopsided_pairs,
    dense_solve,
    dense_structure,
    tournament_to_csv,
)

MODEL = elo()
FIXTURES = Path(__file__).parent / "fixtures"


def random_schedule(rng, n: int, games: int) -> Tournament:
    """A ring through every player plus `games` random pairings.

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
    return build_tournament(
        names, [(names[a], names[b], float(x)) for a, b, x in zip(first, second, score)]
    )


def chain_with_triangle(n: int) -> Tournament:
    names = [f"P{k}" for k in range(n)]
    records = [(names[k], names[k + 1], 0.6) for k in range(n - 1)]
    return build_tournament(names, records + [(names[0], names[2], 0.6)])


def assert_agrees(t: Tournament, *, iterates: bool) -> None:
    d, dd = derive(t), dense_derive(t)
    structure = check_structure(d)
    assert structure == dense_structure(dd)
    assert lopsided_pairs(t) == dense_lopsided_pairs(t)
    eigenvalues = spectral_diagnostics(d).eigenvalues
    assert np.abs(eigenvalues - dense_eigenvalues(dd)).max() <= 1e-12
    if not structure.connected:
        with pytest.raises(SingularSystemError):
            solve_direct(d, MODEL, clamp_scores=True, structure=structure)
        return
    r = np.random.default_rng(t.n).uniform(1000.0, 2600.0, t.n)
    direct = solve_direct(d, MODEL, r, clamp_scores=True, structure=structure)
    oracle = dense_solve(dd, MODEL, r, clamp_scores=True)
    assert np.abs(direct.ratings - oracle).max() <= 1e-9 * MODEL.scale
    if iterates:
        steps = iterate(d, MODEL, r, clamp_scores=True).iterations
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
    with pytest.raises(ConvergenceError) as excinfo:
        iterate(derive(t), MODEL, max_iter=10)
    assert "mixes slowly" in str(excinfo.value)
    assert "bipartite" not in str(excinfo.value)
    path = tmp_path / "chain.json"
    path.write_text(tournament_to_json(t))
    code = main(["rank", str(path), "--method", "iterative", "--max-iter", "1000"])
    err = capsys.readouterr().err
    assert code == EXIT_NO_CONVERGENCE
    assert "mixes slowly" in err and "bipartite" not in err


@pytest.mark.parametrize("name, iterates", [
    ("team_2v2.json", False),  # bipartite: the iteration oscillates
    ("disconnected.json", False),
    ("reference.csv", True),
])
def test_fixtures_agree(name, iterates):
    assert_agrees(load_tournament(FIXTURES / name).tournament, iterates=iterates)


def test_csv_input_agrees():
    t = random_schedule(np.random.default_rng(7), 300, 1500)
    back = parse_tournament(tournament_to_csv(t), fmt="csv").tournament
    assert back == t
    assert_agrees(back, iterates=True)


def sparse_schedule_json(path: Path, n: int, games: int) -> None:
    """A ring plus random pairings: connected, not bipartite, interior scores."""
    rng = np.random.default_rng(5000)
    ring = rng.permutation(n)
    first = np.concatenate([ring, rng.integers(0, n, games - n)])
    second = np.concatenate([np.roll(ring, 1), rng.integers(0, n - 1, games - n)])
    second[n:] += second[n:] >= first[n:]
    score = rng.uniform(0.05, 0.95, games)
    names = [f"P{k}" for k in range(n)]
    path.write_text(json.dumps({
        "players": names,
        "matches": [{"a": names[a], "b": names[b], "score_a": float(x)}
                    for a, b, x in zip(first.tolist(), second.tolist(), score)],
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
