"""Differential fuzz of the numerics against the dense oracle of reference.py.

Hypothesis draws the shape of a well-formed schedule of n = 3-60 players,
and numpy draws its games, scores and initial ratings from a drawn seed,
so every value is generic: no all-draw schedule hides an oscillation or a
drift. The shapes stress the solvers: sparse random games (sometimes
split or bipartite), ladders and chains of reach 1-3 (reach 1 is a
bipartite path), a bipartite schedule plus one odd edge (lambda_min near
-1), two communities joined by one game (lambda_2 near 1), with interior,
lopsided or near-boundary scores and model scales from 1e-3 to 1e200.

Per example:

- the BFS verdicts equal `dense_structure`;
- each spectral verdict equals the BFS one or reads "unresolved";
- `solve_direct` lies within 1e-9 * scale of `dense_solve`;
- `iterate` lies within its stop of the direct ratings on a connected
  non-bipartite schedule, and raises ConvergenceError on any other.

For a few schedules drawn the same way, written to a JSON file with their
initial ratings, the CLI run in process agrees with the library: `rank
--method both` exits 3 on a split schedule, 5 on a bipartite one and
else 0 with `solve_direct`'s ratings to the bit, and `check --spectral`
reports the BFS and spectral verdicts.

"Its stop" is `reference.iteration_error_bound`: the stop's tol over
1 - lambda_2 (lambda_2 from `dense_eigenvalues`), times the
shares-to-max-norm factor 1 / sqrt(min shares), plus the direct solve's
own stop and rounding.

A schedule that cannot converge gets a cap of 3,000 steps (with the
default cap a plain run to it would take about a second); every other
runs at the default cap.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recperf import (
    ConvergenceError,
    build_tournament,
    check_structure,
    derive,
    elo,
    iterate,
    offsets,
    solve_direct,
    spectral_diagnostics,
)
from recperf.cli import main
from recperf.diagnostics import UNRESOLVED

from reference import (
    dense_derive,
    dense_eigenvalues,
    dense_solve,
    dense_structure,
    iteration_error_bound,
)

FAILING_CAP = 3_000

NUMERICS = settings(max_examples=120, deadline=None, database=None, derandomize=True)
SHAPES = dict(kind=st.sampled_from(["sparse", "ladder", "bipartite_odd", "communities"]),
              n=st.integers(3, 60), reach=st.integers(1, 3),
              mode=st.sampled_from(["interior", "lopsided", "boundary"]),
              scale=st.sampled_from([1e-3, 400.0, 1e200]),
              seed=st.integers(0, 2**32 - 1))


def _pairs(kind: str, n: int, reach: int, rng: np.random.Generator) -> np.ndarray:
    """(games, 2) player indices of one schedule shape; every player plays."""
    if kind == "sparse":
        first = np.arange(n)
        second = (first + rng.integers(1, n, n)) % n
        extra = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
        pairs = np.concatenate([np.column_stack([first, second]), extra])
        return pairs[pairs[:, 0] != pairs[:, 1]]
    if kind == "ladder":
        pairs = [(k, k + d) for d in range(1, reach + 1) for k in range(n - d)]
        return np.repeat(np.array(pairs), int(rng.integers(1, 5)), axis=0)
    if kind == "bipartite_odd":
        side = max(1, n // 2)
        order = rng.permutation(n)
        left, right = order[:side], order[side:]
        pairs = [(int(a), int(rng.choice(right))) for a in left]
        pairs += [(int(rng.choice(left)), int(b)) for b in right]
        pairs += [(int(rng.choice(left)), int(rng.choice(right))) for _ in range(n)]
        if side >= 2:  # the odd edge, inside one side
            pairs.append((int(left[0]), int(left[1])))
        return np.array(pairs)
    # two communities of at least two players, joined by one game
    cut = int(rng.integers(2, n - 1)) if n >= 4 else 2
    pairs = []
    for group in (np.arange(cut), np.arange(cut, n)):
        if group.size == 1:
            continue
        pairs += list(zip(group, np.roll(group, 1)))
        pairs += [(a, b) for a in group for b in group if a < b and rng.random() < 0.4]
    pairs.append((int(rng.integers(0, cut)), int(rng.integers(cut, n))) if cut < n else (0, 1))
    return np.array(pairs)


def _scores(mode: str, games: int, rng: np.random.Generator) -> np.ndarray:
    score = rng.uniform(0.05, 0.95, games)
    if mode == "lopsided":
        decisive = rng.random(games) < 0.3
        score[decisive] = rng.integers(0, 2, int(decisive.sum()))
    elif mode == "boundary":
        near = 10.0 ** -rng.uniform(3, 12, games)
        score = np.where(rng.random(games) < 0.5, near, 1.0 - near)
    return score


def schedule(kind: str, n: int, reach: int, mode: str, seed: int):
    rng = np.random.default_rng(seed)
    pairs = _pairs(kind, n, reach, rng)
    score = _scores(mode, len(pairs), rng)
    names = [f"P{k}" for k in range(n)]
    t = build_tournament(names, [(names[a], names[b], float(x))
                                 for (a, b), x in zip(pairs.tolist(), score)])
    return t, rng


@NUMERICS
@given(**SHAPES)
@example(kind="ladder", n=60, reach=1, mode="interior", scale=400.0, seed=0)
@example(kind="communities", n=60, reach=1, mode="boundary", scale=400.0, seed=1)
@example(kind="bipartite_odd", n=59, reach=1, mode="lopsided", scale=1e200, seed=2)
def test_solvers_agree_with_the_dense_oracle(kind, n, reach, mode, scale, seed):
    t, rng = schedule(kind, n, reach, mode, seed)
    d, dd = derive(t), dense_derive(t)
    structure = check_structure(d)
    assert structure == dense_structure(dd)

    spectral = spectral_diagnostics(d)
    assert spectral.multiplicity_one in (len(structure.components), UNRESOLVED)
    assert spectral.has_minus_one in (structure.bipartite, UNRESOLVED)

    model = elo(scale)
    c = offsets(d, model, clamp_scores=True)
    r = rng.uniform(-2.0, 2.0, n) * scale
    converges = structure.connected and not structure.bipartite
    if not structure.connected:
        try:
            iterate(d, c, r, max_iter=FAILING_CAP)
        except ConvergenceError:
            return
        raise AssertionError("a split schedule converged")

    direct = solve_direct(d, c, r)
    oracle = dense_solve(dd, model, r, clamp_scores=True)
    assert np.abs(direct.ratings - oracle).max() <= 1e-9 * scale
    if not converges:
        try:
            iterate(d, c, r, max_iter=FAILING_CAP)
        except ConvergenceError:
            return
        raise AssertionError("a bipartite schedule converged")

    out = iterate(d, c, r)
    bound = iteration_error_bound(d, c - d.shares @ c, out.ratings, float(d.shares @ r),
                                  dense_eigenvalues(dd)[-2])
    assert np.abs(out.ratings - direct.ratings).max() <= bound


def _cli(*argv: str) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI run."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(NUMERICS, max_examples=25)
@given(**SHAPES)
@example(kind="sparse", n=8, reach=1, mode="interior", scale=400.0, seed=17)  # split
@example(kind="ladder", n=30, reach=1, mode="lopsided", scale=1e-3, seed=3)  # a bipartite path
@example(kind="communities", n=60, reach=1, mode="boundary", scale=1e200, seed=1)
def test_the_cli_exits_as_the_library_decides(tmp_path_factory, kind, n, reach, mode, scale,
                                              seed):
    t, rng = schedule(kind, n, reach, mode, seed)
    r = rng.uniform(-2.0, 2.0, n) * scale
    path = tmp_path_factory.getbasetemp() / "numerics_fuzz.json"
    path.write_text(json.dumps({"players": list(t.players), "crosstable": t.score_matrix.tolist(),
                                "initial_ratings": r.tolist()}))
    d = derive(t)
    structure, spectral = check_structure(d), spectral_diagnostics(d)

    code, out = _cli("rank", str(path), "--method", "both", "--clamp-scores",
                     "--model", f"elo:{scale!r}", "--format", "json")
    assert code == (3 if not structure.connected else 5 if structure.bipartite else 0)
    if code == 0:
        direct = solve_direct(d, offsets(d, elo(scale), clamp_scores=True), r)
        rating = {row["player"]: row["rating"] for row in json.loads(out)["players"]}
        assert [rating[p] for p in t.players] == direct.ratings.tolist()

    code, out = _cli("check", str(path), "--spectral", "--format", "json")
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    assert diag["connected"] is structure.connected
    assert diag["nonbipartite"] is not structure.bipartite
    assert diag["multiplicity_one"] == spectral.multiplicity_one
    assert diag["has_minus_one"] == spectral.has_minus_one
