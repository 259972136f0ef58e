"""Seeded benchmark inputs and the oracle ratings they are checked against.

Everything here uses plain numpy and nothing from recperf, so the program
under test never generates its own inputs or its own reference answer.

Each workload is a set of games between labelled players. The benchmark
writes it to a file (JSON match records or a CSV crosstable), which is the
only thing the CLI sees, and keeps the score matrix for the oracle.
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ELO_SCALE = 400.0
STRENGTH_SD = 200.0
DRAW_BAND = 0.1
LADDER_STEP = 50.0


@dataclass(frozen=True)
class Schedule:
    """Generated games: labels in file order, and per-game index arrays."""

    players: tuple[str, ...]
    first: np.ndarray
    second: np.ndarray
    score_first: np.ndarray

    @property
    def n(self) -> int:
        return len(self.players)

    def score_matrix(self) -> np.ndarray:
        """A[i, j]: total points of player i against player j."""
        a = np.zeros((self.n, self.n))
        np.add.at(a, (self.first, self.second), self.score_first)
        np.add.at(a, (self.second, self.first), 1.0 - self.score_first)
        return a


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"p{k:04d}" for k in range(n))


def _play(rng, strength, first, second) -> np.ndarray:
    """Elo outcome per game: win, draw or loss with expected score p."""
    p = 1.0 / (1.0 + 10.0 ** (-(strength[first] - strength[second]) / ELO_SCALE))
    u = rng.random(first.size)
    return np.where(u < p - DRAW_BAND, 1.0, np.where(u < p + DRAW_BAND, 0.5, 0.0))


def _sparse_random(rng, n: int, games: int) -> Schedule:
    strength = rng.normal(0.0, STRENGTH_SD, n)
    first = rng.integers(0, n, games)
    second = rng.integers(0, n - 1, games)
    second += second >= first
    return Schedule(_labels(n), first, second, _play(rng, strength, first, second))


def _dense_crosstable(rng, n: int, rounds: int) -> Schedule:
    strength = rng.normal(0.0, STRENGTH_SD, n)
    i, j = np.triu_indices(n, 1)
    first, second = np.repeat(i, rounds), np.repeat(j, rounds)
    return Schedule(_labels(n), first, second, _play(rng, strength, first, second))


def _ladder(rng, n: int, reach: int, repeats: int) -> Schedule:
    # Rung k is stored at a random file index, so label order gives no hint
    # of the band. Rungs are evenly spaced and every pair scores its
    # expected points rounded to a half point, so the schedule is the same
    # up to relabelling for every seed and so is the iteration count.
    where = rng.permutation(n)
    rung_a = np.concatenate([np.arange(n - d) for d in range(1, reach + 1)])
    rung_b = np.concatenate([np.arange(d, n) for d in range(1, reach + 1)])
    p = 1.0 / (1.0 + 10.0 ** (-(rung_a - rung_b) * LADDER_STEP / ELO_SCALE))
    score = np.round(2.0 * repeats * p) / (2.0 * repeats)
    order = rng.permutation(rung_a.size * repeats)
    games = np.repeat(np.arange(rung_a.size), repeats)[order]
    return Schedule(_labels(n), where[rung_a[games]], where[rung_b[games]], score[games])


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # "json" (match records) or "csv" (crosstable)
    generate: Callable[..., Schedule]
    full: dict
    tiny: dict


# bench/README.md says why each workload is here and which layers it stresses.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse_random", "json", _sparse_random,
                 full={"n": 2000, "games": 40_000}, tiny={"n": 40, "games": 400}),
        Workload("dense_crosstable", "csv", _dense_crosstable,
                 full={"n": 600, "rounds": 3}, tiny={"n": 10, "rounds": 3}),
        Workload("ladder", "json", _ladder,
                 full={"n": 220, "reach": 2, "repeats": 4},
                 tiny={"n": 16, "reach": 2, "repeats": 4}),
    )
}


def connected_nonbipartite(s: Schedule) -> bool:
    """P1 and P2 by the generator's own BFS two-coloring."""
    adj = [set() for _ in range(s.n)]
    for a, b in zip(s.first.tolist(), s.second.tolist()):
        adj[a].add(b)
        adj[b].add(a)
    color = [-1] * s.n
    color[0] = 0
    queue = deque([0])
    odd_cycle = False
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if color[j] < 0:
                color[j] = 1 - color[i]
                queue.append(j)
            elif color[j] == color[i]:
                odd_cycle = True
    return -1 not in color and odd_cycle


def make_schedule(workload: str, seed: int, size: str = "full") -> Schedule:
    """Deterministic in (workload, seed); redraws until P1 and P2 hold."""
    w = WORKLOADS[workload]
    rng = _rng(workload, seed)
    while True:
        s = w.generate(rng, **getattr(w, size))
        if connected_nonbipartite(s):
            return s


def write_input(s: Schedule, fmt: str, path: Path) -> None:
    if fmt == "json":
        matches = [
            {"a": s.players[a], "b": s.players[b], "score_a": float(x)}
            for a, b, x in zip(s.first.tolist(), s.second.tolist(), s.score_first)
        ]
        text = json.dumps({"players": list(s.players), "matches": matches}, indent=2)
    else:
        a = s.score_matrix()
        lines = ["," + ",".join(s.players)]
        for i, label in enumerate(s.players):
            cells = [f"{v:g}" for v in a[i]]
            cells[i] = ""
            lines.append(label + "," + ",".join(cells))
        text = "\n".join(lines)
    path.write_text(text + "\n", encoding="utf-8")


def oracle_ratings(a: np.ndarray, scale: float = ELO_SCALE) -> np.ndarray:
    """Recursive performance from the score matrix, by a bordered Laplacian solve.

    With M = A + A^T, m its row sums and chat the clamped Elo offsets
    centred to games-weighted mean zero, the ratings solve L x = D chat with
    L = D - M, pinned by sum(m_i x_i) = 0 (all initial ratings zero). The
    pin is a Lagrange row, so no rank-one trick is shared with the program.
    """
    games = a + a.T
    m = games.sum(axis=1)
    eps = 1.0 / (2.0 * m + 2.0)
    s = np.clip(a.sum(axis=1) / m, eps, 1.0 - eps)
    c = scale * np.log10(s / (1.0 - s))
    chat = c - (m @ c) / m.sum()
    n = m.size
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = np.diag(m) - games
    bordered[:n, n] = m
    bordered[n, :n] = m
    return np.linalg.solve(bordered, np.append(m * chat, 0.0))[:n]


def input_stats(s: Schedule, path: Path) -> dict:
    pairs = np.unique(np.minimum(s.first, s.second) * s.n + np.maximum(s.first, s.second))
    return {
        "players": s.n,
        "games": int(s.first.size),
        "pairs_played": int(pairs.size),
        "file_bytes": path.stat().st_size,
    }
