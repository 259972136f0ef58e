"""Shared generators for random tournament corpora.

The random generators take an explicit numpy Generator so every test pins
its own seed; scores are drawn from (0.05, 0.95) per game, which keeps
average scores strictly interior by construction. `ladder_records` and
`chain_with_triangle` build fixed slow mixers.
"""

from __future__ import annotations

import numpy as np

from recperf import Tournament, build_tournament, check_structure, derive


def random_tournament(
    rng: np.random.Generator,
    n_min: int = 3,
    n_max: int = 12,
    require_p1p2: bool = True,
) -> Tournament:
    """Random sparsity, 1-3 games per playing pair, interior scores."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        p = float(rng.uniform(0.35, 0.95))
        names = [f"P{i + 1}" for i in range(n)]
        records = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    for _ in range(int(rng.integers(1, 4))):
                        records.append(
                            (names[i], names[j], float(rng.uniform(0.05, 0.95)))
                        )
        played = {who for a, b, _ in records for who in (a, b)}
        if len(played) < n:
            continue
        t = build_tournament(names, records)
        if require_p1p2:
            structure = check_structure(derive(t))
            if not structure.connected or structure.bipartite:
                continue
        return t


def random_round_robin(rng: np.random.Generator, n: int) -> Tournament:
    """Every pair plays exactly once; scores interior."""
    names = [f"P{i + 1}" for i in range(n)]
    records = [
        (names[i], names[j], float(rng.uniform(0.05, 0.95)))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return build_tournament(names, records)


def forced_disconnected(rng: np.random.Generator) -> Tournament:
    """Two independent blocks glued into one block-diagonal tournament."""
    a = random_tournament(rng, 2, 5, require_p1p2=False)
    b = random_tournament(rng, 2, 5, require_p1p2=False)
    names = tuple(f"A{p}" for p in a.players) + tuple(f"B{p}" for p in b.players)
    matrix = np.zeros((a.n + b.n, a.n + b.n))
    matrix[: a.n, : a.n] = a.score_matrix
    matrix[a.n :, a.n :] = b.score_matrix
    return Tournament(names, matrix)


def forced_bipartite(rng: np.random.Generator) -> Tournament:
    """Team tournament: games only across a fixed bipartition."""
    while True:
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        names = [f"S{i}" for i in range(n1)] + [f"T{i}" for i in range(n2)]
        records = []
        for i in range(n1):
            for j in range(n2):
                if rng.random() < 0.7:
                    records.append(
                        (names[i], names[n1 + j], float(rng.uniform(0.05, 0.95)))
                    )
        played = {who for a, b, _ in records for who in (a, b)}
        if len(played) == n1 + n2:
            return build_tournament(names, records)


def is_single_round_robin(t: Tournament) -> bool:
    games = t.score_matrix + t.score_matrix.T
    off = ~np.eye(t.n, dtype=bool)
    return bool(np.all(games[off] == 1.0))


def ladder_records(n: int) -> tuple[list[str], list[tuple[str, str, float]]]:
    """A slow mixer: labels and game records of an n-rung ladder.

    Rungs are 50 Elo apart and each plays the two rungs above it 4 times,
    every pair scoring its expected points rounded to a half point. The
    spectral gap falls like 1/n^2 (about 1.3e-3 at n = 100), so the
    fixed-point iteration runs for thousands of steps. Rung k is labelled
    by a permutation seeded with 0, so label order hides the band.
    """
    where = np.random.default_rng(0).permutation(n)
    names = [f"L{k:03d}" for k in range(n)]
    records = []
    for d in (1, 2):
        expected = 1.0 / (1.0 + 10.0 ** (-d * 50.0 / 400.0))
        score = round(8 * expected) / 8
        for k in range(n - d):
            records += [(names[where[k + d]], names[where[k]], score)] * 4
    return names, records


def chain_with_triangle(n: int) -> Tournament:
    """A path of n players closed by one triangle: connected, not bipartite,
    and so slowly mixing that Lanczos needs the full Krylov space."""
    names = [f"P{k}" for k in range(n)]
    records = [(names[k], names[k + 1], 0.6) for k in range(n - 1)]
    return build_tournament(names, records + [(names[0], names[2], 0.6)])
