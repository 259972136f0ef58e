"""Tournament data model and the matrices derived from it.

A tournament is a set of player labels plus a nonnegative score matrix A
with zero diagonal: A[i, j] is the total score player i collected against
player j over all their games. Every game awards a total of one point
between the two players, so M = A + A.T counts games per pair and row sums
of M count games per player. Everything downstream (opponent averaging,
average scores, the weighted inner product) is derived from A alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np


class TournamentDataError(ValueError):
    """Raised when tournament data violates a structural invariant."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Tournament:
    """Player labels plus the pairwise score matrix.

    Attributes:
        players: distinct non-empty labels, length n >= 2.
        score_matrix: n x n nonnegative matrix with zero diagonal; entry
            (i, j) is the total score of i against j.
    """

    players: tuple[str, ...]
    score_matrix: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.players == other.players and np.array_equal(
            self.score_matrix, other.score_matrix
        )

    def __post_init__(self) -> None:
        players = tuple(str(p) for p in self.players)
        object.__setattr__(self, "players", players)
        n = len(players)
        if n < 2:
            raise TournamentDataError(f"need at least 2 players, got {n}")
        if any(not p for p in players):
            raise TournamentDataError("player labels must be non-empty")
        if len(set(players)) != n:
            dupes = sorted({p for p in players if players.count(p) > 1})
            raise TournamentDataError(f"duplicate player labels: {dupes}")

        a = np.asarray(self.score_matrix, dtype=float)
        if a.shape != (n, n):
            raise TournamentDataError(
                f"score matrix shape {a.shape} does not match {n} players"
            )
        if not np.all(np.isfinite(a)):
            raise TournamentDataError("score matrix entries must be finite")
        if np.any(a < 0):
            i, j = np.argwhere(a < 0)[0]
            raise TournamentDataError(
                f"negative score {a[i, j]} for {players[i]} vs {players[j]}"
            )
        diag = np.diagonal(a)
        if np.any(diag != 0):
            i = int(np.nonzero(diag)[0][0])
            raise TournamentDataError(
                f"nonzero diagonal entry for {players[i]}: a player cannot score against himself"
            )
        games = (a + a.T).sum(axis=1)
        if np.any(games == 0):
            idle = [players[i] for i in np.nonzero(games == 0)[0]]
            raise TournamentDataError(f"players with no games: {idle}")
        object.__setattr__(self, "score_matrix", _frozen(a))

    @property
    def n(self) -> int:
        return len(self.players)

    def index_of(self, label: str) -> int:
        try:
            return self.players.index(label)
        except ValueError:
            raise TournamentDataError(f"unknown player: {label!r}") from None


@dataclass(frozen=True)
class DerivedMatrices:
    """Matrices and vectors derived from a tournament's score matrix.

    Attributes:
        M: symmetric games-per-pair matrix, A + A.T.
        m: games played by each player (row sums of M, all positive).
        Mbar: row-stochastic opponent-weighting matrix, M[i, j] / m[i].
        s: average score per player, row sums of A divided by m.
    """

    M: np.ndarray
    m: np.ndarray
    Mbar: np.ndarray
    s: np.ndarray

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class StrengthSummary:
    """Games-weighted total and average of a rating vector."""

    total: float
    average: float


def build_tournament(
    players: Sequence[str],
    match_records: Iterable[tuple[str, str, float]],
) -> Tournament:
    """Aggregate per-game results into a tournament.

    Each record is (a, b, score_a) for one game: player a took score_a in
    [0, 1] and player b took 1 - score_a.

    Raises:
        TournamentDataError: on duplicate or unknown labels, a score outside
            [0, 1], a self-match, or a player left with zero games.
    """
    players = tuple(str(p) for p in players)
    if len(set(players)) != len(players):
        dupes = sorted({p for p in players if players.count(p) > 1})
        raise TournamentDataError(f"duplicate player labels: {dupes}")
    index = {p: i for i, p in enumerate(players)}
    a = np.zeros((len(players), len(players)))
    for rec_no, (pa, pb, score_a) in enumerate(match_records, start=1):
        if pa not in index:
            raise TournamentDataError(f"record {rec_no}: unknown player {pa!r}")
        if pb not in index:
            raise TournamentDataError(f"record {rec_no}: unknown player {pb!r}")
        if pa == pb:
            raise TournamentDataError(
                f"record {rec_no}: self-match for {pa!r} is not allowed"
            )
        score_a = float(score_a)
        if not 0.0 <= score_a <= 1.0:
            raise TournamentDataError(
                f"record {rec_no}: score {score_a} outside [0, 1]"
            )
        a[index[pa], index[pb]] += score_a
        a[index[pb], index[pa]] += 1.0 - score_a
    return Tournament(players, a)


def derive(t: Tournament) -> DerivedMatrices:
    """Compute the games matrix, per-player game counts, the row-stochastic
    opponent-weighting matrix and the average scores.

    Raises:
        TournamentDataError: if some player has no games (zero row in M).
    """
    a = t.score_matrix
    big_m = a + a.T
    m = big_m.sum(axis=1)
    if np.any(m <= 0):
        idle = [t.players[i] for i in np.nonzero(m <= 0)[0]]
        raise TournamentDataError(f"players with no games: {idle}")
    mbar = big_m / m[:, None]
    s = a.sum(axis=1) / m
    return DerivedMatrices(
        M=_frozen(big_m),
        m=_frozen(m),
        Mbar=_frozen(mbar),
        s=_frozen(s),
    )


def weighted_inner(d: DerivedMatrices, v: np.ndarray, w: np.ndarray) -> float:
    """Games-weighted inner product sum(m_i * v_i * w_i)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (d.n,) or w.shape != (d.n,):
        raise ValueError(
            f"expected two vectors of length {d.n}, got {v.shape} and {w.shape}"
        )
    return float(np.sum(d.m * v * w))


def strength_summary(d: DerivedMatrices, r: np.ndarray) -> StrengthSummary:
    """Total strength sum(m_i * r_i) and its games-weighted average."""
    r = np.asarray(r, dtype=float)
    if r.shape != (d.n,):
        raise ValueError(f"expected a rating vector of length {d.n}, got {r.shape}")
    total = float(d.m @ r)
    return StrengthSummary(total=total, average=total / float(d.m.sum()))


def permute_tournament(t: Tournament, perm: Sequence[int]) -> Tournament:
    """Relabel players: player at old index i moves to new index perm[i].

    The result is the same tournament up to labeling; derived quantities are
    the original ones permuted the same way.
    """
    n = t.n
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    players = tuple(t.players[i] for i in inv)
    a = t.score_matrix[np.ix_(inv, inv)]
    return Tournament(players, a)
