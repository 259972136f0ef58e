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
            (i, j) is the total score of i against j. Every player's game
            total (row sum of A + A.T) is positive, and their sum is
            finite.
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
        with np.errstate(over="ignore"):
            games = (a + a.T).sum(axis=1)
            all_games = games.sum()
        if not np.isfinite(all_games):
            huge = [players[i] for i in np.nonzero(~np.isfinite(games))[0]]
            raise TournamentDataError(
                f"game totals overflow for players: {huge}" if huge
                else "game totals overflow when summed over all players"
            )
        if np.any(games == 0):
            idle = [players[i] for i in np.nonzero(games == 0)[0]]
            raise TournamentDataError(f"players with no games: {idle}")
        object.__setattr__(self, "score_matrix", _frozen(a))

    @property
    def n(self) -> int:
        return len(self.players)


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

    Every game count is positive and finite; `Tournament` guarantees it.
    """
    a = t.score_matrix
    big_m = a + a.T
    m = big_m.sum(axis=1)
    mbar = big_m / m[:, None]
    s = a.sum(axis=1) / m
    return DerivedMatrices(
        M=_frozen(big_m),
        m=_frozen(m),
        Mbar=_frozen(mbar),
        s=_frozen(s),
    )
