"""Tournament data model and the opponent weighting derived from it.

A tournament is a set of player labels plus the pairs that played: for
each pair i < j with at least one game, a_ij is the total score player i
collected against player j and a_ji the total of j against i. Every game
awards a total of one point between the two players, so M_ij = a_ij + a_ji
counts the games of the pair and the row sums m of M count games per
player. Pairs that never met are not stored, so memory is O(pairs), not
O(n^2): the dense score matrix A exists only when `score_matrix` is read.

`derive` turns the pairs into a CSR adjacency (each player's opponents in
ascending order) carrying the weights M_ij / m_i of the row-stochastic
matrix Mbar, plus m and the average scores s. Everything downstream (the
solvers, the traversal, the spectrum) works from that.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np


class TournamentDataError(ValueError):
    """Raised when tournament data violates a structural invariant."""


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _labels(players: Sequence[str]) -> tuple[str, ...]:
    players = tuple(str(p) for p in players)
    n = len(players)
    if n < 2:
        raise TournamentDataError(f"need at least 2 players, got {n}")
    if any(not p for p in players):
        raise TournamentDataError("player labels must be non-empty")
    if len(set(players)) != n:
        dupes = sorted(p for p, count in Counter(players).items() if count > 1)
        raise TournamentDataError(f"duplicate player labels: {dupes}")
    return players


@dataclass(frozen=True, eq=False, init=False)
class Tournament:
    """Player labels plus the aggregated scores of every pair that played.

    Built from a dense crosstable as `Tournament(players, score_matrix)`,
    or from game records by `build_tournament`.

    Attributes:
        players: distinct non-empty labels, length n >= 2.
        i, j: int32 indices of the pairs with at least one game, i < j,
            sorted row-major.
        a_ij, a_ji: per pair, the total score of i against j and of j
            against i; nonnegative, with a positive sum. Every player's
            game total is positive, and their sum is finite.
    """

    players: tuple[str, ...]
    i: np.ndarray
    j: np.ndarray
    a_ij: np.ndarray
    a_ji: np.ndarray

    def __init__(self, players: Sequence[str], score_matrix: np.ndarray) -> None:
        players = _labels(players)
        n = len(players)
        a = np.asarray(score_matrix, dtype=float)
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
        i, j = (k.astype(np.int32) for k in np.nonzero(np.triu((a > 0) | (a.T > 0), 1)))
        self._set(players, i, j, a[i, j], a[j, i])

    def _set(self, players, i, j, a_ij, a_ji) -> None:
        n = len(players)
        with np.errstate(over="ignore"):
            pair_games = a_ij + a_ji
            games = (np.bincount(i, pair_games, minlength=n)
                     + np.bincount(j, pair_games, minlength=n))
            all_games = games.sum()
        if not np.isfinite(all_games):
            huge = [players[k] for k in np.nonzero(~np.isfinite(games))[0]]
            raise TournamentDataError(
                f"game totals overflow for players: {huge}" if huge
                else "game totals overflow when summed over all players"
            )
        if np.any(games == 0):
            idle = [players[k] for k in np.nonzero(games == 0)[0]]
            raise TournamentDataError(f"players with no games: {idle}")
        for name, value in (("players", players), ("i", _frozen(i, np.int32)),
                            ("j", _frozen(j, np.int32)), ("a_ij", _frozen(a_ij)),
                            ("a_ji", _frozen(a_ji))):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.players == other.players and all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in ("i", "j", "a_ij", "a_ji")
        )

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def score_matrix(self) -> np.ndarray:
        """The dense n x n score matrix A, built on every access (read-only).

        Entry (i, j) is the total score of i against j; pairs that never
        met read 0. For crosstable output and tests: it costs O(n^2).
        """
        a = np.zeros((self.n, self.n))
        a[self.i, self.j] = self.a_ij
        a[self.j, self.i] = self.a_ji
        a.flags.writeable = False
        return a


@dataclass(frozen=True)
class DerivedMatrices:
    """The opponent weighting Mbar as a CSR adjacency, plus m and s.

    Attributes:
        m: games played by each player (row sums of M, all positive).
        s: average score per player, row sums of A divided by m.
        indptr: length n + 1; the opponents of player i are
            indices[indptr[i]:indptr[i + 1]], in ascending order. Every
            row is non-empty.
        indices: opponent index of each entry.
        weights: Mbar's entry M_ij / m_i for each (i, opponent j); each
            row sums to 1.
    """

    m: np.ndarray
    s: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def mbar_dot(self, x: np.ndarray) -> np.ndarray:
        """Mbar @ x over the CSR adjacency; every row is non-empty."""
        return np.add.reduceat(self.weights * x[self.indices], self.indptr[:-1])


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
    players = _labels(players)
    records = list(match_records)  # read by column: zip(*records) would set off GC passes
    index = {p: k for k, p in enumerate(players)}
    first = np.fromiter(map(index.get, (a for a, _, _ in records), repeat(-1)), np.intp)
    second = np.fromiter(map(index.get, (b for _, b, _ in records), repeat(-1)), np.intp)
    score = np.fromiter((s for _, _, s in records), float)
    bad = np.flatnonzero((first < 0) | (second < 0) | (first == second)
                         | ~((score >= 0.0) & (score <= 1.0)))
    if bad.size:
        k = int(bad[0])
        pa, pb, _ = records[k]
        why = (f"unknown player {pa!r}" if first[k] < 0
               else f"unknown player {pb!r}" if second[k] < 0
               else f"self-match for {pa!r} is not allowed" if first[k] == second[k]
               else f"score {float(score[k])} outside [0, 1]")
        raise TournamentDataError(f"record {k + 1}: {why}")
    swap = first > second
    lo = np.where(swap, second, first)
    hi = np.where(swap, first, second)
    # number the distinct pairs row-major; with return_inverse np.unique
    # does not import numpy.ma, a tenth of the package's start-up time
    keys, pair = np.unique(lo * len(players) + hi, return_inverse=True)
    # bincount adds each pair's games in record order, as a loop would
    a_lo = np.bincount(pair, np.where(swap, 1.0 - score, score), minlength=keys.size)
    a_hi = np.bincount(pair, np.where(swap, score, 1.0 - score), minlength=keys.size)
    i, j = np.divmod(keys, len(players))
    t = Tournament.__new__(Tournament)  # labels checked, pairs aggregated row-major
    t._set(players, i, j, a_lo, a_hi)
    return t


def derive(t: Tournament) -> DerivedMatrices:
    """Build Mbar's CSR adjacency, the game counts m and the average scores s.

    Every game count is positive and finite; `Tournament` guarantees it.
    """
    n = t.n
    pair_games = t.a_ij + t.a_ji
    m = np.bincount(t.i, pair_games, minlength=n) + np.bincount(t.j, pair_games, minlength=n)
    s = (np.bincount(t.i, t.a_ij, minlength=n) + np.bincount(t.j, t.a_ji, minlength=n)) / m
    # Entry k < pairs is pair k seen from j (opponent i), entry pairs + k is
    # pair k seen from i (opponent j). Opponents below a player come from
    # the first half in ascending i, those above from the second half in
    # ascending j, so a stable sort by row leaves every row ascending.
    rows = np.concatenate([t.j, t.i])
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    order = np.argsort(rows, kind="stable")
    del rows
    # intp, not int32: gathering x[indices] with int32 indices converts
    # them on every call, which the iteration makes tens of thousands of
    indices = np.concatenate([t.i, t.j])[order].astype(np.intp)
    weights = np.take(pair_games, order, mode="wrap")
    del order
    weights /= np.repeat(m, np.diff(indptr))
    return DerivedMatrices(
        m=_frozen(m),
        s=_frozen(s),
        indptr=_frozen(indptr, np.intp),
        indices=_frozen(indices, np.intp),
        weights=_frozen(weights),
    )
