"""Reference helpers that the tests check recperf's properties with.

These are the oracles behind the acceptance criteria: the games-weighted
inner product and strength summary, relabeling a tournament, the power
limit of Mbar, the raw-vs-centered iteration gap, the consistency residual,
the score ranking, comparison up to a constant shift, and CSV output for
round trips. None of them is on the path of the command line, so they live
with the tests rather than in the package.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from recperf import (
    DerivedMatrices,
    Ranking,
    RatingModel,
    Tournament,
    centered_offsets,
    offsets,
    performance,
    rank_from_ratings,
)


@dataclass(frozen=True)
class StrengthSummary:
    """Games-weighted total and average of a rating vector."""

    total: float
    average: float


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


@dataclass(frozen=True)
class PowerConvergence:
    """Outcome of driving Mbar^l toward its rank-one limit."""

    converged: bool
    steps: int
    deviation: float

    def __bool__(self) -> bool:
        return self.converged


def limit_power_check(d: DerivedMatrices, l_max: int, tol: float) -> PowerConvergence:
    """Test whether Mbar^l approaches the rank-one matrix with rows m / sum(m).

    Uses the matrix infinity norm (max absolute row sum). Under P1 and P2
    the limit is reached; bipartite or disconnected schedules never get
    there, and the achieved deviation at l_max is reported instead.
    """
    if l_max < 1:
        raise ValueError(f"l_max must be at least 1, got {l_max}")
    target = np.outer(np.ones(d.n), d.m) / d.m.sum()
    power = d.Mbar.copy()
    deviation = float("inf")
    for step in range(1, l_max + 1):
        deviation = float(np.abs(power - target).sum(axis=1).max())
        if deviation <= tol:
            return PowerConvergence(converged=True, steps=step, deviation=deviation)
        power = power @ d.Mbar
    return PowerConvergence(converged=False, steps=l_max, deviation=deviation)


def centering_drift(d: DerivedMatrices, model: RatingModel, r: np.ndarray,
                    steps: int, *, clamp_scores: bool = False) -> np.ndarray:
    """Difference after `steps` between the raw and the centered iteration.

    Running the iteration with the raw offsets c instead of chat shifts
    every iterate by a multiple of the all-ones vector and nothing else:
    after l steps the gap is (l + 1) * weighted-mean(c) * e. Returned for
    verification against that closed form; the induced rankings coincide.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    r = np.asarray(r, dtype=float)
    c = offsets(d, model, clamp_scores=clamp_scores)
    chat = centered_offsets(d, model, clamp_scores=clamp_scores)
    raw = d.Mbar @ r + c
    centered = d.Mbar @ r + chat
    for _ in range(steps):
        raw = d.Mbar @ raw + c
        centered = d.Mbar @ centered + chat
    return raw - centered


def consistency_residual(d: DerivedMatrices, model: RatingModel, x: np.ndarray, *,
                         clamp_scores: bool = False) -> float:
    """How far x is from reproducing itself as its own performance.

    Zero (up to rounding) exactly for the solutions of the pinned linear
    system; adding a constant shift to x does not change the value.
    """
    x = np.asarray(x, dtype=float)
    p = performance(d, model, x, clamp_scores=clamp_scores)
    return min_shift_distance(p, x)


def score_ranking(d: DerivedMatrices, tie_tol: float = 0.0) -> Ranking:
    """Ranking induced by the average scores, same tie rule."""
    return rank_from_ratings(d.s, tie_tol)


def min_shift_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest infinity-norm distance between x and y + any constant shift.

    The minimizing shift is the midpoint of the extremes of x - y, so the
    distance is half the spread of the componentwise difference.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    diff = x - y
    return 0.5 * float(diff.max() - diff.min())


def essentially_identical(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """Whether two rating vectors make the same predictions.

    For any strictly increasing difference-based model this reduces to the
    vectors agreeing up to a constant shift, so the model only fixes the
    units of `tol`.
    """
    return min_shift_distance(x, y) <= tol


def tournament_to_csv(t: Tournament) -> str:
    """CSV crosstable text that `parse_tournament(..., fmt="csv")` reads back."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(t.players))
    for i, label in enumerate(t.players):
        cells: list[str] = [label]
        for j in range(t.n):
            cells.append("" if i == j else repr(float(t.score_matrix[i, j])))
        writer.writerow(cells)
    return out.getvalue()
