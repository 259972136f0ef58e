"""Rankings induced by rating vectors, with explicit tie groups."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tournament import DerivedMatrices


@dataclass(frozen=True)
class Ranking:
    """Disjoint groups of player indices, best first; a group is a tie."""

    groups: tuple[tuple[int, ...], ...]

    def labels(self, players: Sequence[str]) -> list[list[str]]:
        return [[players[i] for i in group] for group in self.groups]

    def positions(self) -> list[int]:
        """1-based competition rank per player index (ties share a rank)."""
        n = sum(len(g) for g in self.groups)
        pos = [0] * n
        rank = 1
        for group in self.groups:
            for i in group:
                pos[i] = rank
            rank += len(group)
        return pos


def rank_from_ratings(ratings: np.ndarray, tie_tol: float) -> Ranking:
    """Sort descending and merge near-ties transitively.

    Consecutive sorted ratings within `tie_tol` of each other join the same
    group, so a chain of near-ties collapses into one group even when its
    extremes differ by more than the tolerance.
    """
    x = np.asarray(ratings, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a non-empty rating vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("ratings must be finite")
    if tie_tol < 0:
        raise ValueError(f"tie tolerance must be nonnegative, got {tie_tol}")
    order = np.argsort(-x, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order, order[1:]):
        if x[prev] - x[cur] <= tie_tol:
            groups[-1].append(int(cur))
        else:
            groups.append([int(cur)])
    return Ranking(tuple(tuple(sorted(g)) for g in groups))


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
