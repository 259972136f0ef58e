"""Rankings induced by rating vectors, with explicit tie groups."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


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


def _check_tie_tol(tie_tol: float) -> None:
    if not tie_tol >= 0:
        raise ValueError(f"tie_tol must be nonnegative, got {tie_tol}")


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
    _check_tie_tol(tie_tol)
    order = np.argsort(-x, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order, order[1:]):
        if x[prev] - x[cur] <= tie_tol:
            groups[-1].append(int(cur))
        else:
            groups.append([int(cur)])
    return Ranking(tuple(tuple(sorted(g)) for g in groups))
