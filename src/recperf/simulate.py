"""Synthetic tournaments drawn from a known strength vector.

Each scheduled game between i and j is decided by a biased coin: i wins
with probability model.expected_score(theta_i, theta_j), and the winner
takes the full point (no draws). The seed fully determines the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import RatingModel
from .tournament import Tournament, build_tournament

SCHEDULE_KINDS = ("round_robin", "random")
MAX_SCHEDULE_RETRIES = 100


@dataclass(frozen=True)
class Schedule:
    """Pairing plan: `count` is rounds for round_robin, total games for random."""

    kind: str
    count: int

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(
                f"unknown schedule {self.kind!r}; expected one of {SCHEDULE_KINDS}"
            )
        if self.count < 1:
            raise ValueError(f"schedule count must be positive, got {self.count}")


@dataclass(frozen=True)
class SimulationConfig:
    """Ground truth and pairing plan for one synthetic tournament.

    Strengths come either from `true_strengths` or, when absent, from a
    seeded uniform draw over [-spread/2, spread/2].
    """

    n: int
    model: RatingModel
    schedule: Schedule
    seed: int
    true_strengths: tuple[float, ...] | None = None
    spread: float = 400.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 players, got {self.n}")
        if self.schedule.kind == "round_robin" and self.n < 3:
            raise ValueError(
                "round_robin needs at least 3 players; a 2-player schedule is bipartite"
            )
        if self.true_strengths is not None:
            strengths = tuple(float(v) for v in self.true_strengths)
            if len(strengths) != self.n:
                raise ValueError(f"{len(strengths)} strengths given for {self.n} players")
            if not np.isfinite(strengths).all():  # else the draw fails on the first such game
                raise ValueError(f"true strengths must be finite, got {strengths}")
            if not np.isfinite(max(strengths) - min(strengths)):  # every game takes a difference
                raise ValueError(f"true strengths must differ by a finite amount, got {strengths}")
            object.__setattr__(self, "true_strengths", strengths)
        elif not 0 < self.spread < float("inf"):  # NaN fails both comparisons
            raise ValueError(f"strength spread must be finite and positive, got {self.spread}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SimulationResult:
    players: tuple[str, ...]
    records: tuple[tuple[str, str, float], ...]
    true_strengths: tuple[float, ...]
    seed: int

    def tournament(self) -> Tournament:
        return build_tournament(self.players, self.records)


def _schedule_pairs(config: SimulationConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    n = config.n
    if config.schedule.kind == "round_robin":
        return [(i, j) for i in range(n) for j in range(i + 1, n)] * config.schedule.count

    # pair k of the row-major list of all i < j lies in the last row whose
    # first pair index starts[i] is <= k, so no O(n^2) list is built
    starts = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    for _ in range(MAX_SCHEDULE_RETRIES):
        picks = rng.integers(0, n * (n - 1) // 2, size=config.schedule.count)
        first = np.searchsorted(starts, picks, side="right") - 1
        second = picks - starts[first] + first + 1
        if np.bincount(np.concatenate([first, second]), minlength=n).all():
            return list(zip(first.tolist(), second.tolist()))
    raise ValueError(
        f"random schedule of {config.schedule.count} games kept leaving a player "
        f"idle after {MAX_SCHEDULE_RETRIES} attempts; increase the game count"
    )


def simulate_tournament(config: SimulationConfig) -> SimulationResult:
    """Draw one tournament; identical configs give identical results."""
    rng = np.random.default_rng(config.seed)
    players = tuple(f"P{i + 1}" for i in range(config.n))
    if config.true_strengths is not None:
        theta = np.array(config.true_strengths)
    else:
        theta = rng.uniform(-config.spread / 2.0, config.spread / 2.0, config.n)
    pairs = _schedule_pairs(config, rng)
    records = []
    for i, j in pairs:
        p_win = config.model.expected_score(theta[i], theta[j])
        score = 1.0 if rng.random() < p_win else 0.0
        records.append((players[i], players[j], score))
    return SimulationResult(
        players=players,
        records=tuple(records),
        true_strengths=tuple(float(v) for v in theta),
        seed=config.seed,
    )
