"""Recursive-performance ratings.

The performance of a player under a rating vector r is the unique rating at
which their expected score against an opponent of their average opponents'
strength equals their actual average score:

    p = Mbar r + c,    c_i = quantile(s_i).

Feeding performances back in as ratings gives a fixed-point iteration. Run
with the centered offsets chat (c shifted so its games-weighted sum is
zero) the iteration conserves total strength at every step and, for
connected non-bipartite schedules, converges to the recursive performance:
the solution of

    (I - Mbar) x = chat

pinned so that sum(m_i x_i) equals the total strength of the initial
ratings. The same pinned solution is available by a direct dense solve,
which only needs connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .models import BoundaryScoreError, RatingModel
from .ranking import min_shift_distance
from .tournament import DerivedMatrices

DEFAULT_MAX_ITER = 100_000


class ConvergenceError(RuntimeError):
    """Fixed-point iteration hit the iteration cap before the tolerance.

    The message names the cause: a spectral gap within the spectral
    tolerance of zero means a bipartite schedule, on which the iteration
    oscillates; any larger gap means it mixes too slowly for the cap.
    """

    def __init__(self, iterations: int, step_norm: float,
                 spectral: diagnostics.SpectralReport, last_iterate: np.ndarray):
        self.iterations = iterations
        self.step_norm = step_norm
        self.spectral_gap = spectral.spectral_gap
        self.last_iterate = last_iterate
        if self.spectral_gap <= spectral.tol:
            cause = ("is zero: the schedule is bipartite, so the iteration "
                     "oscillates; use --method direct")
        else:
            cause = ("means the schedule mixes slowly; raise --max-iter "
                     "or use --method direct")
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last step {step_norm:.3e}); spectral gap "
            f"{self.spectral_gap:.3e} {cause}"
        )


class SingularSystemError(ValueError):
    """The rating system is singular because the comparison graph is split."""

    def __init__(self, components: tuple[tuple[int, ...], ...]):
        self.components = components
        parts = " | ".join("{" + ", ".join(map(str, c)) + "}" for c in components)
        super().__init__(
            f"tournament splits into {len(components)} independent groups "
            f"({parts}); ratings across groups are not comparable"
        )


@dataclass(frozen=True)
class SolveOutcome:
    """A pinned rating vector plus how it was obtained.

    `pinned_total` is sum(m_i ratings_i), which matches the total strength
    of the initial ratings. `trace` holds every iterate when recording was
    requested (iterative method only).
    """

    ratings: np.ndarray
    method: str
    iterations: int
    residual: float
    pinned_total: float
    trace: tuple[np.ndarray, ...] | None = None


def _interior_scores(d: DerivedMatrices, clamp_scores: bool) -> np.ndarray:
    """Average scores, either validated as interior or explicitly clamped.

    Clamping maps s_i into [eps_i, 1 - eps_i] with eps_i = 1/(2 m_i + 2).
    It is an opt-in escape hatch for all-win/all-loss players and sits
    outside the model the ratings are derived from.
    """
    s = d.s
    if clamp_scores:
        eps = 1.0 / (2.0 * d.m + 2.0)
        return np.clip(s, eps, 1.0 - eps)
    boundary = np.nonzero((s <= 0.0) | (s >= 1.0))[0]
    if boundary.size:
        i = int(boundary[0])
        raise BoundaryScoreError(float(s[i]), player=i)
    return s


def offsets(d: DerivedMatrices, model: RatingModel, *,
            clamp_scores: bool = False) -> np.ndarray:
    """Per-player rating offsets c_i = quantile(s_i)."""
    s = _interior_scores(d, clamp_scores)
    return np.array([model.quantile(float(v)) for v in s])


def centered_offsets(d: DerivedMatrices, model: RatingModel, *,
                     clamp_scores: bool = False) -> np.ndarray:
    """Offsets recentered so their games-weighted sum is zero.

    Centering removes the inflation/deflation the raw offsets would inject
    into the iteration. Two passes keep the weighted sum at rounding level.
    """
    c = offsets(d, model, clamp_scores=clamp_scores)
    total = float(d.m.sum())
    chat = c - (d.m @ c) / total
    chat -= (d.m @ chat) / total
    return chat


def performance(d: DerivedMatrices, model: RatingModel, r: np.ndarray, *,
                clamp_scores: bool = False) -> np.ndarray:
    """One-shot performance Mbar r + c under initial ratings r.

    This is the classic tournament performance number: average opponent
    rating plus an offset determined by the achieved score share.
    """
    r = _as_vector(r, d.n)
    return d.Mbar @ r + offsets(d, model, clamp_scores=clamp_scores)


def iterate(d: DerivedMatrices, model: RatingModel, r: np.ndarray | None = None, *,
            tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER,
            record_trace: bool = False, clamp_scores: bool = False) -> SolveOutcome:
    """Fixed-point iteration x <- Mbar x + chat from x = Mbar r + chat.

    Stops when the infinity-norm step drops below `tol` (default
    1e-10 * max(1, |chat|_inf)). The caller is expected to have verified
    P1 and P2 first; on bipartite schedules the iteration oscillates and
    ends in ConvergenceError carrying the spectral gap as a hint.
    """
    r = _as_vector(r, d.n)
    chat = centered_offsets(d, model, clamp_scores=clamp_scores)
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.abs(chat).max()))
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    current = d.Mbar @ r + chat
    trace = [current.copy()] if record_trace else None
    step = float("inf")
    for iteration in range(1, max_iter + 1):
        nxt = d.Mbar @ current + chat
        step = float(np.abs(nxt - current).max())
        current = nxt
        if trace is not None:
            trace.append(current.copy())
        if step < tol:
            residual = float(np.abs(current - (d.Mbar @ current + chat)).max())
            return SolveOutcome(
                ratings=current,
                method="iterative",
                iterations=iteration,
                residual=residual,
                pinned_total=float(d.m @ current),
                trace=tuple(trace) if trace is not None else None,
            )
    raise ConvergenceError(max_iter, step, diagnostics.spectral_diagnostics(d), current)


def solve_direct(d: DerivedMatrices, model: RatingModel, r: np.ndarray | None = None, *,
                 clamp_scores: bool = False,
                 structure: diagnostics.StructureReport | None = None) -> SolveOutcome:
    """Solve (I - Mbar) x = chat pinned by strength conservation.

    The singular rank-(n-1) system is replaced by the equivalent nonsingular
    one (I - Mbar + e w^T) x = chat + rho e, with w the games shares and rho
    the games-weighted mean of r: on the weighted complement of e the
    operator is unchanged, and the rank-one term bakes in the constraint
    sum(m_i x_i) = sum(m_i r_i). Needs connectivity only; bipartite
    schedules are fine here even though the iteration diverges on them.
    A caller that already holds `check_structure(d)` passes it as
    `structure` to skip a second traversal.
    """
    if structure is None:
        structure = diagnostics.check_structure(d)
    if not structure.connected:
        raise SingularSystemError(structure.components)
    r = _as_vector(r, d.n)
    chat = centered_offsets(d, model, clamp_scores=clamp_scores)
    total = float(d.m.sum())
    weights = d.m / total
    rho = float(d.m @ r) / total
    system = np.eye(d.n) - d.Mbar + np.outer(np.ones(d.n), weights)
    x = np.linalg.solve(system, chat + rho)
    residual = float(np.abs((x - d.Mbar @ x) - chat).max())
    return SolveOutcome(
        ratings=x,
        method="direct",
        iterations=0,
        residual=residual,
        pinned_total=float(d.m @ x),
    )


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
    r = _as_vector(r, d.n)
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
    x = _as_vector(x, d.n)
    p = performance(d, model, x, clamp_scores=clamp_scores)
    return min_shift_distance(p, x)


def _as_vector(r: np.ndarray | None, n: int) -> np.ndarray:
    if r is None:
        return np.zeros(n)
    r = np.asarray(r, dtype=float)
    if r.shape != (n,):
        raise ValueError(f"expected a rating vector of length {n}, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("initial ratings must be finite")
    return r
