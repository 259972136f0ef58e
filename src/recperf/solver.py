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
ratings. The same pinned solution is available by a direct solve, which
only needs connectivity: multiplied through by D = diag(m), the system is
the weighted graph Laplacian L x = D chat with L = D - M, symmetric
positive semidefinite with the constants as its kernel, and
Jacobi-preconditioned conjugate gradients solve it.

Both methods, and the one-shot performance, apply Mbar through a single
kernel over the CSR adjacency of `derive`, so every step costs O(pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .models import BoundaryScoreError, RatingModel
from .tournament import DerivedMatrices

DEFAULT_MAX_ITER = 100_000


class ConvergenceError(RuntimeError):
    """A solver hit its iteration cap before its tolerance.

    For the fixed-point iteration the message names the cause: a spectral
    gap within the spectral tolerance of zero means a bipartite schedule,
    on which the iteration oscillates; any larger gap means it mixes too
    slowly for the cap. With `spectral` None the failing solver is the
    direct solve (conjugate gradients), `step_norm` is its last residual
    and `spectral_gap` is None.
    """

    def __init__(self, iterations: int, step_norm: float,
                 spectral: diagnostics.SpectralReport | None, last_iterate: np.ndarray):
        self.iterations = iterations
        self.step_norm = step_norm
        self.spectral_gap = None if spectral is None else spectral.spectral_gap
        self.last_iterate = last_iterate
        if spectral is None:
            super().__init__(
                f"direct solve (conjugate gradients) did not converge after "
                f"{iterations} iterations (residual {step_norm:.3e})"
            )
            return
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
    shares = d.m / d.m.sum()  # not m itself: tiny game totals would lose digits
    chat = c - shares @ c
    chat -= shares @ chat
    return chat


def _mbar_dot(d: DerivedMatrices, x: np.ndarray) -> np.ndarray:
    """Mbar @ x over the CSR adjacency; every row is non-empty."""
    return np.add.reduceat(d.weights * x[d.indices], d.indptr[:-1])


def performance(d: DerivedMatrices, model: RatingModel, r: np.ndarray, *,
                clamp_scores: bool = False) -> np.ndarray:
    """One-shot performance Mbar r + c under initial ratings r.

    This is the classic tournament performance number: average opponent
    rating plus an offset determined by the achieved score share.
    """
    r = _as_vector(r, d)
    return _mbar_dot(d, r) + offsets(d, model, clamp_scores=clamp_scores)


def iterate(d: DerivedMatrices, model: RatingModel, r: np.ndarray | None = None, *,
            tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER,
            record_trace: bool = False, clamp_scores: bool = False) -> SolveOutcome:
    """Fixed-point iteration x <- Mbar x + chat from x = Mbar r + chat.

    Stops when the infinity-norm step drops below `tol` (default
    1e-10 * max(1, |chat|_inf)). The caller is expected to have verified
    P1 and P2 first; on bipartite schedules the iteration oscillates and
    ends in ConvergenceError carrying the spectral gap as a hint.
    """
    r = _as_vector(r, d)
    chat = centered_offsets(d, model, clamp_scores=clamp_scores)
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.abs(chat).max()))
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    current = _mbar_dot(d, r) + chat
    trace = [current.copy()] if record_trace else None
    step = float("inf")
    for iteration in range(1, max_iter + 1):
        nxt = _mbar_dot(d, current)
        nxt += chat
        step = float(np.abs(nxt - current).max())
        current = nxt
        if trace is not None:
            trace.append(current.copy())
        if step < tol:
            residual = float(np.abs(current - (_mbar_dot(d, current) + chat)).max())
            return SolveOutcome(
                ratings=current,
                method="iterative",
                iterations=iteration,
                residual=residual,
                pinned_total=float(d.m @ current),
                trace=tuple(trace) if trace is not None else None,
            )
    raise ConvergenceError(max_iter, step, diagnostics.spectral_diagnostics(d), current)


def _conjugate_gradients(d: DerivedMatrices, chat: np.ndarray) -> np.ndarray:
    """Solve L y = D chat by Jacobi-preconditioned CG, with sum(m_i y_i) = 0.

    Jacobi-preconditioned CG on L is plain CG on the symmetric
    D^-1/2 L D^-1/2 = I - D^-1/2 M D^-1/2 in u = D^1/2 y, which is how it
    runs here: with D scaled to max 1 (which changes nothing), sqrt(m)
    stays clear of underflow even for subnormal game totals. Its residual
    divided by sqrt(m) is the fixed-point residual chat - (y - Mbar y),
    so CG stops on the max norm the solve reports: at most
    1e-13 * max(1, |chat|_inf), or a few rounding units of |y|_inf when
    that is larger (the residual cannot be evaluated more finely). When
    the recurred residual passes, the true one is recomputed, and CG
    restarts from it if it does not. Starting at 0, every update lies in
    the weighted complement of e, which a final projection restores
    against rounding. Raises ConvergenceError after 10 n iterations, or
    sooner if rounding leaves a direction of non-positive curvature.
    """
    root = np.sqrt(d.m)
    root /= root.max()
    floor = 1e-13 * max(1.0, float(np.abs(chat).max()))
    rounding = 16 * np.finfo(float).eps  # evaluation error per unit of |y|_inf
    u = np.zeros(d.n)
    res = root * chat  # the residual at u = 0

    def converged() -> bool:
        return (float(np.abs(res / root).max())
                <= max(floor, rounding * float(np.abs(u / root).max())))

    iterations = 0
    while not converged():
        p = res.copy()
        rr = float(res @ res)
        while not converged():
            q = p - root * _mbar_dot(d, p / root)
            curvature = float(p @ q)
            if iterations == 10 * d.n or not curvature > 0:
                raise ConvergenceError(iterations, float(np.abs(res / root).max()),
                                       None, u / root)
            alpha = rr / curvature
            u += alpha * p
            res -= alpha * q
            rr, rr_old = float(res @ res), rr
            p *= rr / rr_old
            p += res
            iterations += 1
        res = root * chat - (u - root * _mbar_dot(d, u / root))
    y = u / root
    y -= (d.m / d.m.sum()) @ y
    return y


def solve_direct(d: DerivedMatrices, model: RatingModel, r: np.ndarray | None = None, *,
                 clamp_scores: bool = False,
                 structure: diagnostics.StructureReport | None = None) -> SolveOutcome:
    """Solve (I - Mbar) x = chat pinned by strength conservation.

    Conjugate gradients solve the equivalent Laplacian system L y = D chat
    for the part y with sum(m_i y_i) = 0, and x = y + rho e with rho the
    games-weighted mean of r bakes in the constraint
    sum(m_i x_i) = sum(m_i r_i). Needs connectivity only; bipartite
    schedules are fine here even though the iteration diverges on them.
    A caller that already holds `check_structure(d)` passes it as
    `structure` to skip a second traversal.
    """
    if structure is None:
        structure = diagnostics.check_structure(d)
    if not structure.connected:
        raise SingularSystemError(structure.components)
    r = _as_vector(r, d)
    chat = centered_offsets(d, model, clamp_scores=clamp_scores)
    rho = float((d.m / d.m.sum()) @ r)
    x = _conjugate_gradients(d, chat) + rho
    residual = float(np.abs((x - _mbar_dot(d, x)) - chat).max())
    return SolveOutcome(
        ratings=x,
        method="direct",
        iterations=0,
        residual=residual,
        pinned_total=float(d.m @ x),
    )


def _as_vector(r: np.ndarray | None, d: DerivedMatrices) -> np.ndarray:
    if r is None:
        return np.zeros(d.n)
    r = np.asarray(r, dtype=float)
    if r.shape != (d.n,):
        raise ValueError(f"expected a rating vector of length {d.n}, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("initial ratings must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(d.m @ r)
    if not np.isfinite(total):
        raise ValueError(
            "initial_ratings too large: their games-weighted total "
            "sum(m_i r_i) is not finite"
        )
    return r
