"""Recursive-performance ratings.

The performance of a player under a rating vector r is the unique rating at
which their expected score against an opponent of their average opponents'
strength equals their actual average score:

    p = Mbar r + c,    c_i = quantile(s_i),

where `offsets` alone applies the model, once per run; the solvers take c.
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
Jacobi-preconditioned conjugate gradients solve it, as CG on I - Mbar in
the games-weighted inner product.

Both methods, and the one-shot performance, apply Mbar through a single
kernel over the CSR adjacency of `derive`, so a step costs O(pairs). A slow
mixer finishes the iteration with the direct solve's conjugate gradients
from the iterate where plain steps slowed (`iterate` says when). Both
solvers run on the deviation from the conserved games-weighted mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diagnostics
from .models import BoundaryScoreError, RatingModel
from .tournament import DerivedMatrices

DEFAULT_MAX_ITER = 100_000
DEFAULT_SOLVE_TOL = 1e-10  # iteration stop, relative to |chat|_inf (absolute when chat = 0)
_ROUNDING = 16 * np.finfo(float).eps  # evaluation error of a step per unit of |x|_inf
_WINDOW = 64  # plain steps over which `iterate` measures the contraction


class ConvergenceError(RuntimeError):
    """A solver hit its iteration cap before its tolerance.

    For the fixed-point iteration the message names the cause that the
    BFS verdict `structure` shows: a split schedule, a bipartite one (the
    iteration oscillates), or else a cap below the steps the iteration
    needs. With `structure` None the failing solver is the direct solve
    (conjugate gradients) and `step_norm` is its last residual.
    """

    def __init__(self, iterations: int, step_norm: float,
                 structure: diagnostics.StructureReport | None, last_iterate: np.ndarray):
        self.iterations = iterations
        self.step_norm = step_norm
        self.last_iterate = last_iterate
        if structure is None:
            super().__init__(
                f"direct solve (conjugate gradients) did not converge after "
                f"{iterations} iterations (residual {step_norm:.3e})"
            )
            return
        if not structure.connected:
            cause = (f"splits into {len(structure.components)} independent groups, "
                     "whose ratings drift apart")
        elif structure.bipartite:
            cause = ("is bipartite (spectral gap zero), so the iteration "
                     "oscillates; use --method direct")
        else:
            cause = ("has an odd cycle (spectral gap positive), so the iteration "
                     f"converges, but not within {iterations} steps; "
                     "raise --max-iter or use --method direct")
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last step {step_norm:.3e}): the schedule {cause}"
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
    of the initial ratings. `iterations` counts, for the iterative method,
    the Mbar products `max_iter` caps (one a plain step, CG iteration or
    check of CG's true residual); for the direct method, CG iterations.
    `trace` holds the start and the iterate after each Mbar product when
    recording was requested (iterative method only).
    """

    ratings: np.ndarray
    method: str
    iterations: int
    residual: float
    pinned_total: float
    trace: tuple[np.ndarray, ...] | None = None


def offsets(d: DerivedMatrices, model: RatingModel, *,
            clamp_scores: bool = False) -> np.ndarray:
    """Per-player rating offsets c_i = quantile(s_i), the one step that reads the model.

    BoundaryScoreError names the first s_i not strictly inside (0, 1).
    `clamp_scores`, an opt-in escape hatch for all-win/all-loss players
    outside the model, first maps s_i into [eps_i, 1 - eps_i] with
    eps_i = 1/(2 m_i + 2), then checks them too (past about 2^52 games,
    1 - eps_i rounds to 1).
    """
    s = d.s
    if clamp_scores:
        eps = 1.0 / (2.0 * d.m + 2.0)
        s = np.clip(s, eps, 1.0 - eps)
    boundary = np.nonzero((s <= 0.0) | (s >= 1.0))[0]
    if boundary.size:
        i = int(boundary[0])
        raise BoundaryScoreError(float(s[i]), player=i)
    return np.array([model.quantile(float(v)) for v in s])


def _centered(d: DerivedMatrices, c: np.ndarray) -> np.ndarray:
    """The offsets c recentered so their games-weighted sum is zero.

    Centering removes the inflation/deflation the raw offsets would inject
    into the iteration. Two passes keep the weighted sum at rounding level.
    """
    c = _finite(c, d, "offsets", "offsets")
    chat = c - _dot(d.shares, c)
    chat -= _dot(d.shares, chat)
    return chat


def performance(d: DerivedMatrices, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One-shot performance Mbar r + c under initial ratings r and offsets c.

    This is the classic tournament performance number: average opponent
    rating plus an offset determined by the achieved score share.
    """
    r = _as_vector(r, d)
    return d.mbar_dot(r) + _finite(c, d, "offsets", "offsets")


def _check_limits(tol: float | None, max_iter: int) -> None:
    if tol is not None and not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def iterate(d: DerivedMatrices, c: np.ndarray, r: np.ndarray | None = None, *,
            tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER,
            record_trace: bool = False) -> SolveOutcome:
    """Fixed-point iteration x <- Mbar x + chat from x = Mbar r + chat, accelerated once slow.

    chat is c centered to games-weighted mean zero. Every iterate is
    rho e + y with rho = sum(shares_i r_i), because Mbar e = e and chat has mean
    zero, so the loop runs on the deviation y and adds rho back to the
    ratings, the trace and the ConvergenceError iterate. A step is one
    Mbar product, the plain step delta = Mbar x + chat - x; the run stops
    at x + delta once |delta|_inf is below `tol` (default DEFAULT_SOLVE_TOL
    * |chat|_inf, or * 1 if chat = 0) or stalls within the rounding of
    |y|_inf, which no tol can undercut. Steps are plain until a boundary
    of _WINDOW steps where the drop left, step/tol, exceeds the last
    window's; then `_conjugate_gradients` finishes the run from x, whose
    delta is CG's residual, on the same stop (Hageman & Young, "Applied
    Iterative Methods", 1981, ch. 7), unless `d.structure` (read only at
    the switch or the cap) finds the schedule split or bipartite: CG could
    converge where the paper's iteration must not, so plain steps go on to
    the cap. Every ConvergenceError names that BFS cause.
    Plain steps take no dot, CG two a step, each a pairwise sum: no BLAS
    kernel or thread count rounds them. A trace, which changes no step,
    holds the start and x after each Mbar product.
    """
    r = _as_vector(r, d)
    chat = _centered(d, c)
    if tol is None:
        tol = DEFAULT_SOLVE_TOL * (float(np.abs(chat).max()) or 1.0)
    _check_limits(tol, max_iter)
    rho = _dot(d.shares, r)
    with np.errstate(over="ignore"):
        y = r - rho
    if not np.isfinite(y).all():  # ratings spread past the float range
        rho, y = 0.0, r
    current = d.mbar_dot(y) + chat
    trace = [current + rho] if record_trace else None
    step = window = math.inf
    with np.errstate(over="ignore"):  # ratings of +-1e308 overflow the step to inf
        for iteration in range(1, max_iter + 1):
            nxt = d.mbar_dot(current)
            nxt += chat
            delta = nxt - current
            last, step = step, float(np.abs(delta).max())
            # |y|_inf only once the step stalls: on every step it would slow small schedules
            if step < tol or (step >= last and step <= _ROUNDING * float(np.abs(nxt).max())):
                if trace is not None:
                    trace.append(nxt + rho)
                return _outcome(d, chat, rho, "iterative", nxt, iteration, trace=trace)
            if iteration % _WINDOW == 0:
                if window > step and step / tol > window / step:
                    if d.structure.connected and not d.structure.bipartite:
                        break
                window = step
            current = nxt
            if trace is not None:
                trace.append(current + rho)
        else:
            raise ConvergenceError(max_iter, step, d.structure, current + rho)
        y, _, products, step, converged = _conjugate_gradients(
            d, chat, current, delta, tol, max_iter - iteration,
            None if trace is None else lambda x: trace.append(x + rho))
    if converged:
        return _outcome(d, chat, rho, "iterative", y, iteration + products, step, trace)
    raise ConvergenceError(iteration + products, step, d.structure, y + rho)


def _conjugate_gradients(d: DerivedMatrices, chat: np.ndarray, y: np.ndarray, res: np.ndarray,
                         floor: float, cap: int,
                         record: Callable[[np.ndarray], None] | None = None
                         ) -> tuple[np.ndarray, int, int, float, bool]:
    """Solve (I - Mbar) y = chat from `y`, whose residual is `res`, by CG in the shares inner product.

    I - Mbar is self-adjoint and semidefinite in sum(shares_i a_i b_i), so
    this is Jacobi-preconditioned CG on L y = D chat, and its residual is
    the fixed-point residual chat - (y - Mbar y). CG stops once that
    residual's max norm is at most `floor`, or a few rounding units of
    |y|_inf when that is larger (the residual cannot be evaluated more
    finely). When the recurred residual passes, the true one is
    recomputed, and CG restarts from it if it does not. Every update lies
    in the weighted complement of e. CG gives up after `cap` Mbar
    products, or once rounding leaves a direction of non-positive
    curvature. `record` gets the start and y after each product. Returns
    y, the iterations, the products (iterations and true residuals), the
    last residual and whether it converged.

    CG runs on chat, res and y over u, the power of two at or below
    max(|chat|_inf, |res|_inf): unscaled, its squared residuals overflow
    past about 1e154, and a power of two scales exactly.
    """
    u = math.ldexp(1.0, math.frexp(max(np.abs(chat).max(), np.abs(res).max()))[1] - 1)  # 1/2 at 0
    floor, chat, y, res = floor / u, chat / u, y / u, res / u
    iterations, products, p, exact = 0, 0, None, True  # exact: res is the true residual at y
    while True:
        if record is not None:
            record(y * u)
        passed = float(np.abs(res).max()) <= max(floor, _ROUNDING * float(np.abs(y).max()))
        if (passed and exact) or products == cap:
            break
        if passed:
            res = chat - (y - d.mbar_dot(y))
            products, p, exact = products + 1, None, True
            continue
        if p is None:
            p = res.copy()
            rr = _dot(d.shares, res * res)
        q = p - d.mbar_dot(p)
        products += 1
        curvature = _dot(d.shares, p * q)
        if not curvature > 0:
            break
        alpha = rr / curvature
        y += alpha * p
        res -= alpha * q
        rr, rr_old = _dot(d.shares, res * res), rr
        p *= rr / rr_old
        p += res
        iterations, exact = iterations + 1, False
    with np.errstate(over="ignore"):  # ratings past the float range, which _outcome refuses
        return y * u, iterations, products, float(np.abs(res).max()) * u, passed and exact


def solve_direct(d: DerivedMatrices, c: np.ndarray, r: np.ndarray | None = None) -> SolveOutcome:
    """Solve (I - Mbar) x = chat pinned by strength conservation.

    chat is c centered to games-weighted mean zero. Conjugate gradients
    solve the equivalent Laplacian system L y = D chat for the part y with
    sum(m_i y_i) = 0: from y = 0, to 1e-13 * |chat|_inf (1e-13 when
    chat = 0), for at most 10 n Mbar products, with a final projection
    against rounding. x = y + rho e with rho the games-weighted mean of r
    bakes in the constraint sum(m_i x_i) = sum(m_i r_i). Needs
    connectivity only, as `d.structure` tells; bipartite schedules are
    fine here even though the iteration diverges on them.
    """
    if not d.structure.connected:
        raise SingularSystemError(d.structure.components)
    r = _as_vector(r, d)
    chat = _centered(d, c)
    y, iterations, _, residual, converged = _conjugate_gradients(
        d, chat, np.zeros(d.n), chat, 1e-13 * (float(np.abs(chat).max()) or 1.0), 10 * d.n)
    if not converged:
        raise ConvergenceError(iterations, residual, None, y)
    with np.errstate(over="ignore", invalid="ignore"):  # as past the float range
        y -= _dot(d.shares, y)
    return _outcome(d, chat, _dot(d.shares, r), "direct", y, iterations, residual)


def _outcome(d: DerivedMatrices, chat: np.ndarray, rho: float, method: str, y: np.ndarray,
             iterations: int, residual: float | None = None,
             trace: list[np.ndarray] | None = None) -> SolveOutcome:
    """The SolveOutcome of ratings y + rho; ValueError if they pass the float range.

    Unless the solve measured its own, the residual is taken on y, free of
    the rounding of rho. The total is summed over x / 2^k, 2^k >= |x|_inf,
    and scaled back: exact, with no partial sum to overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = y + rho
        if residual is None:
            residual = float(np.abs(y - (d.mbar_dot(y) + chat)).max())
        k = math.frexp(float(np.abs(x).max()))[1]
        total = float(np.ldexp(_dot(d.m, np.ldexp(x, -k)), k))
    if not (math.isfinite(total) and math.isfinite(residual)):
        raise ValueError("ratings past the float range: the model scale is too large")
    return SolveOutcome(x, method, iterations, residual, total, tuple(trace) if trace else None)


def _dot(w: np.ndarray, v: np.ndarray) -> float:
    """sum(w_i v_i) as a pairwise sum, which no BLAS kernel or thread count rounds differently."""
    return float(np.add.reduce(w * v))


def _finite(v: np.ndarray, d: DerivedMatrices, noun: str, name: str) -> np.ndarray:
    """`v` as a float vector of n finite values, or ValueError naming `noun` and `name`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d.n,):
        raise ValueError(f"expected {noun} of length {d.n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _as_vector(r: np.ndarray | None, d: DerivedMatrices) -> np.ndarray:
    if r is None:
        return np.zeros(d.n)
    r = _finite(r, d, "a rating vector", "initial ratings")
    with np.errstate(over="ignore", invalid="ignore"):
        total = _dot(d.m, r)
    if not np.isfinite(total):
        raise ValueError("initial_ratings too large: their games-weighted total "
                         "sum(m_i r_i) is not finite")
    return r
