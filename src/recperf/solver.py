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
kernel over the CSR adjacency of `derive`, so a step costs O(pairs). On a
small schedule that mixes slowly the iteration also takes blocks of steps by
products with the dense Mbar^256 and Mbar^16 (`iterate` says when). Both
solvers run on the deviation from the conserved games-weighted mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .models import BoundaryScoreError, RatingModel
from .tournament import DerivedMatrices

DEFAULT_MAX_ITER = 100_000
DEFAULT_SOLVE_TOL = 1e-10  # iteration stop, relative to max(1, |chat|_inf)
_ROUNDING = 16 * np.finfo(float).eps  # evaluation error of a step per unit of |x|_inf
_WINDOW = 64  # plain steps over which `iterate` measures the contraction
_BLOCK_BYTES = 6 * 2**20  # Mbar^256, Mbar^16 and a scratch copy, so n <= 512


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
    of the initial ratings. `iterations` counts fixed-point steps, or for
    the direct method conjugate-gradient iterations. `trace` holds every
    iterate when recording was requested (iterative method only).
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
    chat = c - d.shares @ c
    chat -= d.shares @ chat
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
    """Fixed-point iteration x <- Mbar x + chat from x = Mbar r + chat.

    chat is c centered to games-weighted mean zero. Every iterate is
    rho e + y with rho = shares @ r, because Mbar e = e and chat has mean
    zero, so the loop runs on the deviation y and adds rho back to the
    ratings, the trace and the ConvergenceError iterate. It stops when the
    infinity-norm step drops below `tol` (default DEFAULT_SOLVE_TOL *
    max(1, |chat|_inf)), or stalls within the rounding of |y|_inf, which no
    tol can undercut. The caller is expected to have verified P1 and P2
    first; on bipartite schedules the iteration oscillates and ends in
    ConvergenceError, worded from a BFS run only on that failure.

    Without a trace, a schedule whose block maps fit _BLOCK_BYTES (n <= 512)
    predicts every _WINDOW plain steps how many more it needs from the
    contraction q over the last window: log(tol / step) / log(q), or no
    end if q >= 1. Once both that and the steps left to max_iter reach
    n^2/16, about what the build costs, it goes on in blocks of 256 steps,
    then of 16 (`_skip_blocks`); the plain steps still take the last block
    and the steps after it, and so decide the stop, the count and the
    residual.
    """
    r = _as_vector(r, d)
    chat = _centered(d, c)
    if tol is None:
        tol = DEFAULT_SOLVE_TOL * max(1.0, float(np.abs(chat).max()))
    _check_limits(tol, max_iter)
    rho = float(d.shares @ r)
    with np.errstate(over="ignore"):
        y = r - rho
    if not np.isfinite(y).all():  # ratings spread past the float range
        rho, y = 0.0, r
    current = d.mbar_dot(y) + chat
    trace = [current + rho] if record_trace else None
    step = window = math.inf
    # building the block maps costs 0.5-0.9x as much as n^2/16 plain steps for n = 220-512
    build_cost = math.inf if trace is not None or 24 * d.n * d.n > _BLOCK_BYTES else d.n * d.n / 16
    iteration = 0
    with np.errstate(over="ignore"):  # ratings of +-1e308 overflow the step to inf
        while iteration < max_iter:
            iteration += 1
            nxt = d.mbar_dot(current)
            nxt += chat
            delta = nxt - current
            last, step = step, float(np.abs(delta).max())
            current = nxt
            if trace is not None:
                trace.append(current + rho)
            # |y|_inf only once the step stalls: on every step it would slow small schedules
            if step < tol or (step >= last
                              and step <= _ROUNDING * float(np.abs(current).max())):
                return _outcome(d, chat, rho, "iterative", current, iteration, trace=trace)
            if iteration % _WINDOW == 0:
                left = (_WINDOW * math.log(step / tol) / math.log(window / step)
                        if window > step else math.inf)
                if min(left, max_iter - iteration) >= build_cost:
                    build_cost = math.inf
                    xd = np.column_stack([current, delta])
                    for p, q, k in _block_map(d, chat):
                        xd, step, iteration = _skip_blocks(p, q, k, xd, step, iteration,
                                                           max_iter, tol)
                    current = xd[:, 0]
                window = step
    raise ConvergenceError(max_iter, step, diagnostics.check_structure(d), current + rho)


def _block_map(d: DerivedMatrices,
               chat: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
    """(P, q, K) with P = Mbar^K and q = sum_{j<K} Mbar^j chat, for K = 256 and 16.

    K steps map x to P x + q. Squaring (P, q) into (P P, P q + q) doubles
    the steps; a copy keeps Mbar^16, so three n x n arrays are live at the
    end. Each product is taken row by row (gemv), since a whole-matrix one
    (gemm) takes about 1 MB more BLAS scratch memory, and its threads stall
    on busy cores: on the bench ladder (n = 220, 2 cores) the rows took
    0.03-0.04 s of solve in every run, gemm 0.02 s in most but 0.15 s in
    5 of 28.
    """
    p = np.zeros((d.n, d.n))
    p[np.repeat(np.arange(d.n), np.diff(d.indptr)), d.indices] = d.weights
    q = chat
    scratch = np.empty_like(p)
    for steps in (2, 4, 8, 16, 32, 64, 128, 256):
        q = p @ q + q
        for i in range(d.n):
            np.matmul(p[i], p, out=scratch[i])
        p, scratch = scratch, p
        if steps == 16:
            short = p.copy(), q, steps
    return (p, q, steps), short


def _skip_blocks(p: np.ndarray, q: np.ndarray, k: int, xd: np.ndarray, step: float,
                 iteration: int, max_iter: int, tol: float) -> tuple[np.ndarray, float, int]:
    """Advance the columns x and delta of `xd` by blocks of k steps while none could stop.

    p = Mbar^k maps the step delta_j = x_j - x_{j-1} to delta_{j+k} as it
    maps x, so one product (gemm) takes both. Mbar is nonnegative and
    row-stochastic, so |delta|_inf never grows: a block whose end step
    clears both stop tests, for every iterate in it
    (|x_j|_inf <= |x_i|_inf + k |delta_i|_inf) and with a margin for the
    rounding its k plain steps could add, holds no stop. The first block
    that does not clear them is discarded, and the next level goes on from
    its start. Blocks also end k steps before max_iter, so the step that
    meets a cap is a plain one.
    """
    while iteration + k < max_iter:
        end = p @ xd
        end[:, 0] += q
        step_end = float(np.abs(end[:, 1]).max())
        reach = float(np.abs(xd[:, 0]).max()) + k * step
        if not step_end > tol + (k + 1) * _ROUNDING * reach:
            break
        xd, step, iteration = end, step_end, iteration + k
    return xd, step, iteration


def _conjugate_gradients(d: DerivedMatrices, chat: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Solve (I - Mbar) y = chat, with shares @ y = 0, by CG in the shares inner product.

    I - Mbar is self-adjoint and semidefinite in sum(shares_i a_i b_i), so
    this is Jacobi-preconditioned CG on L y = D chat, and its residual is
    the fixed-point residual chat - (y - Mbar y). CG stops on the max norm
    the solve reports: at most 1e-13 * max(1, |chat|_inf), or a few
    rounding units of |y|_inf when that is larger (the residual cannot be
    evaluated more finely). When the recurred residual passes, the true
    one is recomputed, and CG restarts from it if it does not. Starting at
    0, every update lies in the weighted complement of e, which a final
    projection restores against rounding. Raises ConvergenceError after
    10 n iterations, or sooner if rounding leaves a direction of
    non-positive curvature. Returns y, the iterations and the residual of
    the last stop check.

    CG runs on chat / u, u the power of two at or below |chat|_inf: unscaled,
    its squared residuals overflow once |chat|_inf passes about 1e154, and
    a power of two scales exactly, so no result that fits in range moves.
    """
    top = float(np.abs(chat).max())
    u = math.ldexp(1.0, math.frexp(top)[1] - 1)  # 1/2 when chat = 0
    floor = 1e-13 * max(1.0, top) / u
    chat = chat / u
    y = np.zeros(d.n)
    res = chat.copy()  # the residual at y = 0

    def converged() -> bool:
        return float(np.abs(res).max()) <= max(floor, _ROUNDING * float(np.abs(y).max()))

    iterations = 0
    while not converged():
        p = res.copy()
        rr = float(d.shares @ (res * res))
        while not converged():
            q = p - d.mbar_dot(p)
            curvature = float(d.shares @ (p * q))
            if iterations == 10 * d.n or not curvature > 0:
                raise ConvergenceError(iterations, float(np.abs(res).max()) * u, None, y * u)
            alpha = rr / curvature
            y += alpha * p
            res -= alpha * q
            rr, rr_old = float(d.shares @ (res * res)), rr
            p *= rr / rr_old
            p += res
            iterations += 1
        res = chat - (y - d.mbar_dot(y))
    y -= d.shares @ y
    with np.errstate(over="ignore"):  # ratings past the float range, which _outcome refuses
        return y * u, iterations, float(np.abs(res).max()) * u


def solve_direct(d: DerivedMatrices, c: np.ndarray, r: np.ndarray | None = None, *,
                 structure: diagnostics.StructureReport | None = None) -> SolveOutcome:
    """Solve (I - Mbar) x = chat pinned by strength conservation.

    chat is c centered to games-weighted mean zero. Conjugate gradients
    solve the equivalent Laplacian system L y = D chat for the part y with
    sum(m_i y_i) = 0, and x = y + rho e with rho the games-weighted mean
    of r bakes in the constraint sum(m_i x_i) = sum(m_i r_i). Needs
    connectivity only; bipartite schedules are fine here even though the
    iteration diverges on them. A caller that already holds
    `check_structure(d)` passes it as `structure` to skip a second traversal.
    """
    if structure is None:
        structure = diagnostics.check_structure(d)
    if not structure.connected:
        raise SingularSystemError(structure.components)
    r = _as_vector(r, d)
    chat = _centered(d, c)
    return _outcome(d, chat, float(d.shares @ r), "direct", *_conjugate_gradients(d, chat))


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
        total = float(np.ldexp(d.m @ np.ldexp(x, -k), k))
    if not (math.isfinite(total) and math.isfinite(residual)):
        raise ValueError("ratings past the float range: the model scale is too large")
    return SolveOutcome(x, method, iterations, residual, total, tuple(trace) if trace else None)


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
        total = float(d.m @ r)
    if not np.isfinite(total):
        raise ValueError("initial_ratings too large: their games-weighted total "
                         "sum(m_i r_i) is not finite")
    return r
