"""Reference helpers that the tests check recperf's properties with.

These are the oracles behind the acceptance criteria: the games-weighted
inner product and strength summary, relabeling a tournament, the power
limit of Mbar, the raw-vs-centered iteration gap, the consistency residual,
the score ranking, comparison up to a constant shift, and CSV output for
round trips. None of them is on the path of the command line, so they live
with the tests rather than in the package.

The dense oracle (`dense_derive`, `dense_solve`, `dense_iterate`,
`dense_structure`, `dense_lopsided_pairs`, `dense_eigenvalues`) recomputes
everything from the n x n score matrix the way the package did before its
CSR core: M = A + A.T, Mbar = M / m, a bordered LU solve and a queue BFS.
It shares no code with the package's derive, solvers or traversal.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from recperf import (
    DerivedMatrices,
    Ranking,
    RatingModel,
    StructureReport,
    Tournament,
    centered_offsets,
    offsets,
    performance,
    rank_from_ratings,
)


@dataclass(frozen=True)
class DenseDerived:
    """Dense games matrix M, game counts m, Mbar = M / m and scores s."""

    M: np.ndarray
    m: np.ndarray
    Mbar: np.ndarray
    s: np.ndarray

    @property
    def n(self) -> int:
        return self.m.shape[0]


def dense_derive(t: Tournament) -> DenseDerived:
    """The derived quantities, computed densely from `t.score_matrix`."""
    a = t.score_matrix
    big_m = a + a.T
    m = big_m.sum(axis=1)
    return DenseDerived(M=big_m, m=m, Mbar=big_m / m[:, None], s=a.sum(axis=1) / m)


def mbar_dense(d: DerivedMatrices) -> np.ndarray:
    """The n x n Mbar that a `DerivedMatrices` holds as CSR."""
    rows = np.repeat(np.arange(d.n), np.diff(d.indptr))
    mbar = np.zeros((d.n, d.n))
    mbar[rows, d.indices] = d.weights
    return mbar


def dense_chat(dd: DenseDerived, model: RatingModel, clamp_scores: bool = False) -> np.ndarray:
    """Centered offsets from the dense scores, two centering passes."""
    s = dd.s
    if clamp_scores:
        eps = 1.0 / (2.0 * dd.m + 2.0)
        s = np.clip(s, eps, 1.0 - eps)
    c = np.array([model.quantile(float(v)) for v in s])
    total = float(dd.m.sum())
    chat = c - (dd.m @ c) / total
    chat -= (dd.m @ chat) / total
    return chat


def dense_solve(dd: DenseDerived, model: RatingModel, r: np.ndarray | None = None,
                clamp_scores: bool = False) -> np.ndarray:
    """Pinned solution of (I - Mbar) x = chat by the bordered LU solve.

    The rank-one term e w^T with w the games shares replaces the kernel
    direction and bakes in sum(m_i x_i) = sum(m_i r_i).
    """
    r = np.zeros(dd.n) if r is None else np.asarray(r, dtype=float)
    chat = dense_chat(dd, model, clamp_scores)
    total = float(dd.m.sum())
    system = np.eye(dd.n) - dd.Mbar + np.outer(np.ones(dd.n), dd.m / total)
    return np.linalg.solve(system, chat + float(dd.m @ r) / total)


def dense_iterate(dd: DenseDerived, model: RatingModel, r: np.ndarray | None = None,
                  tol: float | None = None, max_iter: int = 100_000,
                  clamp_scores: bool = False) -> tuple[np.ndarray, int]:
    """The fixed-point iteration with dense Mbar: (ratings, iterations).

    Same start, stop rule and default tolerance as `recperf.iterate`;
    raises RuntimeError at the cap.
    """
    r = np.zeros(dd.n) if r is None else np.asarray(r, dtype=float)
    chat = dense_chat(dd, model, clamp_scores)
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.abs(chat).max()))
    current = dd.Mbar @ r + chat
    for iteration in range(1, max_iter + 1):
        nxt = dd.Mbar @ current + chat
        step = float(np.abs(nxt - current).max())
        current = nxt
        if step < tol:
            return current, iteration
    raise RuntimeError(f"dense iteration did not converge in {max_iter} steps")


def dense_structure(dd: DenseDerived) -> StructureReport:
    """Components and first two-coloring by a queue BFS over the dense M."""
    n = dd.n
    adj = [np.nonzero(dd.M[i] > 0)[0] for i in range(n)]
    color = np.full(n, -1, dtype=int)
    components: list[tuple[int, ...]] = []
    coloring = None
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        comp = [start]
        two_colorable = True
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if color[j] < 0:
                    color[j] = 1 - color[i]
                    comp.append(int(j))
                    queue.append(int(j))
                elif color[j] == color[i]:
                    two_colorable = False
        components.append(tuple(sorted(comp)))
        if two_colorable and coloring is None:
            side0 = tuple(i for i in components[-1] if color[i] == 0)
            side1 = tuple(i for i in components[-1] if color[i] == 1)
            coloring = (side0, side1)
    return StructureReport(
        connected=len(components) == 1,
        components=tuple(components),
        bipartite=coloring is not None,
        coloring=coloring,
    )


def dense_lopsided_pairs(t: Tournament) -> tuple[tuple[int, int], ...]:
    """Played pairs where one side took every point, by a dense triu mask."""
    a = t.score_matrix
    mask = np.triu(a + a.T > 0, 1) & ((a == 0) | (a.T == 0))
    rows, cols = np.nonzero(mask)
    return tuple(zip(rows.tolist(), cols.tolist()))


def dense_eigenvalues(dd: DenseDerived) -> np.ndarray:
    """Ascending eigenvalues of Mbar via the symmetrized D^-1/2 M D^-1/2."""
    inv_sqrt = 1.0 / np.sqrt(dd.m)
    sym = inv_sqrt[:, None] * dd.M * inv_sqrt[None, :]
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


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
    mbar = mbar_dense(d)
    power = mbar.copy()
    deviation = float("inf")
    for step in range(1, l_max + 1):
        deviation = float(np.abs(power - target).sum(axis=1).max())
        if deviation <= tol:
            return PowerConvergence(converged=True, steps=step, deviation=deviation)
        power = power @ mbar
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
    mbar = mbar_dense(d)
    raw = mbar @ r + c
    centered = mbar @ r + chat
    for _ in range(steps):
        raw = mbar @ raw + c
        centered = mbar @ centered + chat
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
    a = t.score_matrix
    for i, label in enumerate(t.players):
        cells: list[str] = [label]
        for j in range(t.n):
            cells.append("" if i == j else repr(float(a[i, j])))
        writer.writerow(cells)
    return out.getvalue()
