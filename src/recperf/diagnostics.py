"""Structural and spectral checks on the comparison graph.

The recursive-performance iteration converges exactly when the graph whose
edges are the pairs with at least one game is connected (P1) and not
bipartite (P2). Both facts are checked twice and independently here: by
breadth-first traversal of the graph, and through the spectrum of the
opponent-weighting matrix Mbar, whose eigenvalues are real, bounded by 1 in
absolute value, have 1 with multiplicity equal to the number of connected
components, and include -1 exactly for bipartite schedules.

The traversal walks the CSR adjacency of `derive` one BFS level at a time,
in O(n + pairs), at most once per derived schedule: `d.structure` keeps
its verdict for `check_structure`, the solvers and the spectral check. The
spectral check needs only the extremes of the spectrum, lambda_2 and
lambda_min, once the unit eigenvalues the BFS predicts are deflated;
Lanczos in the games-weighted inner product finds them through the same
CSR kernel. A step costs one CSR product and one reorthogonalization pass
(two reads of the k rows so far): O(k * pairs + k^2 * n) time for k steps,
with k capped so that the basis stays under 64 MB. The basis holds 8 rows
until a run passes its first check, at step 8, and then the whole cap, of
which only the k rows written become resident: memory in use is O(k * n).
Only `check --spectral` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # tournament imports this module, for the traversal
    from .tournament import DerivedMatrices, Tournament

UNRESOLVED = "unresolved"  # a spectral verdict the bounds or the basis budget leave open
_BASIS_BYTES = 64 * 2**20  # the Lanczos basis never grows past this, whatever n is


@dataclass(frozen=True)
class StructureReport:
    """Graph-side verdicts with witnesses.

    `components` always lists the connected components (one entry when
    connected). `bipartite` is true when at least one component admits a
    proper two-coloring, which is exactly the condition that blocks the
    fixed-point iteration and puts -1 into the spectrum; on connected
    graphs it is ordinary bipartiteness. `coloring` is the two-coloring
    (side0, side1) of the first such component, None when there is none.
    """

    connected: bool
    components: tuple[tuple[int, ...], ...]
    bipartite: bool
    coloring: tuple[tuple[int, ...], tuple[int, ...]] | None


@dataclass(frozen=True)
class SpectralReport:
    """The extreme eigenvalues of the opponent-weighting matrix, with bounds.

    `eigenvalues` holds the resolved extremes, ascending: lambda_min,
    lambda_2 (the largest eigenvalue apart from the unit ones), then each
    eigenvalue found within the rounding tolerance 64 * n * eps of 1. Some
    eigenvalue lies within `lambda_2_bound` of lambda_2 and within
    `lambda_min_bound` of lambda_min (Ritz residual norms).
    `multiplicity_one` and `has_minus_one` read UNRESOLVED when a bound
    straddles that tolerance or the basis budget ended the run. UNRESOLVED
    is a non-empty string, so compare the verdicts with `is True`,
    `is False` or `== 1`; never test them for truth.
    `spectral_gap` is 1 - max(|lambda_2|, |lambda_min|); it drives the
    asymptotic convergence rate of the fixed-point iteration.
    `lanczos_steps` is the dimension of the Krylov space searched.
    """

    eigenvalues: np.ndarray
    multiplicity_one: int | str
    has_minus_one: bool | str
    spectral_gap: float
    lambda_2_bound: float
    lambda_min_bound: float
    lanczos_steps: int

    @property
    def lambda_2(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


def check_structure(d: DerivedMatrices) -> StructureReport:
    """Components and per-component 2-coloring of the comparison graph: `d.structure`,
    whose BFS runs at its first read and is kept on `d`."""
    return d.structure


def _traverse(d: DerivedMatrices) -> StructureReport:
    """BFS the comparison graph, for `DerivedMatrices.structure`.

    Level-synchronous: each step expands a whole BFS level at once over the
    CSR adjacency. Components are found in order of their smallest member.
    An edge joins equal or adjacent BFS depths, so a component two-colors
    exactly when no edge joins two players at the same depth, and its sides
    are then the even and the odd depths. A component that two-colors
    cleanly is a team-like sub-schedule; any such component makes the whole
    iteration oscillate, so the verdict is per component rather than global.
    """
    n, indptr, indices = d.n, d.indptr, d.indices
    depth = np.full(n, -1, dtype=np.int32)
    members: list[np.ndarray] = []
    odd_cycle: list[bool] = []
    for start in range(n):
        if depth[start] >= 0:
            continue
        depth[start] = 0
        frontier = np.array([start])
        levels = [frontier]
        level = 0
        odd = False
        while frontier.size:
            reached = np.concatenate([indices[indptr[k]:indptr[k + 1]]
                                      for k in frontier.tolist()])
            seen = depth[reached]
            odd = odd or bool(np.any(seen == level))
            fresh = np.sort(reached[seen < 0])
            first = np.ones(fresh.size, dtype=bool)
            first[1:] = fresh[1:] != fresh[:-1]
            frontier = fresh[first]
            level += 1
            depth[frontier] = level
            levels.append(frontier)
        members.append(np.sort(np.concatenate(levels)))
        odd_cycle.append(odd)
    coloring: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    if not all(odd_cycle):
        comp = members[odd_cycle.index(False)]
        even = depth[comp] % 2 == 0
        coloring = (tuple(comp[even].tolist()), tuple(comp[~even].tolist()))
    return StructureReport(connected=len(members) == 1,
                           components=tuple(tuple(c.tolist()) for c in members),
                           bipartite=coloring is not None, coloring=coloring)


def _unit_vectors(d: DerivedMatrices, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vector z_C of each BFS component C of `d.structure` that Mbar fixes within `tol`.

    z_C is constant on C and a unit vector in the shares inner product.
    Only a component that no game leaves is checked, so a wrong BFS split
    is never deflated. For those, Mbar z_C is Mbar z on C, where z holds
    every z_C side by side, so one product checks them all. Returns each
    player's component, the vectors kept side by side (zero elsewhere)
    and the Rayleigh quotient of each. A player no component lists joins
    the first one, which that player's games then make fail the check.
    """
    groups = len(d.structure.components)
    label = np.zeros(d.n, dtype=np.int32)
    for k, members in enumerate(d.structure.components):
        label[list(members)] = k
    leaves = np.logical_or.reduceat(
        label[d.indices] != np.repeat(label, np.diff(d.indptr)), d.indptr[:-1])
    z = 1.0 / np.sqrt(np.bincount(label, d.shares, minlength=groups))[label]
    mz = d.mbar_dot(z)
    kept = ((np.bincount(label, leaves, minlength=groups) == 0)
            & (np.sqrt(np.bincount(label, d.shares * (mz - z) ** 2, minlength=groups)) <= tol))
    z[~kept[label]] = 0.0
    return label, z, np.bincount(label, d.shares * z * mz, minlength=groups)[kept]


def _start_vector(n: int) -> np.ndarray:
    """n pseudo-random numbers in [-1/2, 1/2), the same on every call.

    The splitmix64 hash of 1..n: importing numpy.random for this would
    add 6 MB to the peak RSS of `check --spectral` on small inputs.
    """
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)  # mod 2^64
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(factor)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)) * 2.0**-53 - 0.5


def spectral_diagnostics(d: DerivedMatrices) -> SpectralReport:
    """lambda_2 and lambda_min of Mbar, with bounds, by deflated Lanczos.

    Mbar is self-adjoint in the shares inner product sum(shares_i a_i b_i),
    so Lanczos runs on `mbar_dot` in it and no n x n array is built. An
    eigenvalue counts as 1 or -1 within tol = 64 * n * eps. The vector
    constant on each BFS component of `d.structure` is deflated once Mbar
    is seen to fix it within tol.
    Lanczos then runs on the rest from a fixed-seed start: each step
    takes the three-term recurrence, then deflates once and makes one
    classical Gram-Schmidt pass against its basis. Every few
    steps (a geometric schedule) the k x k tridiagonal is solved; the run
    stops when the residual estimates of the top and bottom Ritz values
    are within tol, on breakdown, or when the basis would pass
    _BASIS_BYTES. Some eigenvalue lies within the Ritz residual norm of
    each Ritz value, so each verdict carries its bound:
    `multiplicity_one` counts the deflated vectors and every Ritz value
    within tol of 1 once lambda_2 plus its bound falls below 1 - tol, and
    `has_minus_one` is decided once lambda_min's bound keeps it off or
    puts it within tol of -1. Otherwise the verdict is UNRESOLVED. A bound
    shows that an eigenvalue lies near a Ritz value, not that none lies
    beyond it: from a generic start Lanczos finds the extremes first, but
    a run the budget cuts short may not have reached them, so both
    verdicts of such a run read UNRESOLVED, whatever their bounds.
    """
    n = d.n
    # how close an eigenvalue must come to 1 or -1 to count as one: a
    # rounding bound, 2.8e-11 at n = 2000. A looser one such as 1e-9 * n
    # took eigenvalues 3e-7 away from 1 and -1 for 1 and -1 on a
    # 2000-player chain closed by one triangle, which is connected and
    # not bipartite.
    tol = 64 * n * np.finfo(float).eps

    def norm(w: np.ndarray) -> float:  # in the shares inner product
        return float(np.sqrt(d.shares @ (w * w)))

    label, z, units = _unit_vectors(d, tol)

    def deflate(w: np.ndarray) -> None:
        w -= z * np.bincount(label, d.shares * z * w)[label]

    v = _start_vector(n)
    deflate(v)
    deflate(v)
    space = n - units.size  # the dimension left once the unit vectors are deflated
    limit = min(space, max(1, _BASIS_BYTES // (8 * n)))
    basis = np.empty((min(limit, 8), n))  # one vector a row; the first check is at step 8
    np.divide(v, norm(v), out=basis[0])
    alphas = np.empty(limit)
    betas = np.empty(limit)
    check = 8
    for k in range(1, limit + 1):
        v = basis[k - 1]
        w = d.mbar_dot(v)
        if k > 1:
            w -= betas[k - 2] * basis[k - 2]
        alpha = d.shares @ (v * w)
        w -= alpha * v
        deflate(w)
        h = basis[:k] @ (d.shares * w)  # one full reorthogonalization pass
        w -= h @ basis[:k]
        alphas[k - 1] = alpha + h[-1]
        beta = norm(w)
        if beta <= tol or k == limit or k == check:
            tridiagonal = np.zeros((k, k))
            tridiagonal.flat[::k + 1] = alphas[:k]
            tridiagonal.flat[k::k + 1] = betas[:k - 1]  # eigh reads the lower triangle
            theta, s = np.linalg.eigh(tridiagonal)
            # beta |last entry| of each Ritz vector estimates its residual;
            # top is the largest Ritz value not within tol of 1
            residual = beta * np.abs(s[-1])
            top = k - 1
            while top > 0 and theta[top] - residual[top] >= 1.0 - tol:
                top -= 1
            # the Krylov space is invariant, or both extremes have converged
            settled = beta <= tol or k == space or max(residual[top], residual[0]) <= tol
            if settled or k == limit:
                break
            check = k + k // 4
        if k == len(basis):  # past the first check: reserve the budget, once
            grown = np.empty((limit, n))
            grown[:k] = basis
            basis = grown
        betas[k - 1] = beta
        np.divide(w, beta, out=basis[k])

    # the bounds are the residuals of the Ritz vectors themselves, not estimates
    ritz = s[:, [top, 0]].T @ basis[:k]
    lambda_2, lambda_min = float(theta[top]), float(theta[0])
    bound_2, bound_min = (norm(d.mbar_dot(y) - value * y) / norm(y)
                          for y, value in zip(ritz, (lambda_2, lambda_min)))
    ones = np.sort(np.concatenate([units, theta[top + 1:]]))
    multiplicity: int | str = UNRESOLVED
    minus_one: bool | str = UNRESOLVED
    if settled:  # else the budget ended the run, and the extremes may lie beyond the Ritz values
        if lambda_2 + bound_2 < 1.0 - tol:
            multiplicity = ones.size
        if lambda_min + bound_min <= -1.0 + tol:
            minus_one = True
        elif lambda_min - bound_min > -1.0 + tol:
            minus_one = False
    eigenvalues = np.concatenate([[lambda_min, lambda_2], ones])
    eigenvalues.flags.writeable = False
    return SpectralReport(
        eigenvalues=eigenvalues,
        multiplicity_one=multiplicity,
        has_minus_one=minus_one,
        spectral_gap=1.0 - max(abs(lambda_2), abs(lambda_min)),
        lambda_2_bound=bound_2,
        lambda_min_bound=bound_min,
        lanczos_steps=k,
    )


def lopsided_pairs(t: Tournament) -> np.ndarray:
    """Pairs that played where one side took every point: a read-only row-major (k, 2) int32 array.

    Such pairs fall outside the interior-score side condition of the
    convergence statement; they are a warning, never an error, because
    convergence itself needs only P1 and P2.
    """
    mask = (t.a_ij == 0) | (t.a_ji == 0)
    pairs = np.stack([t.i[mask], t.j[mask]], axis=1, dtype=np.int32)
    pairs.flags.writeable = False
    return pairs
