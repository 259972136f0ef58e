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
CSR kernel. A step costs one CSR product and holds two Lanczos vectors:
k steps take O(k * pairs) time in O(n) memory, and a second run of them
builds the Ritz vectors of the two extremes and of their ghost copies. At
each check the extreme Ritz values of the k x k Lanczos tridiagonal come
from Sturm-count bisection and their vectors from one inverse-iteration
solve, in plain floats at O(k) a count, so no LAPACK routine runs. Only
`check --spectral` runs it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # tournament imports this module, for the traversal
    from .tournament import DerivedMatrices, Tournament

UNRESOLVED = "unresolved"  # a spectral verdict the bounds or the step cap leave open
_MAX_STEPS = 20_000  # Lanczos steps; the 20000-rung ladder takes 12,940
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


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
    straddles that tolerance or the step cap ended the run. UNRESOLVED
    is a non-empty string, so compare the verdicts with `is True`,
    `is False` or `== 1`; never test them for truth.
    `spectral_gap` is 1 - max(|lambda_2|, |lambda_min|); it drives the
    asymptotic convergence rate of the fixed-point iteration.
    `lanczos_steps` counts the Lanczos steps of the run.
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


def _sturm_count(diag: list[float], squares: list[float], x: float, pivmin: float,
                 most: int) -> int:
    """How many eigenvalues of a symmetric tridiagonal lie at or below x, counted up to `most`.

    The count of negative LDL^T pivots of T - x I, one a row, where
    squares[i] = T[i, i-1]^2 (squares[0] = 0); a pivot within pivmin of 0
    is taken as -pivmin (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).
    """
    count = 0
    pivot = 1.0
    for a, b2 in zip(diag, squares):
        pivot = a - x - b2 / pivot
        if pivot < pivmin:
            if pivot > -pivmin:
                pivot = -pivmin
            count += 1
            if count == most:
                break
    return count


def _pivots(diag: list[float], squares: list[float], x: float, pivmin: float) -> list[float]:
    """The LDL^T pivots of T - x I, guarded as `_sturm_count` guards them."""
    pivots = []
    pivot = 1.0
    for a, b2 in zip(diag, squares):
        pivot = a - x - b2 / pivot
        if abs(pivot) < pivmin:
            pivot = -pivmin
        pivots.append(pivot)
    return pivots


def _ritz(diag: list[float], off: list[float], beta: float, j: int,
          near: tuple[float, float, list[float]] | None = None
          ) -> tuple[float, float, list[float]]:
    """A Ritz value of the Lanczos tridiagonal T, its residual estimate and its Ritz vector.

    T has diagonal `diag` and off-diagonal `off`, beta is the next Lanczos
    coefficient, and j indexes the Ritz values ascending, as a list does:
    0 is the smallest, -1 the largest. The value comes from bisection to
    the last bit, each step one Sturm count, cut short once it has passed
    the value sought. It starts from the Gershgorin interval, or from a
    narrower bracket when `near` is the extreme pair (j = 0 or -1) of a
    leading block of T, as `_ritz` gave it: by Cauchy interlacing its
    value bounds this one from one side, and some eigenvalue of T lies
    within its residual estimate of it, so a Sturm count at each end
    confirms the bracket or keeps the Gershgorin end. The vector is one
    step of inverse iteration, (T - theta I) s = gamma e_r solved by
    eliminating from both ends toward the row r where they meet with the
    smallest |gamma| (a twisted factorization, Parlett & Dhillon, Linear
    Algebra Appl. 309, 2000), so even a tiny last entry s_k comes out to
    working relative accuracy. It is left unnormalized, with s_r = 1;
    beta |s_k| / ||s|| estimates the residual norm.
    """
    k = len(diag)
    sign, index = (1.0, j) if j >= 0 else (-1.0, -1 - j)  # the index-th smallest of sign * T
    signed = diag if j >= 0 else [-a for a in diag]
    squares = [0.0] + [b * b for b in off]
    pivmin = _TINY * max(1.0, *squares)
    reach = [abs(b) + abs(c) for b, c in zip([0.0, *off], [*off, 0.0])]  # Gershgorin radii
    lo = min(a - r for a, r in zip(signed, reach))
    hi = max(a + r for a, r in zip(signed, reach))
    scale = max(-lo, hi)
    pad = k * _EPS * scale + pivmin  # rounding in the counts
    lo, hi = lo - pad, hi + pad
    if near is not None:
        value, residual, _ = near
        below, above = sign * value - residual - pad, sign * value + pad
        if lo < below and _sturm_count(signed, squares, below, pivmin, index + 1) <= index:
            lo = below
        if above < hi and _sturm_count(signed, squares, above, pivmin, index + 1) > index:
            hi = above
    floor = _EPS * _EPS * scale  # an eigenvalue at 0 stops here, not among the subnormals
    mid = 0.5 * (lo + hi)
    while lo < mid < hi and hi - lo > floor:
        if _sturm_count(signed, squares, mid, pivmin, index + 1) > index:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    theta = sign * hi

    down = _pivots(diag, squares, theta, pivmin)
    up = _pivots(diag[::-1], [0.0] + squares[:0:-1], theta, pivmin)[::-1]
    twist = min(range(k), key=lambda i: abs(down[i] + up[i] - (diag[i] - theta)))
    s = [0.0] * k
    s[twist] = 1.0
    for i in range(twist - 1, -1, -1):
        s[i] = -off[i] / down[i] * s[i + 1]
    for i in range(twist + 1, k):
        s[i] = -off[i - 1] / up[i] * s[i - 1]
    return theta, beta * abs(s[-1]) / math.hypot(*s), s


def spectral_diagnostics(d: DerivedMatrices) -> SpectralReport:
    """lambda_2 and lambda_min of Mbar, with bounds, by deflated Lanczos.

    Mbar is self-adjoint in the shares inner product sum(shares_i a_i b_i),
    so Lanczos runs on `mbar_dot` in it and no n x n array is built. An
    eigenvalue counts as 1 or -1 within tol = 64 * n * eps. The vector
    constant on each BFS component of `d.structure` is deflated once Mbar
    is seen to fix it within tol. Lanczos then runs on the rest from a
    fixed-seed start, deflating once a step. At each check (a geometric
    schedule, and the dimension left) `_ritz` finds lambda_min and lambda_2,
    the largest Ritz value not within tol of 1. The run settles once the
    next beta or both residual estimates are within tol. Without
    reorthogonalization converged values repeat as ghosts, but the
    extremes still converge (Paige, J. Inst. Math. Appl. 18, 1976). A
    second run of the same steps sums a Ritz vector for each distinct Ritz
    value within tol of either extreme: some eigenvalue lies within a
    vector's residual norm of its value, and a ghost copy's vector can be
    short (Cullum & Willoughby, 1985), so each extreme is the copy with the
    least residual norm, which is its bound. `multiplicity_one` counts the
    deflated vectors and the distinct Ritz values within tol of 1 once
    lambda_2 plus its bound falls below 1 - tol, and `has_minus_one` is
    decided once lambda_min's bound keeps it off or puts it within tol of
    -1. Otherwise the verdict is UNRESOLVED. A bound shows that an
    eigenvalue lies near a Ritz value, not that none lies beyond it: from a
    generic start Lanczos finds the extremes first, but a run that
    _MAX_STEPS ends may not have reached them, so both verdicts of such a
    run read UNRESOLVED, whatever their bounds.
    """
    n = d.n
    # how close an eigenvalue must come to 1 or -1 to count as one: 2.8e-11 at
    # n = 2000. 1e-9 * n took eigenvalues 3e-7 from 1 and -1 for 1 and -1 on a
    # 2000-player chain closed by one triangle, which is connected and not bipartite.
    tol = 64 * n * np.finfo(float).eps

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        # a pairwise sum, which no BLAS kernel or thread count rounds differently
        return float(np.add.reduce(d.shares * (a * b)))

    def norm(w: np.ndarray) -> float:
        return math.sqrt(inner(w, w))

    label, z, units = _unit_vectors(d, tol)

    def deflate(w: np.ndarray) -> None:
        w -= z * np.bincount(label, d.shares * z * w)[label]

    start = _start_vector(n)
    deflate(start)
    deflate(start)
    start /= norm(start)

    def lanczos() -> Iterator[tuple[np.ndarray, float, float]]:  # v_k, alpha_k, beta_k
        v, previous, beta = start, 0.0, 0.0
        while True:
            w = d.mbar_dot(v)
            w -= beta * previous
            alpha = inner(v, w)
            w -= alpha * v
            deflate(w)
            beta = norm(w)
            yield v, alpha, beta
            previous, v = v, w / beta  # only once the next vector is asked for

    space = n - units.size  # the dimension left once the unit vectors are deflated
    alphas: list[float] = []
    betas: list[float] = []
    check, low, high = 8, None, None  # low and high: the extreme Ritz pairs of the last check
    for k, (_, alpha, beta) in enumerate(lanczos(), 1):
        alphas.append(alpha)
        if beta <= tol or k in (check, space, _MAX_STEPS):
            squares = [0.0] + [b * b for b in betas]
            pivmin = _TINY * max(1.0, *squares)
            above = k - _sturm_count(alphas, squares, 1.0 - tol, pivmin, k)  # within tol of 1
            low, high = _ritz(alphas, betas, beta, 0, low), _ritz(alphas, betas, beta, -1, high)
            # lambda_2 is the largest Ritz value not within tol of 1
            second = high if above == 0 else _ritz(alphas, betas, beta, -1 - min(above, k - 1))
            settled = beta <= tol or max(second[1], low[1]) <= tol
            if settled or k == _MAX_STEPS:
                break
            check = max(check, k + k // 4)
        betas.append(beta)

    def copies(pair: tuple[float, float, list[float]], t: int,
               sign: float) -> list[tuple[float, float, list[float]]]:
        # the Ritz pair of index t of sign * T, then one pair for each other value within
        # tol of it on the inner side; the vector depends on the value alone, so values
        # equal to the bit (as ghost copies often are) are taken once
        signed = alphas if sign > 0 else [-a for a in alphas]
        limit = _sturm_count(signed, squares, sign * pair[0] + tol, pivmin, k)
        found = [pair]
        while True:
            t = max(t + 1, _sturm_count(signed, squares, sign * found[-1][0], pivmin, k))
            if t >= limit:
                return found
            found.append(_ritz(alphas, betas, beta, t if sign > 0 else -1 - t))

    # the bounds are the residuals of the Ritz vectors themselves, not estimates
    ritz = copies(low, 0, 1.0)
    split = len(ritz)
    ritz += copies(second, min(above, k - 1), -1.0)
    ys = np.zeros((len(ritz), n))
    for column, (v, _, _) in zip(zip(*(s for _, _, s in ritz)), lanczos()):
        ys += np.multiply.outer(column, v)  # stops at step k, where beta may be 0
    bounded = [(norm(d.mbar_dot(y) - value * y) / norm(y), value)
               for y, (value, _, _) in zip(ys, ritz)]
    (bound_min, lambda_min), (bound_2, lambda_2) = min(bounded[:split]), min(bounded[split:])
    # a Ritz value that T shares with T less its first row and column is a ghost;
    # by interlacing, T has 0 or 1 more Ritz values within tol of 1 than that matrix
    distinct = above + 1 - k + _sturm_count(alphas[1:], [0.0, *squares[2:]], 1.0 - tol, pivmin, k)
    ones = np.sort(np.concatenate([units, [high[0]] * distinct]))
    multiplicity: int | str = UNRESOLVED
    minus_one: bool | str = UNRESOLVED
    if settled:  # else the step cap ended the run, and the extremes may lie beyond the Ritz values
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
