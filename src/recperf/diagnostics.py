"""Structural and spectral checks on the comparison graph.

The recursive-performance iteration converges exactly when the graph whose
edges are the pairs with at least one game is connected (P1) and not
bipartite (P2). Both facts are checked twice and independently here: by
breadth-first traversal of the graph, and through the spectrum of the
opponent-weighting matrix Mbar, whose eigenvalues are real, bounded by 1 in
absolute value, have 1 with multiplicity equal to the number of connected
components, and include -1 exactly for bipartite schedules.

The traversal walks the CSR adjacency of `derive` one BFS level at a time,
in O(n + pairs). The spectrum needs the full n x n symmetric matrix for a
dense eigensolver; it is the only O(n^2)-memory, O(n^3)-time check, and
only `check --spectral` (and a failed iteration's error message) runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tournament import DerivedMatrices, Tournament


class DiagnosticsError(RuntimeError):
    """Eigenvalue computation failed; structural verdicts are unaffected."""


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
    """Spectrum summary of the opponent-weighting matrix.

    eigenvalues are sorted ascending. `spectral_gap` is one minus the
    largest magnitude among eigenvalues outside the 1-cluster; it drives the
    asymptotic convergence rate of the fixed-point iteration.
    """

    eigenvalues: np.ndarray
    multiplicity_one: int
    has_minus_one: bool
    spectral_gap: float
    tol: float


def check_structure(d: DerivedMatrices) -> StructureReport:
    """BFS the comparison graph: connected components and per-component 2-coloring.

    Level-synchronous: each step expands a whole BFS level at once over the
    CSR adjacency. Components are found in order of their smallest member.
    An edge joins equal or adjacent BFS depths, so a component two-colors
    exactly when no edge joins two players at the same depth, and its sides
    are then the even and the odd depths. A component that two-colors
    cleanly is a team-like sub-schedule; any such component makes the whole
    iteration oscillate, so the verdict is per component rather than global.
    """
    n = d.n
    indptr, indices = d.indptr, d.indices
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
            reached = np.concatenate(
                [indices[indptr[k]:indptr[k + 1]] for k in frontier.tolist()]
            )
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
    return StructureReport(
        connected=len(members) == 1,
        components=tuple(tuple(c.tolist()) for c in members),
        bipartite=coloring is not None,
        coloring=coloring,
    )


def spectral_diagnostics(d: DerivedMatrices, tol: float | None = None) -> SpectralReport:
    """Eigenvalues of Mbar via the symmetric similarity D^-1/2 M D^-1/2.

    The similar matrix is symmetric, so a symmetric eigensolver applies and
    the (shared) spectrum is real by construction.
    """
    if tol is None:
        tol = 1e-9 * d.n
    root = np.sqrt(d.m)
    sym = np.zeros((d.n, d.n))
    for i in range(d.n):
        # row i's entries above the diagonal, M_ij / sqrt(m_i m_j) with
        # M_ij = m_i Mbar_ij, written to both triangles: exactly symmetric
        lo, hi = d.indptr[i], d.indptr[i + 1]
        j = d.indices[lo:hi]
        above = j > i
        j = j[above]
        sym[i, j] = sym[j, i] = d.weights[lo:hi][above] * root[i] / root[j]
    try:
        eigenvalues = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise DiagnosticsError(f"eigenvalue computation failed: {exc}") from exc
    near_one = np.abs(eigenvalues - 1.0) <= tol
    rest = np.abs(eigenvalues[~near_one])
    gap = 1.0 - float(rest.max()) if rest.size else 1.0
    frozen = eigenvalues.copy()
    frozen.flags.writeable = False
    return SpectralReport(
        eigenvalues=frozen,
        multiplicity_one=int(near_one.sum()),
        has_minus_one=bool(np.any(np.abs(eigenvalues + 1.0) <= tol)),
        spectral_gap=gap,
        tol=tol,
    )


def lopsided_pairs(t: Tournament) -> tuple[tuple[int, int], ...]:
    """Pairs that played where one side took every point, in row-major order.

    Such pairs fall outside the interior-score side condition of the
    convergence statement; they are a warning, never an error, because
    convergence itself needs only P1 and P2.
    """
    mask = (t.a_ij == 0) | (t.a_ji == 0)
    return tuple(zip(t.i[mask].tolist(), t.j[mask].tolist()))
