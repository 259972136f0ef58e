"""Structural and spectral checks on the comparison graph.

The recursive-performance iteration converges exactly when the graph whose
edges are the pairs with at least one game is connected (P1) and not
bipartite (P2). Both facts are checked twice and independently here: by
breadth-first traversal of the graph, and through the spectrum of the
opponent-weighting matrix Mbar, whose eigenvalues are real, bounded by 1 in
absolute value, have 1 with multiplicity equal to the number of connected
components, and include -1 exactly for bipartite schedules.
"""

from __future__ import annotations

from collections import deque
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


def _neighbors(d: DerivedMatrices) -> list[np.ndarray]:
    return [np.nonzero(d.M[i] > 0)[0] for i in range(d.n)]


def check_structure(d: DerivedMatrices) -> StructureReport:
    """BFS the comparison graph: connected components and per-component 2-coloring.

    A component that two-colors cleanly is a team-like sub-schedule; any
    such component makes the whole iteration oscillate, so the verdict is
    per component rather than global.
    """
    n = d.n
    adj = _neighbors(d)
    color = np.full(n, -1, dtype=int)
    components: list[tuple[int, ...]] = []
    coloring: tuple[tuple[int, ...], tuple[int, ...]] | None = None
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


def spectral_diagnostics(d: DerivedMatrices, tol: float | None = None) -> SpectralReport:
    """Eigenvalues of Mbar via the symmetric similarity D^-1/2 M D^-1/2.

    The similar matrix is symmetric, so a symmetric eigensolver applies and
    the (shared) spectrum is real by construction.
    """
    if tol is None:
        tol = 1e-9 * d.n
    inv_sqrt = 1.0 / np.sqrt(d.m)
    sym = inv_sqrt[:, None] * d.M * inv_sqrt[None, :]
    sym = 0.5 * (sym + sym.T)
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
    a = t.score_matrix
    mask = np.triu(a + a.T > 0, 1) & ((a == 0) | (a.T == 0))
    rows, cols = np.nonzero(mask)
    return tuple(zip(rows.tolist(), cols.tolist()))
