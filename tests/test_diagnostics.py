import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from recperf import (
    StructureReport,
    Tournament,
    build_tournament,
    check_structure,
    derive,
    load_tournament,
    lopsided_pairs,
    spectral_diagnostics,
)
from recperf import diagnostics
from recperf.diagnostics import UNRESOLVED, _ritz

from conftest import (
    chain_with_triangle,
    forced_bipartite,
    forced_disconnected,
    ladder_records,
    random_round_robin,
    random_tournament,
)
from reference import limit_power_check, mbar_dense, permute_tournament


def two_pairs():
    # block-diagonal: {0,1} and {2,3} never meet
    matrix = np.zeros((4, 4))
    matrix[0, 1] = matrix[2, 3] = 0.5
    matrix[1, 0] = matrix[3, 2] = 0.5
    return Tournament(("A", "B", "C", "D"), matrix)


def team_2v2():
    return build_tournament(
        ["A", "B", "C", "D"],
        [("A", "C", 1.0), ("A", "D", 0.5), ("B", "C", 0.5), ("B", "D", 0.0)],
    )


def triangle(draws=False):
    score = 0.5 if draws else 1.0
    return build_tournament(
        ["A", "B", "C"], [("A", "B", score), ("A", "C", 0.5), ("B", "C", score)]
    )


class TestCheckStructure:
    def test_two_disjoint_pairs(self):
        report = check_structure(derive(two_pairs()))
        assert not report.connected
        assert report.components == ((0, 1), (2, 3))

    def test_triangle_is_connected_and_odd(self):
        report = check_structure(derive(triangle()))
        assert report.connected
        assert not report.bipartite
        assert report.coloring is None

    def test_team_tournament_bipartition(self):
        report = check_structure(derive(team_2v2()))
        assert report.connected
        assert report.bipartite
        assert report.coloring == ((0, 1), (2, 3))

    def test_single_edge_is_bipartite(self):
        report = check_structure(derive(build_tournament(["A", "B"], [("A", "B", 0.5)])))
        assert report.connected
        assert report.bipartite


class TestSpectral:
    def test_triangle_spectrum(self):
        report = spectral_diagnostics(derive(triangle()))
        assert np.allclose(report.eigenvalues, [-0.5, -0.5, 1.0], atol=1e-12)
        assert report.multiplicity_one == 1
        assert report.has_minus_one is False
        assert report.spectral_gap == pytest.approx(0.5, abs=1e-12)

    def test_team_tournament_spectrum(self):
        # lambda_min, lambda_2 and the unit eigenvalue; 0 is a double eigenvalue
        report = spectral_diagnostics(derive(team_2v2()))
        assert np.allclose(report.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)
        assert report.has_minus_one is True
        assert report.spectral_gap == pytest.approx(0.0, abs=1e-12)

    def test_disconnected_doubles_eigenvalue_one(self):
        report = spectral_diagnostics(derive(two_pairs()))
        assert report.multiplicity_one == 2
        assert report.spectral_gap == 0.0  # lambda_min reads an ulp past -1 here

    def test_eigenvalues_sorted_and_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            d = derive(random_tournament(rng, require_p1p2=False))
            report = spectral_diagnostics(d)
            assert np.all(np.diff(report.eigenvalues) >= 0)
            assert np.abs(report.eigenvalues).max() <= 1 + 1e-9
            assert report.spectral_gap >= 0.0

    def test_the_bounds_are_the_ritz_vectors_residuals(self, monkeypatch):
        # residual estimates of 0 settle the run at its first check, step 8, where
        # the Ritz vectors' true residuals are still large and leave lambda_2 open
        ritz = diagnostics._ritz

        def no_estimate(*args):
            theta, _, s = ritz(*args)
            return theta, 0.0, s

        monkeypatch.setattr(diagnostics, "_ritz", no_estimate)
        t = load_tournament(Path(__file__).parent / "fixtures" / "ladder.json").tournament
        report = spectral_diagnostics(derive(t))
        assert report.lanczos_steps == 8
        assert min(report.lambda_2_bound, report.lambda_min_bound) > 0.01
        assert report.multiplicity_one == UNRESOLVED

    def test_verdicts_carry_their_bounds(self):
        report = spectral_diagnostics(derive(triangle()))
        assert report.lambda_2 == report.eigenvalues[1]
        assert report.lambda_min == report.eigenvalues[0]
        assert 0.0 <= report.lambda_2_bound <= 1e-12
        assert 0.0 <= report.lambda_min_bound <= 1e-12
        assert report.lanczos_steps == 1  # the complement of the constants is one eigenspace

    @pytest.mark.parametrize("schedule", ["round-robin-300", "round-robin-600", "ladder-2000"])
    def test_the_traced_peak_holds_no_basis(self, schedule):
        # on a complete round robin Mbar is -I/(n-1) once the constants are
        # deflated, so Lanczos breaks down at step 1; a basis of n - 1 rows
        # would trace as much as the CSR weights. The ladder's 1,391 vectors
        # would take 22 MB; a run holds two of them beside the tridiagonal
        kind, n = schedule.rsplit("-", 1)
        if kind == "ladder":
            d, steps, limit = derive(build_tournament(*ladder_records(int(n)))), 1391, 1e6
        else:
            d, steps = derive(random_round_robin(np.random.default_rng(int(n)), int(n))), 1
            limit = 1.5 * 8 * d.indices.size
        assert d.structure.connected  # the BFS runs here, outside the traced peak
        tracemalloc.start()
        try:
            report = spectral_diagnostics(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.lanczos_steps == steps
        assert peak < limit

    @pytest.mark.parametrize("factor", [1e300, 1e-300, 1e-315])
    @pytest.mark.parametrize("shape", ["crosstable", "sparse"])
    def test_spectrum_is_invariant_to_scaling_game_totals(self, factor, shape):
        # Mbar does not change when every game total is scaled; at 1e-315
        # the totals are subnormal, and only the games shares keep the
        # weighted inner product clear of underflow
        rng = np.random.default_rng(59)
        if shape == "crosstable":
            a = rng.uniform(0.05, 0.95, (5, 5))
            np.fill_diagonal(a, 0.0)
        else:
            n = 40
            first = np.concatenate([np.arange(n), rng.integers(0, n, 40)])
            second = np.concatenate([np.roll(np.arange(n), 1), rng.integers(0, n - 1, 40)])
            second[n:] += second[n:] >= first[n:]
            a = np.zeros((n, n))
            np.add.at(a, (first, second), rng.uniform(0.05, 0.95, first.size))
        names = tuple(f"P{k}" for k in range(len(a)))
        unit = spectral_diagnostics(derive(Tournament(names, a)))
        scaled = spectral_diagnostics(derive(Tournament(names, a * factor)))
        assert scaled.lanczos_steps == unit.lanczos_steps
        assert scaled.multiplicity_one == unit.multiplicity_one == 1
        assert scaled.has_minus_one is unit.has_minus_one is False
        assert abs(scaled.lambda_2 - unit.lambda_2) <= 1e-8
        assert abs(scaled.lambda_min - unit.lambda_min) <= 1e-8


def tridiagonals(k: int):
    """Named (diagonal, off-diagonal) pairs of k x k symmetric tridiagonals, norms near 1."""
    rng = np.random.default_rng(k)
    diag, off = rng.uniform(-0.5, 0.5, k), rng.uniform(-0.5, 0.5, k - 1)
    yield "random", diag, off
    if k > 2:
        split = off.copy()
        split[k // 3] = 1e-300  # its square underflows: T all but splits in two
        yield "a 1e-300 off-diagonal entry", diag, split
    yield "repeated diagonal entries", np.full(k, diag[0]), off
    yield "Toeplitz", np.full(k, 0.25), np.full(k - 1, 0.375)
    if k > 1:
        # -I plus a quarter of the path's Laplacian, which the constants null
        laplacian = np.full(k, 2.0)
        laplacian[[0, -1]] = 1.0
        yield "eigenvalue exactly -1", -1.0 + laplacian / 4, np.full(k - 1, -0.25)


class TestRitz:
    """`_ritz`, the tridiagonal eigensolver of `spectral_diagnostics`, against LAPACK's."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("k", [1, 2, 8, 151, 400])
    def test_extreme_pairs_match_eigh(self, k):
        for name, diag, off in tridiagonals(k):
            t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            values, vectors = np.linalg.eigh(t)
            scale = np.abs(values).max()  # the norm of T
            for j in (0, -1):
                theta, residual, s = _ritz(diag.tolist(), off.tolist(), 0.5, j)
                s = np.array(s) / np.linalg.norm(s)
                # eigh's own values carry a few ulps of the norm of rounding
                assert abs(theta - values[j]) <= 8 * self.EPS * scale, name
                assert abs(abs(s[-1]) - abs(vectors[-1, j])) <= 1e-12, name
                assert residual == pytest.approx(0.5 * abs(s[-1]), rel=1e-14, abs=1e-300)
                assert np.linalg.norm(t @ s - theta * s) <= 1e-14, name

    @pytest.mark.parametrize("k", [8, 400])
    def test_eigenvalue_minus_one_to_the_last_bit(self, k):
        # the eigenvector is the constant one, known to the last bit
        _, diag, off = list(tridiagonals(k))[-1]
        theta, _, s = _ritz(diag.tolist(), off.tolist(), 1.0, 0)
        assert theta == -1.0
        assert np.abs(np.abs(s) / np.linalg.norm(s) - k**-0.5).max() <= 1e-16

    def test_spectral_diagnostics_calls_no_lapack(self, monkeypatch):
        # verdicts and step counts as eigh of the tridiagonal gave them
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for path in Path(diagnostics.__file__).parent.glob("*.py"):
            assert "linalg" not in path.read_text(encoding="utf-8"), path.name
        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)):
                monkeypatch.setattr(np.linalg, name, refuse)
        for t, steps in ((build_tournament(*ladder_records(220)), 151),
                         (chain_with_triangle(400), 399)):
            report = spectral_diagnostics(derive(t))
            assert report.multiplicity_one == 1
            assert report.has_minus_one is False
            assert report.lanczos_steps == steps


class TestDoctoredStructure:
    """A StructureReport that is wrong must never be echoed by the spectrum. The wrong
    verdicts are put where the BFS keeps its own, on the DerivedMatrices."""

    def test_merged_components_are_not_called_connected(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            t = forced_disconnected(rng)
            d = derive(t)
            truth = check_structure(d)
            vars(d)["structure"] = StructureReport(True, (tuple(range(t.n)),),
                                                   truth.bipartite, truth.coloring)
            report = spectral_diagnostics(d)
            assert report.multiplicity_one != 1
            assert report.multiplicity_one in (len(truth.components), UNRESOLVED)

    def test_split_component_is_not_called_split(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            t = random_tournament(rng, n_min=4)
            d = derive(t)
            half = t.n // 2
            vars(d)["structure"] = StructureReport(
                False, (tuple(range(half)), tuple(range(half, t.n))), False, None)
            report = spectral_diagnostics(d)
            assert report.multiplicity_one != 2
            assert report.multiplicity_one in (1, UNRESOLVED)

    def test_structure_is_computed_when_not_given(self):
        d = derive(two_pairs())
        assert spectral_diagnostics(d).multiplicity_one == 2
        assert check_structure(d) is vars(d)["structure"]  # the BFS the spectrum ran, kept


class TestVerdictAgreement:
    def test_graph_and_spectral_verdicts_agree(self):
        rng = np.random.default_rng(32)
        corpus = [random_tournament(rng, n_max=10, require_p1p2=False) for _ in range(60)]
        corpus += [forced_disconnected(rng) for _ in range(20)]
        corpus += [forced_bipartite(rng) for _ in range(20)]
        for t in corpus:
            d = derive(t)
            structure = check_structure(d)
            spectral = spectral_diagnostics(d)
            assert structure.connected == (spectral.multiplicity_one == 1)
            assert structure.bipartite == spectral.has_minus_one

    def test_a_short_ghost_vector_leaves_no_verdict_open(self):
        # two components, one bipartite; the run settles at step 33 with six Ritz values
        # within tol of -1. The one bisection gives has the vector of a ghost copy, short
        # enough that its residual (1.8e-13) exceeds tol; another copy's is 1.6e-14
        rng = np.random.default_rng(1)
        corpus = [random_tournament(rng, n_max=30, require_p1p2=False) for _ in range(300)]
        corpus += [forced_disconnected(rng) for _ in range(5)]
        d = derive(corpus[304])
        report = spectral_diagnostics(d)
        assert (d.structure.connected, d.structure.bipartite) == (False, True)
        assert report.multiplicity_one == 2
        assert report.has_minus_one is True
        assert report.lambda_min_bound <= 64 * d.n * np.finfo(float).eps
        assert report.lanczos_steps == 33

    def test_ones_vector_is_fixed(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            d = derive(random_tournament(rng, require_p1p2=False))
            e = np.ones(d.n)
            assert np.abs(mbar_dense(d) @ e - e).max() <= 1e-12


class TestLopsidedPairs:
    def test_decisive_pairs_flagged(self):
        t = triangle()  # A took all points off B, B all off C
        assert lopsided_pairs(t).tolist() == [[0, 1], [1, 2]]

    def test_drawn_pairs_not_flagged(self):
        assert lopsided_pairs(triangle(draws=True)).shape == (0, 2)

    def test_matches_brute_force_on_random_corpus(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            t = random_tournament(rng, require_p1p2=False)
            a = t.score_matrix.copy()
            # hand every point of some pairs to one side, in either direction
            for i, j in zip(*np.nonzero(np.triu(rng.random(a.shape) < 0.2, 1))):
                winner, loser = (i, j) if rng.random() < 0.5 else (j, i)
                a[winner, loser] += a[loser, winner]
                a[loser, winner] = 0.0
            t = Tournament(t.players, a)
            expected = tuple(
                (i, j)
                for i in range(t.n)
                for j in range(i + 1, t.n)
                if a[i, j] + a[j, i] > 0 and (a[i, j] == 0.0 or a[j, i] == 0.0)
            )
            pairs = lopsided_pairs(t)
            assert tuple(map(tuple, pairs.tolist())) == expected
            assert pairs.shape == (len(expected), 2)
            assert pairs.dtype == np.int32
            assert not pairs.flags.writeable


class TestDiagnose:
    def test_report_fields_line_up(self):
        t = team_2v2()
        d = derive(t)
        structure = check_structure(d)
        assert structure.connected
        assert structure.bipartite
        assert structure.coloring == ((0, 1), (2, 3))
        assert spectral_diagnostics(d).has_minus_one is True
        assert lopsided_pairs(t).tolist() == [[0, 2], [1, 3]]

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(34)
        t = random_tournament(rng)
        perm = rng.permutation(t.n)
        d = derive(t)
        moved_d = derive(permute_tournament(t, perm))
        structure, moved = check_structure(d), check_structure(moved_d)
        assert np.allclose(
            spectral_diagnostics(d).eigenvalues,
            spectral_diagnostics(moved_d).eigenvalues,
            atol=1e-9,
        )
        assert structure.connected == moved.connected
        assert structure.bipartite == moved.bipartite

        def relabel(groups):
            return {frozenset(int(perm[i]) for i in g) for g in groups}

        assert relabel(structure.components) == {frozenset(c) for c in moved.components}


class TestLimitPower:
    def test_triangle_reaches_limit(self):
        d = derive(triangle())
        result = limit_power_check(d, 40, 1e-10)
        assert result
        assert result.converged
        # rate is |−1/2|^l, so the tolerance is crossed in the mid 30s
        assert 30 <= result.steps <= 40
        assert result.deviation <= 1e-10

    def test_team_tournament_oscillates(self):
        result = limit_power_check(derive(team_2v2()), 1000, 1e-10)
        assert not result.converged
        assert result.deviation > 0.1

    def test_single_pair_oscillates(self):
        d = derive(build_tournament(["A", "B"], [("A", "B", 0.5)]))
        assert not limit_power_check(d, 500, 1e-10)

    def test_limit_matrix_rows(self):
        # limit rows are m / sum(m); check through near-convergence
        rng = np.random.default_rng(35)
        d = derive(random_tournament(rng))
        result = limit_power_check(d, 5000, 1e-9)
        assert result.converged
