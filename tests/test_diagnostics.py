import numpy as np
import pytest

from recperf import (
    Tournament,
    build_tournament,
    check_structure,
    derive,
    lopsided_pairs,
    spectral_diagnostics,
)

from conftest import forced_bipartite, forced_disconnected, random_tournament
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
        assert not report.has_minus_one
        assert report.spectral_gap == pytest.approx(0.5, abs=1e-12)

    def test_team_tournament_spectrum(self):
        report = spectral_diagnostics(derive(team_2v2()))
        assert np.allclose(report.eigenvalues, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert report.has_minus_one
        assert report.spectral_gap == pytest.approx(0.0, abs=1e-12)

    def test_disconnected_doubles_eigenvalue_one(self):
        report = spectral_diagnostics(derive(two_pairs()))
        assert report.multiplicity_one == 2

    def test_eigenvalues_sorted_and_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            d = derive(random_tournament(rng, require_p1p2=False))
            report = spectral_diagnostics(d)
            assert np.all(np.diff(report.eigenvalues) >= 0)
            assert np.abs(report.eigenvalues).max() <= 1 + 1e-9


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

    def test_ones_vector_is_fixed(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            d = derive(random_tournament(rng, require_p1p2=False))
            e = np.ones(d.n)
            assert np.abs(mbar_dense(d) @ e - e).max() <= 1e-12


class TestLopsidedPairs:
    def test_decisive_pairs_flagged(self):
        t = triangle()  # A took all points off B, B all off C
        assert lopsided_pairs(t) == ((0, 1), (1, 2))

    def test_drawn_pairs_not_flagged(self):
        assert lopsided_pairs(triangle(draws=True)) == ()

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
            assert pairs == expected
            assert all(type(k) is int for pair in pairs for k in pair)


class TestDiagnose:
    def test_report_fields_line_up(self):
        t = team_2v2()
        d = derive(t)
        structure = check_structure(d)
        assert structure.connected
        assert structure.bipartite
        assert structure.coloring == ((0, 1), (2, 3))
        assert spectral_diagnostics(d).has_minus_one
        assert lopsided_pairs(t) == ((0, 2), (1, 3))

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
