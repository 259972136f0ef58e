import math

import numpy as np
import pytest

from recperf import (
    BoundaryScoreError,
    ConvergenceError,
    SingularSystemError,
    Tournament,
    build_tournament,
    centered_offsets,
    derive,
    elo,
    iterate,
    offsets,
    performance,
    rank_from_ratings,
    solve_direct,
)

from conftest import random_tournament
from reference import (
    centering_drift,
    dense_derive,
    consistency_residual,
    min_shift_distance,
    permute_tournament,
    weighted_inner,
)

MODEL = elo()

REFERENCE_RATING = 400.0 * math.log10(3.0) * 2.0 / 3.0  # 127.2323...


def reference_tournament():
    """Round robin of three: s = (0.75, 0.5, 0.25)."""
    return build_tournament(
        ["A", "B", "C"], [("A", "B", 1.0), ("A", "C", 0.5), ("B", "C", 1.0)]
    )


def team_2v2():
    # unbalanced teams: the offsets have a component along the -1 eigenvector
    return build_tournament(
        ["A", "B", "C", "D"],
        [("A", "C", 0.8), ("A", "D", 0.6), ("B", "C", 0.7), ("B", "D", 0.4)],
    )


def two_pairs():
    matrix = np.zeros((4, 4))
    matrix[0, 1] = matrix[1, 0] = 0.5
    matrix[2, 3] = matrix[3, 2] = 0.5
    return Tournament(("A", "B", "C", "D"), matrix)


class TestPerformance:
    def test_all_draws_reduce_to_opponent_average(self):
        t = build_tournament(
            ["A", "B", "C"], [("A", "B", 0.5), ("A", "C", 0.5), ("B", "C", 0.5)]
        )
        d = derive(t)
        r = np.array([2100.0, 2000.0, 1900.0])
        assert np.allclose(performance(d, MODEL, r), dense_derive(t).Mbar @ r)

    def test_reference_elo_performance(self):
        d = derive(reference_tournament())
        r = np.full(3, 2000.0)
        p = performance(d, MODEL, r)
        offset = 400.0 * math.log10(3.0)
        assert np.allclose(p, [2000.0 + offset, 2000.0, 2000.0 - offset])
        assert p[0] == pytest.approx(2190.85, abs=5e-3)

    def test_closed_form_offsets(self):
        # p_i = (Mbar r)_i - 400 log10(1/s_i - 1), the classic tie-break form
        rng = np.random.default_rng(41)
        t = random_tournament(rng)
        d = derive(t)
        r = rng.uniform(1500, 2500, d.n)
        expected = dense_derive(t).Mbar @ r - 400.0 * np.log10(1.0 / d.s - 1.0)
        assert np.allclose(performance(d, MODEL, r), expected, atol=1e-9)

    def test_defining_property(self):
        rng = np.random.default_rng(42)
        t = random_tournament(rng)
        d = derive(t)
        r = rng.uniform(0, 1000, d.n)
        p = performance(d, MODEL, r)
        avg = dense_derive(t).Mbar @ r
        for i in range(d.n):
            assert MODEL.expected_score(p[i], avg[i]) == pytest.approx(d.s[i], abs=1e-9)

    def test_boundary_score_names_player(self):
        d = derive(Tournament(("A", "B"), np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(BoundaryScoreError) as excinfo:
            performance(d, MODEL, np.zeros(2))
        assert excinfo.value.player == 0

    def test_clamp_escape_hatch(self):
        d = derive(Tournament(("A", "B"), np.array([[0.0, 1.0], [0.0, 0.0]])))
        p = performance(d, MODEL, np.zeros(2), clamp_scores=True)
        # clamped to s = (3/4, 1/4) since eps = 1/(2*1+2)
        assert p[0] == pytest.approx(400.0 * math.log10(3.0), abs=1e-9)


class TestCenteredOffsets:
    def test_antisymmetric_offsets_unchanged(self):
        d = derive(reference_tournament())
        assert np.allclose(centered_offsets(d, MODEL), offsets(d, MODEL), atol=1e-12)

    def test_equal_scores_center_to_zero(self):
        t = build_tournament(
            ["A", "B", "C"], [("A", "B", 0.5), ("A", "C", 0.5), ("B", "C", 0.5)]
        )
        d = derive(t)
        assert np.allclose(centered_offsets(d, MODEL), 0.0, atol=1e-12)

    def test_weighted_mean_subtracted(self):
        # m = (1, 3, 2) and c = (4, 0, x): the weighted mean moves every entry
        rng = np.random.default_rng(43)
        t = random_tournament(rng)
        d = derive(t)
        c = offsets(d, MODEL)
        chat = centered_offsets(d, MODEL)
        mu = float(d.m @ c) / float(d.m.sum())
        assert np.allclose(chat, c - mu, atol=1e-9)

    def test_weighted_sum_vanishes(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            d = derive(random_tournament(rng))
            c = offsets(d, MODEL)
            chat = centered_offsets(d, MODEL)
            budget = 1e-9 * np.abs(d.m * c).sum()
            assert abs(weighted_inner(d, chat, np.ones(d.n))) <= budget


class TestIterate:
    def test_reference_instance(self):
        d = derive(reference_tournament())
        out = iterate(d, MODEL)
        assert np.allclose(
            out.ratings, [REFERENCE_RATING, 0.0, -REFERENCE_RATING], atol=1e-7
        )
        assert out.method == "iterative"
        assert out.iterations > 0
        assert out.residual <= 1e-7

    def test_geometric_rate(self):
        # contraction ratio 1/2 puts convergence to 1.9e-8 in the mid 30s
        d = derive(reference_tournament())
        out = iterate(d, MODEL)
        assert 25 <= out.iterations <= 45

    def test_equal_scores_converge_to_weighted_mean(self):
        rng = np.random.default_rng(45)
        t = random_tournament(rng)
        names = list(t.players)
        drawn = build_tournament(
            names,
            [
                (names[i], names[j], 0.5)
                for i in range(len(names))
                for j in range(i + 1, len(names))
                if t.score_matrix[i, j] + t.score_matrix[j, i] > 0
            ],
        )
        d = derive(drawn)
        r = rng.uniform(1000, 3000, d.n)
        out = iterate(d, MODEL, r)
        rho = float(d.m @ r) / float(d.m.sum())
        assert np.allclose(out.ratings, rho, atol=1e-6)

    def test_team_tournament_oscillates(self):
        d = derive(team_2v2())
        with pytest.raises(ConvergenceError) as excinfo:
            iterate(d, MODEL, max_iter=500)
        err = excinfo.value
        assert err.spectral_gap == pytest.approx(0.0, abs=1e-9)
        assert err.step_norm > 0
        assert err.last_iterate.shape == (4,)
        assert "spectral gap" in str(err)
        assert "bipartite" in str(err)

    def test_slow_mixing_is_not_blamed_on_bipartiteness(self):
        # a chain closed into one triangle at its head: P1 and P2 hold, but
        # the gap is small, so 50 steps are far too few
        names = [f"P{i}" for i in range(30)]
        records = [(names[i], names[i + 1], 0.6) for i in range(29)]
        records.append((names[0], names[2], 0.6))
        with pytest.raises(ConvergenceError) as excinfo:
            iterate(derive(build_tournament(names, records)), MODEL, max_iter=50)
        message = str(excinfo.value)
        assert excinfo.value.spectral_gap > 0.0
        assert "spectral gap" in message
        assert "bipartite" not in message
        assert "mixes slowly" in message and "--max-iter" in message

    def test_trace_records_each_step(self):
        d = derive(reference_tournament())
        out = iterate(d, MODEL, record_trace=True)
        assert out.trace is not None
        assert len(out.trace) == out.iterations + 1
        assert np.allclose(out.trace[-1], out.ratings)

    def test_conservation_along_trace(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            t = random_tournament(rng)
            d = derive(t)
            r = rng.uniform(500, 2500, d.n)
            sigma = float(d.m @ r)
            out = iterate(d, MODEL, r, record_trace=True)
            tol = 1e-9 * (1 + abs(sigma))
            for step in out.trace:
                assert abs(float(d.m @ step) - sigma) <= tol

    def test_bad_tolerance(self):
        d = derive(reference_tournament())
        with pytest.raises(ValueError, match="positive"):
            iterate(d, MODEL, tol=0.0)


class TestSolveDirect:
    def test_reference_instance(self):
        d = derive(reference_tournament())
        out = solve_direct(d, MODEL)
        assert np.allclose(
            out.ratings, [REFERENCE_RATING, 0.0, -REFERENCE_RATING], atol=1e-9
        )
        assert out.method == "direct"
        assert out.iterations == 0
        assert out.residual <= 1e-12

    def test_round_robin_proportionality(self):
        # in a single round robin the offsets determine rating gaps by n/(n-1)
        d = derive(reference_tournament())
        chat = centered_offsets(d, MODEL)
        x = solve_direct(d, MODEL).ratings
        assert np.allclose(chat, 1.5 * x, atol=1e-9)

    def test_agrees_with_iteration(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            t = random_tournament(rng)
            d = derive(t)
            r = rng.uniform(0, 2000, d.n)
            chat = centered_offsets(d, MODEL)
            tol = 1e-10 * max(1.0, float(np.abs(chat).max()))
            direct = solve_direct(d, MODEL, r)
            iterative = iterate(d, MODEL, r, tol=tol)
            assert np.abs(direct.ratings - iterative.ratings).max() <= 10 * tol
            # residual bound on convergence: tol * (1 + |Mbar|_inf) = 2 tol
            assert iterative.residual <= 2 * tol
            assert direct.residual <= tol

    def test_team_tournament_still_solvable(self):
        # P2 fails but P1 holds: the linear system keeps rank n-1
        d = derive(team_2v2())
        out = solve_direct(d, MODEL)
        assert np.all(np.isfinite(out.ratings))
        assert out.residual <= 1e-10
        with pytest.raises(ConvergenceError):
            iterate(d, MODEL, max_iter=200)

    def test_disconnected_raises_with_witness(self):
        d = derive(two_pairs())
        with pytest.raises(SingularSystemError) as excinfo:
            solve_direct(d, MODEL)
        assert excinfo.value.components == ((0, 1), (2, 3))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(48)
        t = random_tournament(rng)
        d = derive(t)
        r = rng.uniform(0, 1000, d.n)
        base = solve_direct(d, MODEL, r).ratings
        shifted = solve_direct(d, MODEL, r + 100.0).ratings
        assert np.abs(shifted - (base + 100.0)).max() <= 1e-9
        assert rank_from_ratings(base, 1e-9) == rank_from_ratings(shifted, 1e-9)

    def test_conserves_total_strength(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            t = random_tournament(rng)
            d = derive(t)
            r = rng.uniform(-500, 3000, d.n)
            sigma = float(d.m @ r)
            out = solve_direct(d, MODEL, r)
            assert abs(out.pinned_total - sigma) <= 1e-9 * (1 + abs(sigma))

    def test_anonymity(self):
        rng = np.random.default_rng(50)
        t = random_tournament(rng)
        d = derive(t)
        r = rng.uniform(0, 2000, d.n)
        x = solve_direct(d, MODEL, r).ratings
        perm = rng.permutation(t.n)
        moved = permute_tournament(t, perm)
        x_moved = solve_direct(derive(moved), MODEL, r[np.argsort(perm)]).ratings
        assert np.abs(x_moved[perm] - x).max() <= 1e-9

    def test_subnormal_game_totals_solve_like_unit_ones(self):
        # the solve is invariant to scaling every game total; at 1e-315 the
        # totals are subnormal and m_i * x_i products lose most digits
        rng = np.random.default_rng(57)
        a = rng.uniform(0.05, 0.95, (5, 5))
        np.fill_diagonal(a, 0.0)
        names = ("A", "B", "C", "D", "E")
        unit = solve_direct(derive(Tournament(names, a)), MODEL)
        tiny = solve_direct(derive(Tournament(names, a * 1e-315)), MODEL)
        assert np.abs(tiny.ratings - unit.ratings).max() <= 1e-5
        assert tiny.residual <= 1e-12

    def test_n2_degenerate_returns_gap(self):
        # a two-player tournament: P2 always fails but the direct solve is defined
        d = derive(build_tournament(["A", "B"], [("A", "B", 0.6), ("A", "B", 0.6)]))
        out = solve_direct(d, MODEL)
        assert np.all(np.isfinite(out.ratings))
        assert out.ratings[0] > out.ratings[1]


class TestCenteringDrift:
    def test_zero_steps_gives_weighted_mean(self):
        rng = np.random.default_rng(51)
        t = random_tournament(rng)
        d = derive(t)
        r = rng.uniform(0, 2000, d.n)
        c = offsets(d, MODEL)
        mu = float(d.m @ c) / float(d.m.sum())
        assert np.allclose(centering_drift(d, MODEL, r, 0), mu, atol=1e-10)

    def test_centered_offsets_drift_nothing(self):
        # antisymmetric scores: weighted mean of c is already zero
        d = derive(reference_tournament())
        for steps in (0, 3, 10):
            assert np.allclose(
                centering_drift(d, MODEL, np.zeros(3), steps), 0.0, atol=1e-10
            )

    def test_closed_form_up_to_fifty_steps(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            t = random_tournament(rng)
            d = derive(t)
            r = rng.uniform(0, 2000, d.n)
            c = offsets(d, MODEL)
            mu = float(d.m @ c) / float(d.m.sum())
            steps = int(rng.integers(0, 51))
            drift = centering_drift(d, MODEL, r, steps)
            budget = 1e-9 * (steps + 1) * float(np.abs(c).max())
            assert np.abs(drift - (steps + 1) * mu).max() <= budget


class TestConsistency:
    def test_direct_solution_is_consistent(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            t = random_tournament(rng)
            d = derive(t)
            x = solve_direct(d, MODEL).ratings
            assert consistency_residual(d, MODEL, x) <= 1e-9

    def test_score_vector_is_not(self):
        rng = np.random.default_rng(54)
        t = random_tournament(rng)
        d = derive(t)
        fake = MODEL.scale * (d.s - d.s.mean())
        assert consistency_residual(d, MODEL, fake) > 1e-2

    def test_shift_does_not_change_residual(self):
        rng = np.random.default_rng(55)
        t = random_tournament(rng)
        d = derive(t)
        x = solve_direct(d, MODEL).ratings
        base = consistency_residual(d, MODEL, x)
        shifted = consistency_residual(d, MODEL, x + 250.0)
        assert shifted == pytest.approx(base, abs=1e-9)


class TestRobustness:
    def test_small_scale_change_moves_solution_little(self):
        d = derive(reference_tournament())
        x = solve_direct(d, MODEL).ratings
        x_eps = solve_direct(d, elo(400.0 * (1.0 + 1e-6))).ratings
        assert np.abs(x_eps - x).max() <= 1e-2

    def test_solutions_for_different_r_essentially_identical(self):
        rng = np.random.default_rng(56)
        t = random_tournament(rng)
        d = derive(t)
        x1 = solve_direct(d, MODEL, rng.uniform(0, 3000, d.n)).ratings
        x2 = solve_direct(d, MODEL, rng.uniform(0, 3000, d.n)).ratings
        assert min_shift_distance(x1, x2) <= 1e-9
