import time
import tracemalloc
import warnings

import numpy as np
import pytest

from recperf import (
    Tournament,
    TournamentDataError,
    build_tournament,
    derive,
)

from conftest import random_round_robin, random_tournament
from reference import mbar_dense, permute_tournament, strength_summary, weighted_inner
from test_scale import random_schedule


class TestBuildTournament:
    def test_single_decisive_game(self):
        t = build_tournament(["A", "B"], [("A", "B", 1.0)])
        assert np.array_equal(t.score_matrix, [[0, 1], [0, 0]])
        games = t.score_matrix + t.score_matrix.T
        assert np.array_equal(games, [[0, 1], [1, 0]])

    def test_two_draws_add_up(self):
        t = build_tournament(["A", "B"], [("A", "B", 0.5), ("A", "B", 0.5)])
        assert np.array_equal(t.score_matrix, [[0, 1], [1, 0]])
        assert (t.score_matrix + t.score_matrix.T)[0, 1] == 2

    def test_self_match_rejected(self):
        with pytest.raises(TournamentDataError, match="self-match"):
            build_tournament(["A", "B"], [("A", "A", 1.0), ("A", "B", 0.5)])

    def test_unknown_player_rejected(self):
        with pytest.raises(TournamentDataError, match="unknown player"):
            build_tournament(["A", "B"], [("A", "C", 1.0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(TournamentDataError, match="duplicate"):
            build_tournament(["A", "A"], [("A", "A", 0.5)])

    def test_duplicate_labels_found_in_linear_time(self):
        players = [f"p{k}" for k in range(20_000)] + ["p7"]
        start = time.perf_counter()
        with pytest.raises(TournamentDataError, match=r"duplicate player labels: \['p7'\]$"):
            build_tournament(players, [])
        assert time.perf_counter() - start < 2.0  # counting each label's copies took 9 s

    def test_score_outside_unit_interval_rejected(self):
        with pytest.raises(TournamentDataError, match=r"outside \[0, 1\]"):
            build_tournament(["A", "B"], [("A", "B", 1.5)])

    @pytest.mark.parametrize("record", [("A", "B"), ("A", "B", 1.0, "extra")])
    def test_record_must_have_three_fields(self, record):
        with pytest.raises(ValueError, match="values to unpack"):
            build_tournament(["A", "B"], [("A", "B", 0.5), record])

    def test_idle_player_rejected(self):
        with pytest.raises(TournamentDataError, match="no games"):
            build_tournament(["A", "B", "C"], [("A", "B", 1.0)])


class TestTournamentInvariants:
    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(TournamentDataError, match="diagonal"):
            Tournament(("A", "B"), np.array([[7.0, 1.0], [0.0, 0.0]]))

    def test_negative_score_rejected(self):
        with pytest.raises(TournamentDataError, match="negative"):
            Tournament(("A", "B"), np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_matrix_shape_must_match_the_players(self):
        with pytest.raises(TournamentDataError) as excinfo:
            Tournament(("A", "B"), np.zeros((3, 3)))
        assert str(excinfo.value) == "score matrix shape (3, 3) does not match 2 players"

    def test_single_player_rejected(self):
        with pytest.raises(TournamentDataError, match="at least 2"):
            Tournament(("A",), np.zeros((1, 1)))

    def test_overflowing_game_totals_rejected(self):
        matrix = np.full((3, 3), 1e308)
        np.fill_diagonal(matrix, 0.0)
        matrix[2, :2] = matrix[:2, 2] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TournamentDataError, match=r"\['A', 'B'\]"):
                Tournament(("A", "B", "C"), matrix)

    def test_overflowing_sum_of_game_totals_rejected(self):
        matrix = np.array([[0.0, 5e307, 1.0], [5e307, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TournamentDataError, match="summed over all players"):
                Tournament(("A", "B", "C"), matrix)

    def test_matrix_is_immutable(self):
        t = build_tournament(["A", "B"], [("A", "B", 0.5)])
        with pytest.raises(ValueError):
            t.score_matrix[0, 1] = 3.0


class TestDerive:
    def test_all_drawn_round_robin(self):
        t = build_tournament(
            ["A", "B", "C"], [("A", "B", 0.5), ("A", "C", 0.5), ("B", "C", 0.5)]
        )
        d = derive(t)
        expected_mbar = (np.ones((3, 3)) - np.eye(3)) / 2
        assert np.allclose(mbar_dense(d), expected_mbar)
        assert np.allclose(d.s, [0.5, 0.5, 0.5])

    def test_hand_computed_crosstable(self):
        # M = A + A.T and m are row sums; s divides row sums of A by m.
        a = np.array([[0, 1.5, 0.5], [0, 0, 1], [0.5, 0, 0]])
        d = derive(Tournament(("A", "B", "C"), a))
        games = mbar_dense(d) * d.m[:, None]
        assert np.allclose(games, [[0, 1.5, 1.0], [1.5, 0, 1.0], [1.0, 1.0, 0]])
        assert np.allclose(d.m, [2.5, 2.5, 2.0])
        assert np.allclose(d.s, [2.0 / 2.5, 1.0 / 2.5, 0.5 / 2.0])

    def test_boundary_scores_accepted_at_derive(self):
        d = derive(Tournament(("A", "B"), np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert np.allclose(d.s, [1.0, 0.0])

    def test_rows_of_mbar_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = derive(random_tournament(rng, require_p1p2=False))
            assert np.abs(mbar_dense(d).sum(axis=1) - 1.0).max() <= 1e-12

    def test_null_transpose_pattern(self):
        rng = np.random.default_rng(12)
        d = derive(random_tournament(rng, require_p1p2=False))
        mbar = mbar_dense(d)
        assert np.array_equal(mbar == 0, mbar.T == 0)

    def test_shares_are_read_only_and_sum_to_one(self):
        rng = np.random.default_rng(14)
        d = derive(random_tournament(rng, require_p1p2=False))
        assert np.array_equal(d.shares, d.m / d.m.sum())
        assert abs(float(d.shares.sum()) - 1.0) <= d.n * np.finfo(float).eps
        with pytest.raises(ValueError):
            d.shares[0] = 1.0

    def test_total_points_equal_total_games_weight(self):
        rng = np.random.default_rng(13)
        t = random_tournament(rng, require_p1p2=False)
        d = derive(t)
        assert float(d.m @ d.s) == pytest.approx(t.score_matrix.sum(), rel=1e-12)


class TestDerivedCSR:
    """The CSR bit for bit: each row's opponents are the nonzero columns of
    M = A + Aᵀ in ascending order, and its weights are M[r, c] / m[r]."""

    @staticmethod
    def assert_exact(t: Tournament) -> None:
        d = derive(t)
        games = t.score_matrix + t.score_matrix.T
        assert d.indices.dtype == np.intp
        for r in range(t.n):
            row = slice(d.indptr[r], d.indptr[r + 1])
            opponents = np.flatnonzero(games[r])
            assert np.array_equal(d.indices[row], opponents)
            assert np.array_equal(d.weights[row], games[r, opponents] / d.m[r])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedules(self, seed):
        self.assert_exact(random_tournament(np.random.default_rng(seed), require_p1p2=False))

    def test_a_complete_crosstable(self):
        self.assert_exact(random_round_robin(np.random.default_rng(0), 300))

    def test_two_players(self):
        self.assert_exact(build_tournament(["A", "B"], [("A", "B", 0.25), ("B", "A", 1.0)]))

    @pytest.mark.parametrize("schedule", [lambda rng: random_round_robin(rng, 300),
                                          lambda rng: random_schedule(rng, 2000, 40_000)],
                             ids=["complete", "sparse"])
    def test_the_working_set_is_the_outputs_and_one_scratch(self, schedule):
        t = schedule(np.random.default_rng(1))
        tracemalloc.start()
        try:
            d = derive(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in (d.m, d.shares, d.s, d.indptr, d.indices, d.weights))
        scratch = 8 * 2 * t.i.size  # one float or intp entry per CSR entry
        # the slack covers numpy's cast buffers and the n-sized arrays (67 kB on
        # the crosstable); one more array of 4 bytes a pair (179 kB and 166 kB
        # here) would not fit in it
        assert peak <= outputs + scratch + 128 * 1024


class TestWeightedInner:
    def test_all_ones(self):
        d = derive(
            build_tournament(
                ["A", "B", "C"], [("A", "B", 0.5), ("A", "C", 0.5), ("B", "C", 0.5)]
            )
        )
        assert weighted_inner(d, np.ones(3), np.ones(3)) == pytest.approx(6.0)

    def test_orthogonal_cancellation(self):
        d = derive(
            build_tournament(
                ["A", "B", "C"], [("A", "B", 0.5), ("A", "C", 0.5), ("B", "C", 0.5)]
            )
        )
        assert weighted_inner(d, np.array([1.0, -1.0, 0.0]), np.ones(3)) == pytest.approx(0.0)

    def test_direct_evaluation(self):
        # M = [[0,1,0],[1,0,2],[0,2,0]], so m = (1, 3, 2); hand-check the sum.
        d = derive(Tournament(("A", "B", "C"), np.array([[0, 0.5, 0], [0.5, 0, 1], [0, 1, 0]])))
        assert np.allclose(d.m, [1, 3, 2])
        v = np.array([1.0, 2.0, 0.0])
        w = np.array([3.0, 4.0, 5.0])
        assert weighted_inner(d, v, w) == pytest.approx(1 * 1 * 3 + 3 * 2 * 4)

    def test_length_mismatch(self):
        d = derive(build_tournament(["A", "B"], [("A", "B", 0.5)]))
        with pytest.raises(ValueError, match="length"):
            weighted_inner(d, np.ones(3), np.ones(2))


class TestStrengthSummary:
    def test_zero_ratings(self):
        d = derive(build_tournament(["A", "B"], [("A", "B", 0.5)]))
        summary = strength_summary(d, np.zeros(2))
        assert summary.total == 0.0
        assert summary.average == 0.0

    def test_equal_games(self):
        d = derive(
            build_tournament(
                ["A", "B", "C"], [("A", "B", 0.5), ("A", "C", 0.5), ("B", "C", 0.5)]
            )
        )
        summary = strength_summary(d, np.array([2400.0, 2300.0, 2200.0]))
        assert summary.total == pytest.approx(13800.0)
        assert summary.average == pytest.approx(2300.0)

    def test_weighted_average(self):
        d = derive(Tournament(("A", "B", "C"), np.array([[0, 0.5, 0], [0.5, 0, 1], [0, 1, 0]])))
        # m = (1, 3, 2): weighted average of (100, 200, 0) = (100 + 600)/6
        summary = strength_summary(d, np.array([100.0, 200.0, 0.0]))
        assert summary.total == pytest.approx(700.0)
        assert summary.average == pytest.approx(700.0 / 6.0)

    def test_average_times_games_is_total(self):
        rng = np.random.default_rng(14)
        d = derive(random_tournament(rng, require_p1p2=False))
        r = rng.normal(size=d.n)
        summary = strength_summary(d, r)
        assert summary.average * d.m.sum() == pytest.approx(summary.total, rel=1e-12)


class TestPermute:
    def test_identity(self):
        t = build_tournament(["A", "B"], [("A", "B", 1.0)])
        assert permute_tournament(t, [0, 1]) == t

    def test_swap_is_involution(self):
        t = build_tournament(["A", "B", "C"], [("A", "B", 1.0), ("B", "C", 0.5), ("A", "C", 0.0)])
        swapped = permute_tournament(t, [1, 0, 2])
        assert permute_tournament(swapped, [1, 0, 2]) == t
        assert swapped.players == ("B", "A", "C")

    def test_derive_commutes_with_permutation(self):
        rng = np.random.default_rng(15)
        t = random_tournament(rng, require_p1p2=False)
        perm = rng.permutation(t.n)
        d = derive(t)
        d_perm = derive(permute_tournament(t, perm))
        assert np.allclose(d_perm.s[perm], d.s)
        assert np.allclose(d_perm.m[perm], d.m)
        assert np.allclose(mbar_dense(d_perm)[np.ix_(perm, perm)], mbar_dense(d))

    def test_entry_mapping(self):
        t = build_tournament(["A", "B", "C"], [("A", "B", 1.0), ("B", "C", 0.5), ("A", "C", 0.0)])
        perm = [2, 0, 1]
        moved = permute_tournament(t, perm)
        for i in range(3):
            for j in range(3):
                assert moved.score_matrix[perm[i], perm[j]] == t.score_matrix[i, j]

    def test_bad_permutation(self):
        t = build_tournament(["A", "B"], [("A", "B", 0.5)])
        with pytest.raises(ValueError, match="permutation"):
            permute_tournament(t, [0, 0])
