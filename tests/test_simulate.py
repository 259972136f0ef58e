import numpy as np
import pytest

from recperf import (
    Schedule,
    SimulationConfig,
    check_structure,
    derive,
    elo,
    offsets,
    simulate_tournament,
    solve_direct,
)
from recperf.simulate import _schedule_pairs

from reference import dense_derive


def config(**overrides):
    base = dict(
        n=6,
        model=elo(),
        schedule=Schedule("round_robin", 2),
        seed=42,
        spread=400.0,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = simulate_tournament(config())
        b = simulate_tournament(config())
        assert a == b

    def test_different_seed_different_games(self):
        a = simulate_tournament(config(seed=1))
        b = simulate_tournament(config(seed=2))
        assert a.records != b.records


class TestSchedules:
    def test_round_robin_counts(self):
        result = simulate_tournament(config(n=5, schedule=Schedule("round_robin", 3)))
        d = derive(result.tournament())
        assert np.all(d.m == 3 * 4)
        assert np.all(dense_derive(result.tournament()).M[~np.eye(5, dtype=bool)] == 3)

    def test_random_pairings_cover_everyone(self):
        result = simulate_tournament(
            config(n=6, schedule=Schedule("random", 30), seed=9)
        )
        d = derive(result.tournament())
        assert np.all(d.m >= 1)
        assert float(dense_derive(result.tournament()).M.sum()) == 2 * 30

    @pytest.mark.parametrize("n, games", [(2, 3), (3, 4), (7, 12), (50, 400)])
    def test_random_pairs_decode_the_listed_pairs(self, n, games):
        # the oracle indexes the row-major list of all i < j with the same draws
        listed = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for seed in range(8):
            rng = np.random.default_rng(seed)
            while True:
                expected = [listed[k] for k in rng.integers(0, len(listed), size=games)]
                if len({i for pair in expected for i in pair}) == n:
                    break
            got = _schedule_pairs(config(n=n, schedule=Schedule("random", games)),
                                  np.random.default_rng(seed))
            assert got == expected

    def test_too_few_random_games_rejected(self):
        # 2 games cannot cover 6 players; the retry loop must give up
        with pytest.raises(ValueError, match="idle"):
            simulate_tournament(config(n=6, schedule=Schedule("random", 2)))

    def test_round_robin_needs_three_players(self):
        with pytest.raises(ValueError, match="at least 3"):
            config(n=2, schedule=Schedule("round_robin", 1))

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            Schedule("swiss", 5)


class TestOutcomes:
    def test_binary_outcomes_only(self):
        result = simulate_tournament(config())
        assert all(score in (0.0, 1.0) for _, _, score in result.records)

    def test_equal_strengths_fair_coin(self):
        result = simulate_tournament(
            config(
                n=4,
                true_strengths=(0.0, 0.0, 0.0, 0.0),
                schedule=Schedule("round_robin", 120),
                seed=3,
            )
        )
        d = derive(result.tournament())
        assert np.abs(d.s - 0.5).max() <= 0.08

    def test_given_strengths_passed_through(self):
        strengths = (400.0, 100.0, -250.0)
        result = simulate_tournament(config(n=3, true_strengths=strengths))
        assert result.true_strengths == strengths

    def test_strong_player_usually_wins(self):
        result = simulate_tournament(
            config(
                n=3,
                true_strengths=(800.0, 0.0, -800.0),
                schedule=Schedule("round_robin", 40),
                seed=5,
            )
        )
        d = derive(result.tournament())
        assert d.s[0] > 0.8
        assert d.s[2] < 0.2

    def test_schedule_satisfies_p1_p2_for_round_robin(self):
        result = simulate_tournament(config(n=5, seed=11))
        structure = check_structure(derive(result.tournament()))
        assert structure.connected
        assert not structure.bipartite


def kendall_tau(a, b):
    n = len(a)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            sign = (a[i] - a[j]) * (b[i] - b[j])
            if sign > 0:
                concordant += 1
            elif sign < 0:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


class TestRecovery:
    def test_rating_recovery_tau_band(self):
        # Band frozen from a Monte-Carlo run over these 120 seeds: the
        # seed-averaged tau between true strengths and solved ratings was
        # 0.716 for 8 players, 4 round-robin rounds, 400-unit spread.
        taus = []
        for seed in range(120):
            result = simulate_tournament(
                SimulationConfig(
                    n=8,
                    model=elo(),
                    schedule=Schedule("round_robin", 4),
                    seed=seed,
                    spread=400.0,
                )
            )
            d = derive(result.tournament())
            out = solve_direct(d, offsets(d, elo(), clamp_scores=True))
            taus.append(kendall_tau(np.array(result.true_strengths), out.ratings))
        assert float(np.mean(taus)) >= 0.7


class TestConfigValidation:
    def test_strength_count_must_match(self):
        with pytest.raises(ValueError, match="strengths"):
            config(n=4, true_strengths=(1.0, 2.0))

    def test_bad_spread(self):
        with pytest.raises(ValueError, match="spread"):
            config(spread=-5.0)

    def test_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            config(seed=-1)

    @pytest.mark.parametrize("make, message", [
        (lambda: Schedule("random", 0), "schedule count must be positive, got 0"),
        (lambda: config(n=1), "need at least 2 players, got 1"),
    ], ids=["zero-games", "one-player"])
    def test_messages(self, make, message):
        with pytest.raises(ValueError) as excinfo:
            make()
        assert str(excinfo.value) == message
