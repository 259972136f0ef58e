import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recperf import BoundaryScoreError, RatingModel, elo, gaussian, logistic, parse_model

ALL_MODELS = [elo(), elo(200.0), logistic(1.0), logistic(250.0), gaussian(1.0), gaussian(300.0)]


class TestExpectedScore:
    def test_equal_ratings_give_half(self):
        for model in ALL_MODELS:
            assert model.expected_score(1700.0, 1700.0) == pytest.approx(0.5)

    def test_elo_400_point_gap(self):
        # 1 / (1 + 10^-1) = 10/11
        assert elo().expected_score(400.0, 0.0) == pytest.approx(10.0 / 11.0, abs=1e-12)

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(21)
        for model in ALL_MODELS:
            for _ in range(50):
                a, b = rng.uniform(-2000, 2000, 2)
                total = model.expected_score(a, b) + model.expected_score(b, a)
                assert abs(total - 1.0) <= 1e-12

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            elo().expected_score(float("nan"), 0.0)
        with pytest.raises(ValueError, match="finite"):
            elo().expected_score(0.0, float("inf"))


class TestCdf:
    def test_maps_into_open_interval_on_working_range(self):
        for model in ALL_MODELS:
            for x in np.linspace(-8 * model.scale, 8 * model.scale, 101):
                value = model.cdf(float(x))
                assert 0.0 < value < 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        for model in ALL_MODELS:
            for x in rng.uniform(-6 * model.scale, 6 * model.scale, 200):
                assert abs(model.cdf(x) + model.cdf(-x) - 1.0) <= 1e-12

    def test_zero_is_median(self):
        for model in ALL_MODELS:
            assert model.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_strictly_increasing_on_grid(self):
        for model in ALL_MODELS:
            grid = np.linspace(-6 * model.scale, 6 * model.scale, 301)
            values = [model.cdf(float(x)) for x in grid]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_nonfinite_difference_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            elo().cdf(float("inf"))
        assert str(excinfo.value) == "rating difference must be finite, got inf"

    def test_extreme_arguments_do_not_overflow(self):
        for model in ALL_MODELS:
            assert model.cdf(1e9) == pytest.approx(1.0)
            assert model.cdf(-1e9) == pytest.approx(0.0, abs=1e-300)


class TestQuantile:
    def test_median_is_zero(self):
        for model in ALL_MODELS:
            assert model.quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_elo_three_quarters(self):
        # closed form: -400 log10(1/0.75 - 1) = 400 log10(3)
        assert elo().quantile(0.75) == pytest.approx(400.0 * math.log10(3.0), abs=1e-9)
        assert elo().quantile(0.75) == pytest.approx(190.8485, abs=1e-4)

    def test_elo_quarter_is_symmetric(self):
        assert elo().quantile(0.25) == pytest.approx(-elo().quantile(0.75), abs=1e-9)

    def test_gaussian_matches_normal_dist(self):
        model = gaussian(300.0)
        for s in (0.1, 0.35, 0.62, 0.9):
            assert model.quantile(s) == pytest.approx(
                NormalDist(0.0, 300.0).inv_cdf(s), abs=1e-12
            )

    def test_strictly_increasing(self):
        for model in ALL_MODELS:
            grid = np.linspace(0.01, 0.99, 99)
            values = [model.quantile(float(s)) for s in grid]
            assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_boundary_scores_rejected(self, bad):
        with pytest.raises(BoundaryScoreError) as excinfo:
            elo().quantile(bad)
        assert str(bad) in str(excinfo.value)


class TestRoundTrip:
    def test_elo_and_logistic_six_scales(self):
        rng = np.random.default_rng(23)
        for model in (elo(), elo(100.0), logistic(1.0), logistic(250.0)):
            xs = rng.uniform(-6 * model.scale, 6 * model.scale, 1000)
            worst = max(abs(model.quantile(model.cdf(x)) - x) for x in xs)
            assert worst <= 1e-9 * model.scale

    def test_gaussian_five_sigma(self):
        rng = np.random.default_rng(24)
        for model in (gaussian(1.0), gaussian(300.0)):
            xs = rng.uniform(-5 * model.scale, 5 * model.scale, 1000)
            worst = max(abs(model.quantile(model.cdf(x)) - x) for x in xs)
            assert worst <= 1e-9 * model.scale

    def test_gaussian_tail_is_representation_limited(self):
        # Beyond ~5.5 sigma the cdf value is quantized at 2^-53 and the
        # quantile amplifies that by 1/pdf; allow exactly that much.
        model = gaussian(1.0)
        std = NormalDist()
        for x in np.linspace(5.0, 6.0, 500):
            bound = 1e-9 + 3.0 * 2.0**-53 / std.pdf(x)
            assert abs(model.quantile(model.cdf(float(x))) - x) <= bound

    def test_quantile_then_cdf(self):
        rng = np.random.default_rng(25)
        for model in ALL_MODELS:
            for s in rng.uniform(0.001, 0.999, 200):
                assert model.cdf(model.quantile(float(s))) == pytest.approx(s, abs=1e-12)


@given(st.floats(min_value=-2000.0, max_value=2000.0))
def test_elo_symmetry_property(x):
    model = elo()
    assert abs(model.cdf(x) + model.cdf(-x) - 1.0) <= 1e-12


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_round_trip_from_probability_side(s):
    model = logistic(1.0)
    assert model.cdf(model.quantile(s)) == pytest.approx(s, abs=1e-12)


class TestModelValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown model family"):
            RatingModel("cauchy", 1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_scale(self, scale):
        with pytest.raises(ValueError) as excinfo:
            RatingModel("elo", scale)
        assert str(excinfo.value) == f"model scale must be finite and positive, got {scale}"


class TestParseModel:
    def test_bare_elo_defaults_to_400(self):
        assert parse_model("elo") == RatingModel("elo", 400.0)

    def test_explicit_scales(self):
        assert parse_model("elo:200") == RatingModel("elo", 200.0)
        assert parse_model("logistic:1.5") == RatingModel("logistic", 1.5)
        assert parse_model("gaussian:300") == RatingModel("gaussian", 300.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            parse_model("uniform:1")

    def test_missing_scale(self):
        with pytest.raises(ValueError, match="explicit scale"):
            parse_model("gaussian")

    def test_bad_scale_text(self):
        with pytest.raises(ValueError, match="bad scale"):
            parse_model("elo:abc")
