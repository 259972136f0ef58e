import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from recperf import (
    Ranking,
    build_tournament,
    derive,
    essentially_identical,
    min_shift_distance,
    rank_from_ratings,
    score_ranking,
)


class TestRankFromRatings:
    def test_three_distinct(self):
        ranking = rank_from_ratings(np.array([127.2, 0.0, -127.2]), 1e-6)
        assert ranking.groups == ((0,), (1,), (2,))

    def test_exact_tie(self):
        ranking = rank_from_ratings(np.array([5.0, 5.0, 1.0]), 1e-6)
        assert ranking.groups == ((0, 1), (2,))

    def test_constant_vector_is_one_group(self):
        ranking = rank_from_ratings(np.full(4, 3.25), 1e-6)
        assert ranking.groups == ((0, 1, 2, 3),)

    def test_transitive_chain_merges(self):
        # neighbours are within tol but the extremes are not
        ranking = rank_from_ratings(np.array([0.0, 0.6, 1.2]), 0.7)
        assert ranking.groups == ((0, 1, 2),)

    def test_order_is_descending(self):
        ranking = rank_from_ratings(np.array([-3.0, 10.0, 2.0]), 0.0)
        assert ranking.groups == ((1,), (2,), (0,))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rank_from_ratings(np.array([1.0, float("nan")]), 0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rank_from_ratings(np.array([1.0, 0.0]), -1.0)

    def test_positions_share_rank_on_ties(self):
        ranking = rank_from_ratings(np.array([5.0, 5.0, 1.0, 0.0]), 1e-9)
        assert ranking.positions() == [1, 1, 3, 4]

    def test_labels(self):
        ranking = Ranking(((1,), (0, 2)))
        assert ranking.labels(("x", "y", "z")) == [["y"], ["x", "z"]]


class TestScoreRanking:
    def test_reference_scores(self):
        t = build_tournament(
            ["A", "B", "C"], [("A", "B", 1.0), ("A", "C", 0.5), ("B", "C", 1.0)]
        )
        assert score_ranking(derive(t)).groups == ((0,), (1,), (2,))

    def test_all_draws_tie(self):
        t = build_tournament(
            ["A", "B", "C"], [("A", "B", 0.5), ("A", "C", 0.5), ("B", "C", 0.5)]
        )
        assert score_ranking(derive(t)).groups == ((0, 1, 2),)


class TestEssentialIdentity:
    def test_constant_shift(self):
        x = np.array([1.0, 5.0, -2.0])
        assert essentially_identical(x, x + 42.0, 1e-12)

    def test_non_shift(self):
        assert not essentially_identical(np.zeros(2), np.array([0.0, 1.0]), 1e-6)

    def test_min_shift_distance_value(self):
        # difference spread is [0, 1], midpoint shift leaves 0.5
        assert min_shift_distance(np.array([0.0, 1.0]), np.zeros(2)) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            min_shift_distance(np.zeros(2), np.zeros(3))


# Integer-valued ratings keep every sum exact, so the invariance statements
# below are tested free of float rounding artifacts.
integer_vectors = arrays(
    np.float64,
    st.integers(min_value=2, max_value=8),
    elements=st.integers(min_value=-10**6, max_value=10**6).map(float),
)


@given(integer_vectors, st.integers(min_value=-10**6, max_value=10**6))
def test_translation_invariance(x, shift):
    before = rank_from_ratings(x, 0.5)
    after = rank_from_ratings(x + float(shift), 0.5)
    assert before == after


@given(integer_vectors)
def test_identity_at_zero_tolerance_implies_equal_ranking(x):
    y = x + 13.0
    assert essentially_identical(x, y, 0.0)
    assert rank_from_ratings(x, 0.0) == rank_from_ratings(y, 0.0)


@given(integer_vectors, integer_vectors)
def test_essential_identity_is_symmetric(x, y):
    if x.shape != y.shape:
        return
    assert essentially_identical(x, y, 2.0) == essentially_identical(y, x, 2.0)


@given(integer_vectors)
def test_essential_identity_is_an_equivalence_at_zero_tolerance(x):
    y = x + 7.0
    z = y - 19.0
    assert essentially_identical(x, x, 0.0)
    assert essentially_identical(x, y, 0.0)
    assert essentially_identical(y, z, 0.0)
    assert essentially_identical(x, z, 0.0)
