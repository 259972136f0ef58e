import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import recperf.solver as solver
from recperf import diagnostics
from recperf import (
    BoundaryScoreError,
    ConvergenceError,
    SingularSystemError,
    DerivedMatrices,
    Tournament,
    build_tournament,
    derive,
    elo,
    iterate,
    load_tournament,
    offsets,
    performance,
    rank_from_ratings,
    solve_direct,
)

from conftest import ladder_records, random_round_robin, random_tournament
from reference import (
    centered_offsets,
    centering_drift,
    dense_derive,
    dense_eigenvalues,
    dense_solve,
    consistency_residual,
    iteration_error_bound,
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
        assert np.allclose(performance(d, offsets(d, MODEL), r), dense_derive(t).Mbar @ r)

    def test_reference_elo_performance(self):
        d = derive(reference_tournament())
        r = np.full(3, 2000.0)
        p = performance(d, offsets(d, MODEL), r)
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
        assert np.allclose(performance(d, offsets(d, MODEL), r), expected, atol=1e-9)

    def test_defining_property(self):
        rng = np.random.default_rng(42)
        t = random_tournament(rng)
        d = derive(t)
        r = rng.uniform(0, 1000, d.n)
        p = performance(d, offsets(d, MODEL), r)
        avg = dense_derive(t).Mbar @ r
        for i in range(d.n):
            assert MODEL.expected_score(p[i], avg[i]) == pytest.approx(d.s[i], abs=1e-9)

    def test_boundary_score_names_player(self):
        d = derive(Tournament(("A", "B"), np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(BoundaryScoreError) as excinfo:
            performance(d, offsets(d, MODEL), np.zeros(2))
        assert excinfo.value.player == 0

    def test_clamp_escape_hatch(self):
        d = derive(Tournament(("A", "B"), np.array([[0.0, 1.0], [0.0, 0.0]])))
        p = performance(d, offsets(d, MODEL, clamp_scores=True), np.zeros(2))
        # clamped to s = (3/4, 1/4) since eps = 1/(2*1+2)
        assert p[0] == pytest.approx(400.0 * math.log10(3.0), abs=1e-9)


class TestOffsetsInput:
    """The solvers take the offsets of `offsets` and check them as outside input."""

    SOLVERS = [lambda d, c: performance(d, c, np.zeros(d.n)), iterate, solve_direct]

    @pytest.mark.parametrize("solve", SOLVERS, ids=["performance", "iterate", "solve_direct"])
    @pytest.mark.parametrize("c, message", [
        ([100.0, -100.0], "expected offsets of length 3, got shape (2,)"),
        ([[100.0, 0.0, -100.0]], "expected offsets of length 3, got shape (1, 3)"),
        ([100.0, np.nan, -100.0], "offsets must be finite"),
        ([np.inf, 0.0, -100.0], "offsets must be finite"),
    ], ids=["short", "2d", "nan", "inf"])
    def test_bad_offsets_are_named(self, solve, c, message):
        with pytest.raises(ValueError) as excinfo:
            solve(derive(reference_tournament()), c)
        assert str(excinfo.value) == message

    def test_offsets_of_a_list_match_the_array(self):
        d = derive(reference_tournament())
        c = offsets(d, MODEL)
        assert np.array_equal(iterate(d, c.tolist()).ratings, iterate(d, c).ratings)
        assert np.array_equal(solve_direct(d, c.tolist()).ratings, solve_direct(d, c).ratings)


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
        out = iterate(d, offsets(d, MODEL))
        assert np.allclose(
            out.ratings, [REFERENCE_RATING, 0.0, -REFERENCE_RATING], atol=1e-7
        )
        assert out.method == "iterative"
        assert out.iterations > 0
        assert out.residual <= 1e-7

    def test_geometric_rate(self):
        # contraction ratio 1/2 puts convergence to 1.9e-8 in the mid 30s
        d = derive(reference_tournament())
        out = iterate(d, offsets(d, MODEL))
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
        out = iterate(d, offsets(d, MODEL), r)
        rho = float(d.m @ r) / float(d.m.sum())
        assert np.allclose(out.ratings, rho, atol=1e-6)

    def test_team_tournament_oscillates(self):
        d = derive(team_2v2())
        with pytest.raises(ConvergenceError) as excinfo:
            iterate(d, offsets(d, MODEL), max_iter=500)
        err = excinfo.value
        assert "oscillates" in str(err)
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
        d = derive(build_tournament(names, records))
        with pytest.raises(ConvergenceError) as excinfo:
            iterate(d, offsets(d, MODEL), max_iter=50)
        message = str(excinfo.value)
        assert "odd cycle" in message
        assert "spectral gap" in message
        assert "bipartite" not in message
        assert "converges, but not within 50 steps" in message
        assert "--max-iter" in message and "--method direct" in message

    def test_a_small_cap_is_not_blamed_on_the_schedule(self):
        # the reference schedule contracts by 1/2 a step: it converges in 25-45
        d = derive(reference_tournament())
        with pytest.raises(ConvergenceError) as excinfo:
            iterate(d, offsets(d, MODEL), max_iter=5)
        message = str(excinfo.value)
        assert "odd cycle" in message and "spectral gap positive" in message
        assert "converges, but not within 5 steps" in message
        assert "slow" not in message

    def test_split_schedule_is_blamed_on_the_split(self):
        # two triangles, one lopsided: each group's offsets push its total away
        t = build_tournament(list("ABCDEF"), [
            ("A", "B", 0.8), ("A", "C", 0.8), ("B", "C", 0.5),
            ("D", "E", 0.5), ("D", "F", 0.5), ("E", "F", 0.5),
        ])
        d = derive(t)
        with pytest.raises(ConvergenceError) as excinfo:
            iterate(d, offsets(d, MODEL), max_iter=200)
        message = str(excinfo.value)
        assert "splits into 2 independent groups" in message
        assert "bipartite" not in message and "odd cycle" not in message

    def test_trace_records_each_step(self):
        d = derive(reference_tournament())
        out = iterate(d, offsets(d, MODEL), record_trace=True)
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
            out = iterate(d, offsets(d, MODEL), r, record_trace=True)
            tol = 1e-9 * (1 + abs(sigma))
            for step in out.trace:
                assert abs(float(d.m @ step) - sigma) <= tol

    def test_bad_tolerance(self):
        d = derive(reference_tournament())
        with pytest.raises(ValueError, match="positive"):
            iterate(d, offsets(d, MODEL), tol=0.0)


@pytest.fixture
def tails(monkeypatch):
    """(CG iterations, Mbar products) of every conjugate-gradient run so far."""
    seen = []
    run = solver._conjugate_gradients

    def spy(*args):
        out = run(*args)
        seen.append(out[1:3])
        return out
    monkeypatch.setattr(solver, "_conjugate_gradients", spy)
    return seen


@pytest.fixture
def traversals(monkeypatch):
    """One entry for each BFS run so far."""
    calls = []
    traverse = diagnostics._traverse
    monkeypatch.setattr(diagnostics, "_traverse", lambda d: calls.append(1) or traverse(d))
    return calls


def test_one_traversal_per_derived_schedule(traversals):
    # check_structure, the spectrum and both solvers share the one traversal kept on d
    d = derive(build_tournament(*ladder_records(60)))
    c = offsets(d, MODEL)
    diagnostics.check_structure(d)
    diagnostics.spectral_diagnostics(d)
    solve_direct(d, c)
    iterate(d, c)
    assert len(traversals) == 1
    iterate(d, c)
    assert len(traversals) == 1  # the kept verdict is read again
    d = derive(load_tournament(Path(__file__).parent / "fixtures" / "reference.json").tournament)
    iterate(d, offsets(d, MODEL))
    assert len(traversals) == 1  # a fast mixer never reads the verdict


def test_no_recperf_path_calls_blas():
    # every games-weighted sum is a pairwise ufunc reduction, so no BLAS kernel
    # or thread count changes a result; read from the syntax tree, since
    # docstrings may still write a sum as "shares @ r"
    blas = {"dot", "inner", "vdot", "matmul", "einsum"}
    for path in Path(solver.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(getattr(node, "op", None), ast.MatMult), \
                f"{path.name}:{node.lineno}: @"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = getattr(node.func.value, "id", None)
                called = node.func.attr == "dot" or (owner in ("np", "numpy")
                                                     and node.func.attr in blas)
                assert not called, f"{path.name}:{node.lineno}: {node.func.attr}"


@pytest.fixture(scope="module")
def huge_ladder():
    """The n = 100 ladder, its spectral gap and ratings near 1e12."""
    t = build_tournament(*ladder_records(100))
    d = derive(t)
    gap = 1.0 - dense_eigenvalues(dense_derive(t))[-2]
    return d, gap, 1e12 + np.random.default_rng(58).uniform(0, 3000, d.n)


class TestChebyshev:
    """Slow mixers, where `iterate` turns from plain steps to conjugate gradients."""

    def test_ladder_fixture_count_and_accuracy(self, tails):
        # the plain iteration takes 15,353 steps here
        t = load_tournament(Path(__file__).parent / "fixtures" / "ladder.json").tournament
        d, dd = derive(t), dense_derive(t)
        out = iterate(d, offsets(d, MODEL))
        assert out.iterations == 142
        assert tails == [(13, 14)]  # after 2 windows of plain steps
        bound = iteration_error_bound(d, centered_offsets(d, MODEL), out.ratings, 0.0,
                                      dense_eigenvalues(dd)[-2])
        assert np.abs(out.ratings - dense_solve(dd, MODEL)).max() <= bound

    def test_fast_mixers_stay_plain(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("conjugate-gradient steps taken")
        monkeypatch.setattr(solver, "_conjugate_gradients", refuse)
        d = derive(reference_tournament())
        iterate(d, offsets(d, MODEL))
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = derive(random_tournament(rng))
            iterate(d, offsets(d, MODEL), rng.uniform(0, 2000, d.n))

    @pytest.mark.parametrize("n, iterations", [(40, 131), (60, 135), (100, 142)])
    def test_ladder_count_and_accuracy(self, n, iterations):
        t = build_tournament(*ladder_records(n))
        d, dd = derive(t), dense_derive(t)
        out = iterate(d, offsets(d, MODEL))
        assert out.iterations == iterations
        lambda_2 = dense_eigenvalues(dd)[-2]
        bound = iteration_error_bound(d, centered_offsets(d, MODEL), out.ratings, 0.0, lambda_2)
        assert np.abs(out.ratings - dense_solve(dd, MODEL)).max() <= bound

    def test_agrees_with_direct(self):
        d = derive(build_tournament(*ladder_records(60)))
        c = offsets(d, MODEL)
        out = iterate(d, c, tol=1e-13 * MODEL.scale)
        assert np.abs(out.ratings - solve_direct(d, c).ratings).max() <= 1e-9 * MODEL.scale

    def test_the_bfs_runs_once_and_only_when_needed(self, traversals):
        def fresh():
            d = derive(build_tournament(*ladder_records(60)))
            return d, offsets(d, MODEL)

        d, c = fresh()
        diagnostics.check_structure(d)
        iterate(d, c)
        assert len(traversals) == 1  # the verdict kept on d is taken
        d, c = fresh()
        iterate(d, c)
        assert len(traversals) == 2  # at the switch
        d, c = fresh()
        with pytest.raises(ConvergenceError):
            iterate(d, c, max_iter=132)
        assert len(traversals) == 3  # at the switch, and not again at the cap
        d, c = fresh()
        with pytest.raises(ConvergenceError):
            iterate(d, c, max_iter=100)
        assert len(traversals) == 4  # no switch before the cap: at the cap

    def test_a_bipartite_path_keeps_plain_steps(self, tails, traversals):
        names = [f"P{k}" for k in range(30)]
        records = [(names[k], names[k + 1], 0.6) for k in range(29)] * 2
        d = derive(build_tournament(names, records))
        with pytest.raises(ConvergenceError, match="is bipartite") as excinfo:
            iterate(d, offsets(d, MODEL), max_iter=5_000)
        assert excinfo.value.iterations == 5_000
        assert not tails
        assert len(traversals) == 1

    def test_a_split_schedule_keeps_plain_steps(self, tails):
        # two chains closed into triangles, joined by nothing: each one mixes slowly
        names = [f"P{k}" for k in range(40)]
        records = []
        for first in (0, 20):
            records += [(names[k], names[k + 1], 0.7) for k in range(first, first + 19)]
            records.append((names[first], names[first + 2], 0.7))
        d = derive(build_tournament(names, records))
        with pytest.raises(ConvergenceError, match="splits into 2 independent groups"):
            iterate(d, offsets(d, MODEL), max_iter=2_000)
        assert not tails

    def test_a_cap_inside_the_accelerated_steps(self, tails):
        # the switch comes at step 128 and the run would stop at 135
        d = derive(build_tournament(*ladder_records(60)))
        errors = []
        for record_trace in (False, True):
            with pytest.raises(ConvergenceError) as excinfo:
                iterate(d, offsets(d, MODEL), max_iter=132, record_trace=record_trace)
            errors.append(excinfo.value)
        assert tails == [(4, 4)] * 2
        quiet, traced = errors
        assert quiet.iterations == 132
        assert "converges, but not within 132 steps" in str(quiet)
        assert "direct solve" not in str(quiet)
        assert quiet.step_norm == traced.step_norm
        assert np.array_equal(quiet.last_iterate, traced.last_iterate)

    def test_trace_keeps_every_step_past_the_switch(self, tails):
        # one iterate after each Mbar product: one a CG iteration, and an
        # unmoved one at the switch and at each check of the true residual
        d = derive(build_tournament(*ladder_records(60)))
        r = np.random.default_rng(57).uniform(500, 2500, d.n)
        out = iterate(d, offsets(d, MODEL), r, record_trace=True)
        quiet = iterate(d, offsets(d, MODEL), r)
        assert len(tails) == 2 and tails[0] == tails[1]
        assert out.iterations == quiet.iterations
        assert np.array_equal(out.ratings, quiet.ratings)
        assert len(out.trace) == out.iterations + 1
        assert np.array_equal(out.trace[-1], out.ratings)
        sigma = float(d.m @ r)
        assert max(abs(float(d.m @ x) - sigma) for x in out.trace) <= 1e-9 * abs(sigma)

    def test_a_breakdown_inside_the_accelerated_steps(self, monkeypatch):
        # negated shares give CG's first direction negative curvature
        run = solver._conjugate_gradients
        monkeypatch.setattr(solver, "_conjugate_gradients", lambda d, *args: run(
            dataclasses.replace(d, shares=-d.shares), *args))
        d = derive(build_tournament(*ladder_records(60)))
        with pytest.raises(ConvergenceError) as excinfo:
            iterate(d, offsets(d, MODEL))
        assert excinfo.value.iterations == 129  # the switch's product and CG's first
        assert "odd cycle" in str(excinfo.value)
        assert "direct solve" not in str(excinfo.value)


@pytest.mark.parametrize("method", [iterate, solve_direct])
def test_ratings_scale_with_the_model_scale(method):
    # the stop tolerances are relative to |chat|_inf, so no scale stops early
    d = derive(load_tournament(Path(__file__).parent / "fixtures" / "ladder.json").tournament)
    unit = method(d, offsets(d, elo(1.0))).ratings
    for scale in (1e-300, 1e-12, 400.0, 1e200):
        ratings = method(d, offsets(d, elo(scale))).ratings
        assert (rank_from_ratings(ratings, 1e-6 * scale).groups
                == rank_from_ratings(unit, 1e-6).groups)
        assert np.abs(ratings / scale - unit).max() <= 1e-8 * np.abs(unit).max()


class TestDeviationIterate:
    """`iterate` runs on y = x - rho, with rho = shares @ r, and adds rho back."""

    def test_huge_ratings_converge_like_small_ones(self, huge_ladder):
        # on x itself the rounding floor 16 eps |x|_inf = 3.6e-3 stopped the
        # plain run at 5,239 steps, 2.7 rating points from the direct solve
        d, gap, r = huge_ladder
        c = offsets(d, MODEL)
        out = iterate(d, c, r)
        assert out.iterations == iterate(d, c, r, record_trace=True).iterations == 164
        tol = 1e-10 * float(np.abs(centered_offsets(d, MODEL)).max())
        rho = float(d.shares @ r)
        error = np.abs(out.ratings - solve_direct(d, offsets(d, MODEL), r).ratings).max()
        assert error <= 4 * np.spacing(rho) + 10 * tol / gap

    def test_huge_ratings_stop_at_the_rounding_floor(self, huge_ladder):
        # tol is below the rounding of the deviation y = x - rho (the floor
        # 16 eps |y|_inf), so the stall ends the run
        d, gap, r = huge_ladder
        c = offsets(d, MODEL)
        direct = solve_direct(d, c, r).ratings
        rho = float(d.shares @ r)
        for record_trace in (False, True):
            out = iterate(d, c, r, tol=1e-300, max_iter=10**6, record_trace=record_trace)
            assert out.iterations == 172
            floor = 16 * np.finfo(float).eps * np.abs(out.ratings - rho).max()
            assert np.abs(out.ratings - direct).max() <= 4 * np.spacing(rho) + 2 * floor / gap

    def test_trace_keeps_the_total_of_huge_ratings(self, huge_ladder):
        d, _, r = huge_ladder
        sigma = float(d.m @ r)
        out = iterate(d, offsets(d, MODEL), r, record_trace=True)
        assert max(abs(float(d.m @ x) - sigma) for x in out.trace) <= 4 * np.spacing(sigma)

    def test_a_capped_run_keeps_the_total_of_huge_ratings(self, huge_ladder):
        # capped after the switch at step 128, inside the conjugate-gradient steps
        d, _, r = huge_ladder
        sigma = float(d.m @ r)
        for record_trace in (False, True):
            with pytest.raises(ConvergenceError) as excinfo:
                iterate(d, offsets(d, MODEL), r, max_iter=150, record_trace=record_trace)
            assert abs(float(d.m @ excinfo.value.last_iterate) - sigma) <= 4 * np.spacing(sigma)

    def test_a_tolerance_below_the_rounding_ends_in_the_stall(self, huge_ladder):
        d, gap, _ = huge_ladder
        c = offsets(d, MODEL)
        direct = solve_direct(d, c).ratings
        for record_trace in (False, True):
            out = iterate(d, c, tol=1e-300, max_iter=10**6, record_trace=record_trace)
            assert out.iterations == 150
            floor = 16 * np.finfo(float).eps * np.abs(out.ratings).max()
            assert np.abs(out.ratings - direct).max() <= 2 * floor / gap

    def test_ratings_spread_past_the_float_range(self):
        # r - rho overflows, so the iteration runs on x itself
        a = np.array([[0, 0.5, 0], [0, 0, 0.5], [0.03125, 0, 0]])
        d = derive(Tournament(("A", "B", "C"), a))
        r = np.array([1.5e308, -1.5e308, -1.5e308])
        c = offsets(d, MODEL)
        out = iterate(d, c, r)
        assert np.allclose(out.ratings, solve_direct(d, c, r).ratings, rtol=1e-12, atol=0)


class TestSolveDirect:
    def test_reference_instance(self):
        d = derive(reference_tournament())
        out = solve_direct(d, offsets(d, MODEL))
        assert np.allclose(
            out.ratings, [REFERENCE_RATING, 0.0, -REFERENCE_RATING], atol=1e-9
        )
        assert out.method == "direct"
        assert out.iterations == 1
        assert out.residual <= 1e-12

    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_a_round_robin_takes_one_cg_iteration(self, monkeypatch, n):
        # off the constants Mbar = -I/(n-1), so one CG step meets chat; the
        # solve takes Mbar once more, for the true residual, and no further
        d = derive(random_round_robin(np.random.default_rng(n), n))
        calls = []
        mbar_dot = DerivedMatrices.mbar_dot
        monkeypatch.setattr(DerivedMatrices, "mbar_dot",
                            lambda self, x: calls.append(1) or mbar_dot(self, x))
        out = solve_direct(d, offsets(d, MODEL))
        assert out.iterations == 1
        assert len(calls) == 2

    def test_team_tournament_takes_two_cg_iterations(self):
        d = derive(team_2v2())
        assert solve_direct(d, offsets(d, MODEL)).iterations == 2

    def test_round_robin_proportionality(self):
        # in a single round robin the offsets determine rating gaps by n/(n-1)
        d = derive(reference_tournament())
        chat = centered_offsets(d, MODEL)
        x = solve_direct(d, offsets(d, MODEL)).ratings
        assert np.allclose(chat, 1.5 * x, atol=1e-9)

    def test_agrees_with_iteration(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            t = random_tournament(rng)
            d = derive(t)
            r = rng.uniform(0, 2000, d.n)
            chat = centered_offsets(d, MODEL)
            tol = 1e-10 * max(1.0, float(np.abs(chat).max()))
            direct = solve_direct(d, offsets(d, MODEL), r)
            iterative = iterate(d, offsets(d, MODEL), r, tol=tol)
            assert np.abs(direct.ratings - iterative.ratings).max() <= 10 * tol
            # residual bound on convergence: tol * (1 + |Mbar|_inf) = 2 tol
            assert iterative.residual <= 2 * tol
            assert direct.residual <= tol

    def test_residual_is_the_solves_at_large_ratings(self):
        # x = y + rho rounds to ulp(1e12) = 1.2e-4, so the residual is taken
        # on y, which does not depend on r
        d = derive(load_tournament(Path(__file__).parent / "fixtures" / "ladder.json").tournament)
        r = 1e12 + np.arange(d.n)
        out, at_zero = solve_direct(d, offsets(d, MODEL), r), solve_direct(d, offsets(d, MODEL))
        assert out.residual == at_zero.residual <= 1e-10
        # rho as the solver forms it, a pairwise sum
        assert np.array_equal(out.ratings, at_zero.ratings + float(np.add.reduce(d.shares * r)))

    def test_team_tournament_still_solvable(self):
        # P2 fails but P1 holds: the linear system keeps rank n-1
        d = derive(team_2v2())
        out = solve_direct(d, offsets(d, MODEL))
        assert np.all(np.isfinite(out.ratings))
        assert out.residual <= 1e-10
        with pytest.raises(ConvergenceError):
            iterate(d, offsets(d, MODEL), max_iter=200)

    def test_initial_ratings_must_match_the_players(self):
        d = derive(reference_tournament())
        with pytest.raises(ValueError) as excinfo:
            solve_direct(d, offsets(d, MODEL), [2000.0, 1800.0])
        assert str(excinfo.value) == "expected a rating vector of length 3, got shape (2,)"

    def test_disconnected_raises_with_witness(self):
        d = derive(two_pairs())
        with pytest.raises(SingularSystemError) as excinfo:
            solve_direct(d, offsets(d, MODEL))
        assert excinfo.value.components == ((0, 1), (2, 3))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(48)
        t = random_tournament(rng)
        d = derive(t)
        r = rng.uniform(0, 1000, d.n)
        base = solve_direct(d, offsets(d, MODEL), r).ratings
        shifted = solve_direct(d, offsets(d, MODEL), r + 100.0).ratings
        assert np.abs(shifted - (base + 100.0)).max() <= 1e-9
        assert rank_from_ratings(base, 1e-9) == rank_from_ratings(shifted, 1e-9)

    def test_conserves_total_strength(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            t = random_tournament(rng)
            d = derive(t)
            r = rng.uniform(-500, 3000, d.n)
            sigma = float(d.m @ r)
            out = solve_direct(d, offsets(d, MODEL), r)
            assert abs(out.pinned_total - sigma) <= 1e-9 * (1 + abs(sigma))

    def test_anonymity(self):
        rng = np.random.default_rng(50)
        t = random_tournament(rng)
        d = derive(t)
        r = rng.uniform(0, 2000, d.n)
        x = solve_direct(d, offsets(d, MODEL), r).ratings
        perm = rng.permutation(t.n)
        moved = permute_tournament(t, perm)
        d_moved = derive(moved)
        x_moved = solve_direct(d_moved, offsets(d_moved, MODEL), r[np.argsort(perm)]).ratings
        assert np.abs(x_moved[perm] - x).max() <= 1e-9

    def test_subnormal_game_totals_solve_like_unit_ones(self):
        # the solve is invariant to scaling every game total; at 1e-315 the
        # totals are subnormal and m_i * x_i products lose most digits
        rng = np.random.default_rng(57)
        a = rng.uniform(0.05, 0.95, (5, 5))
        np.fill_diagonal(a, 0.0)
        names = ("A", "B", "C", "D", "E")
        d_unit, d_tiny = derive(Tournament(names, a)), derive(Tournament(names, a * 1e-315))
        unit = solve_direct(d_unit, offsets(d_unit, MODEL))
        tiny = solve_direct(d_tiny, offsets(d_tiny, MODEL))
        assert np.abs(tiny.ratings - unit.ratings).max() <= 1e-5
        assert tiny.residual <= 1e-12

    def test_n2_degenerate_returns_gap(self):
        # a two-player tournament: P2 always fails but the direct solve is defined
        d = derive(build_tournament(["A", "B"], [("A", "B", 0.6), ("A", "B", 0.6)]))
        out = solve_direct(d, offsets(d, MODEL))
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
            x = solve_direct(d, offsets(d, MODEL)).ratings
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
        x = solve_direct(d, offsets(d, MODEL)).ratings
        base = consistency_residual(d, MODEL, x)
        shifted = consistency_residual(d, MODEL, x + 250.0)
        assert shifted == pytest.approx(base, abs=1e-9)


class TestRobustness:
    def test_small_scale_change_moves_solution_little(self):
        d = derive(reference_tournament())
        x = solve_direct(d, offsets(d, MODEL)).ratings
        x_eps = solve_direct(d, offsets(d, elo(400.0 * (1.0 + 1e-6)))).ratings
        assert np.abs(x_eps - x).max() <= 1e-2

    @pytest.mark.parametrize("solve", [solve_direct, iterate], ids=["direct", "iterative"])
    def test_huge_common_shift_shifts_the_ratings(self, solve):
        # at |x| = 1e10 a step cannot fall below its rounding (ulp 1.9e-6),
        # far above the default tolerance 4e-8: the iteration must stop anyway
        d = derive(reference_tournament())
        at_zero = solve(d, offsets(d, MODEL)).ratings
        shifted = solve(d, offsets(d, MODEL), np.full(d.n, 1e10)).ratings
        assert np.abs((shifted - 1e10) - at_zero).max() <= 1e-4

    def test_step_overflow_is_not_an_error(self):
        # ratings of +-1e308 overflow the first steps to inf (a RuntimeWarning,
        # an error under the test settings); the iteration must go on
        a = np.array([[0, 0.5, 0], [0, 0, 0.5], [0.03125, 0, 0]])
        d = derive(Tournament(("A", "B", "C"), a))
        r = np.array([-1e308, 1e308, -1e308])
        c = offsets(d, MODEL)
        out = iterate(d, c, r)
        assert np.allclose(out.ratings, solve_direct(d, c, r).ratings, rtol=1e-12, atol=0)

    def test_solutions_for_different_r_essentially_identical(self):
        rng = np.random.default_rng(56)
        t = random_tournament(rng)
        d = derive(t)
        x1 = solve_direct(d, offsets(d, MODEL), rng.uniform(0, 3000, d.n)).ratings
        x2 = solve_direct(d, offsets(d, MODEL), rng.uniform(0, 3000, d.n)).ratings
        assert min_shift_distance(x1, x2) <= 1e-9
