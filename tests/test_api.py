"""The public surface of `recperf`: what `__all__` exports and what README shows."""

import contextlib
import dataclasses
import inspect
import io
import re
from pathlib import Path

import recperf

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "BoundaryScoreError",
    "ConvergenceError",
    "DerivedMatrices",
    "ParseError",
    "ParsedTournament",
    "Ranking",
    "RatingModel",
    "Schedule",
    "SimulationConfig",
    "SimulationResult",
    "SingularSystemError",
    "SolveOutcome",
    "SpectralReport",
    "StructureReport",
    "Tournament",
    "TournamentDataError",
    "build_tournament",
    "check_structure",
    "derive",
    "elo",
    "gaussian",
    "iterate",
    "load_tournament",
    "logistic",
    "lopsided_pairs",
    "offsets",
    "parse_model",
    "parse_tournament",
    "performance",
    "rank_from_ratings",
    "simulate_tournament",
    "solve_direct",
    "spectral_diagnostics",
    "tournament_to_json",
    "__version__",
]


def test_all_lists_exactly_the_public_names():
    assert recperf.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(recperf, name), name


def test_only_offsets_reads_the_model():
    # the solvers take the offsets c; the model and the clamp policy stop at `offsets`
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(recperf.offsets) == ["d", "model", "clamp_scores"]
    assert params(recperf.performance) == ["d", "c", "r"]
    assert params(recperf.iterate) == ["d", "c", "r", "tol", "max_iter", "record_trace"]
    assert params(recperf.solve_direct) == ["d", "c", "r"]
    clamping = [name for name in PUBLIC if inspect.isfunction(getattr(recperf, name))
                and "clamp_scores" in params(getattr(recperf, name))]
    assert clamping == ["offsets"]


def test_report_fields_and_error_attributes():
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert fields(recperf.StructureReport) == ["connected", "components", "bipartite", "coloring"]
    assert fields(recperf.SpectralReport) == [
        "eigenvalues", "multiplicity_one", "has_minus_one", "spectral_gap",
        "lambda_2_bound", "lambda_min_bound", "lanczos_steps"]
    assert fields(recperf.DerivedMatrices) == [
        "m", "shares", "s", "indptr", "indices", "weights"]
    assert fields(recperf.SolveOutcome) == [
        "ratings", "method", "iterations", "residual", "pinned_total", "trace"]
    err = recperf.ConvergenceError(7, 0.5, None, None)
    assert list(vars(err)) == ["iterations", "step_norm", "last_iterate"]


def test_readme_python_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})
    assert out.getvalue() == "[['A'], ['B'], ['C']]\n"
