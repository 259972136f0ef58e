"""Tournament ratings by recursive performance.

From a matrix of pairwise scores and a linear paired-comparison model, the
package computes the rating vector that is the unique fixed point of the
performance map, both by fixed-point iteration and by a direct linear
solve, with structural (connectivity, bipartiteness) and spectral
validation of the schedule.
"""

from .diagnostics import (
    DiagnosticsError,
    PowerConvergence,
    SpectralReport,
    StructureReport,
    check_structure,
    limit_power_check,
    lopsided_pairs,
    spectral_diagnostics,
)
from .io import (
    ParsedTournament,
    ParseError,
    load_tournament,
    parse_tournament,
    tournament_to_csv,
    tournament_to_json,
)
from .models import (
    BoundaryScoreError,
    RatingModel,
    elo,
    gaussian,
    logistic,
    parse_model,
)
from .ranking import (
    Ranking,
    essentially_identical,
    min_shift_distance,
    rank_from_ratings,
    score_ranking,
)
from .simulate import Schedule, SimulationConfig, SimulationResult, simulate_tournament
from .solver import (
    ConvergenceError,
    SingularSystemError,
    SolveOutcome,
    centered_offsets,
    centering_drift,
    consistency_residual,
    iterate,
    offsets,
    performance,
    solve_direct,
)
from .tournament import (
    DerivedMatrices,
    StrengthSummary,
    Tournament,
    TournamentDataError,
    build_tournament,
    derive,
    permute_tournament,
    strength_summary,
    weighted_inner,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryScoreError",
    "ConvergenceError",
    "DerivedMatrices",
    "DiagnosticsError",
    "ParseError",
    "ParsedTournament",
    "PowerConvergence",
    "Ranking",
    "RatingModel",
    "Schedule",
    "SimulationConfig",
    "SimulationResult",
    "SingularSystemError",
    "SolveOutcome",
    "SpectralReport",
    "StrengthSummary",
    "StructureReport",
    "Tournament",
    "TournamentDataError",
    "build_tournament",
    "centered_offsets",
    "centering_drift",
    "check_structure",
    "consistency_residual",
    "derive",
    "elo",
    "essentially_identical",
    "gaussian",
    "iterate",
    "limit_power_check",
    "load_tournament",
    "logistic",
    "lopsided_pairs",
    "min_shift_distance",
    "offsets",
    "parse_model",
    "parse_tournament",
    "performance",
    "permute_tournament",
    "rank_from_ratings",
    "score_ranking",
    "simulate_tournament",
    "solve_direct",
    "spectral_diagnostics",
    "strength_summary",
    "tournament_to_csv",
    "tournament_to_json",
    "weighted_inner",
    "__version__",
]
