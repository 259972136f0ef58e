"""Tournament ratings by recursive performance.

From a matrix of pairwise scores and a linear paired-comparison model, the
package computes the rating vector that is the unique fixed point of the
performance map, both by fixed-point iteration and by a direct linear
solve, with structural (connectivity, bipartiteness) and spectral
validation of the schedule.
"""

from .diagnostics import (
    SpectralReport,
    StructureReport,
    check_structure,
    lopsided_pairs,
    spectral_diagnostics,
)
from .io import (
    ParsedTournament,
    ParseError,
    load_tournament,
    parse_tournament,
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
    rank_from_ratings,
)
from .simulate import Schedule, SimulationConfig, SimulationResult, simulate_tournament
from .solver import (
    ConvergenceError,
    SingularSystemError,
    SolveOutcome,
    iterate,
    offsets,
    performance,
    solve_direct,
)
from .tournament import (
    DerivedMatrices,
    Tournament,
    TournamentDataError,
    build_tournament,
    derive,
)

__version__ = "0.1.0"

__all__ = [
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
