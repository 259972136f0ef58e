"""Command-line interface: rank, check, performance, simulate.

Exit codes are stable: 0 success, 2 unreadable or invalid input file,
3 disconnected tournament (no comparable ratings), 4 boundary average
score, 5 fixed-point iteration cannot or did not converge, 1 anything
unexpected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._timing import STAGES, recording, timed
from .diagnostics import (
    UNRESOLVED,
    SpectralReport,
    StructureReport,
    check_structure,
    lopsided_pairs,
    spectral_diagnostics,
)
from .io import _LabelGroups, _PlayerRows, load_tournament, to_json, tournament_to_json
from .models import BoundaryScoreError, RatingModel, parse_model
from .ranking import _check_tie_tol, rank_from_ratings
from .simulate import Schedule, SimulationConfig, simulate_tournament
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_SOLVE_TOL,
    ConvergenceError,
    SingularSystemError,
    SolveOutcome,
    _check_limits,
    iterate,
    offsets,
    performance,
    solve_direct,
)
from .tournament import derive

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BOUNDARY = 4
EXIT_NO_CONVERGENCE = 5

REPORT_SCHEMA_VERSION = 2  # rank and performance
CHECK_SCHEMA_VERSION = 3  # 3: lambda_2, lambda_min and their bounds, not every eigenvalue
SHOWN_PAIRS = 10  # lopsided pairs a table lists; the JSON report lists them all


def _model_spec(model: RatingModel) -> str:
    return f"{model.family}:{model.scale:g}"


def _fmt_groups(groups: Iterable[list[str]]) -> str:
    return " | ".join("{" + ", ".join(group) + "}" for group in groups)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _refusal(players: Sequence[str], exc: SingularSystemError | BoundaryScoreError,
             clamp_hint: bool = False) -> int:
    """Word a P1 or boundary-score refusal with player labels; return its exit code."""
    if isinstance(exc, SingularSystemError):
        _note("P1 violated: tournament splits into independent groups: "
              + _fmt_groups(_LabelGroups(players, exc.components)))
        return EXIT_DISCONNECTED
    _note(f"boundary score: player {players[exc.player]} has average score "
          f"{exc.value:g}; offsets need scores strictly inside (0, 1)"
          + ("; pass --clamp-scores to override" if clamp_hint else ""))
    return EXIT_BOUNDARY


def diagnostics_to_dict(structure: StructureReport, lopsided: np.ndarray,
                        spectral: SpectralReport | None, players: tuple[str, ...]) -> dict:
    """The report's diagnostics block, with label witnesses; the spectral keys appear
    only when a spectrum was computed."""
    doc = {
        "connected": structure.connected,
        "components": _LabelGroups(players, structure.components),
        "nonbipartite": not structure.bipartite,
        "coloring": (None if structure.coloring is None
                     else _LabelGroups(players, structure.coloring)),
    }
    if spectral is not None:
        doc.update((key, getattr(spectral, key)) for key in (
            "lambda_2", "lambda_2_bound", "lambda_min", "lambda_min_bound",
            "multiplicity_one", "has_minus_one", "spectral_gap", "lanczos_steps"))
    doc["lopsided_pairs"] = _LabelGroups(players, lopsided)
    return doc


def _print_diagnostics(diag: dict) -> None:
    p1 = "OK" if diag["connected"] else "VIOLATED"
    p2 = "OK" if diag["nonbipartite"] else "VIOLATED"
    print(f"P1 connected comparison graph: {p1}")
    if not diag["connected"]:
        print(f"  components: {_fmt_groups(diag['components'])}")
    print(f"P2 non-bipartite comparison graph: {p2}")
    if diag["coloring"] is not None:
        print(f"  bipartition: {_fmt_groups(diag['coloring'])}")
    lopsided = diag["lopsided_pairs"]
    if lopsided:
        pairs = ", ".join(f"{a}-{b}" for a, b in islice(lopsided, SHOWN_PAIRS))
        if len(lopsided) > SHOWN_PAIRS:
            pairs = f"{len(lopsided)} pairs, the first {SHOWN_PAIRS}: {pairs}"
        print(f"lopsided pairs (one side took every point): {pairs}")
    if "spectral_gap" not in diag:
        return
    minus_one = {True: "yes", False: "no"}.get(diag["has_minus_one"], diag["has_minus_one"])
    print("spectral:")
    for key in ("lambda_2", "lambda_min"):
        print(f"  {key}: {diag[key]:.6f}   bound {diag[key + '_bound']:.1e}")
    print(f"  multiplicity of eigenvalue 1: {diag['multiplicity_one']}   "
          f"eigenvalue -1 present: {minus_one}")
    print(f"  spectral gap: {diag['spectral_gap']:.6f}")
    print(f"  Lanczos steps: {diag['lanczos_steps']}")
    rate = 1.0 - diag["spectral_gap"]
    if UNRESOLVED in (diag["multiplicity_one"], diag["has_minus_one"]):
        estimate = UNRESOLVED
    elif diag["multiplicity_one"] != 1 or diag["has_minus_one"] is True:
        estimate = "none (iteration does not converge)"
    else:  # both verdicts resolved in its favour: 0 <= rate < 1
        estimate = math.ceil(math.log(DEFAULT_SOLVE_TOL) / math.log(rate)) if rate > 0.0 else 1
    print(f"  estimated iterations to {DEFAULT_SOLVE_TOL:g}: {estimate}")


def _games_text(games: float) -> str:
    return f"{int(games)}" if games == int(games) else f"{games:g}"


def _player_rows(players, order, d, initial, **columns) -> _PlayerRows:
    """Report rows of the players in `order`: games, average score and initial
    rating, then one key per entry of `columns`, each indexed by player."""
    return _PlayerRows(players, order, {"games": d.m, "avg_score": d.s,
                                        "initial_rating": initial, **columns})


# table title of each column of ratings a player row can carry
_RATING_TITLES = {"initial_rating": "initial", "rating": "rating",
                  "performance": "performance", "recursive_performance": "recursive"}


def _column(values, width: int, digits: int) -> list[str]:
    """Table cells of `values` with `digits` decimals, right-aligned in `width` columns or
    the widest cell's. One too wide for `width` takes exponent form, with as many decimals
    as tell the column's values apart (16 tell any two floats apart)."""
    cells = [f"{v:.{digits}f}" for v in values]
    wide = {v for v, text in zip(values, cells) if len(text) > width}
    places = digits
    while places < 16 and len({f"{v:.{places}e}" for v in wide}) < len(wide):
        places += 1
    cells = [text if len(text) <= width else f"{v:.{places}e}" for v, text in zip(values, cells)]
    width = max([width, *map(len, cells)])
    return [text.rjust(width) for text in cells]


def _print_players(rows: _PlayerRows) -> None:
    """The player table; a rank column leads when the rows carry one."""
    ranked = "rank" in rows.columns
    keys = [key for key in rows.columns if key in _RATING_TITLES]
    columns = [_column([rows.columns[key][i] for i in rows.order],
                       *((10, 1) if key == "initial_rating" else (12, 3))) for key in keys]
    print(("rank  " if ranked else "") + f"{'player':<16}{'games':>7}  {'avg score':>9}"
          + "".join(f"  {_RATING_TITLES[k]:>{len(cells[0])}}" for k, cells in zip(keys, columns)))
    for row, *cells in zip(rows, *columns):
        print((f"{row['rank']:>4}  " if ranked else "")
              + f"{row['player']:<16}{_games_text(row['games']):>7}  "
              f"{row['avg_score']:>9.3f}" + "".join(f"  {cell}" for cell in cells))


def cmd_rank(args: argparse.Namespace) -> dict | int:
    model = parse_model(args.model)  # the flags before the input, so a bad one costs no parse
    if args.method != "direct":
        _check_limits(args.tol, args.max_iter)
    tie_tol = args.tie_tol if args.tie_tol is not None else 1e-6 * model.scale
    _check_tie_tol(tie_tol)
    parsed = timed("parse", load_tournament, args.input)
    t = parsed.tournament
    if not parsed.ratings_supplied:
        _note("note: no initial ratings in file; using 0 for every player "
              "(the ranking does not depend on this choice)")
    d = timed("derive", derive, t)
    players, initial, lopsided = t.players, parsed.initial_ratings, lopsided_pairs(t)
    del parsed, t  # the Tournament's pairs would stack on the BFS and the solve
    structure = timed("structure", check_structure, d)

    if not structure.connected:
        return _refusal(players, SingularSystemError(structure.components))
    if args.method in ("iterative", "both") and structure.bipartite:
        bipartition = _fmt_groups(_LabelGroups(players, structure.coloring))
        _note(f"P2 violated (bipartition {bipartition}): "
              "the fixed-point iteration oscillates and cannot converge; "
              "use --method direct")
        return EXIT_NO_CONVERGENCE

    try:
        c = timed("solve", offsets, d, model, clamp_scores=args.clamp_scores)
        outcomes: dict[str, SolveOutcome] = {}
        if args.method in ("direct", "both"):
            outcomes["direct"] = timed("solve", solve_direct, d, c, initial)
        if args.method in ("iterative", "both"):
            outcomes["iterative"] = timed("solve", iterate, d, c, initial, tol=args.tol,
                                          max_iter=args.max_iter)
    except BoundaryScoreError as exc:
        return _refusal(players, exc, clamp_hint=not args.clamp_scores)

    primary = outcomes.get("direct") or outcomes["iterative"]
    ranking = rank_from_ratings(primary.ratings, tie_tol)
    order = [i for group in ranking.groups for i in sorted(group, key=players.__getitem__)]
    rows = _player_rows(players, order, d, initial,
                        rating=primary.ratings, rank=ranking.positions())
    del d  # the CSR arrays are not needed for the report; freed, they lower the memory peak

    solver: dict = {
        "method": primary.method,
        "iterations": primary.iterations,
        "residual": primary.residual,
        "pinned_total": primary.pinned_total,
    }
    if len(outcomes) == 2:
        it = outcomes["iterative"]
        solver["iterative"] = {"iterations": it.iterations, "residual": it.residual}
        solver["max_method_delta"] = float(np.abs(outcomes["direct"].ratings - it.ratings).max())
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "model": _model_spec(model),
        "players": rows,
        "ranking": _LabelGroups(players, ranking.groups),
        "solver": solver,
        "diagnostics": diagnostics_to_dict(structure, lopsided, None, players),
    }


def _print_rank(doc: dict) -> None:
    solver = doc["solver"]
    both = "iterative" in solver
    print(f"model {doc['model']}   method {'both' if both else solver['method']}")
    _print_diagnostics(doc["diagnostics"])
    print()
    _print_players(doc["players"])
    print()
    print(f"method {solver['method']}: iterations {solver['iterations']}, "
          f"residual {solver['residual']:.3e}, "
          f"conserved total {solver['pinned_total']:.6g}")
    if both:
        it = solver["iterative"]
        print(f"method iterative: iterations {it['iterations']}, "
              f"residual {it['residual']:.3e}")
        print(f"max |direct - iterative| = {solver['max_method_delta']:.3e}")


def cmd_check(args: argparse.Namespace) -> dict:
    t = timed("parse", load_tournament, args.input).tournament
    d = timed("derive", derive, t)
    players, lopsided = t.players, lopsided_pairs(t)
    del t  # the Tournament's pairs would stack on the BFS and the spectrum
    structure = timed("structure", check_structure, d)
    spectral = timed("spectral", spectral_diagnostics, d) if args.spectral else None
    del d  # else the CSR arrays stay alive while the report is built, the memory peak
    return {
        "schema": CHECK_SCHEMA_VERSION,
        "diagnostics": diagnostics_to_dict(structure, lopsided, spectral, players),
    }


def cmd_performance(args: argparse.Namespace) -> dict | int:
    model = parse_model(args.model)
    parsed = timed("parse", load_tournament, args.input)
    t = parsed.tournament
    if not parsed.ratings_supplied:
        _note("note: no initial ratings in file; using 0 for every player")
    d = timed("derive", derive, t)
    players, initial = t.players, parsed.initial_ratings
    del parsed, t  # the Tournament's pairs would stack on the solve
    try:
        c = timed("solve", offsets, d, model)
        columns = {"performance": timed("solve", performance, d, c, initial)}
        if args.compare:
            timed("structure", check_structure, d)  # its own stage; solve_direct reads it from d
            columns["recursive_performance"] = timed("solve", solve_direct, d, c, initial).ratings
    except (SingularSystemError, BoundaryScoreError) as exc:
        return _refusal(players, exc)
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "model": _model_spec(model),
        "players": _player_rows(players, range(d.n), d, initial, **columns),
    }


def _print_performance(doc: dict) -> None:
    print(f"model {doc['model']}")
    _print_players(doc["players"])


def _number(kind: type, text: str, rule: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{rule}, got {text!r}") from None


def cmd_simulate(args: argparse.Namespace) -> int:
    if (args.strengths is None) == (args.spread is None):
        _note("simulate: give exactly one of --strengths or --spread")
        return EXIT_PARSE
    kind, _, count_text = args.schedule.partition(":")
    try:
        count = _number(int, count_text or "1", "the --schedule count must be a whole number")
        schedule = Schedule(kind.replace("-", "_"), count)
        strengths = None if args.strengths is None else tuple(
            _number(float, v, "--strengths must be comma-separated numbers")
            for v in args.strengths.split(","))
        result = simulate_tournament(SimulationConfig(
            n=args.players,
            model=parse_model(args.model),
            schedule=schedule,
            seed=args.seed,
            true_strengths=strengths,
            spread=args.spread if args.spread is not None else 400.0,
        ))
    except ValueError as exc:
        _note(f"simulate: {exc}")
        return EXIT_PARSE

    out = Path(args.out)
    out.write_text(
        tournament_to_json(result.tournament(), match_records=result.records),
        encoding="utf-8",
    )
    sidecar = out.with_suffix(".truth.json")
    truth = {"true_strengths": list(result.true_strengths), "seed": result.seed}
    sidecar.write_text(to_json(truth), encoding="utf-8")
    _note(f"wrote {out} and {sidecar}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recperf",
        description="Tournament ratings by recursive performance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("input", help="tournament file (.json or .csv crosstable)")
    source.add_argument("--format", choices=("table", "json"), default="table")
    source.add_argument("--timings", action="store_true",
                        help="print the seconds of each stage, and the memory peak (VmHWM) "
                        "at its end, as one JSON line to stderr")
    rated = argparse.ArgumentParser(add_help=False)
    rated.add_argument("--model", default="elo", help="elo[:scale] | logistic:scale | gaussian:sigma")

    rank = sub.add_parser("rank", parents=[source, rated],
                          help="compute recursive-performance ratings")
    rank.add_argument("--method", choices=("direct", "iterative", "both"), default="direct")
    rank.add_argument("--tol", type=float, default=None,
                      help="iteration stop tolerance (default 1e-10 * max |centered offset|)")
    rank.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    rank.add_argument("--tie-tol", type=float, default=None,
                      help="rating gap treated as a tie (default 1e-6 * scale)")
    rank.add_argument("--clamp-scores", action="store_true",
                      help="clamp boundary average scores instead of failing")
    rank.set_defaults(func=cmd_rank, table=_print_rank)

    check = sub.add_parser("check", parents=[source], help="validate assumptions P1 and P2")
    check.add_argument("--spectral", action="store_true",
                       help="add lambda_2 and lambda_min of Mbar with their error "
                       "bounds (deflated Lanczos), the spectral verdicts and the "
                       "spectral gap; the table also estimates the plain fixed-point "
                       f"iteration's steps to {DEFAULT_SOLVE_TOL:g} from that gap")
    check.set_defaults(func=cmd_check,
                       table=lambda doc: _print_diagnostics(doc["diagnostics"]))

    perf = sub.add_parser("performance", parents=[source, rated],
                          help="one-shot performance against the initial ratings")
    perf.add_argument("--compare", action="store_true",
                      help="also show the recursive performance")
    perf.set_defaults(func=cmd_performance, table=_print_performance)

    sim = sub.add_parser("simulate", help="generate a synthetic tournament")
    sim.add_argument("--players", type=int, required=True)
    sim.add_argument("--model", default="elo")
    sim.add_argument("--schedule", default="round-robin:1",
                     help="round-robin:<rounds> | random:<games>")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--strengths", default=None,
                     help="comma-separated true strengths (one per player)")
    sim.add_argument("--spread", type=float, default=None,
                     help="draw strengths uniformly from [-spread/2, spread/2]")
    sim.add_argument("--out", required=True, help="output tournament file")
    sim.set_defaults(func=cmd_simulate)

    return parser


def _run(args: argparse.Namespace) -> int:
    """Run one command; print its report as JSON or as the command's table."""
    try:
        report = args.func(args)
    except ConvergenceError as exc:
        _note(f"{exc}")
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_PARSE
    if isinstance(report, int):
        return report
    if args.format == "json":
        sys.stdout.write(to_json(report))
    else:
        args.table(report)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; with --timings, then write its stage seconds to stderr
    (render holds the report and all time that no other stage does), and under
    "vmhwm_mb" each stage's `VmHWM` where Linux reports it."""
    args = build_parser().parse_args(argv)
    peaks = {} if getattr(args, "timings", False) else None
    with recording(peaks) as seconds:
        code = timed("render", _run, args)
    if peaks is not None:
        report: dict = {k: seconds[k] for k in STAGES if k in seconds}
        if peaks:
            report["vmhwm_mb"] = {k: peaks[k] for k in report}
        sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
