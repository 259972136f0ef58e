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
from typing import Sequence

import numpy as np

from .diagnostics import (
    SpectralReport,
    StructureReport,
    check_structure,
    lopsided_pairs,
    spectral_diagnostics,
)
from .io import (
    REPORT_SCHEMA_VERSION,
    ParseError,
    diagnostics_to_dict,
    load_tournament,
    tournament_to_json,
)
from .models import BoundaryScoreError, RatingModel, parse_model
from .ranking import Ranking, rank_from_ratings
from .simulate import Schedule, SimulationConfig, simulate_tournament
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_SOLVE_TOL,
    ConvergenceError,
    SingularSystemError,
    SolveOutcome,
    iterate,
    performance,
    solve_direct,
)
from .tournament import TournamentDataError, derive

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BOUNDARY = 4
EXIT_NO_CONVERGENCE = 5


def _model_spec(model: RatingModel) -> str:
    return f"{model.family}:{model.scale:g}"


def _fmt_groups(players: Sequence[str], groups) -> str:
    return " | ".join(
        "{" + ", ".join(players[i] for i in group) + "}" for group in groups
    )


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _print_json(doc: dict) -> None:
    """Print `doc` as indented JSON in batches: no whole-report string, few writes."""
    pieces = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := "".join(islice(pieces, 4096)):
        sys.stdout.write(batch)
    print()


def _refusal(players: Sequence[str], exc: SingularSystemError | BoundaryScoreError,
             clamp_hint: bool = False) -> int:
    """Word a P1 or boundary-score refusal with player labels; return its exit code."""
    if isinstance(exc, SingularSystemError):
        _note("P1 violated: tournament splits into independent groups: "
              + _fmt_groups(players, exc.components))
        return EXIT_DISCONNECTED
    _note(f"boundary score: player {players[exc.player]} has average score "
          f"{exc.value:g}; offsets need scores strictly inside (0, 1)"
          + ("; pass --clamp-scores to override" if clamp_hint else ""))
    return EXIT_BOUNDARY


def _print_diag_summary(
    players: Sequence[str],
    structure: StructureReport,
    lopsided: tuple[tuple[int, int], ...],
    spectral: SpectralReport | None,
) -> None:
    p1 = "OK" if structure.connected else "VIOLATED"
    p2 = "VIOLATED" if structure.bipartite else "OK"
    print(f"P1 connected comparison graph: {p1}")
    if not structure.connected:
        print(f"  components: {_fmt_groups(players, structure.components)}")
    print(f"P2 non-bipartite comparison graph: {p2}")
    if structure.coloring is not None:
        print(f"  bipartition: {_fmt_groups(players, structure.coloring)}")
    if lopsided:
        pairs = ", ".join(f"{players[i]}-{players[j]}" for i, j in lopsided)
        print(f"lopsided pairs (one side took every point): {pairs}")
    if spectral is None:
        return
    eigs = ", ".join(f"{v:.6f}" for v in spectral.eigenvalues)
    print("spectral:")
    print(f"  eigenvalues: {eigs}")
    print(f"  multiplicity of eigenvalue 1: {spectral.multiplicity_one}   "
          f"eigenvalue -1 present: {'yes' if spectral.has_minus_one else 'no'}")
    print(f"  spectral gap: {spectral.spectral_gap:.6f}")
    rate = 1.0 - spectral.spectral_gap
    if 0.0 < rate < 1.0:
        estimate = math.ceil(math.log(DEFAULT_SOLVE_TOL) / math.log(rate))
        print(f"  estimated iterations to {DEFAULT_SOLVE_TOL:g}: {estimate}")
    elif rate <= 0.0:
        print(f"  estimated iterations to {DEFAULT_SOLVE_TOL:g}: 1")
    else:
        print(f"  estimated iterations to {DEFAULT_SOLVE_TOL:g}: "
              "none (iteration does not converge)")


def _games_text(games: float) -> str:
    return f"{int(games)}" if games == int(games) else f"{games:g}"


def _rank_rows(players, d, initial, ratings, ranking: Ranking) -> list[dict]:
    positions = ranking.positions()
    rows = []
    for i, label in enumerate(players):
        rows.append(
            {
                "player": label,
                "games": float(d.m[i]),
                "avg_score": float(d.s[i]),
                "initial_rating": float(initial[i]),
                "rating": float(ratings[i]),
                "rank": positions[i],
            }
        )
    rows.sort(key=lambda row: (row["rank"], row["player"]))
    return rows


def _print_rating_table(rows: list[dict]) -> None:
    print(f"{'rank':>4}  {'player':<16}{'games':>7}  {'avg score':>9}  "
          f"{'initial':>10}  {'rating':>12}")
    for row in rows:
        print(
            f"{row['rank']:>4}  {row['player']:<16}{_games_text(row['games']):>7}  "
            f"{row['avg_score']:>9.3f}  {row['initial_rating']:>10.1f}  "
            f"{row['rating']:>12.3f}"
        )


def cmd_rank(args: argparse.Namespace) -> int:
    parsed = load_tournament(args.input)
    t = parsed.tournament
    if not parsed.ratings_supplied:
        _note("note: no initial ratings in file; using 0 for every player "
              "(the ranking does not depend on this choice)")
    model = parse_model(args.model)
    d = derive(t)
    structure = check_structure(d)

    if not structure.connected:
        return _refusal(t.players, SingularSystemError(structure.components))
    if args.method in ("iterative", "both") and structure.bipartite:
        _note(f"P2 violated (bipartition {_fmt_groups(t.players, structure.coloring)}): "
              "the fixed-point iteration oscillates and cannot converge; "
              "use --method direct")
        return EXIT_NO_CONVERGENCE

    try:
        outcomes: dict[str, SolveOutcome] = {}
        if args.method in ("direct", "both"):
            outcomes["direct"] = solve_direct(
                d, model, parsed.initial_ratings,
                clamp_scores=args.clamp_scores, structure=structure,
            )
        if args.method in ("iterative", "both"):
            outcomes["iterative"] = iterate(
                d, model, parsed.initial_ratings,
                tol=args.tol, max_iter=args.max_iter,
                clamp_scores=args.clamp_scores,
            )
    except BoundaryScoreError as exc:
        return _refusal(t.players, exc, clamp_hint=not args.clamp_scores)

    primary = outcomes.get("direct") or outcomes["iterative"]
    tie_tol = args.tie_tol if args.tie_tol is not None else 1e-6 * model.scale
    ranking = rank_from_ratings(primary.ratings, tie_tol)
    rows = _rank_rows(t.players, d, parsed.initial_ratings, primary.ratings, ranking)
    del d  # the CSR arrays are not needed to render; freed, they lower the memory peak

    max_delta = None
    if len(outcomes) == 2:
        max_delta = float(
            np.abs(outcomes["direct"].ratings - outcomes["iterative"].ratings).max()
        )

    if args.format == "json":
        solver_info: dict = {
            "method": primary.method,
            "iterations": primary.iterations,
            "residual": primary.residual,
            "pinned_total": primary.pinned_total,
        }
        if max_delta is not None:
            solver_info["iterative"] = {
                "iterations": outcomes["iterative"].iterations,
                "residual": outcomes["iterative"].residual,
            }
            solver_info["max_method_delta"] = max_delta
        doc = {
            "schema": REPORT_SCHEMA_VERSION,
            "model": _model_spec(model),
            "players": rows,
            "ranking": ranking.labels(t.players),
            "solver": solver_info,
            "diagnostics": diagnostics_to_dict(
                structure, lopsided_pairs(t), None, t.players
            ),
        }
        del parsed, t  # nor are the pairs, once the report holds the witnesses
        _print_json(doc)
    else:
        print(f"model {_model_spec(model)}   method {args.method}")
        _print_diag_summary(t.players, structure, lopsided_pairs(t), None)
        print()
        _print_rating_table(rows)
        print()
        print(f"method {primary.method}: iterations {primary.iterations}, "
              f"residual {primary.residual:.3e}, "
              f"conserved total {primary.pinned_total:.6g}")
        if max_delta is not None:
            it = outcomes["iterative"]
            print(f"method iterative: iterations {it.iterations}, "
                  f"residual {it.residual:.3e}")
            print(f"max |direct - iterative| = {max_delta:.3e}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    parsed = load_tournament(args.input)
    t = parsed.tournament
    d = derive(t)
    structure = check_structure(d)
    spectral = spectral_diagnostics(d) if args.spectral else None
    del d  # else the CSR arrays stay alive through rendering, the memory peak
    if args.format == "json":
        doc = {
            "schema": REPORT_SCHEMA_VERSION,
            "diagnostics": diagnostics_to_dict(
                structure, lopsided_pairs(t), spectral, t.players
            ),
        }
        del parsed, t  # and the pairs, once the report holds the witnesses
        _print_json(doc)
    else:
        _print_diag_summary(t.players, structure, lopsided_pairs(t), spectral)
    return EXIT_OK


def cmd_performance(args: argparse.Namespace) -> int:
    parsed = load_tournament(args.input)
    t = parsed.tournament
    if not parsed.ratings_supplied:
        _note("note: no initial ratings in file; using 0 for every player")
    model = parse_model(args.model)
    d = derive(t)
    try:
        perf = performance(d, model, parsed.initial_ratings)
        recursive = None
        if args.compare:
            recursive = solve_direct(d, model, parsed.initial_ratings).ratings
    except (SingularSystemError, BoundaryScoreError) as exc:
        return _refusal(t.players, exc)

    if args.format == "json":
        entries = []
        for i, label in enumerate(t.players):
            entry = {
                "player": label,
                "games": float(d.m[i]),
                "avg_score": float(d.s[i]),
                "initial_rating": float(parsed.initial_ratings[i]),
                "performance": float(perf[i]),
            }
            if recursive is not None:
                entry["recursive_performance"] = float(recursive[i])
            entries.append(entry)
        doc = {
            "schema": REPORT_SCHEMA_VERSION,
            "model": _model_spec(model),
            "players": entries,
        }
        _print_json(doc)
    else:
        print(f"model {_model_spec(model)}")
        header = f"{'player':<16}{'games':>7}  {'avg score':>9}  {'initial':>10}  {'performance':>12}"
        if recursive is not None:
            header += f"  {'recursive':>12}"
        print(header)
        for i, label in enumerate(t.players):
            line = (f"{label:<16}{_games_text(d.m[i]):>7}  {d.s[i]:>9.3f}  "
                    f"{parsed.initial_ratings[i]:>10.1f}  {perf[i]:>12.3f}")
            if recursive is not None:
                line += f"  {recursive[i]:>12.3f}"
            print(line)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if (args.strengths is None) == (args.spread is None):
        _note("simulate: give exactly one of --strengths or --spread")
        return EXIT_PARSE
    kind, _, count_text = args.schedule.partition(":")
    kind = kind.replace("-", "_")
    try:
        count = int(count_text) if count_text else 1
        schedule = Schedule(kind, count)
        strengths = None
        if args.strengths is not None:
            strengths = tuple(float(v) for v in args.strengths.split(","))
        config = SimulationConfig(
            n=args.players,
            model=parse_model(args.model),
            schedule=schedule,
            seed=args.seed,
            true_strengths=strengths,
            spread=args.spread if args.spread is not None else 400.0,
        )
        result = simulate_tournament(config)
    except ValueError as exc:
        _note(f"simulate: {exc}")
        return EXIT_PARSE

    out = Path(args.out)
    out.write_text(
        tournament_to_json(result.tournament(), match_records=result.records),
        encoding="utf-8",
    )
    sidecar = out.with_suffix(".truth.json")
    sidecar.write_text(
        json.dumps(
            {"true_strengths": list(result.true_strengths), "seed": result.seed},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    _note(f"wrote {out} and {sidecar}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recperf",
        description="Tournament ratings by recursive performance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="compute recursive-performance ratings")
    rank.add_argument("input", help="tournament file (.json or .csv crosstable)")
    rank.add_argument("--model", default="elo", help="elo[:scale] | logistic:scale | gaussian:sigma")
    rank.add_argument("--method", choices=("direct", "iterative", "both"), default="direct")
    rank.add_argument("--tol", type=float, default=None, help="iteration stop tolerance")
    rank.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    rank.add_argument("--tie-tol", type=float, default=None,
                      help="rating gap treated as a tie (default 1e-6 * scale)")
    rank.add_argument("--clamp-scores", action="store_true",
                      help="clamp boundary average scores instead of failing")
    rank.add_argument("--format", choices=("table", "json"), default="table")
    rank.set_defaults(func=cmd_rank)

    check = sub.add_parser("check", help="validate assumptions P1 and P2")
    check.add_argument("input")
    check.add_argument("--spectral", action="store_true",
                       help="add the eigenvalue summary and convergence prognosis")
    check.add_argument("--format", choices=("table", "json"), default="table")
    check.set_defaults(func=cmd_check)

    perf = sub.add_parser("performance",
                          help="one-shot performance against the initial ratings")
    perf.add_argument("input")
    perf.add_argument("--model", default="elo")
    perf.add_argument("--compare", action="store_true",
                      help="also show the recursive performance")
    perf.add_argument("--format", choices=("table", "json"), default="table")
    perf.set_defaults(func=cmd_performance)

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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TournamentDataError, FileNotFoundError) as exc:
        _note(f"error: {exc}")
        return EXIT_PARSE
    except ConvergenceError as exc:
        _note(f"{exc}")
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
