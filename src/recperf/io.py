"""Tournament file formats: parsing, and writing a tournament back as JSON.

Two input formats are supported:

* JSON: an object with "players", optional "initial_ratings", and exactly
  one of "matches" (a list of {"a", "b", "score_a"} game records) or
  "crosstable" (the full score matrix A).
* CSV crosstable: a header row and column of labels; cell (i, j) holds
  A[i, j]; diagonal cells are empty or zero.

The games matrix is never stored: it is always recomputed as A + A.T, so a
crosstable is self-sufficient. Missing initial ratings default to zero,
which changes the reported ratings only by a common shift and the ranking
not at all.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tournament import Tournament, build_tournament


class ParseError(ValueError):
    """Malformed tournament file; carries a location when one is known."""


@dataclass(frozen=True)
class ParsedTournament:
    tournament: Tournament
    initial_ratings: np.ndarray
    ratings_supplied: bool


def parse_tournament(text: str, fmt: str | None = None) -> ParsedTournament:
    """Parse JSON or CSV crosstable text; sniffs the format when not given."""
    if fmt is None:
        head = text.lstrip()
        fmt = "json" if head.startswith("{") else "csv"
    if fmt == "json":
        return parse_tournament_json(text)
    if fmt == "csv":
        return parse_tournament_csv(text)
    raise ParseError(f"unknown format {fmt!r}; expected 'json' or 'csv'")


def load_tournament(path: str | Path) -> ParsedTournament:
    path = Path(path)
    fmt = {".json": "json", ".csv": "csv"}.get(path.suffix.lower())
    return parse_tournament(path.read_text(encoding="utf-8"), fmt)


def parse_tournament_json(text: str) -> ParsedTournament:
    """Parse the JSON format; every number reads as a float (an int past float range as inf)."""
    try:
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")

    players = doc.get("players")
    if not isinstance(players, list) or not players:
        raise ParseError('"players" must be a non-empty list of labels')
    if not all(isinstance(p, str) for p in players):
        raise ParseError("player labels must be strings")

    has_matches = "matches" in doc
    has_crosstable = "crosstable" in doc
    if has_matches == has_crosstable:
        raise ParseError('exactly one of "matches" or "crosstable" must be present')

    if has_matches:
        if not isinstance(doc["matches"], list):
            raise ParseError('"matches" must be a list of game records')
        records = []
        for k, entry in enumerate(doc["matches"], start=1):
            if not isinstance(entry, dict):
                raise ParseError(f"match {k}: expected an object")
            missing = {"a", "b", "score_a"} - entry.keys()
            if missing:
                raise ParseError(f"match {k}: missing keys {sorted(missing)}")
            if not isinstance(entry["a"], str) or not isinstance(entry["b"], str):
                raise ParseError(f"match {k}: players a and b must be strings")
            if not isinstance(entry["score_a"], float):
                raise ParseError(f"match {k}: score_a must be a number")
            records.append((entry["a"], entry["b"], entry["score_a"]))
        tournament = build_tournament(players, records)
    else:
        matrix = doc["crosstable"]
        n = len(players)
        if not isinstance(matrix, list) or len(matrix) != n:
            raise ParseError(f'"crosstable" must have {n} rows')
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"crosstable row {i + 1} ({players[i]}): expected {n} cells")
            for j, cell in enumerate(row):
                if not isinstance(cell, float):
                    raise ParseError(
                        f"crosstable row {i + 1} ({players[i]}), column {j + 1}: "
                        f"non-numeric cell {cell!r}"
                    )
        tournament = Tournament(tuple(players), np.array(matrix, dtype=float))

    ratings = doc.get("initial_ratings")
    if ratings is None:
        return ParsedTournament(tournament, np.zeros(tournament.n), False)
    if (
        not isinstance(ratings, list)
        or len(ratings) != tournament.n
        or not all(isinstance(v, float) for v in ratings)
    ):
        raise ParseError(
            f'"initial_ratings" must be a list of {tournament.n} numbers'
        )
    return ParsedTournament(tournament, np.array(ratings, dtype=float), True)


def _crosstable_row(row: list[str], i: int, n: int, header: list[str]) -> np.ndarray:
    """The n numbers of data row i (0-based), or ParseError at its first bad cell.

    numpy converts a row at once, reading each cell as `float` does; only a
    row it rejects is walked cell by cell, to word the first bad cell.
    """
    line = i + 2
    if len(row) != n + 1:
        raise ParseError(f"line {line}: expected {n + 1} cells, got {len(row)}")
    cells = row[1:]
    if not cells[i].strip():
        cells[i] = "0"  # an empty diagonal cell
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        pass
    label = row[0].strip()
    values = []
    for j, cell in enumerate(row[1:]):
        cell = cell.strip()
        if cell == "":
            if i != j:
                raise ParseError(
                    f"line {line}, column {j + 2}: empty cell off the diagonal"
                )
            values.append(0.0)
            continue
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(
                f"line {line}, column {j + 2} ({label} vs {header[j]}): "
                f"non-numeric cell {cell!r}"
            ) from None
    return np.array(values)


def parse_tournament_csv(text: str) -> ParsedTournament:
    """Parse a CSV crosstable, converting each row to numbers as it is read.

    Errors keep their precedence: the row count first, then the first bad
    row or cell, then the labels.
    """
    # split at "\n" alone, so a "\r" inside a quoted cell stays in it
    rows = (row for row in csv.reader(io.StringIO(text, newline="\n"))
            if any(cell.strip() for cell in row))
    header = [cell.strip() for cell in next(rows, [""])[1:]]
    n = len(header)
    values: list[np.ndarray] = []
    labels = []
    first_error = None
    count = 0
    for i, row in enumerate(rows):
        count += 1
        if i >= n or first_error is not None:
            continue
        try:
            values.append(_crosstable_row(row, i, n, header))
        except ParseError as exc:
            first_error = exc
        labels.append(row[0].strip())
    if count < 2:
        raise ParseError("CSV crosstable needs a header row and at least 2 player rows")
    if count != n:
        raise ParseError(f"header names {n} players but there are {count} data rows")
    if first_error is not None:
        raise first_error
    if labels != header:
        raise ParseError(
            f"row labels {labels} do not match header labels {header}"
        )
    matrix = np.array(values)
    del values
    tournament = Tournament(tuple(labels), matrix)
    return ParsedTournament(tournament, np.zeros(n), False)


def tournament_to_json(
    t: Tournament,
    initial_ratings: Sequence[float] | None = None,
    match_records: Sequence[tuple[str, str, float]] | None = None,
) -> str:
    """Serialize as JSON, preferring game records when they are available."""
    doc: dict = {"players": list(t.players)}
    if initial_ratings is not None:
        doc["initial_ratings"] = [float(v) for v in initial_ratings]
    if match_records is not None:
        doc["matches"] = [
            {"a": a, "b": b, "score_a": float(score)} for a, b, score in match_records
        ]
    else:
        doc["crosstable"] = [[float(v) for v in row] for row in t.score_matrix]
    return json.dumps(doc, indent=2) + "\n"
