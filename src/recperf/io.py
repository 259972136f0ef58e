"""Tournament file formats: parsing them, and writing every JSON document.

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

JSON is checked at C speed: `operator.itemgetter` reads the match records
as three columns, and a column, a crosstable row or the initial ratings
passes only when its set of types is the one it needs, so a bool or a str
fails before numpy could convert it. Only a file that fails is walked, to
name its first fault. Each step frees its input before the next copy is
made: the text is dropped once it is decoded, the match objects go once
their columns are read and the columns once the build has numbered them,
so the decode alone sets the parse peak.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._timing import timed
from .tournament import Tournament, _from_columns


class ParseError(ValueError):
    """Malformed tournament file; carries a location when one is known."""


@dataclass(frozen=True)
class ParsedTournament:
    tournament: Tournament
    initial_ratings: np.ndarray
    ratings_supplied: bool


def _sniff(text: str) -> str:
    # match, not text.lstrip(): that copies the whole text after leading space
    return "json" if re.match(r"\s*[{[]", text) else "csv"


def parse_tournament(text: str) -> ParsedTournament:
    """Parse JSON text (first non-blank `{` or `[`) or CSV, less one leading byte-order mark."""
    return _parse([text[1:] if text.startswith("\ufeff") else text])  # copied only if marked


def load_tournament(path: str | Path) -> ParsedTournament:
    """Parse a file as its suffix (.json or .csv) says, or as `parse_tournament` sniffs it."""
    path = Path(path)  # utf-8-sig drops a leading byte-order mark
    return _parse([path.read_text(encoding="utf-8-sig")],
                  {".json": "json", ".csv": "csv"}.get(path.suffix.lower()))


def _parse(texts: list[str], fmt: str | None = None) -> ParsedTournament:
    """The tournament in the one text of `texts`, read as `fmt` ("json" or "csv") or sniffed.
    The text is popped, and JSON text dropped once decoded, so a caller holding no other
    reference frees it there (in a list: CPython 3.10 keeps an argument alive till return)."""
    text = texts.pop()
    if (fmt or _sniff(text)) == "csv":
        return parse_tournament_csv(text)
    doc = _decode(text)
    del text
    return _json_tournament(doc)


def _floats(values: list) -> bool:
    """Whether every value is a float; a bool, a str or None is not."""
    return set(map(type, values)) <= {float}


def _match_columns(matches: list) -> list[list]:
    """The a, b and score_a columns of the game records, or ParseError at the first bad one."""
    try:
        a, b, score_a = [list(map(itemgetter(key), matches)) for key in ("a", "b", "score_a")]
        if set(map(type, a)) | set(map(type, b)) <= {str} and _floats(score_a):
            return [a, b, score_a]
    except (TypeError, KeyError):  # an entry that is not an object, or a missing key
        pass
    for k, entry in enumerate(matches, start=1):
        if not isinstance(entry, dict):
            raise ParseError(f"match {k}: expected an object")
        missing = {"a", "b", "score_a"} - entry.keys()
        if missing:
            raise ParseError(f"match {k}: missing keys {sorted(missing)}")
        if not isinstance(entry["a"], str) or not isinstance(entry["b"], str):
            raise ParseError(f"match {k}: players a and b must be strings")
        if not isinstance(entry["score_a"], float):
            raise ParseError(f"match {k}: score_a must be a number")
    raise AssertionError("the record walk accepted records the column check rejected")


def _decode(text: str) -> dict:
    """The JSON object in `text`, or ParseError."""
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
    return doc


def parse_tournament_json(text: str) -> ParsedTournament:
    """Parse the JSON format; every number reads as a float (an int past float range as inf)."""
    return _parse([text], "json")


def _json_tournament(doc: dict) -> ParsedTournament:
    """The tournament of a decoded JSON document, whose matches or crosstable it pops."""
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
        # popped, and its columns passed in one list the build empties: each freed once read
        tournament = timed("build", _from_columns, players, _match_columns(doc.pop("matches")))
    else:
        matrix = doc["crosstable"]
        n = len(players)
        if not isinstance(matrix, list) or len(matrix) != n:
            raise ParseError(f'"crosstable" must have {n} rows')
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"crosstable row {i + 1} ({players[i]}): expected {n} cells")
            if not _floats(row):
                j, cell = next((j, c) for j, c in enumerate(row) if not isinstance(c, float))
                raise ParseError(
                    f"crosstable row {i + 1} ({players[i]}), column {j + 1}: "
                    f"non-numeric cell {cell!r}"
                )
        del matrix, row  # so the rows popped below are freed before the build
        tournament = timed("build", Tournament, tuple(players),
                           np.array(doc.pop("crosstable"), dtype=float))

    ratings = doc.get("initial_ratings")
    if ratings is None:
        return ParsedTournament(tournament, np.zeros(tournament.n), False)
    if not isinstance(ratings, list) or len(ratings) != tournament.n or not _floats(ratings):
        raise ParseError(
            f'"initial_ratings" must be a list of {tournament.n} numbers'
        )
    return ParsedTournament(tournament, np.array(ratings, dtype=float), True)


def _crosstable_row(row: list[str], i: int, n: int, header: list[str], line: int) -> np.ndarray:
    """The n numbers of row i (0-based, file line `line`), or ParseError at its first bad cell.

    numpy converts the row at once, reading each cell as `float` does; a
    row it rejects is walked only to word its first blank or non-numeric cell.
    """
    if len(row) != n + 1:
        raise ParseError(f"line {line}: expected {n + 1} cells, got {len(row)}")
    cells = row[1:]
    if not cells[i].strip():
        cells[i] = "0"  # an empty diagonal cell
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        pass
    for j, cell in enumerate(cells):
        if not cell.strip():
            raise ParseError(f"line {line}, column {j + 2}: empty cell off the diagonal")
        try:
            float(cell)
        except ValueError:
            raise ParseError(
                f"line {line}, column {j + 2} ({row[0].strip()} vs {header[j]}): "
                f"non-numeric cell {cell!r}"
            ) from None
    return np.array(cells, dtype=float)


def _lines(text: str) -> Iterator[str]:
    r"""The lines of `text`, each keeping its "\n" (a quoted cell may span lines).

    Only "\n" ends a line, so a "\r" inside a quoted cell stays in it.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def parse_tournament_csv(text: str) -> ParsedTournament:
    """Parse a CSV crosstable, converting each row to numbers into one n x n array.

    Errors keep their precedence: a cell too long for the csv module first
    (reading stops there), then the row count, then the first bad row or
    cell, then the labels. A row's errors name the file line it starts on.
    The csv module is imported here, so JSON input never loads it.
    """
    import csv

    reader = csv.reader(_lines(text))
    header: list[str] | None = None
    n = 0
    labels = []
    first_error = None
    count = 0
    start = 1  # the file line the next row starts on
    try:
        for row in reader:
            line, start = start, reader.line_num + 1
            if not any(cell.strip() for cell in row):
                continue
            if header is None:
                header = [cell.strip() for cell in row[1:]]
                n = len(header)
                # n rows of n + 1 cells take n * n characters: a shorter text keeps none
                matrix = np.zeros((n if n * n <= len(text) else 0, n))
                continue
            count += 1
            if count > n or first_error is not None:
                continue
            try:
                matrix[count - 1:count] = _crosstable_row(row, count - 1, n, header, line)
            except ParseError as exc:
                first_error = exc
            labels.append(row[0].strip())
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
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
    tournament = timed("build", Tournament, tuple(labels), matrix)
    return ParsedTournament(tournament, np.zeros(n), False)


@lru_cache(maxsize=1)
def _encoded(players: tuple[str, ...]) -> tuple[str, ...]:
    """Each label as `json.dumps` writes it; kept for the last players encoded."""
    return tuple(map(encode_basestring_ascii, players))


class _LabelGroups:
    """Groups of player indices (index tuples, or the rows of a (k, w) array) that
    read as lists of labels and are written to JSON from the labels' encodings."""

    def __init__(self, players: tuple[str, ...], groups) -> None:
        self.players, self.groups = players, groups

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[list[str]]:
        return ([self.players[i] for i in group] for group in self.groups)

    def json_text(self, indent: str) -> str:
        enc = _encoded(self.players)
        if isinstance(self.groups, np.ndarray):  # one format for all rows, no list per row
            row = "[" + ", ".join(["%s"] * self.groups.shape[1]) + "]"
            labels = tuple(np.array(enc, dtype=object)[self.groups].ravel().tolist())
            return "[" + ", ".join([row] * len(self)) % labels + "]"
        return "[" + ", ".join(["[" + ", ".join(map(enc.__getitem__, group)) + "]"
                                for group in self.groups]) + "]"


class _PlayerRows:
    """Report rows held as columns indexed by player: the row of each i in `order`
    is {"player": players[i], key: columns[key][i], ...}."""

    def __init__(self, players: tuple[str, ...], order, columns: dict) -> None:
        self.players, self.order, self.columns = players, order, columns

    def __iter__(self) -> Iterator[dict]:
        return ({"player": self.players[i], **{key: col[i] for key, col in self.columns.items()}}
                for i in self.order)

    def json_text(self, indent: str) -> str:
        """A line per row, as `json.dumps(row)`; one `json.dumps` per column, split at
        its ", " (no number's text holds one)."""
        cells = [map(_encoded(self.players).__getitem__, self.order)]
        cells += [json.dumps(np.asarray(col)[self.order].tolist())[1:-1].split(", ")
                  for col in self.columns.values()]
        keys = ["player", *self.columns]
        row = "{{" + ", ".join(f"{json.dumps(key)}: {{}}" for key in keys) + "}}"
        pad = "\n" + indent + "  "
        return "[" + pad + ("," + pad).join(map(row.format, *cells)) + "\n" + indent + "]"


def _json_pieces(value, indent: str = "") -> Iterator[str]:
    """`value` as JSON in pieces: one `json.dumps` call (the C encoder) or one column each."""
    head = value[0] if isinstance(value, list) and value else None
    if isinstance(value, (_LabelGroups, _PlayerRows)):
        yield value.json_text(indent)
    elif isinstance(value, dict) and any(
            isinstance(v, (dict, list, _LabelGroups, _PlayerRows)) for v in value.values()):
        for k, (key, item) in enumerate(value.items()):
            yield ("{\n" if k == 0 else ",\n") + indent + "  " + json.dumps(key) + ": "
            yield from _json_pieces(item, indent + "  ")
        yield "\n" + indent + "}"
    elif isinstance(head, dict) or isinstance(head, list) and all(type(x) is float for x in head):
        for k, row in enumerate(value):
            yield ("[\n" if k == 0 else ",\n") + indent + "  " + json.dumps(row)
        yield "\n" + indent + "]"
    else:
        yield json.dumps(value)


def to_json(value) -> str:
    """`value` as a JSON document ending in a newline: a line per key of a dict that
    holds containers, a line per row of a list of dicts or of float lists, and one line
    for any other value, label lists included."""
    return "".join([*_json_pieces(value), "\n"])


def tournament_to_json(
    t: Tournament,
    match_records: Sequence[tuple[str, str, float]] | None = None,
) -> str:
    """Serialize as JSON, preferring game records when they are available."""
    doc: dict = {"players": list(t.players)}
    if match_records is not None:
        doc["matches"] = [
            {"a": a, "b": b, "score_a": float(score)} for a, b, score in match_records
        ]
    else:
        doc["crosstable"] = t.score_matrix.tolist()
    return to_json(doc)
