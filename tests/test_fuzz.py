"""Fuzz the command line with malformed tournament files.

Whatever a JSON or CSV input holds, `recperf.cli.main` must end in one of
its documented exit codes and never in 1 (an unexpected exception). Each
input starts as a well-formed tournament, so that it reaches the solver;
then up to two numbers may become extremes (1e308, NaN, inf, negative, an
integer beyond float range; two huge scores can overflow a player's game
total), the initial ratings may all be huge (their games-weighted total
overflows), and one field, row or cell may be replaced by a value of the
wrong type or size. Numpy's RuntimeWarnings are errors under pytest, so an
overflow that only warns fails here too. A CSV error must name the bad
cell as read, at its file line and column.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from recperf import ParseError, parse_tournament
from recperf.cli import (
    EXIT_BOUNDARY,
    EXIT_DISCONNECTED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)

DOCUMENTED = {EXIT_OK, EXIT_PARSE, EXIT_DISCONNECTED, EXIT_BOUNDARY, EXIT_NO_CONVERGENCE}
COMMANDS = (
    ["rank", "--method", "both"],
    ["check", "--spectral"],
    ["performance", "--compare"],
)
FUZZ = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LABELS = ["A", "B", "C", "D", "E"]
EXTREMES = [0, 1, 0.5, -1, 2, 1e308, -1e308, 5e307, 10**400,
            float("nan"), float("inf"), float("-inf")]
scores = st.one_of(st.sampled_from([0, 0.5, 1]), st.floats(0, 1))
scalars = st.one_of(st.none(), st.booleans(), st.sampled_from(EXTREMES),
                    st.floats(), st.integers(), st.text(max_size=3))
odd = st.one_of(scalars, st.lists(scalars, max_size=3),
                st.dictionaries(st.text(max_size=2), scalars, max_size=2))


def _paths(node, prefix=()):
    """Every position in a JSON tree: object values and list items."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _corrupt(draw, doc):
    """Replace one position of `doc` (possibly the whole of it) with an odd value.

    The position is a random prefix of a random path, so that top-level
    fields are hit about as often as the cells deep inside them.
    """
    path = draw(st.sampled_from(list(_paths(doc))))
    path = path[:draw(st.integers(min(1, len(path)), len(path)))]
    if not path:
        return draw(odd)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(odd)
    return doc


def _extreme(draw, values):
    """Set up to two entries of `values` to extreme numbers."""
    for _ in range(draw(st.integers(0, 2)) if values else 0):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(EXTREMES))
    return values


def _crosstable(draw, n):
    """An n-player crosstable with zero diagonal, as a list of rows."""
    flat = iter(_extreme(draw, draw(st.lists(scores, min_size=n * n, max_size=n * n))))
    return [[0 if i == j else next(flat) for j in range(n)] for i in range(n)]


@st.composite
def json_documents(draw):
    players = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=5, unique=True))
    n = len(players)
    doc: dict = {"players": players}
    body = draw(st.sampled_from(["matches"] * 3 + ["crosstable"] * 3 + ["both", "neither"]))
    if body in ("matches", "both"):
        doc["matches"] = [
            {"a": players[i], "b": players[j], "score_a": draw(scores)}
            for i in range(n) for j in range(i + 1, n)
            for _ in range(draw(st.sampled_from([0, 1, 1, 2])))
        ]
    if body in ("crosstable", "both"):
        doc["crosstable"] = _crosstable(draw, n)
    if draw(st.booleans()):
        doc["initial_ratings"] = _extreme(draw, draw(st.one_of(
            st.lists(st.integers(-3000, 3000), min_size=n, max_size=n),
            st.lists(st.sampled_from([1e308, -1e308, 5e307]), min_size=n, max_size=n),
        )))
    if draw(st.booleans()):
        doc = _corrupt(draw, doc)
    return json.dumps(doc)


@st.composite
def csv_texts(draw):
    players = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=5, unique=True))
    n = len(players)
    rows = [[""] + players] + [
        [p] + ["" if i == j else str(v) for j, v in enumerate(row)]
        for i, (p, row) in enumerate(zip(players, _crosstable(draw, n)))
    ]
    if draw(st.booleans()):
        i = draw(st.integers(0, n))
        if draw(st.booleans()):
            j = draw(st.integers(0, n))
            rows[i][j] = draw(st.sampled_from(["", "x", "nan", "-inf", "1e309", "A", '"']))
        else:
            rows[i] = rows[i][: draw(st.integers(0, n))]
    if draw(st.integers(0, 2)) == 0:
        return draw(st.text(max_size=40))
    return "\n".join(",".join(row) for row in rows) + "\n"


BAD_CELLS = ["", " ", "x", "\x1c1", "1__0", "0x1p0"]  # str.strip takes "\x1c" for space; float does not


@st.composite
def csv_with_a_bad_cell(draw):
    """A valid crosstable with one off-diagonal cell from BAD_CELLS and up to two
    blank lines above its row, and the error message that must name that cell."""
    players = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=5, unique=True))
    n = len(players)
    rows = [[""] + players] + [
        [p] + ["" if i == j else str(draw(scores)) for j in range(n)]
        for i, p in enumerate(players)
    ]
    i = draw(st.integers(0, n - 1))
    j = draw(st.sampled_from([k for k in range(n) if k != i]))
    cell = rows[i + 1][j + 1] = draw(st.sampled_from(BAD_CELLS))
    lines = [",".join(row) for row in rows]
    blanks = draw(st.integers(0, 2))
    for _ in range(blanks):
        lines.insert(draw(st.integers(0, i + 1)), draw(st.sampled_from(["", " "])))
    where = f"line {i + 2 + blanks}, column {j + 2}"
    message = (f"{where}: empty cell off the diagonal" if not cell.strip() else
               f"{where} ({players[i]} vs {players[j]}): non-numeric cell {cell!r}")
    return "\n".join(lines) + "\n", message


@FUZZ
@given(csv_with_a_bad_cell())
def test_csv_error_names_the_file_line_and_the_cell(case):
    text, message = case
    with pytest.raises(ParseError) as excinfo:
        parse_tournament(text)
    assert str(excinfo.value) == message


def _exit_codes(text: str, suffix: str) -> list[int]:
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(main([command[0], str(path), *command[1:]]))
    return codes


@FUZZ
@given(json_documents())
# a huge common rating: the iteration's steps stall at the rounding of 1e10
@example(json.dumps({"players": ["A", "B", "C"], "initial_ratings": [1e10] * 3, "matches": [
    {"a": "A", "b": "B", "score_a": 1.0}, {"a": "A", "b": "C", "score_a": 0.5},
    {"a": "B", "b": "C", "score_a": 1.0}]}))
# ratings of +-1e308 overflow the iteration's first steps
@example(json.dumps({"players": ["A", "B", "C"], "initial_ratings": [-1e308, 1e308, -1e308],
                     "crosstable": [[0, 0.5, 0], [0, 0, 0.5], [0.03125, 0, 0]]}))
def test_json_input_exits_with_a_documented_code(text):
    assert set(_exit_codes(text, ".json")) <= DOCUMENTED


@FUZZ
@given(csv_texts())
def test_csv_input_exits_with_a_documented_code(text):
    assert set(_exit_codes(text, ".csv")) <= DOCUMENTED
