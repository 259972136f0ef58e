import codecs
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recperf.io
from recperf import (
    ParseError,
    Tournament,
    TournamentDataError,
    build_tournament,
    derive,
    load_tournament,
    parse_tournament,
    tournament_to_json,
)

from conftest import random_tournament
from reference import match_records, tournament_to_csv

FIXTURES = Path(__file__).parent / "fixtures"


def _traced_at_build(monkeypatch, text: str) -> tuple[int, int]:
    """Traced (current, peak) bytes when parsing `text` reaches `Tournament`; A[0, 1] is 0.5."""
    seen = []

    def build(players, matrix):
        seen.append(tracemalloc.get_traced_memory())
        return Tournament(players, matrix)

    monkeypatch.setattr(recperf.io, "Tournament", build)
    tracemalloc.start()
    try:
        parsed = parse_tournament(text)
    finally:
        tracemalloc.stop()
    assert parsed.tournament.score_matrix[0, 1] == 0.5
    return seen[0]


class TestJsonParsing:
    def test_two_player_decisive(self):
        parsed = parse_tournament(
            '{"players": ["A", "B"], "matches": [{"a": "A", "b": "B", "score_a": 1.0}]}'
        )
        assert np.array_equal(parsed.tournament.score_matrix, [[0, 1], [0, 0]])
        assert not parsed.ratings_supplied
        assert np.array_equal(parsed.initial_ratings, [0.0, 0.0])

    def test_initial_ratings_carried(self):
        parsed = parse_tournament(
            '{"players": ["A", "B"], "initial_ratings": [2000, 1800],'
            ' "matches": [{"a": "A", "b": "B", "score_a": 0.5}]}'
        )
        assert parsed.ratings_supplied
        assert np.array_equal(parsed.initial_ratings, [2000.0, 1800.0])

    def test_the_crosstable_lists_are_freed_before_the_build(self, monkeypatch):
        # a decoded row of n floats takes 32 B a cell, four times its array row
        n = 200
        text = json.dumps({"players": [f"P{k}" for k in range(n)],
                           "crosstable": [[0.0 if i == j else 0.5 for j in range(n)]
                                          for i in range(n)]})
        held, _ = _traced_at_build(monkeypatch, text)
        assert held < 1.5 * n * n * 8

    def test_crosstable_route(self):
        parsed = parse_tournament(
            '{"players": ["A", "B"], "crosstable": [[0, 1.5], [0.5, 0]]}'
        )
        assert np.array_equal(parsed.tournament.score_matrix, [[0, 1.5], [0.5, 0]])

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError, match=r"line \d+, column \d+"):
            parse_tournament('{"players": ["A", }')

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_tournament('{"players": ' + "[" * 10_000 + "]" * 10_000 + "}")

    def test_matches_and_crosstable_exclusive(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_tournament(
                '{"players": ["A", "B"], "matches": [], "crosstable": [[0, 1], [0, 0]]}'
            )
        with pytest.raises(ParseError, match="exactly one"):
            parse_tournament('{"players": ["A", "B"]}')

    def test_bad_ratings_length(self):
        with pytest.raises(ParseError, match="initial_ratings"):
            parse_tournament(
                '{"players": ["A", "B"], "initial_ratings": [1],'
                ' "matches": [{"a": "A", "b": "B", "score_a": 0.5}]}'
            )

    def test_diagonal_violation_names_player(self):
        with pytest.raises(TournamentDataError, match="B"):
            parse_tournament(
                '{"players": ["A", "B"], "crosstable": [[0, 1], [1, 7]]}'
            )

    def test_non_numeric_crosstable_cell(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_tournament(
                '{"players": ["A", "B"], "crosstable": [[0, "x"], [1, 0]]}'
            )

    @pytest.mark.parametrize("cell", ["true", "null", '"0.5"', "[1]"])
    def test_crosstable_cell_that_is_not_a_number(self, cell):
        with pytest.raises(ParseError) as excinfo:
            parse_tournament(
                f'{{"players": ["A", "B", "C"], "crosstable": [[0, 1, 1], [0, 0, 1],'
                f' [0, {cell}, 0]]}}'
            )
        shown = repr(json.loads(cell, parse_int=float))
        assert str(excinfo.value) == f"crosstable row 3 (C), column 2: non-numeric cell {shown}"

    @pytest.mark.parametrize("rating", ["true", "null", '"1500"'])
    def test_initial_rating_that_is_not_a_number(self, rating):
        with pytest.raises(ParseError, match='^"initial_ratings" must be a list of 2 numbers$'):
            parse_tournament(
                f'{{"players": ["A", "B"], "initial_ratings": [1500, {rating}],'
                ' "crosstable": [[0, 1], [1, 0]]}'
            )

    @pytest.mark.parametrize("matches", ["5", "null", "true", '"abc"', "{}"])
    def test_matches_must_be_a_list(self, matches):
        with pytest.raises(ParseError, match='"matches"'):
            parse_tournament(f'{{"players": ["A", "B"], "matches": {matches}}}')

    @pytest.mark.parametrize("a, b", [('["x"]', '"B"'), ('"A"', "{}"), ("1", '"B"')])
    def test_match_players_must_be_strings(self, a, b):
        with pytest.raises(ParseError, match="match 2"):
            parse_tournament(
                '{"players": ["A", "B"], "matches": [{"a": "A", "b": "B", "score_a": 1},'
                f' {{"a": {a}, "b": {b}, "score_a": 0}}]}}'
            )


    MATCHES = '{"players": ["A", "B", "C"], "matches": [%s]}'

    @pytest.mark.parametrize("text, error, message", [
        ("[1]", ParseError, "top-level JSON value must be an object"),
        ('{"matches": []}', ParseError, '"players" must be a non-empty list of labels'),
        ('{"players": [], "matches": []}', ParseError,
         '"players" must be a non-empty list of labels'),
        ('{"players": ["A", 1], "matches": []}', ParseError,
         "player labels must be strings"),
        (MATCHES % '{"a": "A", "b": "B", "score_a": 1}, 5', ParseError,
         "match 2: expected an object"),
        (MATCHES % '{"a": "A", "b": "B"}', ParseError, "match 1: missing keys ['score_a']"),
        (MATCHES % '{"a": "A", "b": "B", "score_a": "1"}', ParseError,
         "match 1: score_a must be a number"),
        (MATCHES % '{"a": "A", "b": "B", "score_a": true}', ParseError,
         "match 1: score_a must be a number"),
        ('{"players": ["A", "B"], "crosstable": [[0, 1]]}', ParseError,
         '"crosstable" must have 2 rows'),
        ('{"players": ["A", "B"], "crosstable": [[0, 1], [1]]}', ParseError,
         "crosstable row 2 (B): expected 2 cells"),
        ('{"players": ["A", "A"], "crosstable": [[0, 1], [1, 0]]}', TournamentDataError,
         "duplicate player labels: ['A']"),
        ('{"players": ["A", ""], "crosstable": [[0, 1], [1, 0]]}', TournamentDataError,
         "player labels must be non-empty"),
        (MATCHES % '{"a": "A", "b": "B", "score_a": 1}, {"a": "Z", "b": "B", "score_a": 2}',
         TournamentDataError, "record 2: unknown player 'Z'"),
        (MATCHES % '{"a": "A", "b": "Z", "score_a": 2}', TournamentDataError,
         "record 1: unknown player 'Z'"),
        (MATCHES % '{"a": "B", "b": "B", "score_a": 2}', TournamentDataError,
         "record 1: self-match for 'B' is not allowed"),
        (MATCHES % '{"a": "A", "b": "B", "score_a": 1.5}, {"a": "Z", "b": "Z", "score_a": 0}',
         TournamentDataError, "record 1: score 1.5 outside [0, 1]"),
        (MATCHES % '{"a": "A", "b": "B", "score_a": -0.25}', TournamentDataError,
         "record 1: score -0.25 outside [0, 1]"),
        # every record's types are checked before any record's values
        (MATCHES % '{"a": "Z", "b": "B", "score_a": 0}, {"a": "A", "b": "B", "score_a": null}',
         ParseError, "match 2: score_a must be a number"),
    ], ids=["array", "no-players", "empty-players", "label-type", "match-not-object",
            "missing-score", "score-string", "score-bool", "row-count", "row-length",
            "duplicate-labels", "empty-label", "unknown-a", "unknown-b-first",
            "self-match-first", "first-bad-record", "negative-score", "type-after-value"])
    def test_messages(self, text, error, message):
        with pytest.raises(error) as excinfo:
            parse_tournament(text)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("players", ['["A"]', '["A", "", "B"]'])
    def test_labels_are_checked_before_records(self, players):
        # _labels runs first, so its verdict wins over a bad record's
        with pytest.raises(TournamentDataError, match="at least 2|non-empty"):
            parse_tournament(
                f'{{"players": {players}, "matches": [{{"a": "A", "b": "Z", "score_a": 0}}]}}'
            )

    @pytest.mark.parametrize("field", ["score_a", "crosstable", "initial_ratings"])
    def test_integer_beyond_float_range_reads_as_inf(self, field):
        huge = "1" + "0" * 400
        docs = {
            "score_a": f'{{"players": ["A", "B"], "matches": '
                       f'[{{"a": "A", "b": "B", "score_a": {huge}}}]}}',
            "crosstable": f'{{"players": ["A", "B"], "crosstable": [[0, {huge}], [1, 0]]}}',
            "initial_ratings": f'{{"players": ["A", "B"], "initial_ratings": [{huge}, 0],'
                               f' "crosstable": [[0, 1], [1, 0]]}}',
        }
        if field == "initial_ratings":
            assert parse_tournament(docs[field]).initial_ratings[0] == np.inf
            return
        with pytest.raises(TournamentDataError, match="inf outside|must be finite"):
            parse_tournament(docs[field])


def _game_records(count: int, players: list[str], seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    return [{"a": a, "b": b, "score_a": rng.choice([0.0, 0.5, 1.0])}
            for a, b in (rng.sample(players, 2) for _ in range(count))]


def _outcome(parse):
    """A parse's tournament, or the type and text of what it raised."""
    try:
        return parse()
    except (ParseError, TournamentDataError) as exc:
        return type(exc), str(exc)


def _agree(doc: dict) -> None:
    """`parse_tournament` on `doc` gives what the per-record loop gives."""
    text = json.dumps(doc)
    matches = json.loads(text, parse_int=float)["matches"]
    expected = _outcome(lambda: build_tournament(doc["players"], match_records(matches)))
    got = _outcome(lambda: parse_tournament(text).tournament)
    assert got == expected


# One fault in one record; each leaves the others as they were.
FAULTS = {
    "number": lambda r: 5.0,
    "string": lambda r: "x",
    "list": lambda r: [r["a"], r["b"], r["score_a"]],
    "null": lambda r: None,
    "missing-a": lambda r: {"b": r["b"], "score_a": r["score_a"]},
    "missing-score": lambda r: {"a": r["a"], "b": r["b"]},
    "a-number": lambda r: {**r, "a": 1.0},
    "b-null": lambda r: {**r, "b": None},
    "score-string": lambda r: {**r, "score_a": "0.5"},
    "score-true": lambda r: {**r, "score_a": True},
    "score-null": lambda r: {**r, "score_a": None},
    "score-list": lambda r: {**r, "score_a": [0.5]},
}
PLAYERS = [f"p{k}" for k in range(10)]


class TestMatchRecordColumns:
    """The column check at C speed names the same fault as the per-record loop."""

    @pytest.mark.parametrize("position", [0, 500, 999])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_one_fault_in_a_thousand_records(self, fault, position):
        matches = _game_records(1000, PLAYERS)
        matches[position] = FAULTS[fault](matches[position])
        with pytest.raises(ParseError) as excinfo:
            match_records(matches)
        assert str(excinfo.value).startswith(f"match {position + 1}: ")
        _agree({"players": PLAYERS, "matches": matches})

    @pytest.mark.parametrize("first, second", [
        ("score-true", "missing-a"), ("missing-a", "score-true"),
        ("a-number", "score-string"), ("null", "b-null"),
    ])
    def test_the_first_of_two_faults_is_named(self, first, second):
        matches = _game_records(1000, PLAYERS)
        matches[300] = FAULTS[first](matches[300])
        matches[700] = FAULTS[second](matches[700])
        with pytest.raises(ParseError, match="^match 301: "):
            parse_tournament(json.dumps({"players": PLAYERS, "matches": matches}))
        _agree({"players": PLAYERS, "matches": matches})

    def test_valid_records_build_the_same_tournament(self):
        _agree({"players": PLAYERS, "matches": _game_records(1000, PLAYERS)})

    @settings(max_examples=50, deadline=None, database=None)
    @given(st.data())
    def test_any_one_mutated_record(self, data):
        matches = _game_records(40, PLAYERS[:4], seed=data.draw(st.integers(0, 3)))
        k = data.draw(st.integers(0, len(matches) - 1))
        value = data.draw(st.one_of(
            st.none(), st.booleans(), st.floats(), st.text(alphabet="p0123", max_size=3),
            st.lists(st.floats(0, 1), max_size=2),
            st.dictionaries(st.sampled_from(["a", "b", "score_a", "c"]), st.none())))
        key = data.draw(st.sampled_from([None, "a", "b", "score_a"]))
        if key is None:
            matches[k] = value  # the whole record
        elif data.draw(st.booleans()):
            matches[k] = {**matches[k], key: value}
        else:
            del matches[k][key]
        _agree({"players": PLAYERS[:4], "matches": matches})

    def test_the_records_are_not_held_twice(self):
        # Parsing may peak above decoding by a few pointers a record (three
        # column lists: 25 B a record measured on CPython 3.11), never by a
        # second per-record list of tuples (a 3-tuple alone is 64 B; the
        # per-record loop this replaced peaked 188 B a record above the decode).
        games = 40_000
        matches = _game_records(40, PLAYERS) * (games // 40)
        text = json.dumps({"players": PLAYERS, "matches": matches})
        tracemalloc.start()
        try:
            json.loads(text, parse_int=float)
            decoded = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            parsed = parse_tournament(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.tournament.n == len(PLAYERS)
        assert peak - decoded < games * sys.getsizeof(("a", "b", 0.5))


_PEAK_KB = """
import json, sys
from pathlib import Path
from recperf.io import load_tournament
path = Path(sys.argv[1])
{work}
with open("/proc/self/status", encoding="ascii") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _peak_kb(work: str, path: Path) -> int:
    """`VmHWM` (kB) of a fresh interpreter that imports recperf.io, then runs `work`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", _PEAK_KB.format(work=work), str(path)],
                          env=env, capture_output=True, text=True, check=True)
    return int(done.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("suffix", [".json", ".txt"], ids=["json", "sniffed"])
def test_the_decode_alone_sets_the_load_peak(tmp_path, suffix):
    # The text is freed once decoded and the label columns once numbered, so
    # the build's arrays reuse their memory; holding both cost 6 MB on CPython 3.11.
    players = [f"p{k:04d}" for k in range(2000)]
    path = tmp_path / f"games{suffix}"
    path.write_text(json.dumps({"players": players,
                                "matches": _game_records(40_000, players)}))
    decoded = _peak_kb("json.loads(path.read_text(encoding='utf-8'))", path)
    loaded = _peak_kb("assert load_tournament(path).tournament.n == 2000", path)
    assert loaded - decoded <= 1024


class TestCsvParsing:
    def test_reference_crosstable(self):
        parsed = load_tournament(FIXTURES / "reference.csv")
        d = derive(parsed.tournament)
        assert parsed.tournament.players == ("A", "B", "C")
        assert np.allclose(d.s, [0.75, 0.5, 0.25])

    def test_empty_diagonal_cells_allowed(self):
        parsed = parse_tournament(",A,B\nA,,1\nB,0,\n")
        assert np.array_equal(parsed.tournament.score_matrix, [[0, 1], [0, 0]])

    def test_non_numeric_cell_reports_position(self):
        with pytest.raises(ParseError, match=r"line 2, column 3.*'x'"):
            parse_tournament(",A,B\nA,,x\nB,0,\n")

    def test_bad_cell_below_a_blank_line_names_its_file_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_tournament(",A,B\n\nA,,x\nB,0,\n")
        assert str(excinfo.value) == "line 3, column 3 (A vs B): non-numeric cell 'x'"

    def test_a_row_spanning_lines_names_the_line_it_starts_on(self):
        with pytest.raises(ParseError) as excinfo:
            parse_tournament(',A,B\nA,,"x\ny"\nB,0,\n')
        assert str(excinfo.value) == "line 2, column 3 (A vs B): non-numeric cell 'x\\ny'"

    def test_the_text_is_read_without_a_copy(self):
        # long cells make the text 400 times the matrix; a copy of it would
        # take 1 to 4 bytes a character (a StringIO takes 4)
        n = 40
        cell = "0" * 399 + "1"
        text = "," + ",".join(f"P{j}" for j in range(n)) + "\n" + "".join(
            f"P{i}," + ",".join("" if i == j else cell for j in range(n)) + "\n"
            for i in range(n))
        tracemalloc.start()
        try:
            parsed = parse_tournament(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.tournament.score_matrix[0, 1] == 1.0
        assert peak < len(text) / 4

    def test_the_rows_are_read_into_one_array(self, monkeypatch):
        # a list of row arrays stacked by np.array held two n x n arrays at once
        n = 300
        labels = [f"P{k}" for k in range(n)]
        text = "," + ",".join(labels) + "\n" + "".join(
            f"{labels[i]}," + ",".join("" if i == j else "0.5" for j in range(n)) + "\n"
            for i in range(n))
        _, peak = _traced_at_build(monkeypatch, text)
        assert peak < 1.25 * n * n * 8

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_in_a_cell_is_named_as_read(self, separator):
        # str.strip removes U+001C-U+001F, which float and numpy reject
        with pytest.raises(ParseError) as excinfo:
            parse_tournament(f",A,B\nA,,{separator}1\nB,0,\n")
        assert str(excinfo.value) == (
            f"line 2, column 3 (A vs B): non-numeric cell {separator + '1'!r}")

    def test_wrong_cell_count(self):
        with pytest.raises(ParseError, match=r"^line 3: expected 3 cells, got 2$"):
            parse_tournament(",A,B\nA,,1\nB,0\n")

    def test_empty_cell_off_the_diagonal(self):
        with pytest.raises(ParseError, match=r"^line 2, column 3: empty cell off the diagonal$"):
            parse_tournament(",A,B\nA,,\nB,0,\n")

    def test_cells_read_as_float_reads_them(self):
        # spellings float accepts: whitespace, exponents, underscores, signs
        cells = [" 1.5 ", "2e0", "1_0", "+.25", "\t3\t", "0.5E+1"]
        text = ",A,B,C\nA, 0 ,{},{}\nB,{},,{}\nC,{},{},  \n".format(*cells)
        matrix = parse_tournament(text).tournament.score_matrix
        expected = [[0, 1.5, 2], [10, 0, 0.25], [3, 5, 0]]
        assert np.array_equal(matrix, expected)

    def test_bad_cell_after_a_blank_diagonal_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_tournament(",A,B,C\nA,,1,1\nB,0,,x\nC,0,0,\n")
        assert str(excinfo.value) == "line 3, column 4 (B vs C): non-numeric cell 'x'"

    def test_bad_diagonal_cell_reports_position(self):
        with pytest.raises(ParseError, match=r"^line 3, column 3 \(B vs B\): non-numeric cell 'x'$"):
            parse_tournament(",A,B\nA,,1\nB,0,x\n")

    def test_label_mismatch(self):
        with pytest.raises(ParseError, match="do not match"):
            parse_tournament(",A,B\nB,,1\nA,0,\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError, match="data rows"):
            parse_tournament(",A,B,C\nA,,1,0\nB,0,,1\n")

    def test_a_header_longer_than_the_file_can_fill_allocates_no_matrix(self):
        # 40000 x 40000 floats are 12.8 GB: the text is too short to hold the
        # rows, so no matrix is allocated and the count is named, not a MemoryError
        header = "," + ",".join(f"P{k}" for k in range(40_000))
        with pytest.raises(ParseError) as excinfo:
            parse_tournament(header + "\nP0,,1\nP1,0,\n")
        assert str(excinfo.value) == "header names 40000 players but there are 2 data rows"

    def test_quoted_labels(self):
        parsed = parse_tournament(',"Last, First",B\n"Last, First",,1\nB,0,\n')
        assert parsed.tournament.players == ("Last, First", "B")

    def test_lines_end_at_newline_alone(self):
        # a "\r" in a quoted label stays in it and "\u2028" ends no line;
        # CRLF rows and a blank line read as LF rows do
        text = ',"A\rB",C\u2028D\r\n\r\n"A\rB",,1\r\nC\u2028D,0,\r\n'
        parsed = parse_tournament(text)
        assert parsed.tournament.players == ("A\rB", "C\u2028D")
        assert np.array_equal(parsed.tournament.score_matrix, [[0, 1], [0, 0]])


class TestFormatSniffing:
    def test_json_detected_by_brace(self):
        text = (FIXTURES / "reference.json").read_text()
        parsed = parse_tournament(text)
        assert parsed.tournament.n == 3

    def test_json_after_leading_space_is_detected(self):
        text = (FIXTURES / "reference.json").read_text()
        assert parse_tournament("\n" + text).tournament.n == 3
        assert parse_tournament(" \t\r\n" + text).tournament.n == 3

    def test_csv_fallback(self):
        parsed = parse_tournament(",A,B\nA,,0.5\nB,0.5,\n")
        assert parsed.tournament.n == 2

    def test_a_leading_bracket_reads_as_json(self, tmp_path):
        # an array is JSON too, so its error is the JSON one, not a CSV shape error
        path = tmp_path / "t"
        path.write_text(" \n[1, 2]")
        for parse in (lambda: parse_tournament("[1, 2]"), lambda: load_tournament(path)):
            with pytest.raises(ParseError) as excinfo:
                parse()
            assert str(excinfo.value) == "top-level JSON value must be an object"

    def test_extension_wins_on_load(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",A,B\nA,,1\nB,0,\n")
        assert load_tournament(path).tournament.players == ("A", "B")

    @pytest.mark.parametrize("name, source", [("t.json", "reference.json"),
                                              ("t", "reference.json"),
                                              ("t.csv", "reference.csv")])
    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + (FIXTURES / source).read_bytes())
        expected = load_tournament(FIXTURES / source).tournament
        assert load_tournament(path).tournament == expected

    @pytest.mark.parametrize("source", ["reference.json", "reference.csv"], ids=["json", "csv"])
    def test_parse_drops_a_leading_byte_order_mark(self, source):
        text = (FIXTURES / source).read_text(encoding="utf-8")
        expected = parse_tournament(text).tournament
        assert parse_tournament("\ufeff" + text).tournament == expected


class TestRoundTrip:
    def test_json_crosstable_bit_exact(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            t = random_tournament(rng, require_p1p2=False)
            back = parse_tournament(tournament_to_json(t)).tournament
            assert back.players == t.players
            assert np.array_equal(back.score_matrix, t.score_matrix)

    def test_csv_bit_exact(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            t = random_tournament(rng, require_p1p2=False)
            back = parse_tournament(tournament_to_csv(t)).tournament
            assert back.players == t.players
            assert np.array_equal(back.score_matrix, t.score_matrix)

    def test_match_records_preserved(self):
        records = [("A", "B", 1.0), ("A", "C", 0.5), ("B", "C", 1.0)]
        t = parse_tournament((FIXTURES / "reference.json").read_text()).tournament
        text = tournament_to_json(t, match_records=records)
        back = parse_tournament(text).tournament
        assert back == t


def test_tournament_json_has_one_record_or_row_per_line():
    records = [("A", "B", 1.0), ("A", "C", 0.5), ("B", "C", 1.0)]
    t = parse_tournament((FIXTURES / "reference.json").read_text()).tournament
    for text, rows in [(tournament_to_json(t, match_records=records),
                        [{"a": a, "b": b, "score_a": x} for a, b, x in records]),
                       (tournament_to_json(t), t.score_matrix.tolist())]:
        assert json.loads(text.splitlines()[1].partition(": ")[2].rstrip(",")) == ["A", "B", "C"]
        assert [json.loads(line.rstrip(",")) for line in text.splitlines()
                if line.startswith("    ")] == rows
