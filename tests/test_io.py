from pathlib import Path

import numpy as np
import pytest

from recperf import (
    ParseError,
    TournamentDataError,
    derive,
    load_tournament,
    parse_tournament,
    tournament_to_json,
)

from conftest import random_tournament
from reference import tournament_to_csv

FIXTURES = Path(__file__).parent / "fixtures"


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
        ('{"players": ["A", 1], "matches": []}', ParseError,
         "player labels must be strings"),
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
    ], ids=["label-type", "score-string", "score-bool", "row-count", "row-length",
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


class TestCsvParsing:
    def test_reference_crosstable(self):
        parsed = load_tournament(FIXTURES / "reference.csv")
        d = derive(parsed.tournament)
        assert parsed.tournament.players == ("A", "B", "C")
        assert np.allclose(d.s, [0.75, 0.5, 0.25])

    def test_empty_diagonal_cells_allowed(self):
        parsed = parse_tournament(",A,B\nA,,1\nB,0,\n", fmt="csv")
        assert np.array_equal(parsed.tournament.score_matrix, [[0, 1], [0, 0]])

    def test_non_numeric_cell_reports_position(self):
        with pytest.raises(ParseError, match=r"line 2, column 3.*'x'"):
            parse_tournament(",A,B\nA,,x\nB,0,\n", fmt="csv")

    def test_wrong_cell_count(self):
        with pytest.raises(ParseError, match=r"^line 3: expected 3 cells, got 2$"):
            parse_tournament(",A,B\nA,,1\nB,0\n", fmt="csv")

    def test_empty_cell_off_the_diagonal(self):
        with pytest.raises(ParseError, match=r"^line 2, column 3: empty cell off the diagonal$"):
            parse_tournament(",A,B\nA,,\nB,0,\n", fmt="csv")

    def test_cells_read_as_float_reads_them(self):
        # spellings float accepts: whitespace, exponents, underscores, signs
        cells = [" 1.5 ", "2e0", "1_0", "+.25", "\t3\t", "0.5E+1"]
        text = ",A,B,C\nA, 0 ,{},{}\nB,{},,{}\nC,{},{},  \n".format(*cells)
        matrix = parse_tournament(text, fmt="csv").tournament.score_matrix
        expected = [[0, 1.5, 2], [10, 0, 0.25], [3, 5, 0]]
        assert np.array_equal(matrix, expected)

    def test_bad_diagonal_cell_reports_position(self):
        with pytest.raises(ParseError, match=r"^line 3, column 3 \(B vs B\): non-numeric cell 'x'$"):
            parse_tournament(",A,B\nA,,1\nB,0,x\n", fmt="csv")

    def test_label_mismatch(self):
        with pytest.raises(ParseError, match="do not match"):
            parse_tournament(",A,B\nB,,1\nA,0,\n", fmt="csv")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError, match="data rows"):
            parse_tournament(",A,B,C\nA,,1,0\nB,0,,1\n", fmt="csv")

    def test_quoted_labels(self):
        parsed = parse_tournament(
            ',"Last, First",B\n"Last, First",,1\nB,0,\n', fmt="csv"
        )
        assert parsed.tournament.players == ("Last, First", "B")

    def test_lines_end_at_newline_alone(self):
        # a "\r" in a quoted label stays in it and "\u2028" ends no line;
        # CRLF rows and a blank line read as LF rows do
        text = ',"A\rB",C\u2028D\r\n\r\n"A\rB",,1\r\nC\u2028D,0,\r\n'
        parsed = parse_tournament(text, fmt="csv")
        assert parsed.tournament.players == ("A\rB", "C\u2028D")
        assert np.array_equal(parsed.tournament.score_matrix, [[0, 1], [0, 0]])


class TestFormatSniffing:
    def test_json_detected_by_brace(self):
        text = (FIXTURES / "reference.json").read_text()
        parsed = parse_tournament(text)
        assert parsed.tournament.n == 3

    def test_csv_fallback(self):
        parsed = parse_tournament(",A,B\nA,,0.5\nB,0.5,\n")
        assert parsed.tournament.n == 2

    def test_extension_wins_on_load(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",A,B\nA,,1\nB,0,\n")
        assert load_tournament(path).tournament.players == ("A", "B")


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
            back = parse_tournament(tournament_to_csv(t), fmt="csv").tournament
            assert back.players == t.players
            assert np.array_equal(back.score_matrix, t.score_matrix)

    def test_match_records_preserved(self):
        records = [("A", "B", 1.0), ("A", "C", 0.5), ("B", "C", 1.0)]
        t = parse_tournament((FIXTURES / "reference.json").read_text()).tournament
        text = tournament_to_json(t, match_records=records)
        back = parse_tournament(text).tournament
        assert back == t

    def test_ratings_survive(self):
        t = parse_tournament((FIXTURES / "reference.json").read_text()).tournament
        text = tournament_to_json(t, initial_ratings=[2000.0, 1900.0, 1800.0])
        parsed = parse_tournament(text)
        assert parsed.ratings_supplied
        assert np.array_equal(parsed.initial_ratings, [2000.0, 1900.0, 1800.0])
