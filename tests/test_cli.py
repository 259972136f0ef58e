import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import recperf.cli
from recperf import diagnostics
from recperf.cli import (
    EXIT_BOUNDARY,
    EXIT_DISCONNECTED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)

FIXTURES = Path(__file__).parent / "fixtures"
REFERENCE = str(FIXTURES / "reference.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_reference_table(self, capsys):
        code, out, err = run(capsys, "rank", REFERENCE, "--method", "both")
        assert code == EXIT_OK
        assert "127.232" in out
        assert "-127.232" in out
        assert "max |direct - iterative|" in out
        assert "no initial ratings" in err

    def test_reference_json_report(self, capsys):
        code, out, _ = run(capsys, "rank", REFERENCE, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == 2
        assert doc["ranking"] == [["A"], ["B"], ["C"]]
        by_player = {row["player"]: row for row in doc["players"]}
        assert by_player["A"]["rating"] == pytest.approx(127.2323, abs=1e-3)
        assert by_player["A"]["rank"] == 1
        assert by_player["C"]["rank"] == 3
        assert doc["diagnostics"]["connected"] is True
        assert doc["solver"]["pinned_total"] == pytest.approx(0.0, abs=1e-9)

    def test_json_and_csv_reports_identical(self, capsys):
        _, out_json, _ = run(capsys, "rank", REFERENCE, "--format", "json")
        _, out_csv, _ = run(
            capsys, "rank", str(FIXTURES / "reference.csv"), "--format", "json"
        )
        assert json.loads(out_json) == json.loads(out_csv)

    def test_direct_solve_at_its_cap_exits_5(self, capsys, monkeypatch):
        # a weighting that is not D^-1 M for a symmetric M: CG cannot converge
        # and must say so after 10 n = 30 steps rather than return
        derive = recperf.cli.derive
        monkeypatch.setattr(recperf.cli, "derive", lambda t: dataclasses.replace(
            derive(t), weights=np.array([0.9, 0.1, 0.1, 0.9, 0.5, 0.5])))
        code, out, err = run(capsys, "rank", REFERENCE)
        assert code == EXIT_NO_CONVERGENCE
        assert "direct solve (conjugate gradients) did not converge after 30" in err
        assert out == ""

    def test_methods_agree(self, capsys):
        code, out, _ = run(capsys, "rank", REFERENCE, "--method", "both", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        chat_scale = max(1.0, 400.0 * np.log10(3.0))
        assert doc["solver"]["max_method_delta"] <= 10 * 1e-10 * chat_scale

    def test_disconnected_exit_code(self, capsys):
        code, _, err = run(capsys, "rank", str(FIXTURES / "disconnected.json"))
        assert code == EXIT_DISCONNECTED
        assert "{A, B}" in err and "{C, D}" in err

    def test_boundary_exit_code(self, capsys):
        code, _, err = run(capsys, "rank", str(FIXTURES / "boundary.json"))
        assert code == EXIT_BOUNDARY
        assert "player A" in err
        assert "--clamp-scores" in err

    def test_clamp_flag_unblocks_boundary(self, capsys):
        code, out, _ = run(
            capsys, "rank", str(FIXTURES / "boundary.json"), "--clamp-scores"
        )
        assert code == EXIT_OK
        assert "A" in out

    def test_iterative_on_bipartite_suggests_direct(self, capsys):
        code, _, err = run(
            capsys, "rank", str(FIXTURES / "team_2v2.json"), "--method", "iterative"
        )
        assert code == EXIT_NO_CONVERGENCE
        assert "--method direct" in err

    def test_direct_on_bipartite_succeeds(self, capsys):
        code, out, _ = run(capsys, "rank", str(FIXTURES / "team_2v2.json"))
        assert code == EXIT_OK

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"players": ')
        code, _, err = run(capsys, "rank", str(bad))
        assert code == EXIT_PARSE
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "rank", "no-such-file.json")
        assert code == EXIT_PARSE


class TestCheck:
    def test_reference_passes_both(self, capsys):
        code, out, _ = run(capsys, "check", REFERENCE, "--spectral")
        assert code == EXIT_OK
        assert "P1 connected comparison graph: OK" in out
        assert "P2 non-bipartite comparison graph: OK" in out
        assert "spectral gap: 0.500000" in out

    def test_team_tournament_bipartition_witness(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "team_2v2.json"))
        assert code == EXIT_OK
        assert "P2 non-bipartite comparison graph: VIOLATED" in out
        assert "{A, B} | {C, D}" in out

    def test_disconnected_witness(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "disconnected.json"))
        assert code == EXIT_OK
        assert "P1 connected comparison graph: VIOLATED" in out
        assert "{A, B} | {C, D}" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "check", REFERENCE, "--spectral", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["diagnostics"]["connected"] is True
        assert doc["diagnostics"]["spectral_gap"] == pytest.approx(0.5, abs=1e-9)
        assert doc["diagnostics"]["lopsided_pairs"] == [["A", "B"], ["B", "C"]]


SPECTRAL_KEYS = {"eigenvalues", "multiplicity_one", "has_minus_one", "spectral_gap"}


class TestSinglePass:
    """Each command derives once, traverses once, and computes the spectrum
    only for `check --spectral`."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"derive": 0, "check_structure": 0, "spectral_diagnostics": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (recperf.cli, diagnostics):
            for name in counts:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    def test_rank_both(self, capsys, calls):
        code, out, _ = run(capsys, "rank", REFERENCE, "--method", "both", "--format", "json")
        assert code == EXIT_OK
        assert calls == {"derive": 1, "check_structure": 1, "spectral_diagnostics": 0}
        doc = json.loads(out)
        assert doc["schema"] == 2
        assert not SPECTRAL_KEYS & doc["diagnostics"].keys()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_check_computes_spectrum_only_when_asked(self, capsys, calls, fmt):
        code, out, _ = run(capsys, "check", REFERENCE, "--format", fmt)
        assert code == EXIT_OK
        assert calls == {"derive": 1, "check_structure": 1, "spectral_diagnostics": 0}
        if fmt == "json":
            assert not SPECTRAL_KEYS & json.loads(out)["diagnostics"].keys()
        code, out, _ = run(capsys, "check", REFERENCE, "--spectral", "--format", fmt)
        assert code == EXIT_OK
        assert calls == {"derive": 2, "check_structure": 2, "spectral_diagnostics": 1}
        if fmt == "json":
            assert SPECTRAL_KEYS <= json.loads(out)["diagnostics"].keys()


class TestPerformance:
    def test_reference_with_ratings(self, capsys, tmp_path):
        doc = json.loads(Path(REFERENCE).read_text())
        doc["initial_ratings"] = [2000, 2000, 2000]
        path = tmp_path / "rated.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "performance", str(path), "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        values = {row["player"]: row["performance"] for row in report["players"]}
        assert values["A"] == pytest.approx(2190.85, abs=5e-3)
        assert values["B"] == pytest.approx(2000.0, abs=1e-9)
        assert values["C"] == pytest.approx(1809.15, abs=5e-3)

    def test_compare_adds_recursive_column(self, capsys):
        code, out, _ = run(capsys, "performance", REFERENCE, "--compare")
        assert code == EXIT_OK
        assert "recursive" in out

    def test_boundary_exit(self, capsys):
        code, _, err = run(capsys, "performance", str(FIXTURES / "boundary.json"))
        assert code == EXIT_BOUNDARY
        assert "strictly inside (0, 1)" in err


class TestSimulate:
    def test_writes_tournament_and_truth(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        code, _, err = run(
            capsys,
            "simulate",
            "--players", "6",
            "--spread", "300",
            "--schedule", "round-robin:2",
            "--seed", "17",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert out_path.exists()
        truth = json.loads((tmp_path / "sim.truth.json").read_text())
        assert truth["seed"] == 17
        assert len(truth["true_strengths"]) == 6
        doc = json.loads(out_path.read_text())
        assert len(doc["matches"]) == 2 * 15

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        args = [
            "simulate", "--players", "5", "--spread", "200",
            "--schedule", "random:25", "--seed", "3",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrips_through_rank(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        main([
            "simulate", "--players", "8", "--spread", "400",
            "--schedule", "round-robin:4", "--seed", "2", "--out", str(out_path),
        ])
        capsys.readouterr()
        code, out, _ = run(capsys, "rank", str(out_path), "--format", "json", "--clamp-scores")
        assert code == EXIT_OK
        assert len(json.loads(out)["players"]) == 8

    def test_strengths_and_spread_exclusive(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "simulate", "--players", "3", "--strengths", "1,2,3", "--spread", "100",
            "--schedule", "round-robin:1", "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_PARSE
        assert "exactly one" in err

    def test_explicit_strengths(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        code, _, _ = run(
            capsys,
            "simulate", "--players", "3", "--strengths", "400,0,-400",
            "--schedule", "round-robin:10", "--seed", "1", "--out", str(out_path),
        )
        assert code == EXIT_OK
        truth = json.loads((tmp_path / "sim.truth.json").read_text())
        assert truth["true_strengths"] == [400.0, 0.0, -400.0]


class TestMalformedInput:
    HUGE_JSON = json.dumps({
        "players": ["A", "B", "C"],
        "crosstable": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]],
    })
    HUGE_CSV = ",A,B,C\nA,,1e308,1e308\nB,1e308,,1e308\nC,1e308,1e308,\n"

    @pytest.mark.parametrize("command", [
        ["rank"], ["check"], ["check", "--spectral"], ["performance"],
    ], ids=" ".join)
    @pytest.mark.parametrize("suffix, text", [
        (".json", HUGE_JSON), (".csv", HUGE_CSV),
    ], ids=["json", "csv"])
    def test_overflowing_game_totals_exit_2(self, capsys, tmp_path, command, suffix, text):
        path = tmp_path / f"huge{suffix}"
        path.write_text(text)
        code, _, err = run(capsys, command[0], str(path), *command[1:])
        assert code == EXIT_PARSE
        assert "overflow for players: ['A', 'B', 'C']" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("command", [
        ["rank"], ["rank", "--method", "iterative"], ["rank", "--method", "both"],
        ["performance"], ["performance", "--compare"],
    ], ids=" ".join)
    def test_overflowing_initial_ratings_exit_2(self, capsys, tmp_path, command):
        # each rating is finite, but their games-weighted total is not
        doc = json.loads(Path(REFERENCE).read_text())
        doc["initial_ratings"] = [1e308, 1e308, 0]
        path = tmp_path / "huge_ratings.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == EXIT_PARSE
        assert "initial_ratings" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["rank", "check", "performance"])
    @pytest.mark.parametrize("matches", [
        "5", "null", "true", '[{"a": ["x"], "b": "B", "score_a": 1}]',
    ], ids=["number", "null", "bool", "list-label"])
    def test_malformed_matches_exit_2(self, capsys, tmp_path, command, matches):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"players": ["A", "B"], "matches": {matches}}}')
        code, _, err = run(capsys, command, str(path))
        assert code == EXIT_PARSE
        assert "matches" in err or "match 1" in err


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_PARSE

    def test_version_of_model_spec_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "rank", REFERENCE, "--model", "pareto:1")
        assert code == EXIT_PARSE or "unknown model" in err
