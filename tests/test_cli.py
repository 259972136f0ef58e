import dataclasses
import json
import os
import re
import subprocess
import sys
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

    @pytest.mark.parametrize("method", ["direct", "iterative"])
    def test_boundary_after_clamping_names_player(self, capsys, tmp_path, method):
        # past 2^52 games the clamped score 1 - 1/(2m + 2) rounds back to 1
        path = tmp_path / "many_wins.json"
        path.write_text(json.dumps({
            "players": ["A", "B", "C"],
            "crosstable": [[0, 1e17, 1], [0, 0, 1], [1, 1, 0]],
        }))
        code, _, err = run(capsys, "rank", str(path), "--clamp-scores", "--method", method)
        assert code == EXIT_BOUNDARY
        assert "player A has average score 1" in err
        assert "--clamp-scores" not in err

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


SPECTRAL_KEYS = {"lambda_2", "lambda_2_bound", "lambda_min", "lambda_min_bound",
                 "multiplicity_one", "has_minus_one", "spectral_gap", "lanczos_steps"}


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
            doc = json.loads(out)
            assert doc["schema"] == 3
            assert SPECTRAL_KEYS <= doc["diagnostics"].keys()
            assert "eigenvalues" not in doc["diagnostics"]


def test_commands_import_neither_numpy_ma_nor_numpy_random():
    """numpy.ma and numpy.random add start-up time and peak RSS to every run;
    `build_tournament`'s pair numbering and `_start_vector` avoid them."""
    script = f"""
import json, sys
from recperf.cli import main
codes = [main(["rank", {REFERENCE!r}, "--method", "both", "--format", "json"]),
         main(["check", {REFERENCE!r}, "--spectral"])]
loaded = [m for m in sys.modules if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"])]
print(json.dumps([codes, loaded]))
"""
    src = str(Path(recperf.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[EXIT_OK, EXIT_OK], []]


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
        assert "player A" in err
        assert "strictly inside (0, 1)" in err
        assert "--clamp-scores" not in err

    def test_disconnected_compare_names_players(self, capsys):
        code, _, err = run(
            capsys, "performance", str(FIXTURES / "disconnected.json"), "--compare"
        )
        assert code == EXIT_DISCONNECTED
        assert "{A, B} | {C, D}" in err


    def test_compare_json_writes_recursive_performance(self, capsys):
        code, out, _ = run(capsys, "performance", REFERENCE, "--compare", "--format", "json")
        assert code == EXIT_OK
        values = {row["player"]: row["recursive_performance"]
                  for row in json.loads(out)["players"]}
        assert values == pytest.approx({"A": 127.2323, "B": 0.0, "C": -127.2323}, abs=1e-3)


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


    HUGE = "1" + "0" * 400  # an integer beyond float range

    @pytest.mark.parametrize("command", ["rank", "performance"])
    @pytest.mark.parametrize("text", [
        f'{{"players": ["A", "B"], "matches": [{{"a": "A", "b": "B", "score_a": {HUGE}}}]}}',
        f'{{"players": ["A", "B"], "crosstable": [[0, {HUGE}], [1, 0]]}}',
        f'{{"players": ["A", "B"], "initial_ratings": [{HUGE}, 0],'
        f' "crosstable": [[0, 1], [1, 0]]}}',
    ], ids=["score_a", "crosstable", "initial_ratings"])
    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path, command, text):
        path = tmp_path / "huge_int.json"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_PARSE
        assert err.startswith("error: ")
        assert out == ""


    @pytest.mark.parametrize("command", ["rank", "check", "performance"])
    def test_directory_exits_2(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, str(tmp_path))
        assert code == EXIT_PARSE
        assert err.startswith("error: ") and str(tmp_path) in err
        assert out == ""

    @pytest.mark.parametrize("command", ["rank", "check", "performance"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_PARSE
        assert err.startswith("error: ")
        assert out == ""


class TestUsage:
    @pytest.mark.parametrize("option, value", [
        ("--tol", "nan"), ("--tol", "0"), ("--tol", "inf"),
        ("--max-iter", "0"), ("--max-iter", "-3"), ("--tie-tol", "nan"),
    ])
    def test_bad_numeric_option_exits_2(self, capsys, option, value):
        code, out, err = run(capsys, "rank", REFERENCE, "--method", "iterative", option, value)
        assert code == EXIT_PARSE
        assert option[2:].replace("-", "_") in err
        assert out == ""

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_PARSE

    def test_version_of_model_spec_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "rank", REFERENCE, "--model", "pareto:1")
        assert code == EXIT_PARSE and "unknown model" in err


RANK_NOTE = ("note: no initial ratings in file; using 0 for every player "
             "(the ranking does not depend on this choice)\n")

GOLDEN_STDOUT = {
    "rank reference.json --method both": """\
model elo:400   method both
P1 connected comparison graph: OK
P2 non-bipartite comparison graph: OK
lopsided pairs (one side took every point): A-B, B-C

rank  player            games  avg score     initial        rating
   1  A                     2      0.750         0.0       127.232
   2  B                     2      0.500         0.0        -0.000
   3  C                     2      0.250         0.0      -127.232

method direct: iterations 0, residual <num>, conserved total <num>
method iterative: iterations 34, residual <num>
max |direct - iterative| = <num>
""",
    "rank team_2v2.json": """\
model elo:400   method direct
P1 connected comparison graph: OK
P2 non-bipartite comparison graph: VIOLATED
  bipartition: {A, B} | {C, D}

rank  player            games  avg score     initial        rating
   1  A                     2      0.700         0.0       102.778
   2  D                     2      0.500         0.0        48.812
   3  B                     2      0.550         0.0        -9.553
   4  C                     2      0.250         0.0      -142.037

method direct: iterations 0, residual <num>, conserved total <num>
""",
    "check reference.json --spectral": """\
P1 connected comparison graph: OK
P2 non-bipartite comparison graph: OK
lopsided pairs (one side took every point): A-B, B-C
spectral:
  lambda_2: -0.500000   bound <num>
  lambda_min: -0.500000   bound <num>
  multiplicity of eigenvalue 1: 1   eigenvalue -1 present: no
  spectral gap: 0.500000
  Lanczos steps: 1
  estimated iterations to 1e-10: 34
""",
    "check team_2v2.json --spectral": """\
P1 connected comparison graph: OK
P2 non-bipartite comparison graph: VIOLATED
  bipartition: {A, B} | {C, D}
spectral:
  lambda_2: 0.000000   bound <num>
  lambda_min: -1.000000   bound <num>
  multiplicity of eigenvalue 1: 1   eigenvalue -1 present: yes
  spectral gap: 0.000000
  Lanczos steps: 2
  estimated iterations to 1e-10: none (iteration does not converge)
""",
    "check disconnected.json": """\
P1 connected comparison graph: VIOLATED
  components: {A, B} | {C, D}
P2 non-bipartite comparison graph: VIOLATED
  bipartition: {A} | {B}
""",
    "performance reference.json --compare": """\
model elo:400
player            games  avg score     initial   performance     recursive
A                     2      0.750         0.0       190.849       127.232
B                     2      0.500         0.0         0.000        -0.000
C                     2      0.250         0.0      -190.849      -127.232
""",
}

GOLDEN_LOPSIDED = """\
P1 connected comparison graph: OK
P2 non-bipartite comparison graph: OK
lopsided pairs (one side took every point): 13 pairs, the first 10: P00-P01, P00-P12, \
P01-P02, P02-P03, P03-P04, P04-P05, P05-P06, P06-P07, P07-P08, P08-P09
"""

GOLDEN_REFUSALS = {
    "rank disconnected.json": (
        EXIT_DISCONNECTED,
        RANK_NOTE
        + "P1 violated: tournament splits into independent groups: {A, B} | {C, D}\n",
    ),
    "rank team_2v2.json --method iterative": (
        EXIT_NO_CONVERGENCE,
        RANK_NOTE
        + "P2 violated (bipartition {A, B} | {C, D}): the fixed-point iteration "
        "oscillates and cannot converge; use --method direct\n",
    ),
    "performance boundary.json": (
        EXIT_BOUNDARY,
        "note: no initial ratings in file; using 0 for every player\n"
        "boundary score: player A has average score 1; offsets need scores "
        "strictly inside (0, 1)\n",
    ),
}


def masked(text: str) -> str:
    """Mask the numbers printed in e/g format: they are rounding noise."""
    return re.sub(r"(residual|conserved total|bound|=) \S+?(,|\n)", r"\1 <num>\2", text)


def golden_run(capsys, command: str):
    name, fixture, *rest = command.split()
    return run(capsys, name, str(FIXTURES / fixture), *rest)


class TestGoldenOutput:
    """Exact table output and refusal messages of a few fixture runs."""

    @pytest.mark.parametrize("command", GOLDEN_STDOUT)
    def test_table(self, capsys, command):
        code, out, _ = golden_run(capsys, command)
        assert code == EXIT_OK
        assert masked(out) == GOLDEN_STDOUT[command]

    def test_table_lists_the_first_lopsided_pairs(self, capsys, tmp_path):
        # an odd ring of decisive games: 13 lopsided pairs
        names = [f"P{k:02d}" for k in range(13)]
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"players": names, "matches": [
            {"a": names[k], "b": names[(k + 1) % 13], "score_a": 1.0} for k in range(13)]}))
        code, out, _ = run(capsys, "check", str(path))
        assert code == EXIT_OK
        assert out == GOLDEN_LOPSIDED
        code, out, _ = run(capsys, "check", str(path), "--format", "json")
        assert len(json.loads(out)["diagnostics"]["lopsided_pairs"]) == 13

    @pytest.mark.parametrize("command", GOLDEN_REFUSALS)
    def test_refusal(self, capsys, command):
        code, out, err = golden_run(capsys, command)
        assert (code, err) == GOLDEN_REFUSALS[command]
        assert out == ""
