import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import recperf.cli
from recperf import RatingModel, _timing, diagnostics
from recperf.cli import (
    EXIT_BOUNDARY,
    EXIT_DISCONNECTED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from reference import plain, report_json

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

    @pytest.mark.parametrize("method", ["direct", "both"])
    def test_a_huge_model_scale_solves(self, capsys, method):
        # the offsets reach 1e200: squared, CG's residuals would overflow; at
        # 1e308 a power of two just above them would overflow too
        for model, rating in [("elo:1e200", 127.2323 / 400 * 1e200),
                              ("logistic:1e308", 2 / 3 * np.log(3.0) * 1e308)]:
            code, out, _ = run(capsys, "rank", REFERENCE, "--model", model,
                               "--method", method, "--format", "json")
            assert code == EXIT_OK
            by_player = {row["player"]: row["rating"] for row in json.loads(out)["players"]}
            assert by_player["A"] == pytest.approx(rating, rel=1e-6)

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


def strict_json(text):
    """The report parsed, or ValueError if it holds NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} in a report")
    return json.loads(text, parse_constant=refuse)


class TestFloatRange:
    LADDER = str(FIXTURES / "ladder.json")

    @pytest.mark.parametrize("method", ["direct", "iterative", "both"])
    def test_a_total_whose_partial_sums_overflow_is_reported(self, capsys, method):
        # ratings near 1e308 overflowed sum(m_i x_i) term by term: NaN, though the total is finite
        code, out, _ = run(capsys, "rank", self.LADDER, "--model", "elo:1e306",
                           "--method", method, "--format", "json")
        assert code == EXIT_OK
        assert abs(strict_json(out)["solver"]["pinned_total"]) < 1e306

    @pytest.mark.parametrize("argv", [["rank", "--method", "direct"],
                                      ["rank", "--method", "iterative"],
                                      ["rank", "--method", "both"],
                                      ["performance", "--compare"]])
    def test_ratings_past_the_float_range_are_refused(self, capsys, argv):
        code, out, err = run(capsys, argv[0], self.LADDER, *argv[1:],
                             "--model", "elo:1.7e308", "--format", "json")
        assert code == EXIT_PARSE and out == ""
        assert err.endswith("\nerror: ratings past the float range: the model scale is too large\n")

    @pytest.mark.parametrize("model", ["logistic:1e308", "gaussian:1.7e308"])
    @pytest.mark.parametrize("fixture", ["reference.json", "team_2v2.json"])
    @pytest.mark.parametrize("argv", [["rank", "--method", "direct"], ["performance", "--compare"]])
    def test_a_scale_at_the_float_limit_solves(self, capsys, model, fixture, argv):
        code, out, _ = run(capsys, argv[0], str(FIXTURES / fixture), *argv[1:],
                           "--model", model, "--format", "json")
        assert code == EXIT_OK
        strict_json(out)


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
        counts = {"derive": 0, "_traverse": 0, "spectral_diagnostics": 0}

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
        assert calls == {"derive": 1, "_traverse": 1, "spectral_diagnostics": 0}
        doc = json.loads(out)
        assert doc["schema"] == 2
        assert not SPECTRAL_KEYS & doc["diagnostics"].keys()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_check_computes_spectrum_only_when_asked(self, capsys, calls, fmt):
        code, out, _ = run(capsys, "check", REFERENCE, "--format", fmt)
        assert code == EXIT_OK
        assert calls == {"derive": 1, "_traverse": 1, "spectral_diagnostics": 0}
        if fmt == "json":
            assert not SPECTRAL_KEYS & json.loads(out)["diagnostics"].keys()
        code, out, _ = run(capsys, "check", REFERENCE, "--spectral", "--format", fmt)
        assert code == EXIT_OK
        assert calls == {"derive": 2, "_traverse": 2, "spectral_diagnostics": 1}
        if fmt == "json":
            doc = json.loads(out)
            assert doc["schema"] == 3
            assert SPECTRAL_KEYS <= doc["diagnostics"].keys()
            assert "eigenvalues" not in doc["diagnostics"]

    @pytest.mark.parametrize("argv", [["rank", "--method", "both"],
                                      ["performance", "--compare"]], ids=" ".join)
    def test_each_offset_is_computed_once(self, capsys, monkeypatch, argv):
        quantiles = []
        quantile = RatingModel.quantile
        monkeypatch.setattr(RatingModel, "quantile",
                            lambda model, s: quantiles.append(s) or quantile(model, s))
        code, _, _ = run(capsys, argv[0], REFERENCE, *argv[1:])
        assert code == EXIT_OK
        assert len(quantiles) == 3  # one per player of the reference tournament

    @pytest.mark.parametrize("argv", [["rank", "--method", "both"], ["check", "--spectral"],
                                      ["performance", "--compare"]], ids=" ".join)
    def test_no_tournament_outlives_derive(self, capsys, monkeypatch, argv):
        # the traversal, the spectrum and the solve work from the CSR alone
        loaded, alive = [], []
        load, check = recperf.cli.load_tournament, diagnostics.check_structure

        def loading(path):
            parsed = load(path)
            loaded.append(weakref.ref(parsed.tournament))
            return parsed

        def checking(d):
            alive.extend(ref() is not None for ref in loaded)
            return check(d)

        monkeypatch.setattr(recperf.cli, "load_tournament", loading)
        for module in (recperf.cli, diagnostics):
            monkeypatch.setattr(module, "check_structure", checking)
        code, _, _ = run(capsys, argv[0], REFERENCE, *argv[1:])
        assert code == EXIT_OK
        assert alive == [False]


LINUX_PEAKS = Path("/proc/self/status").exists()


class TestTimings:
    """--timings adds one JSON line of stage seconds, and where Linux reports it each
    stage's memory peak, to stderr and changes nothing else."""

    @pytest.mark.parametrize("argv, stages", [
        (["rank", REFERENCE, "--method", "both"],
         ["parse", "build", "derive", "structure", "solve", "render"]),
        (["rank", str(FIXTURES / "reference.csv"), "--format", "json"],
         ["parse", "build", "derive", "structure", "solve", "render"]),
        (["check", REFERENCE], ["parse", "build", "derive", "structure", "render"]),
        (["check", REFERENCE, "--spectral", "--format", "json"],
         ["parse", "build", "derive", "structure", "spectral", "render"]),
        (["performance", REFERENCE, "--compare"],
         ["parse", "build", "derive", "structure", "solve", "render"]),
    ])
    def test_stages_follow_an_unchanged_report(self, capsys, argv, stages):
        code, out, err = run(capsys, *argv)
        timed_code, timed_out, timed_err = run(capsys, *argv, "--timings")
        assert code == EXIT_OK
        assert (timed_code, timed_out) == (code, out)
        assert timed_err.startswith(err)
        line = timed_err[len(err):]
        assert line.endswith("\n") and line.count("\n") == 1
        seconds = json.loads(line)
        peaks = seconds.pop("vmhwm_mb", None)
        assert list(seconds) == stages
        assert all(s >= 0.0 for s in seconds.values())
        if LINUX_PEAKS:  # each peak read at its stage's end; render ends last
            assert list(peaks) == stages
            assert 0.0 < min(peaks.values()) and max(peaks.values()) == peaks["render"]
        else:
            assert peaks is None

    def test_a_nested_stage_counts_only_in_itself(self, monkeypatch):
        clock = iter([0.0, 1.0, 3.0, 10.0, 20.0, 24.0])
        monkeypatch.setattr(_timing, "perf_counter", clock.__next__)
        assert _timing.timed("solve", abs, -1) == 1  # outside a record: no clock read
        with _timing.recording() as seconds:
            _timing.timed("parse", _timing.timed, "build", abs, -2)
            _timing.timed("parse", abs, -3)
        assert seconds == {"build": 2.0, "parse": 8.0 + 4.0}

    def test_a_failed_command_times_what_ran(self, capsys):
        code, out, err = run(capsys, "rank", str(FIXTURES / "disconnected.json"), "--timings")
        assert code == EXIT_DISCONNECTED and out == ""
        seconds = json.loads(err.splitlines()[-1])
        seconds.pop("vmhwm_mb", None)
        assert list(seconds) == ["parse", "build", "derive", "structure", "render"]

    def test_peaks_are_read_only_with_timings(self, capsys, monkeypatch):
        reads = []
        monkeypatch.setattr(_timing, "_peak_mb", lambda: reads.append(1) or 40.0)
        code, _, err = run(capsys, "rank", REFERENCE)
        assert code == EXIT_OK and not reads
        code, _, err = run(capsys, "rank", REFERENCE, "--timings")
        assert code == EXIT_OK and reads
        assert json.loads(err.splitlines()[-1])["vmhwm_mb"] == dict.fromkeys(
            ["parse", "build", "derive", "structure", "solve", "render"], 40.0)

    def test_peaks_are_left_out_where_proc_is_missing(self, capsys, monkeypatch):
        def missing(*args, **kwargs):
            raise FileNotFoundError("/proc/self/status")
        monkeypatch.setattr(_timing, "open", missing, raising=False)
        assert _timing._peak_mb() is None
        code, _, err = run(capsys, "rank", REFERENCE, "--timings")
        assert code == EXIT_OK
        assert "vmhwm_mb" not in json.loads(err.splitlines()[-1])


def test_commands_load_no_module_they_do_not_use():
    """numpy.ma and numpy.random add start-up time and peak RSS to every run;
    `build_tournament`'s pair numbering and `_start_vector` avoid them. statistics
    loads only for the gaussian model, csv only for CSV input."""
    csv_path = str(FIXTURES / "reference.csv")
    script = f"""
import json, sys
from recperf.cli import main
codes = [main(["rank", {REFERENCE!r}, "--method", "both", "--format", "json"]),
         main(["check", {REFERENCE!r}, "--spectral"]),
         main(["performance", {REFERENCE!r}, "--compare"])]
unused = {{"statistics", "csv"}}
loaded = [m for m in sys.modules
          if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"]) or m in unused]
codes += [main(["rank", {REFERENCE!r}, "--model", "gaussian:200"]), main(["rank", {csv_path!r}])]
print(json.dumps([codes, loaded, sorted(unused & set(sys.modules))]))
"""
    src = str(Path(recperf.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[EXIT_OK] * 5, [], ["csv", "statistics"]]


# labels that JSON must escape, or that hold the text between two label lists
ODD_LABELS = ['say "hi"', "back\\slash", 'x"], ["y', "two\nlines", "Zo\u00eb \u68cb"]


def _odd_labels() -> dict:
    # a ring of decisive games (odd cycle: P1 and P2 hold) plus draws across it
    n = len(ODD_LABELS)
    matches = [{"a": ODD_LABELS[k], "b": ODD_LABELS[(k + 1) % n], "score_a": 1.0}
               for k in range(n)]
    matches += [{"a": ODD_LABELS[k], "b": ODD_LABELS[(k + 2) % n], "score_a": 0.5}
                for k in range(n)]
    return {"players": ODD_LABELS, "matches": matches}


def _seeded_schedule(n: int = 200, games: int = 1500) -> dict:
    """A ring plus random pairings; one game in six decisive, so some pairs are lopsided."""
    rng = np.random.default_rng(21)
    names = [f"P{k}" for k in rng.permutation(n)]
    first = np.concatenate([np.arange(n), rng.integers(0, n, games)])
    second = np.concatenate([np.roll(np.arange(n), 1), rng.integers(0, n - 1, games)])
    second[n:] += second[n:] >= first[n:]
    score = rng.choice([0.0, 1.0, 0.25, 0.5, 0.75], first.size,
                       p=[1 / 12, 1 / 12, 1 / 4, 1 / 3, 1 / 4])
    return {"players": names, "matches": [
        {"a": names[a], "b": names[b], "score_a": float(x)}
        for a, b, x in zip(first.tolist(), second.tolist(), score)]}


def _games(players, *records) -> dict:
    return {"players": players,
            "matches": [{"a": a, "b": b, "score_a": x} for a, b, x in records]}


# inputs whose reports must be laid out exactly as `report_json` spells them
LAYOUT_INPUTS = {
    "odd_labels": _odd_labels(),
    "no_lopsided_pair": _games(["C", "A", "B"],
                               ("C", "A", 0.5), ("A", "B", 0.25), ("B", "C", 0.5)),
    "one_lopsided_pair": _games(["C", "A", "B"],
                                ("C", "A", 1.0), ("A", "B", 0.5), ("B", "C", 0.5)),
    # one tie of four, whose labels sort opposite to their indices
    "tie": _games(["z", "y", "x", "w"], ("z", "y", 0.5), ("y", "x", 0.5), ("x", "w", 0.5),
                  ("w", "z", 0.5), ("z", "x", 0.5)),
    "team_2v2": json.loads((FIXTURES / "team_2v2.json").read_text()),
    "seeded_200": _seeded_schedule(),
}


class TestJsonLayout:
    """A JSON report parses to the command's report, one player row a line."""

    @pytest.fixture
    def odd_labels(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(_odd_labels()), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [["rank", "--method", "both"], ["check", "--spectral"]])
    def test_report_parses_to_the_report_dict(self, capsys, odd_labels, argv):
        argv = [argv[0], odd_labels, *argv[1:], "--format", "json"]
        args = recperf.cli.build_parser().parse_args(argv)
        report = plain(args.func(args))
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out) == report
        assert len(report["diagnostics"]["lopsided_pairs"]) == len(ODD_LABELS)
        rows = [line.rstrip(",") for line in out.splitlines() if line.startswith("    {")]
        assert [json.loads(row) for row in rows] == report.get("players", [])
        [pairs] = [line.partition(": ")[2] for line in out.splitlines()
                   if line.startswith('    "lopsided_pairs": ')]
        assert json.loads(pairs.rstrip(",")) == report["diagnostics"]["lopsided_pairs"]

    @pytest.mark.parametrize("command", ["rank --method both", "check --spectral",
                                         "performance --compare"])
    @pytest.mark.parametrize("source", LAYOUT_INPUTS)
    def test_report_matches_the_layout_oracle(self, capsys, tmp_path, source, command):
        name, *rest = command.split()
        if source == "team_2v2" and name == "rank":
            rest = ["--method", "direct"]  # bipartite: the iteration is refused
        path = tmp_path / "games.json"
        path.write_text(json.dumps(LAYOUT_INPUTS[source]), encoding="utf-8")
        argv = [name, str(path), *rest, "--format", "json"]
        args = recperf.cli.build_parser().parse_args(argv)
        report = plain(args.func(args))
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == report_json(report)
        rows = report.get("players", [])
        if name == "rank":  # by rank, a tie's members by label
            assert rows == sorted(rows, key=lambda row: (row["rank"], row["player"]))
        elif name == "performance":  # in file order
            assert [row["player"] for row in rows] == LAYOUT_INPUTS[source]["players"]

    def test_reports_are_written_in_a_few_batches(self, monkeypatch):
        # one write per piece would be one system call each when stdout is unbuffered
        class CountingStream(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        stream = CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        doc = {"schema": 2,
               "players": [{"player": f"P{k}", "rating": k / 3} for k in range(10_000)],
               "diagnostics": {"lopsided_pairs": [["P0", f"P{k}"] for k in range(10_000)]}}
        monkeypatch.setattr(recperf.cli, "cmd_check", lambda args: doc)
        assert main(["check", REFERENCE, "--format", "json"]) == EXIT_OK
        assert json.loads(stream.getvalue()) == doc
        assert stream.writes == 1


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

    @pytest.mark.parametrize("spread", ["inf", "nan"])
    def test_spread_must_be_finite(self, capsys, tmp_path, spread):
        out_path = tmp_path / "x.json"
        code, out, err = run(capsys, "simulate", "--players", "4", "--spread", spread,
                             "--out", str(out_path))
        assert code == EXIT_PARSE
        assert err == f"simulate: strength spread must be finite and positive, got {spread}\n"
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--strengths", "1,nan,2"], "true strengths must be finite, got (1.0, nan, 2.0)"),
        (["--strengths", "1,inf,2"], "true strengths must be finite, got (1.0, inf, 2.0)"),
        (["--strengths", "1,a,2"], "--strengths must be comma-separated numbers, got 'a'"),
        (["--spread", "100", "--schedule", "random:1.5"],
         "the --schedule count must be a whole number, got '1.5'"),
        (["--strengths", "1e308,-1e308,0"],
         "true strengths must differ by a finite amount, got (1e+308, -1e+308, 0.0)"),
    ], ids=["nan", "inf", "not-a-number", "fractional-count", "spread-past-float-range"])
    def test_a_bad_flag_value_is_named(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "x.json"
        code, out, err = run(capsys, "simulate", "--players", "3", *argv,
                             "--out", str(out_path))
        assert code == EXIT_PARSE
        assert err == f"simulate: {message}\n"
        assert out == "" and not out_path.exists()

    def test_zero_schedule_count_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, out, err = run(
            capsys,
            "simulate", "--players", "3", "--spread", "100",
            "--schedule", "random:0", "--out", str(out_path),
        )
        assert code == EXIT_PARSE
        assert err == "simulate: schedule count must be positive, got 0\n"
        assert out == "" and not out_path.exists()

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
    def test_cell_past_the_csv_field_limit_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "long_cell.csv"
        path.write_text(",A,B\nA,," + "1" * 200_000 + "\nB,0,\n")
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_PARSE
        assert err == "error: line 2: field larger than field limit (131072)\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["rank", "check", "performance"])
    def test_separator_in_a_csv_cell_is_located(self, capsys, tmp_path, command):
        path = tmp_path / "separator.csv"
        path.write_text(",A,B\nA,,\x1c1\nB,0,\n")
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_PARSE
        assert err == "error: line 2, column 3 (A vs B): non-numeric cell '\\x1c1'\n"
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
    def test_bad_numeric_option_exits_2(self, capsys, tmp_path, option, value):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        for path in (REFERENCE, str(bad)):  # the flags are checked before the input is read
            code, out, err = run(capsys, "rank", path, "--method", "iterative", option, value)
            assert code == EXIT_PARSE and out == ""
            assert err.startswith(f"error: {option[2:].replace('-', '_')} must be")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("option, value", [("--tol", "nan"), ("--max-iter", "0")])
    def test_the_direct_method_ignores_the_iteration_flags(self, capsys, option, value):
        code, _, _ = run(capsys, "rank", REFERENCE, "--method", "direct", option, value)
        assert code == EXIT_OK

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_PARSE

    def test_version_of_model_spec_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "rank", REFERENCE, "--model", "pareto:1")
        assert code == EXIT_PARSE and "unknown model" in err

    @pytest.mark.parametrize("command", ["rank", "performance"])
    def test_the_model_is_checked_before_the_input_is_read(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, out, err = run(capsys, command, str(bad), "--model", "pareto:1")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: unknown model 'pareto:1'") and err.count("\n") == 1


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
   2  B                     2      0.500         0.0         0.000
   3  C                     2      0.250         0.0      -127.232

method direct: iterations 1, residual <num>, conserved total <num>
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

method direct: iterations 2, residual <num>, conserved total <num>
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
B                     2      0.500         0.0         0.000         0.000
C                     2      0.250         0.0      -190.849      -127.232
""",
    # a rating too wide for its column prints in exponent form
    "rank team_2v2.json --model elo:1e200": """\
model elo:1e+200   method direct
P1 connected comparison graph: OK
P2 non-bipartite comparison graph: VIOLATED
  bipartition: {A, B} | {C, D}

rank  player            games  avg score     initial        rating
   1  A                     2      0.700         0.0    2.569e+199
   2  D                     2      0.500         0.0    1.220e+199
   3  B                     2      0.550         0.0   -2.388e+198
   4  C                     2      0.250         0.0   -3.551e+199

method direct: iterations 2, residual <num>, conserved total <num>
""",
    "performance team_2v2.json --compare --model elo:1e200": """\
model elo:1e+200
player            games  avg score     initial   performance     recursive
A                     2      0.700         0.0    3.680e+199    2.569e+199
B                     2      0.550         0.0    8.715e+198   -2.388e+198
C                     2      0.250         0.0   -4.771e+199   -3.551e+199
D                     2      0.500         0.0         0.000    1.220e+199
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

    def test_table_prints_a_wide_initial_rating_in_exponent_form(self, capsys, tmp_path):
        doc = json.loads(Path(REFERENCE).read_text())
        doc["initial_ratings"] = [1e12, -3e9, 5.5]
        path = tmp_path / "rated.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "performance", str(path), "--compare")
        assert code == EXIT_OK
        assert out == """\
model elo:400
player            games  avg score     initial   performance        recursive
A                     2      0.750     1.0e+12    -1.500e+09  3.323333335e+11
B                     2      0.500    -3.0e+09     5.000e+11  3.323333333e+11
C                     2      0.250         5.5     4.985e+11  3.323333332e+11
"""

    def test_exponent_cells_keep_the_gaps_between_ratings(self, capsys, tmp_path):
        # ratings 1.3e2 apart near 3.3e11 agree to four digits; the column takes
        # the ten it needs to tell them apart, and widens to fit them
        doc = json.loads(Path(REFERENCE).read_text())
        doc["initial_ratings"] = [1e12, -3e9, 5.5]
        path = tmp_path / "rated.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "rank", str(path))
        assert code == EXIT_OK
        assert out.splitlines()[5:9] == [
            "rank  player            games  avg score     initial           rating",
            "   1  A                     2      0.750     1.0e+12  3.323333335e+11",
            "   2  B                     2      0.500    -3.0e+09  3.323333333e+11",
            "   3  C                     2      0.250         5.5  3.323333332e+11",
        ]

    @pytest.mark.parametrize("command", GOLDEN_REFUSALS)
    def test_refusal(self, capsys, command):
        code, out, err = golden_run(capsys, command)
        assert (code, err) == GOLDEN_REFUSALS[command]
        assert out == ""
