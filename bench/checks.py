"""Output checks for the two benchmarked commands.

Each check returns the list of problems it found in one command's exit code
and JSON report; an empty list means the operation passed. A report that
cannot be read, or lacks a field the check needs, is a problem too.
"""

from __future__ import annotations

import json
from pathlib import Path


def load_report(path: Path):
    """The JSON report a command printed, or None when it is not JSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _spectral_problems(diag: dict) -> list[str]:
    """A spectral verdict that is present must agree with the BFS verdict.

    A verdict that is missing or not a plain number/boolean (for example
    "unresolved") is not a contradiction.
    """
    problems = []
    mult = diag.get("multiplicity_one")
    if type(mult) is int and (mult == 1) != diag["connected"]:
        problems.append(f"eigenvalue 1 multiplicity {mult} contradicts "
                        f"BFS connected={diag['connected']}")
    minus = diag.get("has_minus_one")
    if type(minus) is bool and minus == diag["nonbipartite"]:
        problems.append(f"has_minus_one={minus} contradicts "
                        f"BFS nonbipartite={diag['nonbipartite']}")
    return problems


def rank_problems(code: int, report, oracle: dict[str, float], tol: float) -> list[str]:
    """`rank --method both`: exit 0, ratings within tol of the oracle, methods agree."""
    if code != 0:
        return [f"rank exited {code}"]
    try:
        ratings = {row["player"]: float(row["rating"]) for row in report["players"]}
        if len(ratings) != len(report["players"]) or ratings.keys() != oracle.keys():
            return ["rank report does not list every player exactly once"]
        problems = []
        worst = max(abs(ratings[p] - x) for p, x in oracle.items())
        if not worst <= tol:
            problems.append(f"ratings differ from the oracle by {worst:.3e} > {tol:g}")
        delta = float(report["solver"]["max_method_delta"])
        if not delta <= tol:
            problems.append(f"direct and iterative differ by {delta:.3e} > {tol:g}")
        if "diagnostics" in report:
            problems += _spectral_problems(report["diagnostics"])
        return problems
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed rank report: {exc!r}"]


def check_problems(code: int, report) -> list[str]:
    """`check --spectral`: exit 0, P1 and P2 hold, spectrum does not contradict."""
    if code != 0:
        return [f"check exited {code}"]
    try:
        diag = report["diagnostics"]
        problems = [f"{key} is {diag[key]!r}, expected true"
                    for key in ("connected", "nonbipartite") if diag[key] is not True]
        return problems + _spectral_problems(diag)
    except (KeyError, TypeError) as exc:
        return [f"malformed check report: {exc!r}"]
