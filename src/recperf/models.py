"""Linear paired-comparison rating models.

A model turns a rating difference into an expected score through a strictly
increasing distribution function that is symmetric about zero. Three
families are provided: the Elo base-10 logistic, the natural logistic, and
the Gaussian. The Gaussian's `statistics.NormalDist` is imported on its first
use, so the other families never load `statistics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LN10 = math.log(10.0)

FAMILIES = ("elo", "logistic", "gaussian")


class BoundaryScoreError(ValueError):
    """An average score of exactly 0 or 1 has no finite rating offset."""

    def __init__(self, value: float, player: int | str | None = None):
        self.value = value
        self.player = player
        who = f" for player {player}" if player is not None else ""
        super().__init__(
            f"average score {value}{who} is outside the open interval (0, 1); "
            "the rating offset is undefined at the boundary"
        )


def _sigmoid(u: float) -> float:
    # Branch on sign so exp never overflows.
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    t = math.exp(u)
    return t / (1.0 + t)


@dataclass(frozen=True)
class RatingModel:
    """A symmetric, strictly increasing win-probability curve.

    `scale` is the Elo divisor (default 400) for the elo family, the
    logistic scale, or the Gaussian standard deviation.
    """

    family: str
    scale: float = 400.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown model family {self.family!r}; expected one of {FAMILIES}"
            )
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"model scale must be finite and positive, got {self.scale}")

    def cdf(self, x: float) -> float:
        """Probability value at rating difference x."""
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"rating difference must be finite, got {x}")
        if self.family == "elo":
            return _sigmoid(x * _LN10 / self.scale)
        if self.family == "logistic":
            return _sigmoid(x / self.scale)
        from statistics import NormalDist

        return NormalDist(0.0, self.scale).cdf(x)

    def quantile(self, s: float) -> float:
        """Rating difference at which the expected score equals s.

        Raises:
            BoundaryScoreError: if s is not strictly inside (0, 1).
        """
        s = float(s)
        if not 0.0 < s < 1.0:
            raise BoundaryScoreError(s)
        if self.family == "elo":
            return self.scale * math.log10(s / (1.0 - s))
        if self.family == "logistic":
            return self.scale * math.log(s / (1.0 - s))
        from statistics import NormalDist

        return NormalDist(0.0, self.scale).inv_cdf(s)

    def expected_score(self, r_i: float, r_j: float) -> float:
        """Expected score of the first player against the second."""
        r_i, r_j = float(r_i), float(r_j)
        if not (math.isfinite(r_i) and math.isfinite(r_j)):
            raise ValueError(f"ratings must be finite, got {r_i}, {r_j}")
        return self.cdf(r_i - r_j)


def elo(scale: float = 400.0) -> RatingModel:
    return RatingModel("elo", scale)


def logistic(scale: float) -> RatingModel:
    return RatingModel("logistic", scale)


def gaussian(sigma: float) -> RatingModel:
    return RatingModel("gaussian", sigma)


def parse_model(text: str) -> RatingModel:
    """Parse a model spec: "elo" | "elo:<scale>" | "logistic:<scale>" | "gaussian:<sigma>"."""
    text = text.strip()
    name, sep, arg = text.partition(":")
    if name == "elo" and not sep:
        return elo()
    if name not in FAMILIES:
        raise ValueError(
            f"unknown model {text!r}; expected elo[:<scale>], logistic:<scale> "
            "or gaussian:<sigma>"
        )
    if not sep:
        raise ValueError(f"model {name!r} needs an explicit scale, e.g. {name}:1.0")
    try:
        scale = float(arg)
    except ValueError:
        raise ValueError(f"bad scale {arg!r} in model spec {text!r}") from None
    return RatingModel(name, scale)
