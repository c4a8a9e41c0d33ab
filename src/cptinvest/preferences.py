"""CPT preference components: S-shaped utilities and probability weightings.

Utilities map nonnegative gain/loss magnitudes to nonnegative values with
u(0) = 0 and a strictly steeper loss branch.  Weightings distort cumulative
probabilities on [0, 1] with fixed endpoints w(0) = 0, w(1) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

__all__ = [
    "Side",
    "PowerUtility",
    "ExponentialUtility",
    "UtilityPair",
    "TverskyKahnemanWeighting",
    "PrelecWeighting",
    "IdentityWeighting",
    "WeightingPair",
    "CptPreference",
]

Side = Literal["gain", "loss"]

# Below ~0.28 the inverse-S weighting form stops being strictly increasing.
_TK_MIN_EXPONENT = 0.28


def _check_side(side: str) -> None:
    if side not in ("gain", "loss"):
        raise ValueError(f"side must be 'gain' or 'loss', got {side!r}")


@dataclass(frozen=True)
class PowerUtility:
    """Piecewise power utility: x**alpha on gains, loss_aversion * x**beta on losses."""

    alpha: float = 0.88
    beta: float = 0.88
    loss_aversion: float = 2.25

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.alpha > self.beta:
            raise ValueError(f"alpha must not exceed beta, got {self.alpha} > {self.beta}")
        if not 1.0 < self.loss_aversion:
            raise ValueError(f"loss_aversion must be > 1, got {self.loss_aversion}")

    def value(self, side: Side, x: float) -> float:
        _check_side(side)
        if x < 0:
            raise ValueError(f"utility argument must be >= 0, got {x}")
        if side == "gain":
            return x**self.alpha
        return self.loss_aversion * x**self.beta

    def value_array(self, side: Side, x: np.ndarray, out=None) -> np.ndarray:
        """Vectorized ``value`` on an array of nonnegative magnitudes; ``out``
        (which may be ``x``) receives the result, as in numpy ufuncs."""
        _check_side(side)
        if side == "gain":
            return np.power(x, self.alpha, out=out)
        return np.multiply(np.power(x, self.beta, out=out), self.loss_aversion, out=out)

    def growth_powers(self, side: Side) -> tuple[float, float]:
        """Power-law exponents of the utility at zero magnitude and at infinity."""
        _check_side(side)
        power = self.alpha if side == "gain" else self.beta
        return power, power


@dataclass(frozen=True)
class ExponentialUtility:
    """Piecewise exponential utility, bounded by 1 on gains and loss_aversion on losses."""

    eta_gain: float = 1.0
    eta_loss: float = 1.0
    loss_aversion: float = 2.25

    def __post_init__(self):
        if not (0.0 < self.eta_gain and 0.0 < self.eta_loss):
            raise ValueError(
                f"curvature parameters must be > 0, got {self.eta_gain}, {self.eta_loss}"
            )
        if not 1.0 < self.loss_aversion:
            raise ValueError(f"loss_aversion must be > 1, got {self.loss_aversion}")

    def value(self, side: Side, x: float) -> float:
        _check_side(side)
        if x < 0:
            raise ValueError(f"utility argument must be >= 0, got {x}")
        if side == "gain":
            return -math.expm1(-self.eta_gain * x)
        return -self.loss_aversion * math.expm1(-self.eta_loss * x)

    def value_array(self, side: Side, x: np.ndarray, out=None) -> np.ndarray:
        """Vectorized ``value`` on an array of nonnegative magnitudes; ``out``
        (which may be ``x``) receives the result, as in numpy ufuncs."""
        _check_side(side)
        eta = self.eta_gain if side == "gain" else self.eta_loss
        out = np.negative(np.expm1(np.multiply(-eta, x, out=out), out=out), out=out)
        return out if side == "gain" else np.multiply(out, self.loss_aversion, out=out)

    def growth_powers(self, side: Side) -> tuple[float, float]:
        """Power-law exponents at zero magnitude (linear) and at infinity (bounded)."""
        _check_side(side)
        return 1.0, 0.0


UtilityPair = Union[PowerUtility, ExponentialUtility]


@dataclass(frozen=True)
class TverskyKahnemanWeighting:
    """Inverse-S weighting q**g / (q**g + (1-q)**g)**(1/g), per-side exponents."""

    gamma: float = 0.61
    delta: float = 0.69

    def __post_init__(self):
        for name, v in (("gamma", self.gamma), ("delta", self.delta)):
            if not _TK_MIN_EXPONENT <= v <= 1.0:
                raise ValueError(
                    f"{name} must be in [{_TK_MIN_EXPONENT}, 1] for a strictly "
                    f"increasing weighting, got {v}"
                )

    def _exponent(self, side: Side) -> float:
        _check_side(side)
        return self.gamma if side == "gain" else self.delta

    def weight(self, side: Side, q: float) -> float:
        g = self._exponent(side)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {q}")
        if q == 0.0 or q == 1.0:
            return q
        a = q**g
        return a / (a + (1.0 - q) ** g) ** (1.0 / g)

    def derivative(self, side: Side, q: float) -> float:
        g = self._exponent(side)
        if not 0.0 < q < 1.0:
            raise ValueError(f"derivative defined on (0, 1) only, got {q}")
        qg = q**g
        a = qg + (1.0 - q) ** g
        da = g * q ** (g - 1.0) - g * (1.0 - q) ** (g - 1.0)
        return qg / a ** (1.0 / g) * (g / q - da / (g * a))

    def derivative_array(self, side: Side, q) -> np.ndarray:
        """Vectorized derivative on arrays with entries strictly inside (0, 1)."""
        g = self._exponent(side)
        q = np.asarray(q, dtype=float)
        a = q**g + (1.0 - q) ** g
        da = g * q ** (g - 1.0) - g * (1.0 - q) ** (g - 1.0)
        w = q**g / a ** (1.0 / g)
        return w * (g / q - da / (g * a))

    # q**(exponent - 1) blow-up at both endpoints
    def endpoint_exponent(self, side: Side) -> float:
        return self._exponent(side)


@dataclass(frozen=True)
class PrelecWeighting:
    """Weighting exp(-delta * (-ln q)**gamma) with per-side delta."""

    gamma: float = 0.65
    delta_gain: float = 1.0
    delta_loss: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not (0.0 < self.delta_gain and 0.0 < self.delta_loss):
            raise ValueError(
                f"delta parameters must be > 0, got {self.delta_gain}, {self.delta_loss}"
            )

    def _delta(self, side: Side) -> float:
        _check_side(side)
        return self.delta_gain if side == "gain" else self.delta_loss

    def weight(self, side: Side, q: float) -> float:
        d = self._delta(side)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {q}")
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return 1.0
        return math.exp(-d * (-math.log(q)) ** self.gamma)

    def derivative(self, side: Side, q: float) -> float:
        d = self._delta(side)
        if not 0.0 < q < 1.0:
            raise ValueError(f"derivative defined on (0, 1) only, got {q}")
        t = -math.log(q)
        return math.exp(-d * t**self.gamma) * d * self.gamma * t ** (self.gamma - 1.0) / q

    def log_tail_density(self, side: Side, s: float) -> float:
        """w'(q) * q at q = exp(-s), computed from s to avoid overflow."""
        d = self._delta(side)
        if s <= 0.0:
            raise ValueError(f"log-tail coordinate must be > 0, got {s}")
        return d * self.gamma * s ** (self.gamma - 1.0) * math.exp(-d * s**self.gamma)

    def log_tail_density_array(self, side: Side, s) -> np.ndarray:
        """Vectorized ``log_tail_density`` on an array of coordinates s > 0."""
        d = self._delta(side)
        s = np.asarray(s, dtype=float)
        return d * self.gamma * s ** (self.gamma - 1.0) * np.exp(-d * s**self.gamma)

    def derivative_array(self, side: Side, q) -> np.ndarray:
        d = self._delta(side)
        q = np.asarray(q, dtype=float)
        t = -np.log(q)
        return np.exp(-d * t**self.gamma) * d * self.gamma * t ** (self.gamma - 1.0) / q

    def endpoint_exponent(self, side: Side) -> float:
        # near q=1 the weighting behaves like 1 - delta*(1-q)**gamma
        return self.gamma


@dataclass(frozen=True)
class IdentityWeighting:
    """No probability distortion: w(q) = q on both sides."""

    def weight(self, side: Side, q: float) -> float:
        _check_side(side)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {q}")
        return q

    def derivative(self, side: Side, q: float) -> float:
        _check_side(side)
        if not 0.0 < q < 1.0:
            raise ValueError(f"derivative defined on (0, 1) only, got {q}")
        return 1.0

    def derivative_array(self, side: Side, q) -> np.ndarray:
        _check_side(side)
        return np.ones_like(np.asarray(q, dtype=float))

    def endpoint_exponent(self, side: Side) -> float:
        _check_side(side)
        return 1.0


WeightingPair = Union[TverskyKahnemanWeighting, PrelecWeighting, IdentityWeighting]


@dataclass(frozen=True)
class CptPreference:
    """Bundle of utility pair and probability weighting pair."""

    utility: UtilityPair
    weighting: WeightingPair

    @property
    def loss_aversion(self) -> float:
        return self.utility.loss_aversion
