"""CPT preference components: S-shaped utilities and probability weightings.

Utilities map nonnegative gain/loss magnitudes to nonnegative values with
u(0) = 0 and a strictly steeper loss branch.  Weightings distort cumulative
probabilities on [0, 1] with fixed endpoints w(0) = 0, w(1) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
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


def _magnitude(x: float) -> float:
    if x < 0:
        raise ValueError(f"utility argument must be >= 0, got {x}")
    return x


def _check_above(params, floor: float, *names: str) -> None:
    """Each named parameter must be finite and above ``floor``."""
    for name in names:
        value = getattr(params, name)
        if not floor < value < math.inf:
            raise ValueError(f"{name} must be finite and > {floor:g}, got {value}")


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
        _check_above(self, 1.0, "loss_aversion")

    def value(self, side: Side, x: float) -> float:
        return self.value_on(side)(x)

    def value_on(self, side: Side):
        """``value`` on one side, resolved once: a function of the magnitude alone."""
        _check_side(side)
        power, scale = (self.alpha, 1.0) if side == "gain" else (self.beta, self.loss_aversion)
        return lambda x: scale * _magnitude(x) ** power  # times 1.0 is exact

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
        _check_above(self, 0.0, "eta_gain", "eta_loss")
        _check_above(self, 1.0, "loss_aversion")

    def value(self, side: Side, x: float) -> float:
        return self.value_on(side)(x)

    def value_on(self, side: Side):
        """``value`` on one side, resolved once: a function of the magnitude alone."""
        _check_side(side)
        eta, scale = (self.eta_gain, -1.0) if side == "gain" else (self.eta_loss, -self.loss_aversion)
        return lambda x: scale * math.expm1(-eta * _magnitude(x))  # times -1.0 is exact

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


class _Weighting:
    """Two-argument methods over ``on_side(side)``: one side's functions of q alone."""

    def weight(self, side: Side, q: float) -> float:
        return self.on_side(side).weight(q)

    def derivative(self, side: Side, q: float) -> float:
        return self.on_side(side).derivative(q)


@dataclass(frozen=True)
class TverskyKahnemanWeighting(_Weighting):
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

    # the side's exponent g: w' blows up like q**(g - 1) at both endpoints
    def endpoint_exponent(self, side: Side) -> float:
        _check_side(side)
        return self.gamma if side == "gain" else self.delta

    def on_side(self, side: Side) -> SimpleNamespace:
        g = self.endpoint_exponent(side)
        g_less_one, inv_g = g - 1.0, 1.0 / g  # bound once per side, not per node

        def weight(q: float) -> float:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"probability must be in [0, 1], got {q}")
            if q == 0.0 or q == 1.0:
                return q
            a = q**g
            return a / (a + (1.0 - q) ** g) ** inv_g

        def derivative(q: float) -> float:
            if not 0.0 < q < 1.0:
                raise ValueError(f"derivative defined on (0, 1) only, got {q}")
            qg = q**g
            a = qg + (1.0 - q) ** g
            da = g * q**g_less_one - g * (1.0 - q) ** g_less_one
            return qg / a**inv_g * (g / q - da / (g * a))
        return SimpleNamespace(weight=weight, derivative=derivative)

    def derivative_array(self, side: Side, q) -> np.ndarray:
        """Vectorized derivative on arrays with entries strictly inside (0, 1)."""
        g = self.endpoint_exponent(side)
        q = np.asarray(q, dtype=float)
        a = q**g + (1.0 - q) ** g
        da = g * q ** (g - 1.0) - g * (1.0 - q) ** (g - 1.0)
        w = q**g / a ** (1.0 / g)
        return w * (g / q - da / (g * a))


@dataclass(frozen=True)
class PrelecWeighting(_Weighting):
    """Weighting exp(-delta * (-ln q)**gamma) with per-side delta."""

    gamma: float = 0.65
    delta_gain: float = 1.0
    delta_loss: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        _check_above(self, 0.0, "delta_gain", "delta_loss")

    def _delta(self, side: Side) -> float:
        _check_side(side)
        return self.delta_gain if side == "gain" else self.delta_loss

    def tail_weight(self, side: Side, sigma: float) -> float:
        """w(e**-sigma), taken in sigma so it stays exact where e**-sigma underflows."""
        return math.exp(-self._delta(side) * sigma**self.gamma)

    def tail_span(self, side: Side) -> float:
        """The sigma past which the weight left out, ``tail_weight``, is below e**-45 = 3e-20."""
        return (45.0 / self._delta(side)) ** (1.0 / self.gamma)

    def on_side(self, side: Side) -> SimpleNamespace:
        d, gamma = self._delta(side), self.gamma

        def weight(q: float) -> float:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"probability must be in [0, 1], got {q}")
            if q == 0.0:
                return 0.0
            if q == 1.0:
                return 1.0
            return math.exp(-d * (-math.log(q)) ** gamma)

        def derivative(q: float) -> float:
            if not 0.0 < q < 1.0:
                raise ValueError(f"derivative defined on (0, 1) only, got {q}")
            t = -math.log(q)
            return math.exp(-d * t**gamma) * d * gamma * t ** (gamma - 1.0) / q

        def log_tail_density(s: float) -> float:
            if s <= 0.0:
                raise ValueError(f"log-tail coordinate must be > 0, got {s}")
            return d * gamma * s ** (gamma - 1.0) * math.exp(-d * s**gamma)
        return SimpleNamespace(weight=weight, derivative=derivative,
                               log_tail_density=log_tail_density)

    def log_tail_density(self, side: Side, s: float) -> float:
        """w'(q) * q at q = exp(-s), computed from s to avoid overflow."""
        return self.on_side(side).log_tail_density(s)

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
class IdentityWeighting(_Weighting):
    """No probability distortion: w(q) = q on both sides."""

    def on_side(self, side: Side) -> SimpleNamespace:
        _check_side(side)

        def weight(q: float) -> float:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"probability must be in [0, 1], got {q}")
            return q

        def derivative(q: float) -> float:
            if not 0.0 < q < 1.0:
                raise ValueError(f"derivative defined on (0, 1) only, got {q}")
            return 1.0
        return SimpleNamespace(weight=weight, derivative=derivative)

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
