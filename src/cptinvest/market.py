"""Single-period frictional market: returns, wealth dynamics, reference point.

The risky asset trades at ask S and bid (1 - lam) * S; the risk-free leg is
frictionless.  The excess-return transforms expose, per unit of money traded,
the wealth difference against the do-nothing benchmark for the three trade
directions (buying, selling existing holdings, shorting).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union

from .distributions import (
    ContinuousLaw,
    DiscreteLaw,
    LognormalBase,
    NormalBase,
    SignedDistribution,
    StudentTBase,
)

__all__ = [
    "Lognormal",
    "Normal",
    "StudentT",
    "Binomial",
    "Empirical",
    "ReturnLaw",
    "MarketModel",
    "Portfolio",
    "TradeDirection",
    "ArbitrageCheck",
    "terminal_wealth",
    "reference_wealth",
    "check_no_arbitrage",
    "excess_transform",
]


@dataclass(frozen=True)
class _MuSigma:
    """The parameters of a normal law: finite mu, finite sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 < self.sigma < math.inf):
            raise ValueError(f"need finite mu and sigma > 0, got {self.mu}, {self.sigma}")


@dataclass(frozen=True)
class Lognormal(_MuSigma):
    """ln(1 + R) ~ N(mu, sigma^2)."""

    def gross_law(self) -> SignedDistribution:
        return ContinuousLaw(LognormalBase(self.mu, self.sigma))


@dataclass(frozen=True)
class Normal(_MuSigma):
    """R ~ N(mu, sigma^2); the gross return 1 + R inherits the shift."""

    def gross_law(self) -> SignedDistribution:
        return ContinuousLaw(NormalBase(), shift=1.0 + self.mu, scale=self.sigma)


@dataclass(frozen=True)
class StudentT:
    """R ~ loc + scale * t(nu)."""

    nu: float
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.nu < math.inf:
            raise ValueError(f"nu must be finite and > 0, got {self.nu}")
        if not (math.isfinite(self.loc) and 0.0 < self.scale < math.inf):
            raise ValueError(f"need finite loc and scale > 0, got {self.loc}, {self.scale}")

    def gross_law(self) -> SignedDistribution:
        return ContinuousLaw(StudentTBase(self.nu), shift=1.0 + self.loc, scale=self.scale)


@dataclass(frozen=True)
class Binomial:
    """Two-state gross return: u with probability 1 - p, d with probability p."""

    u: float
    d: float
    p: float

    def __post_init__(self):
        if not math.inf > self.u > self.d > 0:
            raise ValueError(f"need finite u > d > 0, got u={self.u}, d={self.d}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"down-state probability must be in (0, 1), got {self.p}")

    def gross_law(self) -> DiscreteLaw:
        return DiscreteLaw([self.d, self.u], [self.p, 1.0 - self.p])


@dataclass(frozen=True)
class Empirical:
    """Equally weighted sample of observed gross returns."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("empirical law needs at least one observation")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("empirical observations must be finite")
        object.__setattr__(self, "values", tuple(sorted(float(v) for v in self.values)))

    def gross_law(self) -> DiscreteLaw:
        n = len(self.values)
        return DiscreteLaw(self.values, [1.0 / n] * n)


ReturnLaw = Union[Lognormal, Normal, StudentT, Binomial, Empirical]


@dataclass(frozen=True)
class MarketModel:
    """Risk-free return r over the period, cost rate lam, risky returns and their law."""

    r: float
    lam: float
    returns: ReturnLaw
    law: SignedDistribution = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.r < math.inf:
            raise ValueError(f"risk-free return must be finite and >= 0, got {self.r}")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"cost rate must be in [0, 1), got {self.lam}")
        object.__setattr__(self, "law", self.returns.gross_law())


@dataclass(frozen=True)
class Portfolio:
    """Initial money in the riskless (x0) and risky (y0) asset."""

    x0: float
    y0: float

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValueError("portfolio positions must be finite")


class TradeDirection(enum.Enum):
    """Which excess-return transform governs the trade."""

    BUY = "buy"          # adding theta > 0 to the risky position
    SELL = "sell"        # selling owned shares, -y0 <= theta <= 0
    SHORT = "short"      # selling from a zero position, theta <= 0


def terminal_wealth(p: Portfolio, m: MarketModel, theta: float, gross: float) -> float:
    """Liquidation wealth after trading theta at time 0, given gross return."""
    held = p.y0 + theta
    cost = m.lam * (gross * max(held, 0.0) + (1.0 + m.r) * max(-theta, 0.0))
    return (1.0 + m.r) * (p.x0 - theta) + gross * held - cost


def reference_wealth(p: Portfolio, m: MarketModel, gross: float) -> float:
    """Terminal wealth of doing nothing (the reference point, pathwise).

    Evaluated through the same expression as ``terminal_wealth`` so the
    wealth difference at theta = 0 cancels exactly, bit for bit.
    """
    return terminal_wealth(p, m, 0.0, gross)


def excess_transform(m: MarketModel, direction: TradeDirection) -> SignedDistribution:
    """Per-unit wealth difference against the benchmark for the given direction."""
    one_r = 1.0 + m.r
    keep = 1.0 - m.lam
    if direction is TradeDirection.BUY:
        return m.law.affine(-one_r, keep)
    if direction is TradeDirection.SELL:
        return m.law.affine(-keep * one_r, keep)
    if direction is TradeDirection.SHORT:
        return m.law.affine(-keep * one_r, 1.0)
    raise ValueError(f"unknown trade direction {direction!r}")


@dataclass(frozen=True)
class ArbitrageCheck:
    passed: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.passed

    def require(self) -> None:
        """Raise ``ValueError`` with the reason if the check failed."""
        if not self.passed:
            raise ValueError(f"market admits arbitrage or is degenerate: {self.reason}")


def check_no_arbitrage(m: MarketModel) -> ArbitrageCheck:
    """Both strict trade opportunities must exist; degenerate identities fail too.

    Requires P(gross < (1+r)/(1-lam)) > 0 and P(gross > (1-lam)(1+r)) > 0; a
    gross return identically equal to either threshold is rejected as
    degenerate even though it admits no arbitrage.
    """
    law = m.law
    thr_down = (1.0 + m.r) / (1.0 - m.lam)
    thr_up = (1.0 - m.lam) * (1.0 + m.r)

    # a law with two or more atoms is never identically one value: its atoms are distinct
    if law.atoms is not None and len(law.atoms) == 1:
        [(x, _)] = law.atoms
        for thr, what in ((thr_down, "discounted gross return identically risk-free"),
                          (thr_up, "gross return identically the bid-adjusted risk-free")):
            if abs(x - thr) <= 1e-12 * max(1.0, abs(thr)):
                return ArbitrageCheck(False, f"degenerate: {what}")

    if law.prob_below(thr_down) <= 0.0:
        return ArbitrageCheck(
            False,
            f"risky asset dominates: P(gross < {thr_down:.6g}) = 0",
        )
    if law.prob_above(thr_up) <= 0.0:
        return ArbitrageCheck(
            False,
            f"risk-free dominates: P(gross > {thr_up:.6g}) = 0",
        )
    return ArbitrageCheck(True)

