"""Closed-form optimal trades for continuous return laws under power utility.

Along the buy ray the objective factorizes as gain * theta**alpha -
loss_aversion * loss * theta**beta, and symmetrically along the sell ray, so
the whole problem reduces to the four per-unit prospect integrals, the two
gain/loss ratios they define, and a finite case dispatch.  Knife-edge
comparisons (loss aversion against a ratio, value ties between candidates)
are resolved inside a numerical tolerance band tied to the quadrature error
estimates; banded classifications are flagged ``boundary`` and always resolve
toward a finite optimum rather than an ill-posed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .choquet import GainLoss, gain_loss, rank_dependent_sum
from .market import (
    MarketModel,
    Portfolio,
    TradeDirection,
    check_no_arbitrage,
    excess_transform,
)
from .preferences import CptPreference, PowerUtility
from .solution import Solution

__all__ = [
    "PowerCaseInputs",
    "long_integrals",
    "short_integrals",
    "interior_candidates",
    "prospect_along",
    "solve_long",
    "solve_short",
    "solve",
    "solve_zero_initial",
    "solve_with_inputs",
    "prepare_inputs",
    "prepare_zero_initial_inputs",
    "classify",
    "classify_zero_initial",
]

_MIN_BAND = 1e-9


def _require_power(pref: CptPreference) -> PowerUtility:
    if not isinstance(pref.utility, PowerUtility):
        raise TypeError("the continuous-case solver requires the power utility pair")
    return pref.utility


def _unit_value(pref: CptPreference):
    """The per-unit value function: x**alpha on gains, x**beta on losses."""
    u = _require_power(pref)
    return lambda side, x: x ** (u.alpha if side == "gain" else u.beta)


def long_integrals(pref: CptPreference, z_law) -> GainLoss:
    """Per-unit gains/losses prospect of a buy: gains on the upper tail.

    The loss part leaves out loss aversion, which the dispatch applies.
    """
    return gain_loss(_unit_value(pref), pref.weighting, z_law)


def short_integrals(pref: CptPreference, z_law) -> GainLoss:
    """Per-unit gains/losses prospect of a sale: a buy of the negated excess return."""
    if z_law.atoms is None:
        return long_integrals(pref, z_law.affine(0.0, -1.0))
    # negate the atoms as given: DiscreteLaw.affine would renormalise their masses
    return GainLoss(*rank_dependent_sum(_unit_value(pref), pref.weighting,
                                        [(-x, p) for x, p in z_law.atoms]))


@dataclass(frozen=True)
class PowerCaseInputs:
    """Everything the case dispatch consumes, with quadrature error estimates."""

    p_loss_buy: float
    p_loss_sell: float
    gain_buy: float
    loss_buy: float
    gain_sell: float
    loss_sell: float
    alpha: float
    beta: float
    loss_aversion: float
    y0: float
    sell_unbounded: bool = False
    gain_buy_error: float = 0.0
    loss_buy_error: float = 0.0
    gain_sell_error: float = 0.0
    loss_sell_error: float = 0.0

    def _ray(self, side: str) -> GainLoss:
        """Per-unit integrals and error estimates of the "buy" or "sell" ray."""
        if side == "buy":
            return GainLoss(self.gain_buy, self.loss_buy,
                            self.gain_buy_error, self.loss_buy_error)
        return GainLoss(self.gain_sell, self.loss_sell,
                        self.gain_sell_error, self.loss_sell_error)

    def _ratio(self, side: str) -> float | None:
        ray = self._ray(side)
        return None if ray.loss <= 0.0 else ray.gain / ray.loss

    @property
    def ratio_buy(self) -> float | None:
        """Gain/loss ratio of the buy ray; None when the buy ray has no losses."""
        return self._ratio("buy")

    @property
    def ratio_sell(self) -> float | None:
        return self._ratio("sell")

    @property
    def ratio_max(self) -> float | None:
        ratios = [r for r in (self.ratio_buy, self.ratio_sell) if r is not None]
        return max(ratios) if ratios else None

    def _ratio_band(self, side: str) -> float:
        ray = self._ray(side)
        loss = ray.loss
        err = (ray.gain_error + (ray.gain / loss) * ray.loss_error) / loss if loss > 0 else 0.0
        return max(_MIN_BAND, 10.0 * err)


def _power_candidate(ratio: float, alpha: float, beta: float, k: float) -> float:
    """(alpha * ratio / (beta * k)) ** (1 / (beta - alpha)), overflow-safe."""
    if ratio <= 0.0:
        return 0.0
    t = math.log(alpha * ratio / (beta * k)) / (beta - alpha)
    if t > 709.0:
        return math.inf
    if t < -745.0:
        return 0.0
    return math.exp(t)


def interior_candidates(inputs: PowerCaseInputs) -> tuple[float, float]:
    """The interior buy candidate (>= 0) and sell candidate (<= 0).

    Only defined for alpha strictly below beta; each candidate is the unique
    stationary point of the factorized objective on its ray.
    """
    if inputs.alpha >= inputs.beta:
        raise ValueError("interior candidates are undefined when alpha equals beta")
    if inputs.ratio_buy is None:
        raise ValueError("buy ratio undefined: the buy ray has no loss mass")
    if inputs.ratio_sell is None:
        raise ValueError("sell ratio undefined: the sell ray has no loss mass")
    theta_buy = _power_candidate(inputs.ratio_buy, inputs.alpha, inputs.beta,
                                 inputs.loss_aversion)
    theta_sell = -_power_candidate(inputs.ratio_sell, inputs.alpha, inputs.beta,
                                   inputs.loss_aversion)
    return theta_buy, theta_sell


def prospect_along(inputs: PowerCaseInputs, theta: float) -> float:
    """Objective value at theta from the factorized form of its ray.

    theta > 0 lies on the buy ray and theta < 0 on the sell ray, which is a buy
    of the negated excess return: both evaluate at the trade size |theta|.
    """
    size = abs(theta)
    if size == 0.0:
        return 0.0
    ray = inputs._ray("buy" if theta > 0 else "sell")
    if math.isinf(size):
        if inputs.alpha < inputs.beta:
            return -math.inf
        edge = ray.gain - inputs.loss_aversion * ray.loss
        return math.copysign(math.inf, edge) if edge != 0.0 else 0.0
    return (ray.gain * size**inputs.alpha
            - inputs.loss_aversion * ray.loss * size**inputs.beta)


def _value_band(inputs: PowerCaseInputs, *thetas: float) -> float:
    """Resolution of a value comparison between candidate trades.

    Floored at 1e-9 of the candidates' own term magnitudes (the quadrature
    error is relative), plus ten times the propagated error estimates, so
    ties are detected at the right scale even for microscopic candidates.
    """
    err = 0.0
    scale = 0.0
    for theta in thetas:
        size = abs(theta)
        if not math.isfinite(size) or size == 0.0:
            continue
        ray = inputs._ray("buy" if theta > 0 else "sell")
        err += (ray.gain_error * size**inputs.alpha
                + inputs.loss_aversion * ray.loss_error * size**inputs.beta)
        scale += (ray.gain * size**inputs.alpha
                  + inputs.loss_aversion * ray.loss * size**inputs.beta)
    return max(_MIN_BAND * scale, 10.0 * err)


def solve_long(inputs: PowerCaseInputs) -> Solution:
    """Optimum over the buy ray theta >= 0."""
    k = inputs.loss_aversion
    if inputs.p_loss_buy >= 1.0:
        return Solution.point(0.0, "T3.2-1a", 0.0)
    if inputs.alpha < inputs.beta:
        theta = _power_candidate(inputs.ratio_buy or 0.0, inputs.alpha, inputs.beta, k)
        return Solution.point(theta, "T3.2-2", prospect_along(inputs, theta))
    ratio = inputs.ratio_buy
    if ratio is None:
        raise ValueError("buy ratio undefined despite loss probability below one")
    band = inputs._ratio_band("buy")
    if k > ratio + band:
        return Solution.point(0.0, "T3.2-1b", 0.0)
    if k < ratio - band:
        return Solution.plus_infinity("T3.2-4", math.inf)
    return Solution.interval(0.0, math.inf, "T3.2-3", 0.0, boundary=True)


def solve_short(inputs: PowerCaseInputs) -> Solution:
    """Optimum over the constrained sell segment -y0 <= theta <= 0."""
    k = inputs.loss_aversion
    y0 = inputs.y0
    if inputs.p_loss_sell <= 0.0:
        return Solution.point(-y0, "T3.3-4a", prospect_along(inputs, -y0))
    if inputs.p_loss_sell >= 1.0:
        return Solution.point(0.0, "T3.3-1a", 0.0)
    if inputs.alpha < inputs.beta:
        _, theta = interior_candidates(inputs)
        if theta < -y0:
            return Solution.point(-y0, "T3.3-4c", prospect_along(inputs, -y0))
        return Solution.point(theta, "T3.3-2", prospect_along(inputs, theta))
    ratio = inputs.ratio_sell
    band = inputs._ratio_band("sell")
    if k > ratio + band:
        return Solution.point(0.0, "T3.3-1b", 0.0)
    if k < ratio - band:
        return Solution.point(-y0, "T3.3-4b", prospect_along(inputs, -y0))
    return Solution.interval(-y0, 0.0, "T3.3-3", 0.0, boundary=True)


def classify(inputs: PowerCaseInputs) -> Solution:
    """Case dispatch: T3.1 with the sell ray ending at -y0, T3.4 when it is unbounded."""
    unbounded = inputs.sell_unbounded
    if inputs.p_loss_buy <= 0.0 or (unbounded and inputs.p_loss_sell <= 0.0):
        raise ValueError("the buy ray, and an unbounded sell ray, must carry loss "
                         "probability under no-arbitrage")
    alpha, beta, k, y0 = inputs.alpha, inputs.beta, inputs.loss_aversion, inputs.y0
    prefix = "T3.4-" if unbounded else "T3.1-"
    floor = -math.inf if unbounded else -y0
    buy_all_loss = inputs.p_loss_buy >= 1.0
    sell_all_loss = inputs.p_loss_sell >= 1.0

    def buy_end(case: str) -> Solution:
        return Solution.plus_infinity(prefix + case, math.inf)

    def sell_end(case: str, boundary: bool = False) -> Solution:
        if unbounded:
            return Solution.minus_infinity(prefix + case, math.inf, boundary=boundary)
        return Solution.point(floor, prefix + case, prospect_along(inputs, floor),
                              boundary=boundary)

    def knife(side: str, cases: str) -> Solution:
        """Equal exponents on one ray: no trade, the ray's end or a flat interval."""
        no_trade, end, flat = cases.split()
        if side == "buy":
            ratio, lo, hi, ray_end = inputs.ratio_buy, 0.0, math.inf, buy_end
        else:
            ratio, lo, hi, ray_end = inputs.ratio_sell, floor, 0.0, sell_end
        band = inputs._ratio_band(side)
        if k > ratio + band:
            return Solution.point(0.0, prefix + no_trade, 0.0)
        if k < ratio - band:
            return ray_end(end)
        return Solution.interval(lo, hi, prefix + flat, 0.0, boundary=True)

    def clamped_sell(theta_sell: float, free: str, clamped: str):
        """The interior sell candidate, held at the floor: (trade, case, near the floor)."""
        theta_band = max(_MIN_BAND, _MIN_BAND * abs(y0))
        if theta_sell < floor - theta_band:
            return floor, clamped, False
        return theta_sell, free, abs(theta_sell - floor) <= theta_band

    if inputs.p_loss_sell <= 0.0:
        # selling never loses; sell everything owned
        return sell_end("4a")

    if buy_all_loss and sell_all_loss:
        return Solution.point(0.0, prefix + "1a", 0.0)

    if buy_all_loss:
        if alpha == beta:
            return knife("sell", "1b 4b 6a")
        theta, case, near_edge = clamped_sell(interior_candidates(inputs)[1], "3a", "4c")
        return Solution.point(theta, prefix + case, prospect_along(inputs, theta),
                              boundary=near_edge)

    if sell_all_loss:
        if alpha == beta:
            return knife("buy", "1c 8a 5a")
        theta_buy, _ = interior_candidates(inputs)
        return Solution.point(theta_buy, prefix + "2a", prospect_along(inputs, theta_buy))

    # both loss probabilities interior
    if alpha == beta:
        ratio_buy, ratio_sell = inputs.ratio_buy, inputs.ratio_sell
        band_buy, band_sell = inputs._ratio_band("buy"), inputs._ratio_band("sell")
        if k < ratio_buy - band_buy:
            # the sell ray may be unbounded too; the buy direction is reported
            return buy_end("8b")
        if k <= ratio_buy + band_buy:
            if k > ratio_sell + band_sell:
                return Solution.interval(0.0, math.inf, prefix + "5b", 0.0, boundary=True)
            if k >= ratio_sell - band_sell:
                return Solution.interval(floor, math.inf, prefix + "7", 0.0, boundary=True)
            # buy ray is flat at zero while selling has positive value
            return sell_end("4e", boundary=True)
        if k > ratio_sell + band_sell:
            return Solution.point(0.0, prefix + "1d", 0.0)
        if k >= ratio_sell - band_sell:
            return Solution.interval(floor, 0.0, prefix + "6b", 0.0, boundary=True)
        # loss aversion between the two ratios: trade down to the sell floor
        return sell_end("4e")

    theta_buy, theta_sell = interior_candidates(inputs)
    value_buy = prospect_along(inputs, theta_buy)
    sell_point, sell_case, sell_boundary = clamped_sell(theta_sell, "3b", "4d")
    value_sell = prospect_along(inputs, sell_point)
    value_band = _value_band(inputs, theta_buy, sell_point)
    if value_buy >= value_sell - value_band:
        tie = abs(value_buy - value_sell) <= value_band
        return Solution.point(theta_buy, prefix + "2b", value_buy, boundary=tie)
    return Solution.point(sell_point, prefix + sell_case, value_sell, boundary=sell_boundary)


def classify_zero_initial(inputs: PowerCaseInputs) -> Solution:
    """Same dispatch as ``classify``, which reads the problem from ``sell_unbounded``."""
    return classify(inputs)


def _prepare(market: MarketModel, pref: CptPreference, y0: float,
             sell_direction: TradeDirection) -> PowerCaseInputs:
    u = _require_power(pref)
    z_buy = excess_transform(market, TradeDirection.BUY)
    z_sell = excess_transform(market, sell_direction)
    buy = long_integrals(pref, z_buy)
    sell = short_integrals(pref, z_sell)
    return PowerCaseInputs(
        p_loss_buy=z_buy.prob_below(0.0),
        p_loss_sell=z_sell.prob_above(0.0),
        gain_buy=buy.gain, loss_buy=buy.loss,
        gain_sell=sell.gain, loss_sell=sell.loss,
        alpha=u.alpha, beta=u.beta, loss_aversion=u.loss_aversion,
        y0=y0,
        sell_unbounded=sell_direction is TradeDirection.SHORT,
        gain_buy_error=buy.gain_error, loss_buy_error=buy.loss_error,
        gain_sell_error=sell.gain_error, loss_sell_error=sell.loss_error,
    )


def prepare_inputs(portfolio: Portfolio, market: MarketModel,
                   pref: CptPreference) -> PowerCaseInputs:
    """Loss probabilities and per-unit integrals for the constrained problem."""
    return _prepare(market, pref, portfolio.y0, TradeDirection.SELL)


def prepare_zero_initial_inputs(x0: float, market: MarketModel,
                                pref: CptPreference) -> PowerCaseInputs:
    """Variant without holdings: the sell side shorts and is unconstrained."""
    return _prepare(market, pref, 0.0, TradeDirection.SHORT)


def solve_with_inputs(portfolio: Portfolio, market: MarketModel, pref: CptPreference,
                      zero_initial: bool = False) -> tuple[Solution, PowerCaseInputs]:
    """Checked solve and the inputs it classified; ``zero_initial`` uses x0 alone."""
    if not zero_initial and portfolio.y0 <= 0:
        raise ValueError("the constrained solver requires positive initial holdings y0")
    arb = check_no_arbitrage(market)
    if not arb:
        raise ValueError(f"market admits arbitrage or is degenerate: {arb.reason}")
    if zero_initial:
        inputs = prepare_zero_initial_inputs(portfolio.x0, market, pref)
    else:
        inputs = prepare_inputs(portfolio, market, pref)
    return classify(inputs), inputs


def solve(portfolio: Portfolio, market: MarketModel, pref: CptPreference) -> Solution:
    """Optimal trade with positive holdings and no short selling (theta >= -y0)."""
    return solve_with_inputs(portfolio, market, pref)[0]


def solve_zero_initial(x0: float, market: MarketModel, pref: CptPreference) -> Solution:
    """Optimal unconstrained trade from an all-cash position (y0 = 0)."""
    return solve_with_inputs(Portfolio(x0, 0.0), market, pref, zero_initial=True)[0]
