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
from dataclasses import dataclass, replace

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
    """The per-unit value function of each side: x**alpha on gains, x**beta on losses."""
    u = _require_power(pref)
    # p.__rpow__ is the function x -> x ** p
    return lambda side: (u.alpha if side == "gain" else u.beta).__rpow__


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
    """Everything the case dispatch consumes; the ray records carry quadrature errors."""

    p_loss_buy: float
    p_loss_sell: float
    buy: GainLoss
    sell: GainLoss
    alpha: float
    beta: float
    loss_aversion: float
    y0: float
    sell_unbounded: bool = False

    def _ray(self, side: str) -> GainLoss:
        """Per-unit integrals and error estimates of the "buy" or "sell" ray."""
        return self.buy if side == "buy" else self.sell

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


def interior_candidates(inputs: PowerCaseInputs) -> tuple[float, float] | None:
    """The interior buy candidate (>= 0) and sell candidate (<= 0), or None.

    Only defined for alpha strictly below beta and rays that both carry loss
    mass; each candidate is the unique stationary point of the factorized
    objective on its ray.
    """
    ratio_buy, ratio_sell = inputs.ratio_buy, inputs.ratio_sell
    if inputs.alpha >= inputs.beta or ratio_buy is None or ratio_sell is None:
        return None
    return (_power_candidate(ratio_buy, inputs.alpha, inputs.beta, inputs.loss_aversion),
            -_power_candidate(ratio_sell, inputs.alpha, inputs.beta, inputs.loss_aversion))


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


def _ray_end(inputs: PowerCaseInputs, end: float, case_id: str) -> Solution:
    """Trade to the end of a ray: the sell floor -y0, or without bound."""
    if end == math.inf:
        return Solution.plus_infinity(case_id, math.inf)
    if end == -math.inf:
        return Solution.minus_infinity(case_id, math.inf)
    return Solution.point(end, case_id, prospect_along(inputs, end))


def _solve_ray(inputs: PowerCaseInputs, side: str, floor: float = -math.inf) -> Solution:
    """Optimum over one ray: T3.2 on the buy ray [0, inf), T3.3 on the sell ray [floor, 0].

    The sell floor is -y0, or -inf when the sale is a short.
    """
    buy = side == "buy"
    prefix, end = ("T3.2-", math.inf) if buy else ("T3.3-", floor)
    p_loss = inputs.p_loss_buy if buy else inputs.p_loss_sell
    if p_loss <= 0.0 and not buy:
        # selling never loses; sell everything owned
        return _ray_end(inputs, end, prefix + "4a")
    if p_loss >= 1.0:
        return Solution.point(0.0, prefix + "1a", 0.0)
    ratio = inputs._ratio(side)
    if ratio is None:
        raise ValueError(f"{side} ratio undefined despite loss probability below one")
    k = inputs.loss_aversion
    if inputs.alpha < inputs.beta:
        size = _power_candidate(ratio, inputs.alpha, inputs.beta, k)
        limit = abs(end)
        # a candidate within the band of the floor keeps its value, flagged
        band = max(_MIN_BAND, _MIN_BAND * abs(inputs.y0))
        if size > limit + band:
            return _ray_end(inputs, end, prefix + "4c")
        if math.isinf(size):
            raise ValueError(f"the {side} ray's interior candidate overflows the float range")
        theta = size if buy else -size
        return Solution.point(theta, prefix + "2", prospect_along(inputs, theta),
                              boundary=abs(size - limit) <= band)
    # equal exponents: no trade, the ray's end, or a flat interval
    gl = inputs._ray(side)
    band = max(_MIN_BAND, 10.0 * ((gl.gain_error + ratio * gl.loss_error) / gl.loss))
    if k > ratio + band:
        return Solution.point(0.0, prefix + "1b", 0.0)
    if k < ratio - band:
        return _ray_end(inputs, end, prefix + ("4" if buy else "4b"))
    return Solution.interval(min(0.0, end), max(0.0, end), prefix + "3", 0.0, boundary=True)


def _answer(ray: Solution, side: str) -> Solution:
    """A ray optimum given as the answer: an interior candidate (case 2) that
    underflowed to no trade is refused, since its label promises a trade."""
    if ray.case_id[5:] == "2" and ray.theta == 0.0:
        raise ValueError(f"the {side} ray's interior candidate underflows to no trade")
    return ray


def solve_long(inputs: PowerCaseInputs) -> Solution:
    """Optimum over the buy ray theta >= 0 (T3.2)."""
    return _answer(_solve_ray(inputs, "buy"), "buy")


def solve_short(inputs: PowerCaseInputs) -> Solution:
    """Optimum over the constrained sell segment -y0 <= theta <= 0 (T3.3)."""
    return _answer(_solve_ray(inputs, "sell", -inputs.y0), "sell")


# T3.1/T3.4 case of each pair of T3.2 (buy) and T3.3 (sell) cases; for the two
# pairs of interior candidates it is the sale's case, taken when the sale is worth more
_MERGED = {
    ("1a", "1a"): "1a", ("1a", "1b"): "1b", ("1a", "4b"): "4b", ("1a", "3"): "6a",
    ("1a", "2"): "3a", ("1a", "4c"): "4c",
    ("1b", "1a"): "1c", ("4", "1a"): "8a", ("3", "1a"): "5a", ("2", "1a"): "2a",
    ("1b", "1b"): "1d", ("1b", "3"): "6b", ("1b", "4b"): "4e",
    ("3", "1b"): "5b", ("3", "3"): "7", ("3", "4b"): "4e",
    ("4", "1b"): "8b", ("4", "3"): "8b", ("4", "4b"): "8b",
    ("2", "2"): "3b", ("2", "4c"): "4d",
}


def classify(inputs: PowerCaseInputs) -> Solution:
    """Case dispatch: T3.1 with the sell ray ending at -y0, T3.4 when it is unbounded.

    Both rays are solved on their own (T3.2, T3.3) and their cases merged.
    """
    unbounded = inputs.sell_unbounded
    if inputs.p_loss_buy <= 0.0 or (unbounded and inputs.p_loss_sell <= 0.0):
        raise ValueError("the buy ray, and an unbounded sell ray, must carry loss "
                         "probability under no-arbitrage")
    prefix = "T3.4-" if unbounded else "T3.1-"
    floor = -math.inf if unbounded else -inputs.y0
    sell = _solve_ray(inputs, "sell", floor)
    sell_case = sell.case_id[5:]
    if sell_case == "4a":
        return replace(sell, case_id=prefix + "4a")
    buy = _solve_ray(inputs, "buy")
    buy_case = buy.case_id[5:]
    case = _MERGED[buy_case, sell_case]
    if case == "7":
        # both rays flat at zero
        return Solution.interval(floor, math.inf, prefix + case, 0.0, boundary=True)
    if case in ("3b", "4d"):
        value_band = _value_band(inputs, buy.theta, sell.theta)
        if buy.prospect >= sell.prospect - value_band:
            tie = abs(buy.prospect - sell.prospect) <= value_band
            return replace(_answer(buy, "buy"), case_id=prefix + "2b", boundary=tie)
    elif buy_case == "4" or sell_case in ("1a", "1b"):
        # the buy ray decides: it is ill-posed (the sale may be too), or the sale cannot gain
        return replace(_answer(buy, "buy"), case_id=prefix + case)
    # a flat buy ray leaves the sale's corner a knife edge
    return replace(_answer(sell, "sell"), case_id=prefix + case,
                   boundary=sell.boundary or buy_case == "3")


def classify_zero_initial(inputs: PowerCaseInputs) -> Solution:
    """Same dispatch as ``classify``, which reads the problem from ``sell_unbounded``."""
    return classify(inputs)


def _prepare(market: MarketModel, pref: CptPreference, y0: float,
             sell_direction: TradeDirection) -> PowerCaseInputs:
    u = _require_power(pref)
    z_buy = excess_transform(market, TradeDirection.BUY)
    z_sell = excess_transform(market, sell_direction)
    return PowerCaseInputs(
        p_loss_buy=z_buy.prob_below(0.0),
        p_loss_sell=z_sell.prob_above(0.0),
        buy=long_integrals(pref, z_buy),
        sell=short_integrals(pref, z_sell),
        alpha=u.alpha, beta=u.beta, loss_aversion=u.loss_aversion,
        y0=y0,
        sell_unbounded=sell_direction is TradeDirection.SHORT,
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
    check_no_arbitrage(market).require()
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
