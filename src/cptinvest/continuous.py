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

from .choquet import check_finiteness, distorted_tail_integral
from .market import (
    MarketModel,
    Portfolio,
    TradeDirection,
    check_no_arbitrage,
    excess_transform,
    loss_set_probabilities,
)
from .preferences import CptPreference, PowerUtility, WeightingPair
from .solution import Solution

__all__ = [
    "GainLoss",
    "PowerCaseInputs",
    "long_integrals",
    "short_integrals",
    "k_ratios",
    "interior_candidates",
    "prospect_along_buy",
    "prospect_along_sell",
    "solve_long",
    "solve_short",
    "solve",
    "solve_zero_initial",
    "solve_with_inputs",
    "prepare_inputs",
    "prepare_zero_initial_inputs",
    "classify",
    "classify_zero_initial",
    "ill_posed_condition_holds",
]

_MIN_BAND = 1e-9


@dataclass(frozen=True)
class GainLoss:
    """Per-unit prospect of gains and of losses (loss part excludes loss aversion)."""

    gain: float
    loss: float
    gain_error: float = 0.0
    loss_error: float = 0.0

    def __iter__(self):
        return iter((self.gain, self.loss))


def _discrete_upper_tail(atoms, exponent: float, weighting: WeightingPair, side: str) -> float:
    cum = 0.0
    value = 0.0
    for x, p in sorted(atoms, reverse=True):
        if x <= 0.0:
            break
        nxt = min(cum + p, 1.0)
        value += x**exponent * (weighting.weight(side, nxt) - weighting.weight(side, cum))
        cum = nxt
    return value


def _discrete_lower_tail(atoms, exponent: float, weighting: WeightingPair, side: str) -> float:
    cum = 0.0
    value = 0.0
    for x, p in sorted(atoms):
        if x >= 0.0:
            break
        nxt = min(cum + p, 1.0)
        value += (-x) ** exponent * (weighting.weight(side, nxt) - weighting.weight(side, cum))
        cum = nxt
    return value


def _upper_tail_integral(law, exponent: float, weighting: WeightingPair, side: str):
    """integral of z**exponent against the distorted upper tail of the law."""
    if law.atoms is not None:
        return _discrete_upper_tail(law.atoms, exponent, weighting, side), 0.0

    def outcome(q):
        return max(law.isf(q), 0.0) ** exponent

    outcome_logq = None
    if getattr(law, "has_log_tail_quantiles", False):

        def outcome_logq(s):
            return max(law.isf_logq(-s), 0.0) ** exponent

    return distorted_tail_integral(outcome, weighting, side, law.sf(0.0),
                                   outcome_logq=outcome_logq)


def _lower_tail_integral(law, exponent: float, weighting: WeightingPair, side: str):
    """integral of (-z)**exponent against the distorted lower tail of the law."""
    if law.atoms is not None:
        return _discrete_lower_tail(law.atoms, exponent, weighting, side), 0.0

    def outcome(q):
        return max(-law.ppf(q), 0.0) ** exponent

    outcome_logq = None
    if getattr(law, "has_log_tail_quantiles", False):

        def outcome_logq(s):
            return max(-law.ppf_logq(-s), 0.0) ** exponent

    return distorted_tail_integral(outcome, weighting, side, law.cdf(0.0),
                                   outcome_logq=outcome_logq)


def _require_power(pref: CptPreference) -> PowerUtility:
    if not isinstance(pref.utility, PowerUtility):
        raise TypeError("the continuous-case solver requires the power utility pair")
    return pref.utility


def long_integrals(pref: CptPreference, z_law) -> GainLoss:
    """Per-unit gains/losses prospect of a buy: gains on the upper tail."""
    u = _require_power(pref)
    gain, gain_err = _upper_tail_integral(z_law, u.alpha, pref.weighting, "gain")
    loss, loss_err = _lower_tail_integral(z_law, u.beta, pref.weighting, "loss")
    return GainLoss(gain, loss, gain_err, loss_err)


def short_integrals(pref: CptPreference, z_law) -> GainLoss:
    """Per-unit gains/losses prospect of a sale: gains on the lower tail."""
    u = _require_power(pref)
    gain, gain_err = _lower_tail_integral(z_law, u.alpha, pref.weighting, "gain")
    loss, loss_err = _upper_tail_integral(z_law, u.beta, pref.weighting, "loss")
    return GainLoss(gain, loss, gain_err, loss_err)


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

    @property
    def ratio_buy(self) -> float | None:
        """Gain/loss ratio of the buy ray; None when the buy ray has no losses."""
        if self.loss_buy <= 0.0:
            return None
        return self.gain_buy / self.loss_buy

    @property
    def ratio_sell(self) -> float | None:
        if self.loss_sell <= 0.0:
            return None
        return self.gain_sell / self.loss_sell

    @property
    def ratio_max(self) -> float | None:
        ratios = [r for r in (self.ratio_buy, self.ratio_sell) if r is not None]
        return max(ratios) if ratios else None

    def _ratio_band(self, which: str) -> float:
        if which == "buy":
            gain, loss = self.gain_buy, self.loss_buy
            ge, le = self.gain_buy_error, self.loss_buy_error
        else:
            gain, loss = self.gain_sell, self.loss_sell
            ge, le = self.gain_sell_error, self.loss_sell_error
        err = (ge + (gain / loss) * le) / loss if loss > 0 else 0.0
        return max(_MIN_BAND, 10.0 * err)


def k_ratios(inputs: PowerCaseInputs):
    """(buy ratio, sell ratio, their max); entries are None when undefined."""
    return inputs.ratio_buy, inputs.ratio_sell, inputs.ratio_max


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


def prospect_along_buy(inputs: PowerCaseInputs, theta: float) -> float:
    """Objective value at theta >= 0 from the factorized form."""
    if theta < 0:
        raise ValueError(f"buy-ray theta must be >= 0, got {theta}")
    if theta == 0.0:
        return 0.0
    if math.isinf(theta):
        if inputs.alpha < inputs.beta:
            return -math.inf
        edge = inputs.gain_buy - inputs.loss_aversion * inputs.loss_buy
        return math.copysign(math.inf, edge) if edge != 0.0 else 0.0
    return (inputs.gain_buy * theta**inputs.alpha
            - inputs.loss_aversion * inputs.loss_buy * theta**inputs.beta)


def prospect_along_sell(inputs: PowerCaseInputs, theta: float) -> float:
    """Objective value at theta <= 0 from the factorized form."""
    if theta > 0:
        raise ValueError(f"sell-ray theta must be <= 0, got {theta}")
    size = -theta
    if size == 0.0:
        return 0.0
    if math.isinf(size):
        if inputs.alpha < inputs.beta:
            return -math.inf
        edge = inputs.gain_sell - inputs.loss_aversion * inputs.loss_sell
        return math.copysign(math.inf, edge) if edge != 0.0 else 0.0
    return (inputs.gain_sell * size**inputs.alpha
            - inputs.loss_aversion * inputs.loss_sell * size**inputs.beta)


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
        if theta > 0:
            gain, loss = inputs.gain_buy, inputs.loss_buy
            gain_err, loss_err = inputs.gain_buy_error, inputs.loss_buy_error
        else:
            gain, loss = inputs.gain_sell, inputs.loss_sell
            gain_err, loss_err = inputs.gain_sell_error, inputs.loss_sell_error
        err += (gain_err * size**inputs.alpha
                + inputs.loss_aversion * loss_err * size**inputs.beta)
        scale += (gain * size**inputs.alpha
                  + inputs.loss_aversion * loss * size**inputs.beta)
    return max(_MIN_BAND * scale, 10.0 * err)


def solve_long(inputs: PowerCaseInputs) -> Solution:
    """Optimum over the buy ray theta >= 0."""
    k = inputs.loss_aversion
    if inputs.p_loss_buy >= 1.0:
        return Solution.point(0.0, "T3.2-1a", 0.0)
    if inputs.alpha < inputs.beta:
        theta = _power_candidate(inputs.ratio_buy or 0.0, inputs.alpha, inputs.beta, k)
        return Solution.point(theta, "T3.2-2", prospect_along_buy(inputs, theta))
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
        return Solution.point(-y0, "T3.3-4a", prospect_along_sell(inputs, -y0))
    if inputs.p_loss_sell >= 1.0:
        return Solution.point(0.0, "T3.3-1a", 0.0)
    if inputs.alpha < inputs.beta:
        _, theta = interior_candidates(inputs)
        if theta < -y0:
            return Solution.point(-y0, "T3.3-4c", prospect_along_sell(inputs, -y0))
        return Solution.point(theta, "T3.3-2", prospect_along_sell(inputs, theta))
    ratio = inputs.ratio_sell
    band = inputs._ratio_band("sell")
    if k > ratio + band:
        return Solution.point(0.0, "T3.3-1b", 0.0)
    if k < ratio - band:
        return Solution.point(-y0, "T3.3-4b", prospect_along_sell(inputs, -y0))
    return Solution.interval(-y0, 0.0, "T3.3-3", 0.0, boundary=True)


def _dispatch_constrained(inputs: PowerCaseInputs) -> Solution:
    if inputs.p_loss_buy <= 0.0:
        raise ValueError("buy ray must carry loss probability under no-arbitrage")
    alpha, beta, k, y0 = inputs.alpha, inputs.beta, inputs.loss_aversion, inputs.y0
    buy_all_loss = inputs.p_loss_buy >= 1.0
    sell_all_loss = inputs.p_loss_sell >= 1.0

    if inputs.p_loss_sell <= 0.0:
        # selling never loses; sell everything owned
        return Solution.point(-y0, "T3.1-4a", prospect_along_sell(inputs, -y0))

    if buy_all_loss and sell_all_loss:
        return Solution.point(0.0, "T3.1-1a", 0.0)

    if buy_all_loss:
        if alpha == beta:
            ratio = inputs.ratio_sell
            band = inputs._ratio_band("sell")
            if k > ratio + band:
                return Solution.point(0.0, "T3.1-1b", 0.0)
            if k < ratio - band:
                return Solution.point(-y0, "T3.1-4b", prospect_along_sell(inputs, -y0))
            return Solution.interval(-y0, 0.0, "T3.1-6a", 0.0, boundary=True)
        _, theta_sell = interior_candidates(inputs)
        theta_band = max(_MIN_BAND, _MIN_BAND * abs(y0))
        if theta_sell < -y0 - theta_band:
            return Solution.point(-y0, "T3.1-4c", prospect_along_sell(inputs, -y0))
        near_edge = abs(theta_sell + y0) <= theta_band
        return Solution.point(theta_sell, "T3.1-3a",
                              prospect_along_sell(inputs, theta_sell), boundary=near_edge)

    if sell_all_loss:
        if alpha == beta:
            ratio = inputs.ratio_buy
            band = inputs._ratio_band("buy")
            if k > ratio + band:
                return Solution.point(0.0, "T3.1-1c", 0.0)
            if k < ratio - band:
                return Solution.plus_infinity("T3.1-8a", math.inf)
            return Solution.interval(0.0, math.inf, "T3.1-5a", 0.0, boundary=True)
        theta_buy, _ = interior_candidates(inputs)
        return Solution.point(theta_buy, "T3.1-2a", prospect_along_buy(inputs, theta_buy))

    # both loss probabilities interior
    if alpha == beta:
        ratio_buy, ratio_sell = inputs.ratio_buy, inputs.ratio_sell
        band_buy, band_sell = inputs._ratio_band("buy"), inputs._ratio_band("sell")
        if k < ratio_buy - band_buy:
            return Solution.plus_infinity("T3.1-8b", math.inf)
        near_buy = k <= ratio_buy + band_buy
        if near_buy:
            if k > ratio_sell + band_sell:
                return Solution.interval(0.0, math.inf, "T3.1-5b", 0.0, boundary=True)
            if k >= ratio_sell - band_sell:
                return Solution.interval(-y0, math.inf, "T3.1-7", 0.0, boundary=True)
            # buy ray is flat at zero while selling has positive value
            return Solution.point(-y0, "T3.1-4e", prospect_along_sell(inputs, -y0),
                                  boundary=True)
        if k > ratio_sell + band_sell:
            return Solution.point(0.0, "T3.1-1d", 0.0)
        if k >= ratio_sell - band_sell:
            return Solution.interval(-y0, 0.0, "T3.1-6b", 0.0, boundary=True)
        # loss aversion between the two ratios: trade down to the constraint
        return Solution.point(-y0, "T3.1-4e", prospect_along_sell(inputs, -y0))

    theta_buy, theta_sell = interior_candidates(inputs)
    value_buy = prospect_along_buy(inputs, theta_buy)
    theta_band = max(_MIN_BAND, _MIN_BAND * abs(y0))
    if theta_sell < -y0 - theta_band:
        sell_point, sell_label = -y0, "T3.1-4d"
        sell_boundary = False
    else:
        sell_point, sell_label = theta_sell, "T3.1-3b"
        sell_boundary = abs(theta_sell + y0) <= theta_band
    value_sell = prospect_along_sell(inputs, sell_point)
    value_band = _value_band(inputs, theta_buy, sell_point)
    if value_buy >= value_sell - value_band:
        tie = abs(value_buy - value_sell) <= value_band
        return Solution.point(theta_buy, "T3.1-2b", value_buy, boundary=tie)
    return Solution.point(sell_point, sell_label, value_sell, boundary=sell_boundary)


def _dispatch_zero_initial(inputs: PowerCaseInputs) -> Solution:
    if inputs.p_loss_buy <= 0.0 or inputs.p_loss_sell <= 0.0:
        raise ValueError("loss probabilities must be positive under no-arbitrage")
    alpha, beta, k = inputs.alpha, inputs.beta, inputs.loss_aversion
    buy_all_loss = inputs.p_loss_buy >= 1.0
    short_all_loss = inputs.p_loss_sell >= 1.0

    if buy_all_loss and short_all_loss:
        return Solution.point(0.0, "T3.4-1a", 0.0)

    if buy_all_loss:
        if alpha == beta:
            ratio = inputs.ratio_sell
            band = inputs._ratio_band("sell")
            if k > ratio + band:
                return Solution.point(0.0, "T3.4-1b", 0.0)
            if k < ratio - band:
                return Solution.minus_infinity("T3.4-4b", math.inf)
            return Solution.interval(-math.inf, 0.0, "T3.4-6a", 0.0, boundary=True)
        _, theta_sell = interior_candidates(inputs)
        return Solution.point(theta_sell, "T3.4-3a", prospect_along_sell(inputs, theta_sell))

    if short_all_loss:
        if alpha == beta:
            ratio = inputs.ratio_buy
            band = inputs._ratio_band("buy")
            if k > ratio + band:
                return Solution.point(0.0, "T3.4-1c", 0.0)
            if k < ratio - band:
                return Solution.plus_infinity("T3.4-8a", math.inf)
            return Solution.interval(0.0, math.inf, "T3.4-5a", 0.0, boundary=True)
        theta_buy, _ = interior_candidates(inputs)
        return Solution.point(theta_buy, "T3.4-2a", prospect_along_buy(inputs, theta_buy))

    if alpha == beta:
        ratio_buy, ratio_sell = inputs.ratio_buy, inputs.ratio_sell
        band_buy, band_sell = inputs._ratio_band("buy"), inputs._ratio_band("sell")
        if k < ratio_buy - band_buy:
            # the sell ray may be unbounded too; the buy direction is reported
            return Solution.plus_infinity("T3.4-8b", math.inf)
        near_buy = k <= ratio_buy + band_buy
        if near_buy:
            if k > ratio_sell + band_sell:
                return Solution.interval(0.0, math.inf, "T3.4-5b", 0.0, boundary=True)
            if k >= ratio_sell - band_sell:
                return Solution.interval(-math.inf, math.inf, "T3.4-7", 0.0, boundary=True)
            return Solution.minus_infinity("T3.4-4e", math.inf, boundary=True)
        if k > ratio_sell + band_sell:
            return Solution.point(0.0, "T3.4-1d", 0.0)
        if k >= ratio_sell - band_sell:
            return Solution.interval(-math.inf, 0.0, "T3.4-6b", 0.0, boundary=True)
        return Solution.minus_infinity("T3.4-4e", math.inf)

    theta_buy, theta_sell = interior_candidates(inputs)
    value_buy = prospect_along_buy(inputs, theta_buy)
    value_sell = prospect_along_sell(inputs, theta_sell)
    value_band = _value_band(inputs, theta_buy, theta_sell)
    if value_buy >= value_sell - value_band:
        tie = abs(value_buy - value_sell) <= value_band
        return Solution.point(theta_buy, "T3.4-2b", value_buy, boundary=tie)
    return Solution.point(theta_sell, "T3.4-3b", value_sell)


def prepare_inputs(portfolio: Portfolio, market: MarketModel,
                   pref: CptPreference) -> PowerCaseInputs:
    """Loss probabilities and per-unit integrals for the constrained problem."""
    u = _require_power(pref)
    probs = loss_set_probabilities(market)
    buy = long_integrals(pref, excess_transform(market, TradeDirection.BUY))
    sell = short_integrals(pref, excess_transform(market, TradeDirection.SELL))
    return PowerCaseInputs(
        p_loss_buy=probs.buy,
        p_loss_sell=probs.sell,
        gain_buy=buy.gain, loss_buy=buy.loss,
        gain_sell=sell.gain, loss_sell=sell.loss,
        alpha=u.alpha, beta=u.beta, loss_aversion=u.loss_aversion,
        y0=portfolio.y0,
        gain_buy_error=buy.gain_error, loss_buy_error=buy.loss_error,
        gain_sell_error=sell.gain_error, loss_sell_error=sell.loss_error,
    )


def prepare_zero_initial_inputs(x0: float, market: MarketModel,
                                pref: CptPreference) -> PowerCaseInputs:
    """Variant without holdings: the sell side shorts and is unconstrained."""
    u = _require_power(pref)
    probs = loss_set_probabilities(market)
    buy = long_integrals(pref, excess_transform(market, TradeDirection.BUY))
    sell = short_integrals(pref, excess_transform(market, TradeDirection.SHORT))
    return PowerCaseInputs(
        p_loss_buy=probs.buy,
        p_loss_sell=probs.short,
        gain_buy=buy.gain, loss_buy=buy.loss,
        gain_sell=sell.gain, loss_sell=sell.loss,
        alpha=u.alpha, beta=u.beta, loss_aversion=u.loss_aversion,
        y0=0.0,
        sell_unbounded=True,
        gain_buy_error=buy.gain_error, loss_buy_error=buy.loss_error,
        gain_sell_error=sell.gain_error, loss_sell_error=sell.loss_error,
    )


def classify(inputs: PowerCaseInputs) -> Solution:
    """Case dispatch for the constrained problem (theta >= -y0)."""
    return _dispatch_constrained(inputs)


def classify_zero_initial(inputs: PowerCaseInputs) -> Solution:
    """Case dispatch for the unconstrained all-cash problem."""
    return _dispatch_zero_initial(inputs)


def _check_market(market: MarketModel, pref: CptPreference) -> None:
    arb = check_no_arbitrage(market)
    if not arb:
        raise ValueError(f"market admits arbitrage or is degenerate: {arb.reason}")
    check_finiteness(pref, market.returns)  # divergence still surfaces from quadrature


def solve_with_inputs(portfolio: Portfolio, market: MarketModel, pref: CptPreference,
                      zero_initial: bool = False) -> tuple[Solution, PowerCaseInputs]:
    """Checked solve and the inputs it classified; ``zero_initial`` uses x0 alone."""
    if not zero_initial and portfolio.y0 <= 0:
        raise ValueError("the constrained solver requires positive initial holdings y0")
    _check_market(market, pref)
    if zero_initial:
        inputs = prepare_zero_initial_inputs(portfolio.x0, market, pref)
        return classify_zero_initial(inputs), inputs
    inputs = prepare_inputs(portfolio, market, pref)
    return classify(inputs), inputs


def solve(portfolio: Portfolio, market: MarketModel, pref: CptPreference) -> Solution:
    """Optimal trade with positive holdings and no short selling (theta >= -y0)."""
    return solve_with_inputs(portfolio, market, pref)[0]


def solve_zero_initial(x0: float, market: MarketModel, pref: CptPreference) -> Solution:
    """Optimal unconstrained trade from an all-cash position (y0 = 0)."""
    return solve_with_inputs(Portfolio(x0, 0.0), market, pref, zero_initial=True)[0]


def ill_posed_condition_holds(inputs: PowerCaseInputs) -> bool:
    """Literal unboundedness condition used by the comparison-of-problems test.

    True when loss aversion sits strictly below the relevant ratio maximum
    with equal curvature exponents (the published condition; the dispatcher
    itself only treats the buy ray as ill-posed for the constrained problem).
    """
    if inputs.alpha != inputs.beta:
        return False
    interior_buy = 0.0 < inputs.p_loss_buy < 1.0
    if not interior_buy:
        return False
    if inputs.p_loss_sell >= 1.0:
        return inputs.loss_aversion < (inputs.ratio_buy or 0.0)
    if 0.0 < inputs.p_loss_sell < 1.0:
        ratio_max = inputs.ratio_max
        return ratio_max is not None and inputs.loss_aversion < ratio_max
    return False


def inputs_with_scaled_buy(inputs: PowerCaseInputs, factor: float) -> PowerCaseInputs:
    """Scale both buy-ray integrals; the dispatch outcome must be invariant."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return replace(
        inputs,
        gain_buy=inputs.gain_buy * factor,
        loss_buy=inputs.loss_buy * factor,
        gain_buy_error=inputs.gain_buy_error * factor,
        loss_buy_error=inputs.loss_buy_error * factor,
    )
