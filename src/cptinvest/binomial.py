"""Closed-form optimal trades in the two-state market under exponential utility.

Any two-state payoff is replicated exactly by a single trade; the buy and
sell branches price with different pseudo-probability pairs because the cost
rate enters on different legs.  The optimum on each ray is one of: no trade,
a whole ray of optima, an unbounded trade with a finite limit prospect, or a
unique interior trade, selected by comparing the loss-aversion level with
weighted-probability thresholds.  All arithmetic is closed form; comparisons
use an exact 1e-12 relative band, with boundary ties resolved toward finite
candidates and toward the buy side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .choquet import prospect_value
from .distributions import DiscreteLaw
from .market import Binomial, MarketModel, Portfolio, check_no_arbitrage, terminal_wealth
from .preferences import CptPreference, ExponentialUtility
from .solution import Solution

__all__ = [
    "Payoff2",
    "PseudoProbabilities",
    "LossAversionThresholds",
    "BinomialInputs",
    "pseudo_probabilities",
    "replicate",
    "zeta_thresholds",
    "candidate_thetas",
    "candidate_buy_trade",
    "candidate_sell_trade",
    "buy_candidate_applies",
    "sell_candidate_applies",
    "prospect_at",
    "solve_buy",
    "solve_sell",
    "solve_binomial",
    "solve_binomial_with_inputs",
    "prepare_binomial_inputs",
    "lambda_bar",
]

_REL_BAND = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_BAND * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Payoff2:
    """State-contingent payoff: ``up`` in the up state, ``down`` in the down state."""

    up: float
    down: float


@dataclass(frozen=True)
class PseudoProbabilities:
    """Replication weights for the buy branch (bu, bd) and sell branch (su, sd).

    Each pair sums to one; bu and sd are always positive under no-arbitrage,
    while bd and su turn nonpositive once the cost rate crosses the no-trade
    threshold.  At zero cost both pairs coincide with the risk-neutral
    measure.
    """

    buy_up: float
    buy_down: float
    sell_up: float
    sell_down: float


def _binomial_law(m: MarketModel) -> Binomial:
    if not isinstance(m.returns, Binomial):
        raise TypeError("this solver requires a two-state (binomial) return law")
    return m.returns


def pseudo_probabilities(m: MarketModel) -> PseudoProbabilities:
    law = _binomial_law(m)
    u, d = law.u, law.d
    one_r = 1.0 + m.r
    keep = 1.0 - m.lam
    spread = u - d
    return PseudoProbabilities(
        buy_up=(one_r - keep * d) / (keep * spread),
        buy_down=(keep * u - one_r) / (keep * spread),
        sell_up=(keep * one_r - d) / spread,
        sell_down=(u - keep * one_r) / spread,
    )


def replicate(m: MarketModel, payoff: Payoff2) -> tuple[float, float]:
    """Trade size and initial cash replicating the payoff state by state.

    A payoff larger in the up state is replicated by buying (trade priced on
    the bid at liquidation); otherwise by shorting (sale proceeds received on
    the bid at time zero).
    """
    law = _binomial_law(m)
    pp = pseudo_probabilities(m)
    one_r = 1.0 + m.r
    if payoff.up >= payoff.down:
        theta = (payoff.up - payoff.down) / ((1.0 - m.lam) * (law.u - law.d))
        cash = (pp.buy_up * payoff.up + pp.buy_down * payoff.down) / one_r
    else:
        theta = (payoff.up - payoff.down) / (law.u - law.d)
        cash = (pp.sell_up * payoff.up + pp.sell_down * payoff.down) / one_r
    return theta, cash


@dataclass(frozen=True)
class LossAversionThresholds:
    """Loss-aversion levels below which trading becomes attractive.

    ``buy_unbounded`` / ``sell_unbounded`` gate unbounded positions,
    ``buy_interior`` / ``sell_interior`` gate finite interior positions (None
    when the corresponding pseudo-probability factor is nonpositive).
    """

    buy_unbounded: float
    buy_interior: float | None
    sell_unbounded: float
    sell_interior: float | None


def zeta_thresholds(m: MarketModel, pref: CptPreference) -> LossAversionThresholds:
    law = _binomial_law(m)
    pp = pseudo_probabilities(m)
    w = pref.weighting
    p = law.p
    up_weight = w.weight("gain", 1.0 - p)
    down_weight = w.weight("loss", p)
    buy_unbounded = up_weight / down_weight
    buy_interior = (pp.buy_down / pp.buy_up) * buy_unbounded if pp.buy_up > 0 else None
    gain_down = w.weight("gain", p)
    loss_up = w.weight("loss", 1.0 - p)
    sell_unbounded = gain_down / loss_up
    sell_interior = (pp.sell_up / pp.sell_down) * sell_unbounded if pp.sell_down > 0 else None
    return LossAversionThresholds(buy_unbounded, buy_interior, sell_unbounded, sell_interior)


@dataclass(frozen=True)
class BinomialInputs:
    """Market, preference and derived closed-form quantities for the dispatch."""

    market: MarketModel
    pref: CptPreference
    x0: float
    pseudo: PseudoProbabilities
    thresholds: LossAversionThresholds

    def __post_init__(self):
        u = self.pref.utility
        if not isinstance(u, ExponentialUtility):
            raise TypeError("the two-state solver requires the exponential utility pair")
        if u.eta_gain != u.eta_loss:
            raise ValueError("the two-state solver requires equal gain/loss curvature")

    @property
    def eta(self) -> float:
        return self.pref.utility.eta_gain

    @property
    def zeta(self) -> float:
        return self.pref.utility.loss_aversion

    @property
    def reference(self) -> float:
        return (1.0 + self.market.r) * self.x0


def prepare_binomial_inputs(x0: float, market: MarketModel,
                            pref: CptPreference) -> BinomialInputs:
    return BinomialInputs(
        market=market,
        pref=pref,
        x0=x0,
        pseudo=pseudo_probabilities(market),
        thresholds=zeta_thresholds(market, pref),
    )


def buy_candidate_applies(inputs: BinomialInputs) -> bool:
    pp, thr = inputs.pseudo, inputs.thresholds
    return (pp.buy_down > pp.buy_up > 0 and thr.buy_interior is not None
            and inputs.zeta < thr.buy_interior)


def sell_candidate_applies(inputs: BinomialInputs) -> bool:
    pp, thr = inputs.pseudo, inputs.thresholds
    return (pp.sell_up > pp.sell_down > 0 and thr.sell_interior is not None
            and inputs.zeta < thr.sell_interior)


def candidate_buy_trade(inputs: BinomialInputs) -> float:
    """Interior buy candidate (> 0); needs buy_down > buy_up > 0 and loss
    aversion below the interior buy threshold."""
    if not buy_candidate_applies(inputs):
        raise ValueError("interior buy candidate undefined outside its regime")
    law = _binomial_law(inputs.market)
    keep = 1.0 - inputs.market.lam
    denom = inputs.eta * (keep * (law.u + law.d) - 2.0 * (1.0 + inputs.market.r))
    return math.log(inputs.thresholds.buy_interior / inputs.zeta) / denom


def candidate_sell_trade(inputs: BinomialInputs) -> float:
    """Interior sell candidate (< 0); mirror regime on the sell side."""
    if not sell_candidate_applies(inputs):
        raise ValueError("interior sell candidate undefined outside its regime")
    law = _binomial_law(inputs.market)
    keep = 1.0 - inputs.market.lam
    denom = inputs.eta * (2.0 * keep * (1.0 + inputs.market.r) - (law.u + law.d))
    return -math.log(inputs.thresholds.sell_interior / inputs.zeta) / denom


def candidate_thetas(inputs: BinomialInputs) -> tuple[float | None, float | None]:
    """Interior candidates per side, None outside the side's regime.

    The two regimes demand opposite orderings of (1-lam)(u+d) against the
    cost-adjusted risk-free legs, so at most one side is ever defined; if
    neither applies this raises.
    """
    theta_buy = candidate_buy_trade(inputs) if buy_candidate_applies(inputs) else None
    theta_sell = candidate_sell_trade(inputs) if sell_candidate_applies(inputs) else None
    if theta_buy is None and theta_sell is None:
        raise ValueError("no interior candidate applies in this regime")
    return theta_buy, theta_sell


def prospect_at(inputs: BinomialInputs, theta: float) -> float:
    """Exact two-atom prospect of trading theta from the all-cash position."""
    law = _binomial_law(inputs.market)
    portfolio = Portfolio(inputs.x0, 0.0)
    b = inputs.reference
    d_up = terminal_wealth(portfolio, inputs.market, theta, law.u) - b
    d_down = terminal_wealth(portfolio, inputs.market, theta, law.d) - b
    if d_up == d_down == 0.0:
        return 0.0
    dist = DiscreteLaw([d_up, d_down], [1.0 - law.p, law.p])
    return prospect_value(inputs.pref, dist).total


def _limit_prospect_buy(inputs: BinomialInputs) -> float:
    w = inputs.pref.weighting
    p = _binomial_law(inputs.market).p
    return w.weight("gain", 1.0 - p) - inputs.zeta * w.weight("loss", p)


def _limit_prospect_sell(inputs: BinomialInputs) -> float:
    w = inputs.pref.weighting
    p = _binomial_law(inputs.market).p
    return w.weight("gain", p) - inputs.zeta * w.weight("loss", 1.0 - p)


def solve_buy(inputs: BinomialInputs) -> Solution:
    """Optimum over the buy ray theta >= 0."""
    pp = inputs.pseudo
    thr = inputs.thresholds
    zeta = inputs.zeta
    if pp.buy_down <= 0 or _close(pp.buy_down, 0.0):
        return Solution.point(0.0, "T4.1-1a", 0.0, boundary=_close(pp.buy_down, 0.0))
    if _close(pp.buy_down, pp.buy_up):
        if _close(zeta, thr.buy_unbounded):
            return Solution.interval(0.0, math.inf, "T4.1-2", 0.0, boundary=True)
        if zeta > thr.buy_unbounded:
            return Solution.point(0.0, "T4.1-1b", 0.0)
        return Solution.plus_infinity("T4.1-3a", _limit_prospect_buy(inputs))
    if pp.buy_down < pp.buy_up:
        if zeta >= thr.buy_unbounded or _close(zeta, thr.buy_unbounded):
            return Solution.point(0.0, "T4.1-1c", 0.0,
                                  boundary=_close(zeta, thr.buy_unbounded))
        return Solution.plus_infinity("T4.1-3b", _limit_prospect_buy(inputs))
    # buy_down > buy_up > 0
    if zeta >= thr.buy_interior or _close(zeta, thr.buy_interior):
        return Solution.point(0.0, "T4.1-1d", 0.0,
                              boundary=_close(zeta, thr.buy_interior))
    theta = candidate_buy_trade(inputs)
    return Solution.point(theta, "T4.1-4", prospect_at(inputs, theta))


def solve_sell(inputs: BinomialInputs) -> Solution:
    """Optimum over the sell ray theta <= 0."""
    pp = inputs.pseudo
    thr = inputs.thresholds
    zeta = inputs.zeta
    if pp.sell_up <= 0 or _close(pp.sell_up, 0.0):
        return Solution.point(0.0, "T4.2-1a", 0.0, boundary=_close(pp.sell_up, 0.0))
    if _close(pp.sell_up, pp.sell_down):
        if _close(zeta, thr.sell_unbounded):
            return Solution.interval(-math.inf, 0.0, "T4.2-2", 0.0, boundary=True)
        if zeta > thr.sell_unbounded:
            return Solution.point(0.0, "T4.2-1b", 0.0)
        return Solution.minus_infinity("T4.2-3a", _limit_prospect_sell(inputs))
    if pp.sell_up < pp.sell_down:
        if zeta >= thr.sell_unbounded or _close(zeta, thr.sell_unbounded):
            return Solution.point(0.0, "T4.2-1c", 0.0,
                                  boundary=_close(zeta, thr.sell_unbounded))
        return Solution.minus_infinity("T4.2-3b", _limit_prospect_sell(inputs))
    # sell_up > sell_down > 0
    if zeta >= thr.sell_interior or _close(zeta, thr.sell_interior):
        return Solution.point(0.0, "T4.2-1d", 0.0,
                              boundary=_close(zeta, thr.sell_interior))
    theta = candidate_sell_trade(inputs)
    return Solution.point(theta, "T4.2-4", prospect_at(inputs, theta))


def _group(sol: Solution) -> str:
    if sol.kind.name == "INTERVAL":
        return "interval"
    if sol.kind.name in ("PLUS_INFINITY", "MINUS_INFINITY"):
        return "unbounded"
    return "zero" if sol.prospect == 0.0 else "interior"


def solve_binomial_with_inputs(x0: float, market: MarketModel,
                               pref: CptPreference) -> tuple[Solution, BinomialInputs]:
    """Checked solve that also returns the inputs it classified."""
    arb = check_no_arbitrage(market)
    if not arb:
        raise ValueError(f"market admits arbitrage or is degenerate: {arb.reason}")
    inputs = prepare_binomial_inputs(x0, market, pref)
    return _merge_rays(solve_buy(inputs), solve_sell(inputs)), inputs


def solve_binomial(x0: float, market: MarketModel, pref: CptPreference) -> Solution:
    """Optimal trade over the whole line, merging the buy and sell rays."""
    return solve_binomial_with_inputs(x0, market, pref)[0]


def _merge_rays(buy: Solution, sell: Solution) -> Solution:
    gb, gs = _group(buy), _group(sell)
    carried = buy.boundary or sell.boundary

    def point(theta, case, prospect, boundary=False):
        return Solution.point(theta, case, prospect, boundary=boundary or carried)

    if gb == "zero" and gs == "zero":
        return point(0.0, "T4.3-1", 0.0)
    if gb == "interval" and gs == "zero":
        return Solution.interval(0.0, math.inf, "T4.3-4", 0.0, boundary=True)
    if gb == "zero" and gs == "interval":
        return Solution.interval(-math.inf, 0.0, "T4.3-5", 0.0, boundary=True)
    if gb == "interval" and gs == "interval":
        return Solution.interval(-math.inf, math.inf, "T4.3-6", 0.0, boundary=True)

    if gb == "interior" and gs in ("zero", "interval"):
        return point(buy.theta, "T4.3-2a", buy.prospect)
    if gs == "interior" and gb in ("zero", "interval"):
        return point(sell.theta, "T4.3-3a", sell.prospect)
    if gb == "unbounded" and gs in ("zero", "interval"):
        return Solution.plus_infinity("T4.3-7a", buy.prospect, boundary=carried)
    if gs == "unbounded" and gb in ("zero", "interval"):
        return Solution.minus_infinity("T4.3-8a", sell.prospect, boundary=carried)

    tie = _close(buy.prospect, sell.prospect)
    if gb == "unbounded" and gs == "unbounded":
        if tie:
            return Solution.plus_infinity("T4.3-7b", buy.prospect, boundary=True)
        if buy.prospect > sell.prospect:
            return Solution.plus_infinity("T4.3-7b", buy.prospect, boundary=carried)
        return Solution.minus_infinity("T4.3-8b", sell.prospect, boundary=carried)
    if gb == "unbounded" and gs == "interior":
        # ties resolve toward the finite candidate
        if tie or sell.prospect > buy.prospect:
            return point(sell.theta, "T4.3-3b", sell.prospect, boundary=tie)
        return Solution.plus_infinity("T4.3-7c", buy.prospect, boundary=carried)
    if gb == "interior" and gs == "unbounded":
        if tie or buy.prospect >= sell.prospect:
            return point(buy.theta, "T4.3-2b", buy.prospect, boundary=tie)
        return Solution.minus_infinity("T4.3-8c", sell.prospect, boundary=carried)
    # both interior: ties resolve toward the buy side
    if tie or buy.prospect >= sell.prospect:
        return point(buy.theta, "T4.3-2c", buy.prospect, boundary=tie)
    return point(sell.theta, "T4.3-3c", sell.prospect)


def lambda_bar(m: MarketModel) -> float:
    """Cost rate above which neither replication direction is worthwhile."""
    law = _binomial_law(m)
    one_r = 1.0 + m.r
    return max(1.0 - one_r / law.u, 1.0 - law.d / one_r)
