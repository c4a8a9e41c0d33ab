"""Closed-form optimal trades in the two-state market under exponential utility.

Any two-state payoff is replicated exactly by a single trade; the buy and
sell branches price with different pseudo-probability pairs because the cost
rate enters on different legs.  The optimum on each ray is one of: no trade,
a whole ray of optima, an unbounded trade with a finite limit prospect, or a
unique interior trade, selected by comparing the loss-aversion level with
weighted-probability thresholds.  A sale is a buy of the mirrored payoff, so
both rays run one set of comparisons.  All arithmetic is closed form; comparisons
use an exact 1e-12 relative band, with boundary ties resolved toward finite
candidates and toward the buy side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

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
    "prospect_at",
    "solve_ray",
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


@dataclass(frozen=True)
class _Ray:
    """One trade direction in buy terms: a sale is a buy of the mirrored payoff.

    The gain weight is the pseudo weight that grows with the per-unit gain
    (buy_down for a buy, sell_up for a sale), the loss weight its partner;
    w_gain and w_loss are the decision weights of the gain and loss states.
    """

    gain_weight: float
    loss_weight: float
    w_gain: float
    w_loss: float
    unbounded: float
    interior: float | None
    gap: float  # per-unit payoff gap that scales the interior candidate
    sign: float
    prefix: str


def _ray(side_weights, gain_weight: float, loss_weight: float, p_gain: float, p_loss: float,
         gap: float, sign: float, prefix: str) -> _Ray:
    w_gain, w_loss = side_weights[0](p_gain), side_weights[1](p_loss)
    unbounded = w_gain / w_loss
    interior = (gain_weight / loss_weight) * unbounded if loss_weight > 0 else None
    return _Ray(gain_weight, loss_weight, w_gain, w_loss, unbounded, interior, gap, sign, prefix)


def _rays(m: MarketModel, pref: CptPreference) -> tuple[_Ray, _Ray]:
    """The buy and the sell ray, each built once."""
    law = _binomial_law(m)
    pp = pseudo_probabilities(m)
    keep = 1.0 - m.lam
    side_weights = [pref.weighting.on_side(side).weight for side in ("gain", "loss")]
    buy = _ray(side_weights, pp.buy_down, pp.buy_up, 1.0 - law.p, law.p,
               keep * (law.u + law.d) - 2.0 * (1.0 + m.r), 1.0, "T4.1-")
    sell = _ray(side_weights, pp.sell_up, pp.sell_down, law.p, 1.0 - law.p,
                2.0 * keep * (1.0 + m.r) - (law.u + law.d), -1.0, "T4.2-")
    return buy, sell


@dataclass(frozen=True)
class BinomialInputs:
    """Market, preference and the two rays the dispatch compares."""

    market: MarketModel
    pref: CptPreference
    x0: float
    buy: _Ray
    sell: _Ray

    def __post_init__(self):
        u = self.pref.utility
        if not isinstance(u, ExponentialUtility):
            raise TypeError("the two-state solver requires the exponential utility pair")
        if u.eta_gain != u.eta_loss:
            raise ValueError("the two-state solver requires equal gain/loss curvature")

    def _ray(self, side: str) -> _Ray:
        if side not in ("buy", "sell"):
            raise ValueError(f"side must be 'buy' or 'sell', got {side!r}")
        return self.buy if side == "buy" else self.sell

    @property
    def pseudo(self) -> PseudoProbabilities:
        return PseudoProbabilities(self.buy.loss_weight, self.buy.gain_weight,
                                   self.sell.gain_weight, self.sell.loss_weight)

    @property
    def thresholds(self) -> LossAversionThresholds:
        buy, sell = self.buy, self.sell
        return LossAversionThresholds(buy.unbounded, buy.interior, sell.unbounded, sell.interior)

    @cached_property
    def rays(self) -> tuple[Solution, Solution]:
        """The optimum on the buy and on the sell ray, each solved once."""
        return solve_ray(self, "buy"), solve_ray(self, "sell")

    @property
    def eta(self) -> float:
        return self.pref.utility.eta_gain

    @property
    def zeta(self) -> float:
        return self.pref.utility.loss_aversion


def prepare_binomial_inputs(x0: float, market: MarketModel,
                            pref: CptPreference) -> BinomialInputs:
    return BinomialInputs(market, pref, x0, *_rays(market, pref))


def prospect_at(inputs: BinomialInputs, theta: float) -> float:
    """Exact two-atom prospect of trading theta from the all-cash position."""
    law = _binomial_law(inputs.market)
    portfolio = Portfolio(inputs.x0, 0.0)
    b = (1.0 + inputs.market.r) * inputs.x0  # wealth of keeping the cash
    d_up = terminal_wealth(portfolio, inputs.market, theta, law.u) - b
    d_down = terminal_wealth(portfolio, inputs.market, theta, law.d) - b
    if d_up == d_down == 0.0:
        return 0.0
    dist = DiscreteLaw([d_up, d_down], [1.0 - law.p, law.p])
    return prospect_value(inputs.pref, dist).total


def solve_ray(inputs: BinomialInputs, side: str) -> Solution:
    """Optimum over one ray: theta >= 0 for "buy", theta <= 0 for "sell"."""
    ray = inputs._ray(side)
    gain, loss, zeta = ray.gain_weight, ray.loss_weight, inputs.zeta
    case = ray.prefix

    def unbounded(label: str) -> Solution:
        end = Solution.plus_infinity if ray.sign > 0 else Solution.minus_infinity
        return end(case + label, ray.w_gain - zeta * ray.w_loss)

    if gain <= 0 or _close(gain, 0.0):
        return Solution.point(0.0, case + "1a", 0.0, boundary=_close(gain, 0.0))
    if _close(gain, loss):
        if _close(zeta, ray.unbounded):
            lo, hi = sorted((0.0, ray.sign * math.inf))
            return Solution.interval(lo, hi, case + "2", 0.0, boundary=True)
        if zeta > ray.unbounded:
            return Solution.point(0.0, case + "1b", 0.0)
        return unbounded("3a")
    if gain < loss:
        if zeta >= ray.unbounded or _close(zeta, ray.unbounded):
            return Solution.point(0.0, case + "1c", 0.0,
                                  boundary=_close(zeta, ray.unbounded))
        return unbounded("3b")
    # gain weight > loss weight > 0
    if zeta >= ray.interior or _close(zeta, ray.interior):
        return Solution.point(0.0, case + "1d", 0.0,
                              boundary=_close(zeta, ray.interior))
    # gain weight > loss weight means gap > 0, but the two are rounded apart
    if not ray.gap > 0.0:
        raise ValueError(f"interior {side} candidate undefined: the {side} ray's "
                         f"payoff gap {ray.gap!r} is not positive")
    theta = ray.sign * math.log(ray.interior / zeta) / (inputs.eta * ray.gap)
    return Solution.point(theta, case + "4", prospect_at(inputs, theta))


def _group(sol: Solution) -> str:
    if sol.kind.name == "INTERVAL":
        return "interval"
    if sol.kind.name in ("PLUS_INFINITY", "MINUS_INFINITY"):
        return "unbounded"
    return "zero" if sol.prospect == 0.0 else "interior"


# T4.3 case of each pair of (buy, sell) ray groups; where both rays trade it is
# the pair (buy wins, sell wins).  Two interior candidates cannot coexist, since
# (1-lam)(u+d) > 2(1+r) and 2(1-lam)(1+r) > u+d exclude each other.
_MERGED = {
    ("zero", "zero"): "1", ("interval", "zero"): "4", ("zero", "interval"): "5",
    ("interval", "interval"): "6",
    ("interior", "zero"): "2a", ("interior", "interval"): "2a",
    ("zero", "interior"): "3a", ("interval", "interior"): "3a",
    ("unbounded", "zero"): "7a", ("unbounded", "interval"): "7a",
    ("zero", "unbounded"): "8a", ("interval", "unbounded"): "8a",
    ("unbounded", "unbounded"): ("7b", "8b"), ("unbounded", "interior"): ("7c", "3b"),
    ("interior", "unbounded"): ("2b", "8c"), ("interior", "interior"): ("2c", "3c"),
}
_IDLE = ("zero", "interval")


def _merge_rays(buy: Solution, sell: Solution) -> Solution:
    """T4.3: the better ray, relabelled, or the union of two idle rays."""
    gb, gs = _group(buy), _group(sell)
    case = _MERGED[gb, gs]
    carried = buy.boundary or sell.boundary
    if gb in _IDLE and gs in _IDLE:
        if case == "1":
            return Solution.point(0.0, "T4.3-1", 0.0, boundary=carried)
        return Solution.interval(-math.inf if gs == "interval" else 0.0,
                                 math.inf if gb == "interval" else 0.0,
                                 "T4.3-" + case, 0.0, boundary=True)
    if gb in _IDLE or gs in _IDLE:
        return replace(sell if gb in _IDLE else buy, case_id="T4.3-" + case, boundary=carried)
    tie = _close(buy.prospect, sell.prospect)
    # a tie goes to the finite candidate first, then to the buy
    buy_wins = (gb == "interior" or gs == "unbounded") if tie else buy.prospect > sell.prospect
    winner, label = (buy, case[0]) if buy_wins else (sell, case[1])
    return replace(winner, case_id="T4.3-" + label, boundary=tie or carried)


def solve_binomial_with_inputs(x0: float, market: MarketModel,
                               pref: CptPreference) -> tuple[Solution, BinomialInputs]:
    """Checked solve that also returns the inputs it classified."""
    check_no_arbitrage(market).require()
    inputs = prepare_binomial_inputs(x0, market, pref)
    return _merge_rays(*inputs.rays), inputs


def solve_binomial(x0: float, market: MarketModel, pref: CptPreference) -> Solution:
    """Optimal trade over the whole line, merging the buy and sell rays."""
    return solve_binomial_with_inputs(x0, market, pref)[0]


def lambda_bar(m: MarketModel) -> float:
    """Cost rate above which neither replication direction is worthwhile."""
    law = _binomial_law(m)
    one_r = 1.0 + m.r
    return max(1.0 - one_r / law.u, 1.0 - law.d / one_r)
