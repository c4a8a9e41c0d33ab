import dataclasses
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cptinvest
from cptinvest.market import (
    Binomial,
    Empirical,
    Lognormal,
    MarketModel,
    Normal,
    Portfolio,
    StudentT,
    TradeDirection,
    check_no_arbitrage,
    excess_transform,
    reference_wealth,
    terminal_wealth,
)
from cptinvest.binomial import solve_binomial
from cptinvest.continuous import solve, solve_zero_initial
from cptinvest.distributions import SignedDistribution, constant_law
from cptinvest.oracle import GridSpec, verify
from cptinvest.preferences import (
    CptPreference,
    ExponentialUtility,
    PowerUtility,
    TverskyKahnemanWeighting,
)
from scipy.stats import norm


def reference_point(p: Portfolio, m: MarketModel) -> SignedDistribution:
    """Law of the reference wealth; a constant when y0 = 0."""
    scale = p.y0 - m.lam * max(p.y0, 0.0)
    shift = (1.0 + m.r) * p.x0
    if scale == 0.0:
        return constant_law(shift)
    return m.returns.gross_law().affine(shift, scale)


@dataclass(frozen=True)
class LossSetProbabilities:
    """Probability of ending in a loss for each pure trade direction."""

    buy: float
    sell: float
    short: float


def loss_set_probabilities(m: MarketModel) -> LossSetProbabilities:
    """P(buying loses), P(selling loses), P(shorting loses).

    Buying loses where its excess return is negative; selling or shorting
    loses where the corresponding excess return is positive.
    """
    z_buy = excess_transform(m, TradeDirection.BUY)
    z_sell = excess_transform(m, TradeDirection.SELL)
    z_short = excess_transform(m, TradeDirection.SHORT)
    return LossSetProbabilities(
        buy=z_buy.prob_below(0.0),
        sell=z_sell.prob_above(0.0),
        short=z_short.prob_above(0.0),
    )


class TestTerminalWealth:
    def test_doing_nothing_with_no_interest(self):
        m = MarketModel(0.0, 0.0, Binomial(1.2, 0.9, 0.5))
        assert terminal_wealth(Portfolio(1.0, 0.0), m, 0.0, 1.1) == 1.0

    def test_liquidation_cost_on_holdings(self):
        m = MarketModel(0.0, 0.1, Binomial(1.2, 0.9, 0.5))
        assert terminal_wealth(Portfolio(0.0, 1.0), m, 0.0, 1.0) == pytest.approx(0.9)

    def test_term_by_term_arithmetic(self):
        # 0.5*1.05 + 0.6 - 0.01*0.6 = 1.119
        m = MarketModel(0.05, 0.01, Binomial(1.3, 0.9, 0.5))
        got = terminal_wealth(Portfolio(1.0, 0.0), m, 0.5, 1.2)
        assert got == pytest.approx(0.5 * 1.05 + 0.6 - 0.01 * 0.6)

    @given(
        x0=st.floats(-2, 4), y0=st.floats(0, 3), theta=st.floats(-3, 5),
        gross=st.floats(0.5, 2.0), r=st.floats(0, 0.2),
    )
    @settings(max_examples=80, deadline=None)
    def test_frictionless_algebra(self, x0, y0, theta, gross, r):
        m = MarketModel(r, 0.0, Binomial(1.2, 0.9, 0.5))
        p = Portfolio(x0, y0)
        expect = (1 + r) * x0 + gross * y0 + (gross - 1 - r) * theta
        assert terminal_wealth(p, m, theta, gross) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    @given(theta0=st.floats(0.4, 2.2), gross=st.floats(0.3, 2.5))
    @settings(max_examples=50, deadline=None)
    def test_doing_nothing_matches_reference_pathwise(self, theta0, gross):
        m = MarketModel(0.03, 0.02, Binomial(1.2, 0.9, 0.5))
        p = Portfolio(1.5, theta0)
        assert terminal_wealth(p, m, 0.0, gross) == pytest.approx(
            reference_wealth(p, m, gross), rel=1e-14
        )


class TestReferencePoint:
    def test_all_cash_is_constant(self):
        m = MarketModel(0.0, 0.05, Lognormal(0.0, 0.1))
        law = reference_point(Portfolio(1.0, 0.0), m)
        assert law.atoms == ((1.0, 1.0),)

    def test_pure_holdings_no_cost(self):
        m = MarketModel(0.0, 0.0, Binomial(1.2, 0.9, 0.3))
        law = reference_point(Portfolio(0.0, 1.0), m)
        assert law.atoms == ((0.9, 0.3), (1.2, 0.7))

    def test_direct_formula(self):
        # 2 * 1.05 + 1.1 * 0.9 = 3.09
        m = MarketModel(0.05, 0.1, Binomial(1.1, 1.05, 0.5))
        law = reference_point(Portfolio(2.0, 1.0), m)
        values = [x for x, _ in law.atoms]
        assert 2.0 * 1.05 + 1.1 * 0.9 == pytest.approx(max(values))


class TestNoArbitrage:
    def test_plain_binomial_passes(self):
        assert check_no_arbitrage(MarketModel(0.05, 0.0, Binomial(1.2, 0.9, 0.5))).passed

    def test_risk_free_dominates(self):
        check = check_no_arbitrage(MarketModel(0.05, 0.0, Binomial(1.04, 1.02, 0.5)))
        assert not check.passed
        assert "risk-free dominates" in check.reason

    def test_binomial_inequality_chain_with_costs(self):
        # u=1.1 > 0.5 = (1-lam)(1+r) and 0.5 > 0.225 = (1-lam)^2 d
        assert check_no_arbitrage(MarketModel(0.0, 0.5, Binomial(1.1, 0.9, 0.5))).passed

    def test_risky_dominates(self):
        check = check_no_arbitrage(MarketModel(0.0, 0.0, Binomial(1.3, 1.1, 0.5)))
        assert not check.passed
        assert "risky asset dominates" in check.reason

    def test_degenerate_identities_rejected(self):
        lam, r = 0.2, 0.05
        deg1 = MarketModel(r, lam, Empirical(((1 + r) / (1 - lam),)))
        assert not check_no_arbitrage(deg1).passed
        deg2 = MarketModel(r, lam, Empirical(((1 - lam) * (1 + r),)))
        assert not check_no_arbitrage(deg2).passed

    @pytest.mark.parametrize("values, reason", [
        ((1.3125,), "degenerate: discounted gross return identically risk-free"),
        ((1.3125 * (1 + 1e-13),), "degenerate: discounted gross return identically risk-free"),
        ((1.3125, 1.3125), "degenerate: discounted gross return identically risk-free"),
        ((0.84,), "degenerate: gross return identically the bid-adjusted risk-free"),
        ((0.84 * (1 - 1e-13),), "degenerate: gross return identically the bid-adjusted risk-free"),
        ((0.84, 1.3125), None),
    ], ids=["down", "near-down", "repeated-down", "up", "near-up", "both-thresholds"])
    def test_only_a_one_atom_law_is_degenerate(self, values, reason):
        # thresholds (1+r)/(1-lam) = 1.3125 and (1-lam)(1+r) = 0.84 at r = 0.05, lam = 0.2
        check = check_no_arbitrage(MarketModel(0.05, 0.2, Empirical(values)))
        assert (check.passed, check.reason) == (reason is None, reason)

    def test_full_support_laws_always_pass(self):
        assert check_no_arbitrage(MarketModel(0.05, 0.3, Lognormal(0.1, 0.2))).passed
        assert check_no_arbitrage(MarketModel(0.0, 0.0, Normal(0.0, 0.1))).passed


class TestExcessTransforms:
    def test_zero_cost_collapses_all_three(self):
        m = MarketModel(0.07, 0.0, Lognormal(0.05, 0.2))
        laws = [excess_transform(m, d) for d in TradeDirection]
        shifts = {law.shift for law in laws}
        scales = {law.scale for law in laws}
        assert shifts == {-(1.07)}
        assert scales == {1.0}

    def test_constant_return_arithmetic(self):
        m = MarketModel(0.0, 0.01, Empirical((1.1,)))
        buy = excess_transform(m, TradeDirection.BUY)
        sell = excess_transform(m, TradeDirection.SELL)
        short = excess_transform(m, TradeDirection.SHORT)
        assert buy.atoms[0][0] == pytest.approx(0.99 * 1.1 - 1.0)
        assert sell.atoms[0][0] == pytest.approx(0.99 * 0.1)
        assert short.atoms[0][0] == pytest.approx(1.1 - 0.99)

    @given(gross=st.floats(0.3, 2.5), lam=st.floats(0.001, 0.5), r=st.floats(0, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_buy_below_sell_pointwise_with_costs(self, gross, lam, r):
        m = MarketModel(r, lam, Lognormal(0.0, 0.2))
        buy = excess_transform(m, TradeDirection.BUY)
        sell = excess_transform(m, TradeDirection.SELL)
        z_buy = buy.shift + buy.scale * gross
        z_sell = sell.shift + sell.scale * gross
        assert z_buy < z_sell


class TestLossSetProbabilities:
    def test_lognormal_closed_form(self):
        mu, sigma, r = 0.05, 0.2, 0.03
        m = MarketModel(r, 0.0, Lognormal(mu, sigma))
        probs = loss_set_probabilities(m)
        assert probs.buy == pytest.approx(norm.cdf((math.log(1 + r) - mu) / sigma), rel=1e-12)

    def test_binomial_enumeration(self):
        m = MarketModel(0.05, 0.0, Binomial(1.2, 0.9, 0.3))
        probs = loss_set_probabilities(m)
        assert probs.buy == pytest.approx(0.3)   # only the down state loses a buyer
        assert probs.sell == pytest.approx(0.7)  # the up state loses a seller

    def test_no_sell_loss_forces_certain_buy_loss(self):
        # returns never beat the risk-free rate: selling cannot lose,
        # buying always does
        m = MarketModel(0.05, 0.1, Binomial(1.0, 0.8, 0.5))
        assert check_no_arbitrage(m).passed
        probs = loss_set_probabilities(m)
        assert probs.sell == 0.0
        assert probs.buy == 1.0

    @given(
        lam=st.floats(0, 0.4), r=st.floats(0, 0.1),
        mu=st.floats(-0.1, 0.2), sigma=st.floats(0.05, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_arbitrage_forces_positive_loss_probabilities(self, lam, r, mu, sigma):
        m = MarketModel(r, lam, Lognormal(mu, sigma))
        assert check_no_arbitrage(m).passed
        probs = loss_set_probabilities(m)
        assert probs.buy > 0.0
        assert probs.short > 0.0


def test_market_model_validation():
    with pytest.raises(ValueError):
        MarketModel(-0.01, 0.0, Binomial(1.2, 0.9, 0.5))
    with pytest.raises(ValueError):
        MarketModel(0.0, 1.0, Binomial(1.2, 0.9, 0.5))
    with pytest.raises(ValueError):
        Binomial(0.9, 1.2, 0.5)  # u must exceed d
    with pytest.raises(ValueError):
        Binomial(1.2, 0.9, 1.0)
    with pytest.raises(ValueError):
        Portfolio(math.nan, 0.0)


@pytest.mark.parametrize("build", [
    lambda: MarketModel(math.nan, 0.01, Lognormal(0.05, 0.2)),
    lambda: MarketModel(math.inf, 0.01, Lognormal(0.05, 0.2)),
    lambda: Lognormal(math.nan, 0.2),
    lambda: Lognormal(0.05, math.nan),
    lambda: Normal(math.nan, 0.2),
    lambda: Normal(0.05, math.nan),
    lambda: StudentT(math.nan, 0.0, 0.1),
    lambda: StudentT(5.0, math.nan, 0.1),
    lambda: StudentT(5.0, 0.0, math.nan),
    lambda: Empirical((1.0, math.nan, 1.1)),
    lambda: Empirical((1.0, math.inf)),
    lambda: Binomial(math.inf, 0.95, 0.55),
], ids=["market-r-nan", "market-r-inf", "lognormal-mu", "lognormal-sigma", "normal-mu",
        "normal-sigma", "student-t-nu", "student-t-loc", "student-t-scale",
        "empirical-nan", "empirical-inf", "binomial-u-inf"])
def test_non_finite_parameters_are_rejected(build):
    with pytest.raises(ValueError):
        build()


RETURN_MODELS = (Lognormal, Normal, StudentT, Binomial, Empirical)
_TK = TverskyKahnemanWeighting()


def _solve_continuous(m):
    pref = CptPreference(PowerUtility(0.8, 0.88, 2.25), _TK)
    sol = solve(Portfolio(1.0, 1.0), m, pref)
    verify(sol, Portfolio(1.0, 1.0), m, pref, GridSpec(-1.0, 5.0, 201, 1))
    sol = solve_zero_initial(1.0, m, pref)
    verify(sol, Portfolio(1.0, 0.0), m, pref, GridSpec(-5.0, 5.0, 201, 1))


def _solve_two_state(m):
    pref = CptPreference(ExponentialUtility(1.5, 1.5, 1.2), _TK)
    sol = solve_binomial(1.0, m, pref)
    verify(sol, Portfolio(1.0, 0.0), m, pref, GridSpec(-5.0, 5.0, 201, 1))


@pytest.mark.parametrize("market, run", [
    (lambda: MarketModel(0.02, 0.01, Lognormal(0.06, 0.2)), _solve_continuous),
    (lambda: MarketModel(0.0, 0.01, Empirical((0.9, 0.97, 1.0, 1.04, 1.3))), _solve_continuous),
    (lambda: MarketModel(0.0, 0.02, Binomial(1.5, 0.95, 0.55)), _solve_two_state),
], ids=["lognormal", "empirical", "binomial"])
def test_market_builds_its_law_once(market, run, monkeypatch):
    calls = []
    for cls in RETURN_MODELS:
        def counted(self, _original=cls.gross_law):
            calls.append(type(self).__name__)
            return _original(self)
        monkeypatch.setattr(cls, "gross_law", counted)
    m = market()
    assert len(calls) == 1
    run(m)
    assert len(calls) == 1
    # the law is derived state: equality, hash and repr see only r, lam and returns
    twin = market()
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
    assert twin.law is not m.law
    assert repr(m) == f"MarketModel(r={m.r!r}, lam={m.lam!r}, returns={m.returns!r})"
    moved = dataclasses.replace(m, lam=0.03)
    fresh = m.returns.gross_law()
    if fresh.atoms is not None:
        assert moved.law.atoms == fresh.atoms
    else:
        assert type(moved.law.base) is type(fresh.base)
        assert vars(moved.law.base) == vars(fresh.base)
        assert (moved.law.shift, moved.law.scale) == (fresh.shift, fresh.scale)


_UNPICKLE_SCRIPT = """
import pickle
import sys
law = pickle.loads(sys.stdin.buffer.read()).law
print([law.cdf(x) for x in (0.8, 1.0, 1.2)] + [law.ppf(q) for q in (0.01, 0.5, 0.99)])
"""


@pytest.mark.parametrize("protocol", [0, pickle.DEFAULT_PROTOCOL])
@pytest.mark.parametrize("returns", [Lognormal(0.05, 0.2), Normal(0.05, 0.2),
                                     StudentT(4.0, 0.0, 0.1)], ids=repr)
def test_a_market_unpickled_in_a_fresh_interpreter_computes_as_before(returns, protocol):
    """Unpickling builds the base law without its ``__init__``, before any other base,
    so it too must bind the ``scipy.special`` functions the law computes with."""
    market = MarketModel(0.01, 0.01, returns)
    law = market.law
    here = [law.cdf(x) for x in (0.8, 1.0, 1.2)] + [law.ppf(q) for q in (0.01, 0.5, 0.99)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cptinvest.__file__)))
    done = subprocess.run([sys.executable, "-c", _UNPICKLE_SCRIPT],
                          input=pickle.dumps(market, protocol), capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == f"{here}\n"
