"""The paper's comparative statics in the cost rate and loss aversion, as exact checks
of the solvers.

Per unit traded, a buy pays (1-lam)R - (1+r), a short (1+r)(1-lam) - R and a sale
of owned shares (1-lam)((1+r) - R); as the cost rate lam rises each payoff falls, or
shrinks toward 0 for the sale, on every path.  CPT respects first-order stochastic
dominance, so neither the objective at a trade nor the best of it over the trades
rises with lam, and neither does the buy ray's gain/loss ratio.  The sale scales
with 1 - lam exactly, so the sell ray's objective is a function of theta (1 - lam).
Writing the objective G(theta) - k L(theta), the optimality of theta at k and of
theta' at k' > k add up to (k' - k)(L(theta) - L(theta')) >= 0: the loss term at the
optimum does not rise with loss aversion.  No oracle is read: each check compares the
solver's own answers, within the band in which the solver resolves such comparisons
itself or within its integrals' error estimates.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cptinvest.binomial import _REL_BAND, _close, solve_binomial
from cptinvest.choquet import gain_loss
from cptinvest.continuous import _MIN_BAND, _value_band, classify, solve_with_inputs
from cptinvest.distributions import DiscreteLaw
from cptinvest.market import (
    Binomial,
    Lognormal,
    MarketModel,
    Normal,
    Portfolio,
    StudentT,
    check_no_arbitrage,
    terminal_wealth,
)
from cptinvest.preferences import (
    CptPreference,
    ExponentialUtility,
    IdentityWeighting,
    PowerUtility,
    PrelecWeighting,
    TverskyKahnemanWeighting,
)

WEIGHTINGS = {
    "tk": st.builds(TverskyKahnemanWeighting, st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
    "prelec": st.builds(PrelecWeighting, st.floats(0.35, 0.95), st.floats(0.5, 2.0),
                        st.floats(0.5, 2.0)),
    "identity": st.just(IdentityWeighting()),
}
LAWS = {
    "lognormal": st.builds(Lognormal, st.floats(-0.02, 0.08), st.floats(0.05, 0.35)),
    "normal": st.builds(Normal, st.floats(-0.02, 0.08), st.floats(0.05, 0.35)),
    "student-t": st.builds(StudentT, st.floats(4.0, 10.0), st.floats(-0.02, 0.08),
                           st.floats(0.05, 0.3)),
}


@pytest.mark.parametrize("kind", WEIGHTINGS)
@given(data=st.data(), u=st.floats(1.01, 1.7), down=st.floats(0.0, 1.0),
       p=st.floats(0.05, 0.95), r=st.floats(0.0, 0.08), lam=st.floats(0.0, 0.1),
       rise=st.floats(0.0, 0.05), eta=st.floats(0.2, 3.0), zeta=st.floats(1.01, 4.0))
@settings(max_examples=50, deadline=None)
def test_a_higher_cost_rate_does_not_raise_the_two_state_prospect(kind, data, u, down, p, r,
                                                                 lam, rise, eta, zeta):
    """``solve_binomial`` from all cash, within the band ``binomial._close`` resolves in."""
    law = Binomial(u, 0.4 + down * (u - 0.43), p)
    low, high = MarketModel(r, lam, law), MarketModel(r, lam + rise, law)
    # then no arbitrage at lam + rise too: both of the check's probabilities grow with lam
    assume(check_no_arbitrage(low).passed)
    pref = CptPreference(ExponentialUtility(eta, eta, zeta), data.draw(WEIGHTINGS[kind]))
    before, after = solve_binomial(1.0, low, pref), solve_binomial(1.0, high, pref)
    assert after.prospect <= before.prospect or _close(after.prospect, before.prospect)


def _ratio_band(inputs) -> float:
    """The band within which ``continuous._solve_ray`` resolves loss aversion against
    the buy ray's ratio: ten times the ratio's propagated quadrature error."""
    gl = inputs.buy
    return max(_MIN_BAND, 10.0 * ((gl.gain_error + inputs.ratio_buy * gl.loss_error) / gl.loss))


@pytest.mark.parametrize("zero_initial", [False, True], ids=["constrained", "all-cash"])
@pytest.mark.parametrize("kind", ["tk", "identity"])
@pytest.mark.parametrize("family", LAWS)
@given(data=st.data(), alpha=st.floats(0.45, 0.82), gap=st.floats(0.05, 0.18),
       k=st.floats(1.05, 4.0), r=st.floats(0.0, 0.04), lam=st.floats(0.0, 0.04),
       rise=st.floats(0.0, 0.02), y0=st.floats(0.2, 2.0))
@settings(max_examples=4, deadline=None)
def test_a_higher_cost_rate_does_not_raise_the_buy_ratio_or_the_continuous_prospect(
        family, kind, zero_initial, data, alpha, gap, k, r, lam, rise, y0):
    """The constrained (y0 > 0) or all-cash solve, whose optimum is finite since beta
    exceeds alpha, within the bands ``continuous`` resolves its comparisons in."""
    port = Portfolio(1.0, 0.0 if zero_initial else y0)
    pref = CptPreference(PowerUtility(alpha, alpha + gap, k), data.draw(WEIGHTINGS[kind]))
    returns = data.draw(LAWS[family])
    (before, low), (after, high) = (
        solve_with_inputs(port, MarketModel(r, cost, returns), pref, zero_initial)
        for cost in (lam, lam + rise))
    assert high.ratio_buy <= low.ratio_buy + max(_ratio_band(low), _ratio_band(high))
    assert math.isfinite(before.prospect) and math.isfinite(after.prospect)
    band = max(_value_band(low, before.theta), _value_band(high, after.theta))
    assert after.prospect <= before.prospect + band


@pytest.mark.parametrize("kind", ["tk", "identity"])
@pytest.mark.parametrize("family", LAWS)
@given(data=st.data(), alpha=st.floats(0.45, 0.82), gap=st.floats(0.05, 0.18),
       k=st.floats(1.05, 4.0), r=st.floats(0.0, 0.04), lam=st.floats(0.0, 0.04),
       rise=st.floats(0.005, 0.03), y0=st.floats(0.2, 2.0))
@settings(max_examples=4, deadline=None)
def test_a_sale_within_the_holdings_scales_with_one_minus_the_cost_rate(family, kind, data,
                                                                        alpha, gap, k, r, lam,
                                                                        rise, y0):
    """Under the power utility the per-unit sell integrals scale as (1-lam)**alpha and
    (1-lam)**beta, and an interior optimal sale keeps theta*(1-lam), its prospect and
    its case while the floor -y0 does not bind, each within the integrals' own error
    estimates (the candidate's through the ratio it is a power of)."""
    beta = alpha + gap
    pref = CptPreference(PowerUtility(alpha, beta, k), data.draw(WEIGHTINGS[kind]))
    returns, port = data.draw(LAWS[family]), Portfolio(1.0, y0)
    (before, low), (after, high) = (
        solve_with_inputs(port, MarketModel(r, cost, returns), pref) for cost in (lam, lam + rise))
    shrink = (1.0 - lam - rise) / (1.0 - lam)
    for part, power in (("gain", alpha), ("loss", beta)):
        scaled = getattr(low.sell, part) * shrink**power
        error = getattr(low.sell, f"{part}_error") * shrink**power + getattr(high.sell,
                                                                               f"{part}_error")
        assert abs(getattr(high.sell, part) - scaled) <= error
    sale = (1.0 - lam) * before.theta
    if not (before.case_id[5:] in ("3a", "3b") and sale / (1.0 - lam - rise) > -y0):
        return  # no interior sale, or one the floor cuts at the higher cost rate
    assert after.case_id == before.case_id
    ratio_error = sum(gl.gain_error / gl.gain + gl.loss_error / gl.loss
                      for gl in (low.sell, high.sell))
    assert abs((1.0 - lam - rise) * after.theta - sale) <= abs(sale) * ratio_error / gap
    value_error = sum(gl.gain_error * abs(theta) ** alpha + k * gl.loss_error * abs(theta) ** beta
                      for gl, theta in ((low.sell, before.theta), (high.sell, after.theta)))
    assert abs(after.prospect - before.prospect) <= value_error


def _loss_term(inputs, theta: float) -> float:
    """L(theta), the loss part of the factorized objective without loss aversion."""
    if theta == 0.0:
        return 0.0
    return inputs._ray("buy" if theta > 0 else "sell").loss * abs(theta) ** inputs.beta


@pytest.mark.parametrize("zero_initial", [False, True], ids=["constrained", "all-cash"])
@pytest.mark.parametrize("kind", ["tk", "identity"])
@pytest.mark.parametrize("family", LAWS)
@given(data=st.data(), alpha=st.floats(0.45, 0.82), gap=st.floats(0.05, 0.18),
       k=st.floats(1.05, 3.0), more=st.floats(0.01, 2.0), r=st.floats(0.0, 0.04),
       lam=st.floats(0.0, 0.04), y0=st.floats(0.2, 2.0))
@settings(max_examples=4, deadline=None)
def test_more_loss_aversion_does_not_raise_the_continuous_loss_term(family, kind, zero_initial,
                                                                   data, alpha, gap, k, more, r,
                                                                   lam, y0):
    """The constrained or all-cash optimum at k and at k + more, classified from the
    same per-unit integrals; each optimality holds within ``_value_band``, so their
    sum bounds the rise of the loss term by the two bands over ``more``."""
    port = Portfolio(1.0, 0.0 if zero_initial else y0)
    pref = CptPreference(PowerUtility(alpha, alpha + gap, k), data.draw(WEIGHTINGS[kind]))
    m = MarketModel(r, lam, data.draw(LAWS[family]))
    before, low = solve_with_inputs(port, m, pref, zero_initial)
    high = replace(low, loss_aversion=k + more)
    after = classify(high)
    thetas = (before.theta, after.theta)
    assert all(math.isfinite(theta) for theta in thetas)
    band = _value_band(low, *thetas) + _value_band(high, *thetas)
    assert more * (_loss_term(low, before.theta) - _loss_term(low, after.theta)) >= -band


def _two_state_loss_term(m: MarketModel, pref: CptPreference, theta: float) -> float:
    """L(theta) from all cash: the loss state's decision weight times its utility loss,
    loss aversion left out."""
    eta, law = pref.utility.eta_loss, m.returns
    cash = (1.0 + m.r) * 1.0
    diffs = [terminal_wealth(Portfolio(1.0, 0.0), m, theta, x) - cash for x in (law.u, law.d)]
    if diffs == [0.0, 0.0]:
        return 0.0
    dist = DiscreteLaw(diffs, [1.0 - law.p, law.p])
    return gain_loss(lambda side: lambda x: -math.expm1(-eta * x), pref.weighting, dist).loss


@pytest.mark.parametrize("kind", WEIGHTINGS)
@given(data=st.data(), u=st.floats(1.01, 1.7), down=st.floats(0.0, 1.0),
       p=st.floats(0.05, 0.95), r=st.floats(0.0, 0.08), lam=st.floats(0.0, 0.1),
       eta=st.floats(0.2, 3.0), zeta=st.floats(1.01, 4.0), more=st.floats(0.01, 2.0))
@settings(max_examples=50, deadline=None)
def test_more_loss_aversion_does_not_raise_the_two_state_loss_term(kind, data, u, down, p, r,
                                                                  lam, eta, zeta, more):
    """``solve_binomial`` from all cash at zeta and zeta + more, where both optima are
    finite trades; each optimality holds within ``binomial._close`` at the objective's
    scale (|value| <= 1 + zeta + more), so the loss term rises by at most two bands."""
    m = MarketModel(r, lam, Binomial(u, 0.4 + down * (u - 0.43), p))
    assume(check_no_arbitrage(m).passed)
    weighting = data.draw(WEIGHTINGS[kind])
    prefs = [CptPreference(ExponentialUtility(eta, eta, z), weighting) for z in (zeta, zeta + more)]
    thetas = [solve_binomial(1.0, m, pref).theta for pref in prefs]
    if not all(math.isfinite(theta) for theta in thetas):
        return  # an unbounded ray or a whole line of optima
    loss = [_two_state_loss_term(m, prefs[0], theta) for theta in thetas]
    band = 2.0 * _REL_BAND * (1.0 + zeta + more)
    assert more * (loss[0] - loss[1]) >= -band
