"""The paper's comparative statics in the cost rate, as exact checks of the solvers.

Per unit traded, a buy pays (1-lam)R - (1+r), a short (1+r)(1-lam) - R and a sale
of owned shares (1-lam)((1+r) - R); as the cost rate lam rises each payoff falls, or
shrinks toward 0 for the sale, on every path.  CPT respects first-order stochastic
dominance, so neither the objective at a trade nor the best of it over the trades
rises with lam, and neither does the buy ray's gain/loss ratio.  No oracle is read:
each check compares the solver's own answers at two cost rates, within the band in
which the solver resolves such comparisons itself.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cptinvest.binomial import _close, solve_binomial
from cptinvest.continuous import _MIN_BAND, _value_band, solve_with_inputs
from cptinvest.market import (
    Binomial,
    Lognormal,
    MarketModel,
    Normal,
    Portfolio,
    StudentT,
    check_no_arbitrage,
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
