import hashlib
import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptinvest import oracle
from cptinvest.binomial import prepare_binomial_inputs, solve_binomial, solve_ray
from cptinvest.choquet import ProspectDivergenceError, prospect_value, rank_weights
from cptinvest.continuous import prepare_inputs, solve
from cptinvest.distributions import ContinuousLaw
from cptinvest.market import (
    Binomial,
    Empirical,
    Lognormal,
    MarketModel,
    Normal,
    Portfolio,
    StudentT,
)
from cptinvest.oracle import (
    _ROW_BLOCK,
    GridRangeError,
    GridSpec,
    _affine_coefficients,
    _decision_weights,
    _ray_crossing,
    difference_law,
    evaluate_objective,
    evaluate_objective_grid,
    grid_search,
    verify,
)
from cptinvest.preferences import (
    CptPreference,
    ExponentialUtility,
    IdentityWeighting,
    PowerUtility,
    PrelecWeighting,
    TverskyKahnemanWeighting,
)
from cptinvest.solution import Solution, SolutionKind

TK = TverskyKahnemanWeighting(0.61, 0.69)
BINOM = MarketModel(0.0, 0.02, Binomial(1.5, 0.95, 0.55))
EXP_PREF = CptPreference(ExponentialUtility(1.5, 1.5, 1.2), TK)
CASH = Portfolio(1.0, 0.0)


def test_doing_nothing_scores_zero():
    assert evaluate_objective(CASH, BINOM, EXP_PREF, 0.0) == 0.0
    cont = MarketModel(0.01, 0.01, Lognormal(0.02, 0.2))
    pref = CptPreference(PowerUtility(0.7, 0.9, 2.0), TK)
    assert evaluate_objective(Portfolio(2.0, 1.0), cont, pref, 0.0) == 0.0


def test_difference_law_is_two_point_for_binomial():
    law = difference_law(CASH, BINOM, 0.7)
    assert law.atoms is not None and len(law.atoms) == 2


def test_two_state_objective_matches_the_replication_form():
    """J at theta equals the weighted two-state payoff valuation."""
    theta = 0.8
    m, pref = BINOM, EXP_PREF
    b = (1 + m.r) * CASH.x0
    from cptinvest.market import terminal_wealth

    xi_u = terminal_wealth(CASH, m, theta, 1.5)
    xi_d = terminal_wealth(CASH, m, theta, 0.95)
    w, u = pref.weighting, pref.utility
    expected = (w.on_side("gain").weight(1 - 0.55) * u.value_on("gain")(xi_u - b)
                - w.on_side("loss").weight(0.55) * u.value_on("loss")(b - xi_d))
    assert evaluate_objective(CASH, m, pref, theta) == pytest.approx(expected, rel=1e-12)


def test_factorization_of_the_unit_buy():
    m = MarketModel(0.01, 0.015, Lognormal(0.03, 0.18))
    pref = CptPreference(PowerUtility(0.7, 0.9, 2.0), TK)
    port = Portfolio(1.0, 1.0)
    inputs = prepare_inputs(port, m, pref)
    direct = evaluate_objective(port, m, pref, 1.0)
    assert direct == pytest.approx(
        inputs.buy.gain - pref.utility.loss_aversion * inputs.buy.loss, rel=1e-7
    )


def test_grid_search_is_deterministic():
    spec = GridSpec(-2.0, 5.0, 801, 2)
    a = grid_search(CASH, BINOM, EXP_PREF, spec)
    b = grid_search(CASH, BINOM, EXP_PREF, spec)
    assert (a.argmax_theta, a.max_value, a.final_step) == (b.argmax_theta, b.max_value, b.final_step)


def _kind(obj) -> str:
    return type(obj).__name__


# repeated observations merge into atoms of larger mass
EMPIRICAL = Empirical((0.9, 0.97, 1.0, 1.0, 1.04, 1.04, 1.04, 1.12, 1.3))


@pytest.mark.parametrize("returns", [Binomial(1.5, 0.95, 0.55), EMPIRICAL], ids=_kind)
@pytest.mark.parametrize("weighting", [TK, PrelecWeighting(0.65, 0.8, 1.2), IdentityWeighting()],
                         ids=_kind)
@pytest.mark.parametrize("utility", [ExponentialUtility(1.5, 1.5, 1.2),
                                     PowerUtility(0.7, 0.9, 2.25)], ids=_kind)
@pytest.mark.parametrize("port", [CASH, Portfolio(1.0, 0.5)], ids=["cash", "holdings"])
def test_vectorized_grid_matches_scalar_for_discrete_laws(returns, weighting, utility, port):
    """The rank-weight kernel agrees with per-theta pathwise rank-dependent sums."""
    m = MarketModel(0.0, 0.02, returns)
    pref = CptPreference(utility, weighting)
    # both trade signs, no trade, and the sale of all holdings
    thetas = np.concatenate([np.linspace(-2.0, 3.0, 11), [0.0, -port.y0, -0.37, 1.9]])
    fast = evaluate_objective_grid(port, m, pref, thetas)
    slow = [evaluate_objective(port, m, pref, t) for t in thetas]
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("returns, pref", [
    (Lognormal(0.05, 0.2), CptPreference(PowerUtility(0.7, 0.85, 2.0), TK)),
    (Normal(0.05, 0.2), CptPreference(ExponentialUtility(1.5, 1.5, 1.2), IdentityWeighting())),
    (StudentT(5.0, 0.02, 0.1), CptPreference(ExponentialUtility(1.5, 1.5, 1.2),
                                             IdentityWeighting())),
], ids=["lognormal-tk-power", "normal-identity-exp", "student-t-identity-exp"])
def test_vectorized_grid_matches_scalar_for_continuous(returns, pref):
    m = MarketModel(0.01, 0.01, returns)
    port = Portfolio(1.0, 1.0)
    # -1.6 sells short past the holdings
    thetas = np.array([-1.6, -0.9, -0.3, 0.0, 0.4, 2.0])
    fast = evaluate_objective_grid(port, m, pref, thetas)
    slow = np.array([evaluate_objective(port, m, pref, t) for t in thetas])
    # with test_grid_rows_match_the_adaptive_objective, the tie between verify's only
    # evaluator and the adaptive path
    gap = np.abs(fast - slow) / np.maximum(1.0, np.abs(slow))
    assert gap.max() <= 1e-8, gap


# 260 atoms: a discrete grid block holds 78 thetas, so 4001 rows cross 51 block edges
EMPIRICAL_260 = Empirical(tuple(np.exp(np.random.default_rng(3).normal(0.002, 0.03, 260))))


@pytest.mark.parametrize("returns", [Lognormal(0.05, 0.2), Normal(0.05, 0.2),
                                     StudentT(5.0, 0.02, 0.1), Binomial(1.5, 0.95, 0.55),
                                     EMPIRICAL, pytest.param(EMPIRICAL_260, id="Empirical-260")],
                         ids=_kind)
@pytest.mark.parametrize("weighting", [TK, IdentityWeighting()], ids=_kind)
@pytest.mark.parametrize("utility", [PowerUtility(0.7, 0.9, 2.25),
                                     ExponentialUtility(1.5, 1.5, 1.2)], ids=_kind)
def test_grid_rows_do_not_depend_on_their_neighbours(returns, weighting, utility):
    """Each row's value is bitwise the same whatever else the grid holds."""
    m = MarketModel(0.01, 0.02, returns)
    pref = CptPreference(utility, weighting)
    port = Portfolio(1.0, 1.0)
    # below -y0 the slope theta + lam*y0 varies, so each short sale has its own level
    thetas = np.linspace(-3.0, 10.0, 4001)
    values = evaluate_objective_grid(port, m, pref, thetas)
    assert np.isfinite(values).all()
    rng = np.random.default_rng(7)
    order = rng.permutation(thetas.size)
    assert np.array_equal(evaluate_objective_grid(port, m, pref, thetas[order]), values[order])
    for i in rng.choice(thetas.size, 6, replace=False):
        assert evaluate_objective_grid(port, m, pref, thetas[i:i + 1])[0] == values[i]


@pytest.mark.parametrize("returns", [Lognormal(0.05, 0.2), Normal(0.05, 0.2),
                                     StudentT(5.0, 0.02, 0.1)], ids=_kind)
def test_grid_rows_do_not_depend_on_their_neighbours_across_blocks(returns):
    """Rows stay bitwise the same across row-block and level-group boundaries."""
    m = MarketModel(0.01, 0.02, returns)
    pref = CptPreference(PowerUtility(0.7, 0.9, 2.25), TK)
    port = Portfolio(1.0, 1.0)
    # short sales past the holdings (theta < -1) give each row its own level
    thetas = np.linspace(-1.1, 10.0, 9001)
    values = evaluate_objective_grid(port, m, pref, thetas)
    assert np.isfinite(values).all()
    order = np.random.default_rng(11).permutation(thetas.size)
    assert np.array_equal(evaluate_objective_grid(port, m, pref, thetas[order]), values[order])
    law = m.returns.gross_law()
    base, slope = _affine_coefficients(port, m, thetas)
    buys, sales = np.nonzero(slope > 0.0)[0], np.nonzero(slope < 0.0)[0]
    # buys: over 8000 rows on one ray, in dozens of blocks; sales: one ray plus ~80
    # short sales, each on its own level, so the blocks there span levels
    assert buys.size > 40 * _ROW_BLOCK
    assert np.unique(_ray_crossing(-base[sales] / slope[sales])).size > 50
    positions = set()
    for rows, sign in ((buys, 1.0), (sales, -1.0)):
        # each side sorts a sign class's rows by the grid's own levels, then cuts
        # them into blocks; a block that spans levels gathers their nodes
        s = sign * slope[rows]
        gain = law.affine(0.0, sign).sf_array(_ray_crossing(-base[rows] / s))
        for upper in (gain, 1.0 - gain):
            by_level = np.argsort(upper, kind="stable")
            group_edges = np.nonzero(np.diff(upper[by_level]) != 0.0)[0]
            block_edges = np.arange(_ROW_BLOCK, rows.size, _ROW_BLOCK)
            for pos in (0, rows.size - 1, *(block_edges - 1), *block_edges,
                        *group_edges, *(group_edges + 1)):
                positions.add(rows[by_level[pos]])
    for i in sorted(positions):
        assert evaluate_objective_grid(port, m, pref, thetas[i:i + 1])[0] == values[i]


@pytest.mark.parametrize("returns", [Lognormal(0.05, 0.2), Normal(0.05, 0.2),
                                     StudentT(5.0, 0.02, 0.1)], ids=_kind)
def test_grid_computes_one_level_per_trade_ray(returns, monkeypatch):
    """Rows on a trade ray share its crossing up to rounding, so they share one level:
    one row of 160 quantiles per side and sign class, two where the ray's crossing
    straddles a rounding edge."""
    sizes = []
    for name in ("isf_array", "ppf_array"):
        original = getattr(ContinuousLaw, name)

        def spy(law, q, original=original):
            sizes.append(np.size(q))
            return original(law, q)

        monkeypatch.setattr(ContinuousLaw, name, spy)
    m = MarketModel(0.01, 0.02, returns)
    pref = CptPreference(PowerUtility(0.7, 0.9, 2.25), TK)
    # no short sales: every sale lies on the one ray of 1 + r, every buy on (1+r)/(1-lam)
    evaluate_objective_grid(Portfolio(1.0, 1.0), m, pref, np.linspace(-1.0, 10.0, 9001))
    assert len(sizes) == 4  # gain and loss side of the buys and of the sales
    assert max(sizes) <= 2 * 160, sizes


POWER = PowerUtility(0.7, 0.9, 2.25)
BOUNDED = ExponentialUtility(1.5, 1.5, 1.2)
CONTINUOUS_LAWS = (Lognormal(0.05, 0.2), Normal(0.05, 0.2), StudentT(5.0, 0.02, 0.1))


def _case(returns, utility, weighting):
    return pytest.param(returns, utility, weighting,
                        id=f"{_kind(returns)}-{_kind(utility)}-{_kind(weighting)}")


@pytest.mark.parametrize("returns, utility, weighting", [
    *(_case(returns, utility, weighting) for returns in CONTINUOUS_LAWS
      for utility in (POWER, BOUNDED) for weighting in (TK, IdentityWeighting())),
    # gamma down to 0.5 under the bounded utility, delta_gain != delta_loss; the
    # lognormal and Normal spans pass sigma = 700 and take log quantiles there
    *(_case(returns, utility, weighting) for returns in CONTINUOUS_LAWS[:2]
      for utility, weighting in ((POWER, PrelecWeighting(0.65, 0.8, 1.2)),
                                 (BOUNDED, PrelecWeighting(0.5, 0.7, 1.3)))),
    # Student-t tails against Prelec converge only under the bounded utility
    _case(CONTINUOUS_LAWS[2], BOUNDED, PrelecWeighting(0.7, 0.8, 1.2)),
])
def test_grid_rows_match_the_adaptive_objective(returns, utility, weighting):
    m = MarketModel(0.01, 0.02, returns)
    pref = CptPreference(utility, weighting)
    port = Portfolio(1.0, 1.0)
    # both rays; -2.5 and -1.6 sell short past the holdings
    thetas = np.array([-2.5, -1.6, -1.0, -0.4, 0.3, 2.0, 8.0])
    fast = evaluate_objective_grid(port, m, pref, thetas)
    slow = np.array([evaluate_objective(port, m, pref, t) for t in thetas])
    gap = np.abs(fast - slow) / np.maximum(1.0, np.abs(slow))
    assert gap.max() <= 1e-8, gap


@pytest.mark.parametrize("pref", [
    CptPreference(PowerUtility(), TverskyKahnemanWeighting(0.6, 0.7)),
    CptPreference(ExponentialUtility(), IdentityWeighting()),
], ids=["power-tk", "exponential-identity"])
def test_grid_rows_with_no_gain_side_and_at_zero_match_the_adaptive_objective(pref):
    # a gross return past 1 + r = 2 is ~200 sigmas out: every buy row has no gain side,
    # and theta = +-1e-17 and 0 leave the held position at y0, the constant rows
    m = MarketModel(1.0, 0.0, Normal(0.0, 0.005))
    port = Portfolio(1.0, 1.0)
    thetas = np.concatenate([[-1e-17, 0.0, 1e-17], np.linspace(0.1, 5.0, 21)])
    fast = evaluate_objective_grid(port, m, pref, thetas)
    slow = np.array([evaluate_objective(port, m, pref, t) for t in thetas])
    gap = np.abs(fast - slow) / np.maximum(1.0, np.abs(slow))
    assert gap.max() <= 1e-8, gap


@pytest.mark.parametrize("returns, pref", [
    # Prelec: the gain span (45 / 0.7)**(1 / 0.5) runs to sigma ~ 4 100
    (StudentT(5.0, 0.02, 0.1), CptPreference(BOUNDED, PrelecWeighting(0.5, 0.7, 1.3))),
    # TK: the gain tail decays like e**(-(0.4 - 0.7/2) * sigma), 40 e-folds reach ~ 800
    (StudentT(2.0, 0.02, 0.1), CptPreference(POWER, TverskyKahnemanWeighting(0.4, 0.69))),
], ids=["prelec", "tk"])
def test_grid_refuses_a_student_t_tail_past_sigma_700(returns, pref):
    # Student-t quantiles have no log-probability form, and past sigma = 700 the
    # level q = e**-sigma leaves the normal floats
    m = MarketModel(0.01, 0.02, returns)
    with pytest.raises(GridRangeError, match="gain tail reaches sigma .* past 700"):
        evaluate_objective_grid(Portfolio(1.0, 1.0), m, pref, np.array([-0.5, 2.0]))


@pytest.mark.parametrize("returns, theta", [
    # s*Q overflows at the deep tail quantiles; under the power utility the row is +inf
    (Lognormal(0.06, 0.2), 5.1e307),
    (Binomial(1.5, 0.95, 0.55), 1.5e308),
], ids=["lognormal", "binomial"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_grid_refuses_a_row_whose_wealth_difference_overflows(returns, theta):
    m = MarketModel(0.02, 0.01, returns)
    pref = CptPreference(PowerUtility(0.8, 0.88, 2.25), TK)
    with pytest.raises(GridRangeError, match=re.escape(f"theta={theta!r} overflows")):
        evaluate_objective_grid(Portfolio(1.0, 1.0), m, pref, np.array([1.0, theta]))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("lam", [0.01, 0.0])
@pytest.mark.parametrize("returns", [Lognormal(0.05, 0.2), Normal(0.05, 0.2),
                                     StudentT(5.0, 0.02, 0.1), Binomial(1.5, 0.95, 0.55),
                                     EMPIRICAL],
                         ids=["lognormal", "normal", "student-t", "two-state", "empirical"])
# inf - inf and 0 * inf in the wealth difference's coefficients
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_grid_refuses_a_theta_that_is_not_finite(returns, lam, theta):
    """A continuous row with a NaN slope (theta NaN or +inf) or a NaN base (-inf) used
    to come back as 0.0; every law refuses it and names it."""
    m = MarketModel(0.01, lam, returns)
    with pytest.raises(GridRangeError, match=re.escape(f"theta={theta!r} overflows")):
        evaluate_objective_grid(Portfolio(1.0, 1.0), m, CptPreference(POWER, TK),
                                np.array([-0.5, theta, 2.0]))


@pytest.mark.parametrize("m, port, pref", [
    # the NaN atom used to come back as a finite -0.5827
    (BINOM, CASH, EXP_PREF),
    # a NaN probe slipped past the affinity check, then the quadrature met inf and
    # raised ProspectDivergenceError
    (MarketModel(0.0, 0.02, Lognormal(0.06, 0.2)), Portfolio(1.0, 1.0),
     CptPreference(PowerUtility(0.8, 0.88, 2.25), TK)),
], ids=["binomial", "lognormal"])
def test_difference_law_refuses_a_wealth_difference_that_overflows(m, port, pref):
    # gross * held overflows to inf, and inf - inf leaves a NaN wealth difference
    with pytest.raises(GridRangeError, match=re.escape("theta=1.7e+308 overflows")):
        evaluate_objective(port, m, pref, 1.7e308)


def test_grid_follows_the_polynomial_tail_of_student_t():
    # Student-t quantiles grow like q**(-1/nu), which steepens the endpoint
    # singularity of u(|Q|) w'(q); an unmatched substitution errs more at larger theta
    m = MarketModel(0.01, 0.02, StudentT(5.0, 0.0, 0.1))
    pref = CptPreference(PowerUtility(0.7, 0.9, 2.25), TK)
    port = Portfolio(1.0, 1.0)
    thetas = np.array([-1.0, 2.0, 5.0, 10.0])
    fast = evaluate_objective_grid(port, m, pref, thetas)
    slow = [evaluate_objective(port, m, pref, t) for t in thetas]
    np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-9)


def test_grid_refuses_a_student_t_tail_heavier_than_the_weighting_allows():
    # loss side: q**(delta - 1) * |Q|**beta ~ q**(0.69 - 1 - 0.9/1.2) is not integrable
    m = MarketModel(0.01, 0.02, StudentT(1.2, 0.0, 0.1))
    pref = CptPreference(PowerUtility(0.7, 0.9, 2.25), TK)
    with pytest.raises(ProspectDivergenceError, match="loss"):
        evaluate_objective_grid(Portfolio(1.0, 1.0), m, pref, np.array([0.5, 2.0]))


def test_self_consistency_of_reported_prospects():
    sol = solve_binomial(1.0, BINOM, EXP_PREF)
    assert sol.kind is SolutionKind.FINITE_POINT
    direct = evaluate_objective(CASH, BINOM, EXP_PREF, sol.theta)
    assert direct == pytest.approx(sol.prospect, rel=1e-7)

    m = MarketModel(1.3380e-5, 5e-4, Lognormal(3.2932e-4, 7.4383e-3))
    pref = CptPreference(PowerUtility(0.8, 0.88, 2.25), TK)
    port = Portfolio(1.0, 1.0)
    sol = solve(port, m, pref)
    assert evaluate_objective(port, m, pref, sol.theta) == pytest.approx(
        sol.prospect, rel=1e-7, abs=1e-12
    )


def test_verify_matches_the_closed_form_solution():
    sol = solve_binomial(1.0, BINOM, EXP_PREF)
    span = 10.0 * (1.0 + abs(sol.theta))
    report = verify(sol, CASH, BINOM, EXP_PREF, GridSpec(-span, span, 4001, 2))
    assert report.agreement == "match"
    assert report.final_step is not None


def test_verify_builds_each_decision_weight_list_once(monkeypatch):
    """The weights depend on the weighting and the masses, not on theta: one verify's
    grid-search passes and point check share four lists, and a later grid builds none."""
    m = MarketModel(0.0, 0.02, EMPIRICAL)
    port, pref = Portfolio(1.0, 1.0), CptPreference(PowerUtility(0.6, 0.8, 2.25), TK)
    sol = solve(port, m, pref)
    assert sol.kind is SolutionKind.FINITE_POINT
    built = []

    def spy(weighting, side, probs):
        built.append((side, tuple(probs)))
        return rank_weights(weighting, side, probs)

    monkeypatch.setattr("cptinvest.oracle.rank_weights", spy)
    _decision_weights.cache_clear()
    assert verify(sol, port, m, pref, GridSpec(-1.0, 10.0, 401, 2)).agreement == "match"
    probs = tuple(p for _, p in m.law.atoms)
    assert sorted(built) == sorted([("gain", probs), ("gain", probs[::-1]),
                                    ("loss", probs), ("loss", probs[::-1])])
    built.clear()
    evaluate_objective_grid(port, m, pref, np.linspace(-1.0, 3.0, 41))
    assert built == []


def test_decision_weights_are_cached_by_weighting_and_masses():
    """Interleaved weightings, and laws with equal masses on other atoms, give the
    rows of a cold cache, byte for byte; the cached weights cannot be written."""
    port, utility = Portfolio(1.0, 1.0), PowerUtility(0.6, 0.8, 2.25)
    weightings = [TverskyKahnemanWeighting(0.6, 0.7), TverskyKahnemanWeighting(0.7, 0.6),
                  PrelecWeighting(0.65, 0.8, 1.2), IdentityWeighting()]
    # equal masses on different atoms: both binomials, and both empirical laws
    markets = [MarketModel(0.02, 0.01, Binomial(1.5, 0.95, 0.55)),
               MarketModel(0.02, 0.01, Binomial(1.2, 0.8, 0.55)),
               MarketModel(0.02, 0.01, EMPIRICAL),
               MarketModel(0.02, 0.01, Empirical((0.8, 0.95, 1.01, 1.01, 1.02, 1.02, 1.02,
                                                  1.1, 1.4)))]
    thetas = np.linspace(-1.0, 3.0, 9)
    cold = {}
    for i, m in enumerate(markets):
        for j, w in enumerate(weightings):
            _decision_weights.cache_clear()
            cold[i, j] = evaluate_objective_grid(port, m, CptPreference(utility, w),
                                                 thetas).tobytes()
    _decision_weights.cache_clear()
    for _ in range(2):
        for j, w in enumerate(weightings):
            for i, m in enumerate(markets):
                warm = evaluate_objective_grid(port, m, CptPreference(utility, w), thetas)
                assert warm.tobytes() == cold[i, j], (i, j)
    assert _decision_weights.cache_info().misses == 2 * len(weightings)
    for weights in _decision_weights(TK, (0.25, 0.75)):
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 1.0


EMPIRICAL_52 = Empirical(tuple(np.exp(np.random.default_rng(5).normal(0.002, 0.03, 52))))


def _discrete_grid_digest(returns, utility, weighting) -> str:
    """SHA-256 of the float.hex of a discrete law's grid rows, over sorted, permuted,
    short-sale, one-row and empty grids and a sorted grid whose sales end in a lone
    column."""
    m, port = MarketModel(0.01, 0.02, returns), Portfolio(1.0, 1.0)
    width = max(2, _ROW_BLOCK * 160 // len(m.law.atoms))  # the thetas of one block
    short = np.linspace(-3.0, 10.0, 4001)  # short sales past the holdings below -1
    grids = [np.linspace(-1.0, 10.0, 401), short, np.random.default_rng(9).permutation(short),
             np.array([0.37]), np.array([-0.5]), np.array([-2.0]), np.array([0.0]), np.array([]),
             # width + 1 sales, then width thetas from 0 up: a lone sale after one block
             np.arange(-(width + 1), width) / width]
    digest = hashlib.sha256()
    for thetas in grids:
        values = evaluate_objective_grid(port, m, CptPreference(utility, weighting), thetas)
        digest.update(",".join(float(v).hex() for v in values).encode())
    return digest.hexdigest()


# _discrete_grid_digest of the grid that evaluated every atom of every row
_GOLDEN_GRID_DIGESTS = {
    "TverskyKahnemanWeighting-PowerUtility-Binomial":
        "825567376ad8d7fc1c5975ac1da61968e1a9eaaffbd01bc0a4a67c6601e67ac2",
    "IdentityWeighting-PowerUtility-Binomial":
        "0e5658ff7ab0bccb9e2b8e907f84496b8fb502ab31683708aa77bff318758513",
    "TverskyKahnemanWeighting-ExponentialUtility-Binomial":
        "a53a92b0a77436a7970b2529bd6fdb33de9c1bd5e507896d7d64eeeb5002c59f",
    "IdentityWeighting-ExponentialUtility-Binomial":
        "1fa01195c66e756b90cc5fdfe71e2735f2ab3d1feee36356c32d89a5b713e56a",
    "TverskyKahnemanWeighting-PowerUtility-Empirical-52":
        "73cfb6532ec03d6a8cb8b3922786fbd1e6e5df1f2a19286312691fff06d0dba4",
    "IdentityWeighting-PowerUtility-Empirical-52":
        "2f93a08808eb12bbdfff0c90ab58ce58e885f15c101200823eb6ddf55b58ef0a",
    "TverskyKahnemanWeighting-ExponentialUtility-Empirical-52":
        "bb491a3c259b68035f73c45fe32aab4a0319eb93f37e034ac33f41d1d9ba87b8",
    "IdentityWeighting-ExponentialUtility-Empirical-52":
        "c7f9a4be8c2c320bb1eb305c9a1e295b9ece23caf319d5386bdeb431fab03a21",
    "TverskyKahnemanWeighting-PowerUtility-Empirical-260":
        "0d1edff92bbe08ba3aa24093c27dda75f9d76ce7ffd6c50c6dba6ce59562136b",
    "IdentityWeighting-PowerUtility-Empirical-260":
        "5465ae1ddd108642487b74aa0b1f665fcb73b2bbdaddd564d3f76ba03565cfdc",
    "TverskyKahnemanWeighting-ExponentialUtility-Empirical-260":
        "d32fedd2ba80635ed36c7636580b2c48ab80fab927295b36c468c2770106fefc",
    "IdentityWeighting-ExponentialUtility-Empirical-260":
        "01c536a733922df79e045cecffce8153cda19e3b318ccefdc61642088815d7a7",
}


@pytest.mark.parametrize("returns", [Binomial(1.5, 0.95, 0.55),
                                     pytest.param(EMPIRICAL_52, id="Empirical-52"),
                                     pytest.param(EMPIRICAL_260, id="Empirical-260")], ids=_kind)
@pytest.mark.parametrize("utility", [POWER, BOUNDED], ids=_kind)
@pytest.mark.parametrize("weighting", [TK, IdentityWeighting()], ids=_kind)
def test_discrete_grid_rows_keep_their_bits(returns, utility, weighting, request):
    """Rows keep the bits of the grid that evaluated every atom on both sides, and the
    0/0 crossing at theta = 0 warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        digest = _discrete_grid_digest(returns, utility, weighting)
    assert digest == _GOLDEN_GRID_DIGESTS[request.node.callspec.id]


@pytest.mark.parametrize("n_rows", [401, 4001])
def test_discrete_grid_utility_sees_about_one_atom_per_row(n_rows, monkeypatch):
    """On a sorted grid, the gain and the loss side together evaluate the utility on
    about one atom per row and atom, not two."""
    sizes = []
    original = PowerUtility.value_array

    def spy(utility, side, x, out=None):
        sizes.append(np.size(x))
        return original(utility, side, x, out=out)

    monkeypatch.setattr(PowerUtility, "value_array", spy)
    m = MarketModel(0.01, 0.02, EMPIRICAL_260)
    evaluate_objective_grid(Portfolio(1.0, 1.0), m, CptPreference(POWER, TK),
                            np.linspace(-1.0, 10.0, n_rows))
    assert sum(sizes) <= 1.1 * n_rows * 260, sum(sizes) / (n_rows * 260)


@pytest.mark.parametrize("returns", [Binomial(1.5, 0.95, 0.55),
                                     Empirical((0.9, 0.97, 1.0, 1.04, 1.12)),
                                     Lognormal(0.05, 0.2)], ids=_kind)
def test_grid_returns_values_in_the_shape_of_its_thetas(returns):
    """Scalar and 2-D thetas give the bytes of the flat call, in their own shape."""
    m, port = MarketModel(0.02, 0.01, returns), Portfolio(1.0, 1.0)
    pref = CptPreference(PowerUtility(0.6, 0.8, 2.25), TK)
    grid = np.array([[0.5, 1.0], [1.5, -0.5]])
    flat = evaluate_objective_grid(port, m, pref, grid.ravel())
    square = evaluate_objective_grid(port, m, pref, grid)
    assert square.shape == grid.shape
    assert square.tobytes() == flat.tobytes()
    scalar = evaluate_objective_grid(port, m, pref, 0.5)
    assert scalar.shape == ()
    assert scalar.tobytes() == flat[:1].tobytes()


def test_verify_reports_how_many_grid_points_it_evaluated():
    sol = solve_binomial(1.0, BINOM, EXP_PREF)
    spec = GridSpec(-5.0, 5.0, 801, 2)
    report = verify(sol, CASH, BINOM, EXP_PREF, spec)
    assert report.n_evaluations == grid_search(CASH, BINOM, EXP_PREF, spec).n_evaluations
    assert report.n_evaluations > spec.n_points


def test_verify_searches_a_finite_point_through_grid_search(monkeypatch):
    """verify's search is the public ``grid_search``, called once with theta* in ``at``;
    the report's search fields are that call's result."""
    sol = solve_binomial(1.0, BINOM, EXP_PREF)
    assert sol.kind is SolutionKind.FINITE_POINT
    spec = GridSpec(-5.0, 5.0, 801, 2)
    calls = []

    def spy(p, m, pref, spec, at=()):
        calls.append((at, grid_search(p, m, pref, spec, at=at)))
        return calls[-1][1]

    monkeypatch.setattr(oracle, "grid_search", spy)
    report = verify(sol, CASH, BINOM, EXP_PREF, spec)
    ((at, result),) = calls
    assert at == (sol.theta,)
    assert result.values_at.shape == (1,)
    assert (report.argmax_theta, report.max_value, report.final_step,
            report.n_evaluations) == astuple(result)[:4]


def test_verify_rejects_a_perturbed_solution():
    sol = solve_binomial(1.0, BINOM, EXP_PREF)
    assert sol.kind is SolutionKind.FINITE_POINT
    span = 10.0 * (1.0 + abs(sol.theta))
    spec = GridSpec(-span, span, 4001, 2)
    fake = Solution.point(sol.theta + 0.1, sol.case_id, sol.prospect)
    report = verify(fake, CASH, BINOM, EXP_PREF, spec)
    assert report.agreement == "mismatch"


def test_negative_control_perturbation_loses_value():
    inputs = prepare_binomial_inputs(1.0, BINOM, EXP_PREF)
    sol = solve_ray(inputs, "buy")
    assert sol.case_id == "T4.1-4"
    span = 10.0 * (1.0 + abs(sol.theta))
    result = grid_search(CASH, BINOM, EXP_PREF, GridSpec(-span, span, 4001, 2))
    bump = 5.0 * result.final_step
    worse = evaluate_objective(CASH, BINOM, EXP_PREF, sol.theta + bump)
    assert evaluate_objective(CASH, BINOM, EXP_PREF, sol.theta) > worse


def test_verify_interval_solutions():
    # equal pseudo-probabilities at the knife edge: a whole ray of optima
    m = MarketModel(0.05, 0.0, Binomial(1.3, 0.8, 0.2))
    thr = prepare_binomial_inputs(1.0, m, EXP_PREF).thresholds
    pref = CptPreference(ExponentialUtility(1.5, 1.5, thr.buy_unbounded), TK)
    sol = solve_binomial(1.0, m, pref)
    assert sol.kind is SolutionKind.INTERVAL
    report = verify(sol, CASH, m, pref, GridSpec(-10, 10, 2001, 1))
    assert report.agreement == "match", report.detail



KNIFE_EDGE = MarketModel(0.05, 0.0, Binomial(1.3, 0.8, 0.2))
BULL = MarketModel(0.05, 0.01, Lognormal(0.13, 0.20))  # ill-posed for the power utility
POWER_PREF = CptPreference(PowerUtility(0.88, 0.88, 2.25), TK)
HOLDING = Portfolio(1.0, 1.0)


def _exp_pref(eta_gain, eta_loss, zeta):
    return CptPreference(ExponentialUtility(eta_gain, eta_loss, zeta), TK)


VERDICT_BRANCHES = [
    pytest.param(Solution.point(2.544270288356109, "T4.3-2a", 0.19457710331104786),
                 CASH, BINOM, EXP_PREF, None,
                 "match", "grid search confirms the reported optimum", id="point-match"),
    pytest.param(Solution.point(2.544270288356109, "T4.3-2a", 0.2), CASH, BINOM, EXP_PREF, None,
                 "mismatch", "grid maximum 0.1945771033 vs reported 0.2 "
                 "(gap -5.423e-03, worst theta 2.54425)", id="point-grid-maximum"),
    pytest.param(Solution.point(3.0, "T4.3-2a", 0.19457710331104786),
                 CASH, BINOM, EXP_PREF, None,
                 "mismatch", "objective at the reported theta is 0.192010289, not the "
                 "reported prospect 0.1945771033", id="point-objective-at-theta"),
    # a wide tolerance passes both value checks, but the argmax is still better
    pytest.param(Solution.point(2.0, "T4.3-2a", 0.192), CASH, BINOM, EXP_PREF, 0.003,
                 "mismatch", "grid argmax 2.54425 sits 5.443e-01 away with a strictly "
                 "better value 0.1945771033", id="point-distant-argmax"),
    pytest.param(Solution.interval(0.0, math.inf, "T4.3-4"),
                 CASH, KNIFE_EDGE, _exp_pref(1.5, 1.5, 2.3633427534449534), None,
                 "match", "interval is flat at the reported prospect", id="interval-match"),
    pytest.param(Solution(SolutionKind.INTERVAL, "T4.3-4", 0.0, lo=0.0, hi=1.0),
                 CASH, BINOM, EXP_PREF, None,
                 "mismatch", "objective deviates by 1.426e-01 from the reported prospect "
                 "at theta=1", id="interval-not-flat"),
    # a whole line of optima claimed where only no trade is optimal (T3.4-1d): the 11
    # points on [-10, 10] find the slope that the NaN ends of the whole line used to miss
    pytest.param(Solution.interval(-math.inf, math.inf, "T3.4-7"), CASH,
                 MarketModel(0.01, 0.01, Lognormal(0.05, 0.2)), POWER_PREF, None,
                 "mismatch", "objective deviates by 2.261e+00 from the reported prospect "
                 "at theta=-10", id="whole-line-not-flat"),
    pytest.param(Solution.unbounded(1.0, "T3.1-8b", math.inf), HOLDING, BULL, POWER_PREF, None,
                 "match", "monotone ladder certification passed", id="infinite-match"),
    pytest.param(Solution.unbounded(-1.0, "T3.1-8b", math.inf), HOLDING, BULL, POWER_PREF, None,
                 "mismatch", "objective not strictly increasing along the ladder: "
                 "[-0.3727132081, -2.974282862, -22.674142, -172.085872]",
                 id="infinite-not-increasing"),
    pytest.param(Solution.unbounded(1.0, "T4.3-7a", 0.3478435528938286),
                 CASH, KNIFE_EDGE, _exp_pref(2.0, 2.0, 1.01), None,
                 "match", "ladder limit and grid dominance certification passed",
                 id="limit-match"),
    pytest.param(Solution.unbounded(1.0, "T4.3-7a", 0.35),
                 CASH, KNIFE_EDGE, _exp_pref(2.0, 2.0, 1.01), None,
                 "mismatch", "ladder end misses the limit prospect by 2.156e-03",
                 id="limit-missed"),
    # slow loss saturation: the sale's objective still falls at the last rung
    pytest.param(Solution.unbounded(-1.0, "T4.3-7a", -0.22130668009531557),
                 CASH, KNIFE_EDGE, _exp_pref(2.0, 0.01, 1.01), None,
                 "mismatch", "objective not approaching the limit from below: "
                 "[0.05683658253, 0.2309654334, 0.1813727373, -0.2213066801]",
                 id="limit-from-above"),
    # the ladder saturates at the limit, but a small buy does better
    pytest.param(Solution.unbounded(1.0, "T4.3-7a", -0.18749405646786),
                 CASH, BINOM, _exp_pref(1.5, 6.0, 1.2), None,
                 "mismatch", "a finite trade beats the claimed limit: 0.008453359662 vs "
                 "-0.1874940565", id="limit-beaten"),
]


@pytest.mark.parametrize("solution, port, m, pref, tol_value, agreement, detail",
                         VERDICT_BRANCHES)
def test_every_verdict_branch_of_verify(solution, port, m, pref, tol_value, agreement, detail):
    spec = GridSpec(-5.0, 5.0, 801, 2)
    report = verify(solution, port, m, pref, spec, tol_value)
    assert (report.agreement, report.detail) == (agreement, detail)
    assert report.closed_form_theta == solution.representative_theta
    assert report.closed_form_value == solution.prospect
    search = astuple(report)[4:]
    if solution.kind is SolutionKind.FINITE_POINT:
        assert search == astuple(grid_search(port, m, pref, spec))[:4]
        assert type(report.final_step) is float
    else:
        assert search[:3] == (None,) * 3


def _count_grid_calls(monkeypatch) -> list:
    """Spy on the oracle's grid evaluator: the number of thetas of each call, in order."""
    calls = []

    def counted(p, m, pref, theta):
        calls.append(np.size(theta))
        return evaluate_objective_grid(p, m, pref, theta)

    monkeypatch.setattr("cptinvest.oracle.evaluate_objective_grid", counted)
    return calls


@pytest.mark.parametrize("branch, n_evaluations", [
    ("interval-match", 11), ("interval-not-flat", 11), ("whole-line-not-flat", 11),
    ("infinite-match", 4), ("infinite-not-increasing", 4),
    ("limit-match", 4 + 801), ("limit-missed", 4 + 801), ("limit-from-above", 4 + 801),
    ("limit-beaten", 4 + 801),
])
def test_ladder_and_interval_verdicts_count_the_points_they_evaluated(branch, n_evaluations,
                                                                     monkeypatch):
    """The ladder counts its rungs and, under a finite limit, the dominance grid that
    shares their grid call; an interval its 11 points.  Each count is the number of
    thetas handed to the grid evaluator."""
    solution, port, m, pref, tol_value, *_ = next(
        p.values for p in VERDICT_BRANCHES if p.id == branch)
    thetas = _count_grid_calls(monkeypatch)
    report = verify(solution, port, m, pref, GridSpec(-5.0, 5.0, 801, 2), tol_value)
    assert report.n_evaluations == sum(thetas) == n_evaluations


@pytest.mark.parametrize("rounds", [0, 1, 2, 3])
@pytest.mark.parametrize("branch", [p.id for p in VERDICT_BRANCHES])
def test_each_verify_branch_makes_as_few_grid_calls_as_its_search_allows(branch, rounds,
                                                                         monkeypatch):
    """A finite point's check at theta* joins the search's last round, one call per
    round; a ladder and its dominance grid share one call, and an interval takes one."""
    solution, port, m, pref, tol_value, *_ = next(
        p.values for p in VERDICT_BRANCHES if p.id == branch)
    calls = _count_grid_calls(monkeypatch)
    report = verify(solution, port, m, pref, GridSpec(-5.0, 5.0, 801, rounds), tol_value)
    assert len(calls) == (rounds + 1 if solution.kind is SolutionKind.FINITE_POINT else 1)
    if solution.kind is SolutionKind.FINITE_POINT:
        # the search's own points, and theta* with the last round
        assert report.n_evaluations == sum(calls) - 1


THETA_STAR_CASES = [
    *(_case(returns, POWER, weighting) for returns in CONTINUOUS_LAWS[:2]
      for weighting in (TK, PrelecWeighting(0.65, 0.8, 1.2), IdentityWeighting())),
    _case(CONTINUOUS_LAWS[2], POWER, TK),
    _case(CONTINUOUS_LAWS[2], POWER, IdentityWeighting()),
    # Student-t tails against Prelec converge only under the bounded utility
    _case(CONTINUOUS_LAWS[2], BOUNDED, PrelecWeighting(0.7, 0.8, 1.2)),
    _case(Binomial(1.5, 0.95, 0.55), BOUNDED, TK),
    _case(EMPIRICAL, POWER, TK),
]


@pytest.mark.parametrize("returns, utility, weighting", THETA_STAR_CASES)
@given(where=st.sampled_from(["argmax", "sale-of-all", "mirror"]) | st.floats(-3.0, 5.0))
@example(where="argmax")
@example(where="sale-of-all")
@example(where="mirror")
@settings(max_examples=8, deadline=None)
def test_verify_compares_the_value_of_a_one_row_call_at_theta_star(returns, utility,
                                                                   weighting, where):
    """The value at theta*, evaluated with the search's last round, is bitwise that of
    a call of its own: at the argmax, at the sale of all holdings (-y0), on the other
    side of no trade from the argmax (a mismatch) and anywhere on the grid."""
    m, pref, port = MarketModel(0.01, 0.02, returns), CptPreference(utility, weighting), HOLDING
    spec = GridSpec(-3.0, 5.0, 201, 2)
    search = grid_search(port, m, pref, spec)
    theta = {"argmax": search.argmax_theta, "sale-of-all": -port.y0,
             "mirror": -search.argmax_theta}.get(where, where)
    # the prospect the search found, so the check at theta* is reached
    solution = Solution.point(theta, "T3.1-2b", search.max_value)
    report = verify(solution, port, m, pref, spec)
    shared = grid_search(port, m, pref, spec, at=(theta,))
    alone = evaluate_objective_grid(port, m, pref, np.array([theta]))
    assert shared == search
    assert shared.values_at.shape == (1,)
    assert float(shared.values_at[0]).hex() == float(alone[0]).hex()
    assert (report.argmax_theta, report.max_value, report.final_step,
            report.n_evaluations) == (search.argmax_theta, search.max_value,
                                      search.final_step, search.n_evaluations)
    if where == "mirror":
        assert report.agreement == "mismatch"
        assert report.detail.startswith("objective at the reported theta is ")


def _exhaustive_search(p, m, pref, spec, rows: list):
    """``grid_search`` as an exhaustive loop: each round evaluates its whole grid in one
    plain ``evaluate_objective_grid`` call, whose thetas and values go to ``rows``."""
    lo, hi = spec.lo, spec.hi
    sub_lo, sub_hi, count = lo, hi, spec.n_points
    n_evals = 0
    for refinement in range(spec.refinement_rounds + 1):
        if refinement:
            sub_lo = max(lo, best_theta - 2.0 * step)
            sub_hi = min(hi, best_theta + 2.0 * step)
            step = step / 10.0
            count = max(3, int(round((sub_hi - sub_lo) / step)) + 1)
        grid = np.linspace(sub_lo, sub_hi, count)
        values = evaluate_objective_grid(p, m, pref, grid)
        rows.append((grid, values))
        n_evals += count
        best = int(np.argmax(values))
        if not refinement or values[best] >= best_value:
            best_theta = float(grid[best])
            best_value = float(values[best])
        step = (sub_hi - sub_lo) / (count - 1)
    return oracle.GridSearchResult(best_theta, best_value, step, n_evals)


def _spy_on_rows(patch, rows: list) -> None:
    """Record the thetas and values of every call of the grid evaluator and of its
    continuous parts, the bounding call's included."""
    parts, grid = oracle._continuous_objective_grid, oracle.evaluate_objective_grid

    def parts_spy(p, m, pref, thetas):
        gain, loss = parts(p, m, pref, thetas)
        with np.errstate(invalid="ignore"):
            rows.append((thetas, gain - loss))
        return gain, loss

    def grid_spy(p, m, pref, thetas):
        values = grid(p, m, pref, thetas)
        rows.append((thetas, values))
        return values

    patch.setattr(oracle, "_continuous_objective_grid", parts_spy)
    patch.setattr(oracle, "evaluate_objective_grid", grid_spy)


def _outcome(search):
    """The search's result, or the type and message of what it raised."""
    try:
        return search()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


_MU, _SIGMA = st.floats(-0.02, 0.08), st.floats(0.05, 0.35)
_ALPHA_BETA = st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)).map(sorted)


@given(returns=st.one_of(st.builds(Lognormal, _MU, _SIGMA), st.builds(Normal, _MU, _SIGMA),
                         st.builds(StudentT, st.sampled_from([3.0, 5.0, 10.0, 30.0]), _MU,
                                   st.floats(0.05, 0.3))),
       utility=st.one_of(
           st.builds(lambda ab, la: PowerUtility(*ab, la), _ALPHA_BETA, st.floats(1.05, 4.0)),
           st.builds(ExponentialUtility, st.floats(0.3, 3.0), st.floats(0.3, 3.0),
                     st.floats(1.05, 4.0))),
       weighting=st.one_of(
           st.builds(TverskyKahnemanWeighting, st.floats(0.35, 1.0), st.floats(0.35, 1.0)),
           st.builds(PrelecWeighting, st.floats(0.5, 0.95), st.floats(0.5, 1.5),
                     st.floats(0.5, 1.5)),
           st.just(IdentityWeighting())),
       r=st.floats(0.0, 0.04), lam=st.floats(0.0, 0.04),
       y0=st.just(0.0) | st.floats(0.1, 2.0),
       start=st.sampled_from(["-y0", "below -y0", "-y0/2"]),
       below=st.floats(0.05, 1.0), reach=st.floats(1.0, 1e3),
       n_points=st.integers(65, 2001), rounds=st.sampled_from([0, 1, 2]))
@settings(max_examples=150, deadline=None)
def test_grid_search_matches_an_exhaustive_search(returns, utility, weighting, r, lam, y0,
                                                  start, below, reach, n_points, rounds):
    """The search, whose first pass on a continuous law skips blocks bounded below its
    best row, finds the exhaustive search's argmax, maximum, step and count, bit for
    bit, and raises as it does; every row it evaluates is the exhaustive search's."""
    m, pref = MarketModel(r, lam, returns), CptPreference(utility, weighting)
    port = Portfolio(1.0, y0)
    lo = {"-y0": -y0, "below -y0": -y0 - below * reach, "-y0/2": -y0 / 2.0}[start]
    spec = GridSpec(lo, reach, n_points, rounds)
    evaluated, exhaustive_rows = [], []
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error", RuntimeWarning)
        _spy_on_rows(patch, evaluated)
        found = _outcome(lambda: grid_search(port, m, pref, spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the exhaustive rows' inf - inf
        exhaustive = _outcome(lambda: _exhaustive_search(port, m, pref, spec, exhaustive_rows))
    if isinstance(found, tuple) or isinstance(exhaustive, tuple):
        assert found == exhaustive
        return
    fields = [[*(float(v).hex() for v in astuple(result)[:3]), result.n_evaluations]
              for result in (found, exhaustive)]
    assert fields[0] == fields[1]
    reference = {t: v for thetas, values in exhaustive_rows
                 for t, v in zip(thetas.tolist(), values.tolist())}
    for thetas, values in evaluated:
        for theta, value in zip(np.ravel(thetas).tolist(), np.ravel(values).tolist()):
            assert value.hex() == reference[theta].hex(), theta


def test_a_continuous_first_pass_evaluates_a_quarter_of_its_grid_at_most(monkeypatch):
    """The first pass evaluates the ends of each block of its grid and the inside of
    the blocks that might hold the maximum: 416 of 4001 rows here."""
    m = MarketModel(0.02, 0.02, Lognormal(0.05, 0.2))
    pref = CptPreference(PowerUtility(0.6, 0.8, 2.0), TverskyKahnemanWeighting(0.6, 0.7))
    spec = GridSpec(-1.0, 10.0, 4001, 2)
    exhaustive = _exhaustive_search(HOLDING, m, pref, spec, [])
    thetas = []

    def spy(function):
        def spied(p, m, pref, theta):
            thetas.append(np.ravel(theta))
            return function(p, m, pref, theta)
        return spied

    for name in ("_continuous_objective_grid", "evaluate_objective_grid"):
        monkeypatch.setattr(oracle, name, spy(getattr(oracle, name)))
    assert grid_search(HOLDING, m, pref, spec) == exhaustive
    first_pass = np.linspace(spec.lo, spec.hi, spec.n_points)
    evaluated = np.isin(first_pass, np.concatenate(thetas))
    assert evaluated.sum() <= 0.25 * spec.n_points


def _overflow(theta: str) -> GridRangeError:
    return GridRangeError(f"the wealth difference at theta={theta} overflows the float range")


POINT_PROBLEM = (MarketModel(0.01, 0.02, Lognormal(0.05, 0.2)), CptPreference(POWER, TK),
                 GridSpec(-3.0, 5.0, 201, 2))
# the ladder rises toward no limit, and the dominance grid runs past the float range
LADDER_PROBLEM = (BULL, POWER_PREF, GridSpec(0.0, 1.7e308, 801, 2))


@pytest.mark.parametrize("solution, problem, outcome", [
    # theta* overflows, but the grid maximum already disagrees
    pytest.param(Solution.point(1.7e308, "T3.1-2b", 0.2), POINT_PROBLEM,
                 "grid maximum 0.01145907943 vs reported 0.2 (gap -1.885e-01, worst theta "
                 "0.1592)", id="point-grid-maximum"),
    pytest.param(Solution.point(1.7e308, "T3.1-2b", 0.011459079429349067), POINT_PROBLEM,
                 _overflow("1.7e+308"), id="point-at-theta"),
    # the dominance grid overflows, but the ladder already misses the limit
    pytest.param(Solution.unbounded(1.0, "T3.1-8b", 0.35), LADDER_PROBLEM,
                 "ladder end misses the limit prospect by 8.749e+00", id="ladder-end"),
    pytest.param(Solution.unbounded(1.0, "T3.1-8b", None), LADDER_PROBLEM,
                 _overflow("1.7000000000000001e+307"), id="dominance-grid"),
])
def test_verify_refuses_a_point_where_two_grid_calls_would(solution, problem, outcome):
    """Where the call that evaluates two sets of points together is refused, verify
    answers as two calls would: a verdict reached before the second set is read
    stands, and a refused point raises only when it is read."""
    (m, pref, spec), port = problem, HOLDING
    if solution.prospect is None:  # the ladder end, so the ladder passes
        end = evaluate_objective_grid(port, m, pref, np.array([1000.0]))
        solution = Solution.unbounded(1.0, solution.case_id, float(end[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the refused rows' inf - inf
        if isinstance(outcome, Exception):
            with pytest.raises(type(outcome), match=f"^{re.escape(str(outcome))}$"):
                verify(solution, port, m, pref, spec)
            return
        report = verify(solution, port, m, pref, spec)
    assert (report.agreement, report.detail) == ("mismatch", outcome)


def _refuse_the_adaptive_evaluator(*args):
    raise AssertionError("verify called the adaptive prospect evaluator")


@pytest.mark.parametrize("solution, port, m, pref, tol_value, agreement, detail", [
    *VERDICT_BRANCHES,
    pytest.param(Solution.point(0.15938678012780705, "T3.1-2b", 0.011459084389032995),
                 HOLDING, MarketModel(0.01, 0.02, Lognormal(0.05, 0.2)),
                 CptPreference(POWER, TK), None,
                 "match", "grid search confirms the reported optimum", id="continuous-point"),
])
def test_verify_evaluates_only_on_the_grid(solution, port, m, pref, tol_value, agreement,
                                           detail, monkeypatch):
    monkeypatch.setattr("cptinvest.oracle.prospect_value", _refuse_the_adaptive_evaluator)
    report = verify(solution, port, m, pref, GridSpec(-5.0, 5.0, 801, 2), tol_value)
    assert (report.agreement, report.detail) == (agreement, detail)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, n_points=2)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, refinement_rounds=-1)
