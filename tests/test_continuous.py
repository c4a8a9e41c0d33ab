import dataclasses
import math
import random

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from cptinvest.continuous import (
    PowerCaseInputs,
    classify,
    classify_zero_initial,
    interior_candidates,
    long_integrals,
    prepare_inputs,
    prepare_zero_initial_inputs,
    prospect_along,
    short_integrals,
    solve,
    solve_long,
    solve_short,
    solve_with_inputs,
    solve_zero_initial,
)
from cptinvest.distributions import DiscreteLaw
from cptinvest.market import (
    Binomial,
    Lognormal,
    MarketModel,
    Normal,
    Portfolio,
    StudentT,
    TradeDirection,
    excess_transform,
)
from cptinvest.oracle import GridSpec, difference_law, evaluate_objective, grid_search, verify
from cptinvest.preferences import (
    CptPreference,
    ExponentialUtility,
    IdentityWeighting,
    PowerUtility,
    PrelecWeighting,
    TverskyKahnemanWeighting,
)
from cptinvest.choquet import GainLoss, ProspectDivergenceError, prospect_value
from cptinvest.solution import SolutionKind

TK = TverskyKahnemanWeighting(0.61, 0.69)
REFERENCE_PREF = CptPreference(PowerUtility(0.88, 0.88, 2.25), TK)

BULL = MarketModel(0.05, 0.01, Lognormal(0.13, 0.20))
WEEKLY = MarketModel(1.3380e-5, 0.01, Lognormal(3.2932e-4, 7.4383e-3))


def weekly_market(lam):
    return MarketModel(1.3380e-5, lam, Lognormal(3.2932e-4, 7.4383e-3))


class TestIntegrals:
    def test_certain_buy_loss_kills_the_gain_integral(self):
        # all states lose money for a buyer
        m = MarketModel(0.05, 0.1, Binomial(1.0, 0.8, 0.5))
        gl = long_integrals(REFERENCE_PREF, excess_transform(m, TradeDirection.BUY))
        assert gl.gain == 0.0
        assert gl.loss > 0.0

    def test_two_point_identity_weighting(self):
        pref = CptPreference(PowerUtility(1.0, 1.0, 2.0), IdentityWeighting())
        q = 0.3
        z = DiscreteLaw([1.0, -1.0], [q, 1.0 - q])
        buy = long_integrals(pref, z)
        assert (buy.gain, buy.loss) == (pytest.approx(q), pytest.approx(1.0 - q))
        sell = short_integrals(pref, z)
        assert (sell.gain, sell.loss) == (pytest.approx(1.0 - q), pytest.approx(q))

    def test_sale_integrals_are_exact_telescoping_sums(self):
        """A sale's gains rank the negative atoms from the bottom, its losses the
        positive atoms from the top, each weighted by w(c_i) - w(c_{i-1})."""
        pref = CptPreference(PowerUtility(0.6, 0.9, 3.0), TverskyKahnemanWeighting(0.4, 0.8))
        z = DiscreteLaw([-0.8, -0.3, 0.0, 0.25, 0.6, 1.4], [0.1, 0.2, 0.15, 0.3, 0.15, 0.1])
        w = pref.weighting

        def telescoped(ranked, side, exponent):
            total, cum = 0.0, 0.0
            for x, prob in ranked:
                total += abs(x) ** exponent * (w.weight(side, cum + prob) - w.weight(side, cum))
                cum += prob
            return total

        sell = short_integrals(pref, z)
        assert sell.gain == telescoped([a for a in z.atoms if a[0] < 0], "gain", 0.6)
        assert sell.loss == telescoped([a for a in reversed(z.atoms) if a[0] > 0], "loss", 0.9)
        assert (sell.gain_error, sell.loss_error) == (0.0, 0.0)

    def test_gain_integral_equals_prospect_of_unit_buy(self):
        """Per-unit integrals agree with the definitional wealth-difference route."""
        port = Portfolio(1.0, 1.0)
        gl = long_integrals(REFERENCE_PREF, excess_transform(BULL, TradeDirection.BUY))
        unit = prospect_value(REFERENCE_PREF, difference_law(port, BULL, 1.0))
        assert gl.gain == pytest.approx(unit.gain, rel=1e-7)
        assert REFERENCE_PREF.utility.loss_aversion * gl.loss == pytest.approx(unit.loss, rel=1e-7)

    def test_costs_favor_the_sell_side_for_symmetric_returns(self):
        # symmetric excess returns: selling keeps better gains and smaller losses
        m = MarketModel(0.02, 0.05, Normal(0.02, 0.15))
        buy = long_integrals(REFERENCE_PREF, excess_transform(m, TradeDirection.BUY))
        sell = short_integrals(REFERENCE_PREF, excess_transform(m, TradeDirection.SELL))
        assert sell.gain > buy.gain
        assert sell.loss < buy.loss


class TestRatios:
    def test_bull_market_regression_values(self):
        inputs = prepare_inputs(Portfolio(1.0, 1.0), BULL, REFERENCE_PREF)
        assert inputs.ratio_buy == pytest.approx(2.5139612, abs=2e-6)
        assert inputs.ratio_sell == pytest.approx(0.3957013, abs=2e-6)

    def test_no_cost_symmetric_ratios_coincide(self):
        m = MarketModel(0.02, 0.0, Normal(0.02, 0.2))
        inputs = prepare_inputs(Portfolio(1.0, 1.0), m, REFERENCE_PREF)
        assert inputs.ratio_buy == pytest.approx(inputs.ratio_sell, abs=1e-7)

    def test_costs_push_the_sell_ratio_above_the_buy_ratio(self):
        m = MarketModel(0.02, 0.03, Normal(0.02, 0.2))
        inputs = prepare_inputs(Portfolio(1.0, 1.0), m, REFERENCE_PREF)
        assert inputs.ratio_sell > inputs.ratio_buy

    def test_undefined_ratio_reported_as_none(self):
        inputs = synthetic_inputs(
            p_loss_buy=1.0, p_loss_sell=0.0, gain_buy=0.0, loss_buy=0.5,
            gain_sell=0.4, loss_sell=0.0, alpha=0.8, beta=0.9,
            loss_aversion=2.0, y0=1.0,
        )
        assert inputs.ratio_sell is None


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
        ratios = [r for r in (inputs.ratio_buy, inputs.ratio_sell) if r is not None]
        return bool(ratios) and inputs.loss_aversion < max(ratios)
    return False


def inputs_with_scaled_buy(inputs: PowerCaseInputs, factor: float) -> PowerCaseInputs:
    """Scale both buy-ray integrals; the dispatch outcome must be invariant."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    buy = inputs.buy
    return dataclasses.replace(inputs, buy=GainLoss(
        buy.gain * factor, buy.loss * factor, buy.gain_error * factor, buy.loss_error * factor))


def synthetic_inputs(**overrides):
    """PowerCaseInputs from flat fields: gain_buy, loss_buy, gain_sell, loss_sell and
    optional *_error estimates become the two ray records."""
    base = dict(
        p_loss_buy=0.4, p_loss_sell=0.5, gain_buy=0.5, loss_buy=0.4,
        gain_sell=0.45, loss_sell=0.5, alpha=0.7, beta=0.88,
        loss_aversion=2.25, y0=1.0,
    )
    base.update(overrides)
    for side in ("buy", "sell"):
        base[side] = GainLoss(*(base.pop(f"{part}_{side}{suffix}", 0.0)
                                for suffix in ("", "_error") for part in ("gain", "loss")))
    return PowerCaseInputs(**base)


class TestInteriorCandidates:
    def test_unit_candidate_when_ratio_matches_loss_aversion(self):
        # alpha * ratio equals beta * loss_aversion  ->  candidate is exactly 1
        inp = synthetic_inputs(alpha=0.5, beta=0.8, loss_aversion=2.0,
                               gain_buy=3.2, loss_buy=1.0)
        theta_buy, _ = interior_candidates(inp)
        assert theta_buy == pytest.approx(1.0, rel=1e-12)

    def test_equal_ratios_give_mirrored_candidates(self):
        inp = synthetic_inputs(gain_buy=0.5, loss_buy=0.4,
                               gain_sell=0.5, loss_sell=0.4)
        theta_buy, theta_sell = interior_candidates(inp)
        assert theta_sell == pytest.approx(-theta_buy, rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        dict(alpha=0.88, beta=0.88), dict(alpha=0.9, beta=0.8),
        dict(loss_buy=0.0), dict(loss_sell=0.0),
    ], ids=["equal-exponents", "alpha-above-beta", "no-buy-loss", "no-sell-loss"])
    def test_undefined_candidates_are_none(self, overrides):
        assert interior_candidates(synthetic_inputs(**overrides)) is None

    def test_candidate_maximizes_the_buy_ray(self):
        inp = synthetic_inputs()
        theta_buy, _ = interior_candidates(inp)
        grid = np.linspace(0.0, 10 * theta_buy, 4001)
        values = [prospect_along(inp, t) for t in grid]
        best = grid[int(np.argmax(values))]
        assert abs(best - theta_buy) <= grid[1] - grid[0]


class TestSubSolvers:
    def test_buy_ray_certain_loss(self):
        sol = solve_long(synthetic_inputs(p_loss_buy=1.0, gain_buy=0.0))
        assert sol.theta == 0.0 and sol.case_id == "T3.2-1a"

    def test_buy_ray_ill_posed_in_the_bull_market(self):
        inputs = prepare_inputs(Portfolio(1.0, 1.0), BULL, REFERENCE_PREF)
        sol = solve_long(inputs)
        assert sol.kind is SolutionKind.PLUS_INFINITY
        assert sol.case_id == "T3.2-4"

    def test_buy_ray_interior_candidate_verified_by_grid(self):
        m = weekly_market(5e-4)
        pref = CptPreference(PowerUtility(0.8, 0.88, 2.25), TK)
        inputs = prepare_inputs(Portfolio(1.0, 1.0), m, pref)
        sol = solve_long(inputs)
        assert sol.case_id == "T3.2-2"
        port = Portfolio(1.0, 1.0)
        result = grid_search(port, m, pref, GridSpec(0.0, 10 * sol.theta + 0.1, 4001, 2))
        assert abs(result.argmax_theta - sol.theta) <= 1e-4 * (1 + abs(sol.theta))

    def test_sell_ray_no_loss_sells_everything(self):
        sol = solve_short(synthetic_inputs(p_loss_sell=0.0, loss_sell=0.0))
        assert sol.theta == -1.0 and sol.case_id == "T3.3-4a"
        assert sol.prospect == pytest.approx(0.45)  # gain_sell * y0**alpha

    def test_sell_ray_interior_candidate(self):
        inp = synthetic_inputs()
        sol = solve_short(inp)
        _, theta_sell = interior_candidates(inp)
        assert sol.case_id == "T3.3-2"
        assert sol.theta == pytest.approx(theta_sell)

    def test_sell_ray_candidate_beyond_holdings_binds(self):
        inp = synthetic_inputs(y0=0.001)
        sol = solve_short(inp)
        assert sol.case_id == "T3.3-4c"
        assert sol.theta == -0.001

    def test_sell_ray_knife_edge_gives_interval(self):
        inp = synthetic_inputs(alpha=0.88, beta=0.88, gain_sell=0.9, loss_sell=0.4)
        knife = dataclasses.replace(inp, loss_aversion=0.9 / 0.4)
        sol = solve_short(knife)
        assert sol.kind is SolutionKind.INTERVAL
        assert (sol.lo, sol.hi) == (-1.0, 0.0)
        assert sol.boundary

    def test_sell_ray_below_knife_edge_sells_everything(self):
        inp = synthetic_inputs(alpha=0.88, beta=0.88, gain_sell=0.9, loss_sell=0.3)
        sol = solve_short(inp)  # loss aversion 2.25 < 3.0
        assert sol.case_id == "T3.3-4b"
        assert sol.theta == -1.0
        assert sol.prospect == pytest.approx(0.9 - 2.25 * 0.3)


class TestFullSolve:
    def test_both_directions_certain_loss(self):
        # returns trapped inside the cost band: any trade loses
        m = MarketModel(0.0, 0.2, Binomial(1.2, 1.1, 0.5))
        pref = REFERENCE_PREF
        sol = solve(Portfolio(1.0, 1.0), m, pref)
        assert sol.case_id == "T3.1-1a"
        assert sol.theta == 0.0

    def test_weekly_calibration_no_trade(self):
        sol = solve(Portfolio(1.0, 1.0), WEEKLY, REFERENCE_PREF)
        assert sol.case_id == "T3.1-1d"
        assert sol.theta == 0.0
        assert sol.prospect == 0.0

    def test_bull_market_ill_posed(self):
        sol = solve(Portfolio(1.0, 1.0), BULL, REFERENCE_PREF)
        assert sol.kind is SolutionKind.PLUS_INFINITY
        assert sol.case_id == "T3.1-8b"
        assert sol.prospect == math.inf

    def test_interior_exponent_gap_matches_global_grid(self):
        m = weekly_market(5e-4)
        pref = CptPreference(PowerUtility(0.8, 0.88, 2.25), TK)
        port = Portfolio(1.0, 1.0)
        sol = solve(port, m, pref)
        assert sol.kind is SolutionKind.FINITE_POINT
        report = verify(sol, port, m, pref,
                        GridSpec(-1.0, max(10.0, 10 * abs(sol.theta)), 4001, 2),
                        tol_value=1e-5)
        assert report.agreement == "match", report.detail

    def test_loss_aversion_between_ratios_sells_out(self):
        # buying is flat-to-bad, selling strictly attractive: corner at -y0
        inp = synthetic_inputs(alpha=0.88, beta=0.88,
                               gain_buy=0.30, loss_buy=0.40,   # ratio 0.75 < k
                               gain_sell=1.40, loss_sell=0.40)  # ratio 3.5 > k
        sol = classify(inp)
        assert sol.case_id == "T3.1-4e"
        assert sol.theta == -1.0
        assert sol.prospect == pytest.approx(1.40 - 2.25 * 0.40)
        # the corner dominates a dense grid of the factorized objective
        grid = np.linspace(-1.0, 5.0, 2001)
        values = [prospect_along(inp, t) for t in grid]
        assert sol.prospect >= max(values) - 1e-12


class TestFactorization:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_objective_factorizes_along_both_rays(self, seed):
        rng = random.Random(seed)
        m = MarketModel(rng.uniform(0, 0.03), rng.uniform(0, 0.04),
                        Lognormal(rng.uniform(-0.01, 0.06), rng.uniform(0.05, 0.3)))
        pref = CptPreference(
            PowerUtility(rng.uniform(0.5, 0.8), rng.uniform(0.82, 1.0), rng.uniform(1.1, 3.0)),
            TK,
        )
        y0 = rng.uniform(0.3, 2.0)
        port = Portfolio(1.0, y0)
        inputs = prepare_inputs(port, m, pref)
        for theta in [0.25, 1.0, 3.0]:
            direct = evaluate_objective(port, m, pref, theta)
            factored = prospect_along(inputs, theta)
            scale = max(1e-12, abs(inputs.buy.gain * theta**inputs.alpha)
                        + inputs.loss_aversion * inputs.buy.loss * theta**inputs.beta)
            assert abs(direct - factored) <= 1e-7 * scale
        for theta in [-0.2 * y0, -0.9 * y0]:
            direct = evaluate_objective(port, m, pref, theta)
            factored = prospect_along(inputs, theta)
            size = -theta
            scale = max(1e-12, abs(inputs.sell.gain * size**inputs.alpha)
                        + inputs.loss_aversion * inputs.sell.loss * size**inputs.beta)
            assert abs(direct - factored) <= 1e-7 * scale


def _reference_case_labels(inp, sell_bound):
    """Literal re-derivation of the dispatch conditions, strict comparisons only.

    ``sell_bound`` is -y0 for the constrained problem (T3.1) and -inf for the
    all-cash problem (T3.4), whose sell ray never ends in a clamp.
    """
    labels = set()
    prefix = "T3.4-" if sell_bound == -math.inf else "T3.1-"
    one1 = inp.p_loss_buy >= 1.0
    interior1 = 0.0 < inp.p_loss_buy < 1.0
    zero2 = inp.p_loss_sell <= 0.0
    one2 = inp.p_loss_sell >= 1.0
    interior2 = 0.0 < inp.p_loss_sell < 1.0
    equal = inp.alpha == inp.beta
    k = inp.loss_aversion
    k1, k2 = inp.ratio_buy, inp.ratio_sell

    if zero2:
        # only the constrained problem admits a sell ray without losses
        labels.add("T3.1-4a")
        return labels
    if one1 and one2:
        labels.add(prefix + "1a")
        return labels

    if one1 and interior2:
        if equal:
            if k > k2:
                labels.add(prefix + "1b")
            elif k < k2:
                labels.add(prefix + "4b")
        else:
            _, theta_sell = interior_candidates(inp)
            labels.add(prefix + ("3a" if theta_sell >= sell_bound else "4c"))
        return labels

    if interior1 and one2:
        if equal:
            if k > k1:
                labels.add(prefix + "1c")
            elif k < k1:
                labels.add(prefix + "8a")
        else:
            labels.add(prefix + "2a")
        return labels

    # both interior
    if equal:
        if k < k1:
            labels.add(prefix + "8b")
        elif k > k1 and k > k2:
            labels.add(prefix + "1d")
        elif k2 > k:
            labels.add(prefix + "4e")
        return labels

    theta_buy, theta_sell = interior_candidates(inp)
    value_buy = prospect_along(inp, theta_buy)
    if theta_sell >= sell_bound:
        value_sell = prospect_along(inp, theta_sell)
        if value_buy >= value_sell:
            labels.add(prefix + "2b")
        else:
            labels.add(prefix + "3b")
    else:
        value_sell = prospect_along(inp, sell_bound)
        if value_buy >= value_sell:
            labels.add(prefix + "2b")
        else:
            labels.add(prefix + "4d")
    return labels


def _random_case_inputs(rng):
    """Constrained-problem inputs with loss probabilities at 0, 1 or inside, and
    equal or distinct exponents; the buy ray always carries loss probability."""
    p_loss_buy = 1.0 if rng.random() < 0.3 else rng.uniform(0.05, 0.95)
    if p_loss_buy >= 1.0:
        roll = rng.random()
        p_loss_sell = 0.0 if roll < 0.2 else (1.0 if roll < 0.4 else rng.uniform(0.05, 0.95))
    else:
        p_loss_sell = 1.0 if rng.random() < 0.3 else rng.uniform(0.05, 0.95)
    alpha = rng.uniform(0.3, 0.95)
    beta = alpha if rng.random() < 0.5 else rng.uniform(alpha + 0.02, 1.0)
    return synthetic_inputs(
        p_loss_buy=p_loss_buy,
        p_loss_sell=p_loss_sell,
        gain_buy=0.0 if p_loss_buy >= 1.0 else rng.uniform(0.01, 2.0),
        loss_buy=rng.uniform(0.01, 2.0),
        gain_sell=0.0 if p_loss_sell >= 1.0 else rng.uniform(0.01, 2.0),
        loss_sell=0.0 if p_loss_sell <= 0.0 else rng.uniform(0.01, 2.0),
        alpha=alpha, beta=beta,
        loss_aversion=rng.uniform(1.01, 4.0),
        y0=rng.uniform(0.1, 3.0),
    )


@pytest.mark.parametrize("sell_unbounded", [False, True])
def test_case_dispatch_fires_exactly_one_case_on_randomized_inputs(sell_unbounded):
    rng = random.Random(20240612)
    checked = 0
    for _ in range(10_000):
        inp = _random_case_inputs(rng)
        p_loss_sell = inp.p_loss_sell
        dispatch, sell_bound = classify, -inp.y0
        if sell_unbounded:
            # the all-cash inputs, as prepare_zero_initial_inputs builds them
            inp = dataclasses.replace(inp, y0=0.0, sell_unbounded=True)
            dispatch, sell_bound = classify_zero_initial, -math.inf
            if p_loss_sell <= 0.0:
                # shorting always carries loss probability under no-arbitrage
                with pytest.raises(ValueError):
                    dispatch(inp)
                continue
        sol = dispatch(inp)
        assert sol.case_id.startswith("T3.4-" if sell_unbounded else "T3.1-")
        if sol.boundary:
            continue
        expected = _reference_case_labels(inp, sell_bound)
        assert len(expected) == 1, (inp, expected)
        assert sol.case_id in expected, (inp, sol.case_id, expected)
        if sol.case_id[5] == "4":
            # every 4x case trades to the end of the sell ray
            assert sol.theta == sell_bound, (inp, sol)
        checked += 1
    assert checked > 9000


@pytest.mark.parametrize("problem, case_id, floor", [
    ({}, "T3.1-7", -1.0),
    ({"sell_unbounded": True, "y0": 0.0}, "T3.4-7", -math.inf),
], ids=["constrained", "all-cash"])
def test_both_rays_flat_at_zero_give_one_interval_over_both(problem, case_id, floor):
    """Equal exponents and loss aversion at both rays' gain/loss ratio: every trade
    on either ray is worth 0, so the answer is the floor-to-infinity interval."""
    inp = synthetic_inputs(alpha=0.88, beta=0.88, loss_aversion=1.25, gain_buy=0.5,
                           loss_buy=0.4, gain_sell=0.5, loss_sell=0.4, **problem)
    sol = classify(inp)
    assert (sol.kind, sol.case_id, sol.lo, sol.hi, sol.prospect, sol.boundary) == \
        (SolutionKind.INTERVAL, case_id, floor, math.inf, 0.0, True)


@pytest.mark.parametrize("overrides, value", [
    ({}, -math.inf),  # alpha < beta: the losses' power wins
    ({"alpha": 0.88, "beta": 0.88, "loss_aversion": 1.25}, 0.0),
    ({"alpha": 0.88, "beta": 0.88, "loss_aversion": 1.1}, math.inf),
    ({"alpha": 0.88, "beta": 0.88, "loss_aversion": 1.5}, -math.inf),
], ids=["distinct-exponents", "knife-edge", "gain-heavy", "loss-heavy"])
def test_prospect_along_an_unbounded_trade_takes_the_limit_of_its_ray(overrides, value):
    inp = synthetic_inputs(gain_buy=0.5, loss_buy=0.4, gain_sell=0.5, loss_sell=0.4,
                           **overrides)
    assert prospect_along(inp, math.inf) == value
    assert prospect_along(inp, -math.inf) == value


def test_a_ray_that_only_loses_leaves_the_dispatch_to_the_other_ray():
    """The merge contract of T3.1/T3.4: when one ray's loss probability is 1,
    classify returns the other ray's T3.2 or T3.3 optimum, relabelled only.

    Where the buy ray only loses, half the interior sell candidates are moved
    to within 1e-10 relative of the floor -y0, inside the band where the
    trade is kept and flagged.
    """
    rng = random.Random(20240613)
    compared = {"buy": 0, "sell": 0, "sell near the floor": 0}
    for _ in range(4000):
        inp = _random_case_inputs(rng)
        near_floor = (inp.alpha < inp.beta and inp.p_loss_buy >= 1.0
                      and 0.0 < inp.p_loss_sell < 1.0 and rng.random() < 0.5)
        if near_floor:
            size = -interior_candidates(inp)[1]
            inp = dataclasses.replace(inp, y0=size * (1.0 + rng.uniform(-1e-10, 1e-10)))
        for problem in (inp, dataclasses.replace(inp, y0=0.0, sell_unbounded=True)):
            if problem.p_loss_sell >= 1.0:
                ray, other = "buy", solve_long(problem)
            elif problem.p_loss_buy >= 1.0 and problem.p_loss_sell > 0.0 \
                    and not problem.sell_unbounded:
                ray, other = "sell", solve_short(problem)
            else:
                continue
            sol = classify(problem)
            assert (sol.kind, sol.theta, sol.lo, sol.hi, sol.prospect, sol.boundary) == \
                (other.kind, other.theta, other.lo, other.hi, other.prospect, other.boundary), \
                (problem, sol, other)
            compared["sell near the floor" if near_floor and ray == "sell" else ray] += 1
    assert min(compared.values()) > 100, compared


def test_an_overflowing_interior_candidate_is_refused_naming_its_ray():
    """Here the optimal buy is about 1e455, past the float range: refused, not
    lost to a sale worth 0.  A sell candidate that large binds at -y0 instead."""
    m = MarketModel(0.0, 0.01, Lognormal(0.3, 0.1))
    pref = CptPreference(PowerUtility(0.80, 0.805, 2.25), TverskyKahnemanWeighting())
    assert prepare_inputs(Portfolio(1.0, 1.0), m, pref).ratio_buy == pytest.approx(426.5, rel=1e-3)
    with pytest.raises(ValueError, match="buy ray"):
        solve(Portfolio(1.0, 1.0), m, pref)
    with pytest.raises(ValueError, match="buy ray"):
        solve_zero_initial(1.0, m, pref)

    big_sell = synthetic_inputs(alpha=0.8, beta=0.805, gain_sell=500.0, loss_sell=1.0)
    sol = solve_short(big_sell)
    assert (sol.case_id, sol.theta) == ("T3.3-4c", -1.0)
    no_buy_gain = dataclasses.replace(big_sell.buy, gain=0.0)
    assert classify(dataclasses.replace(big_sell, p_loss_buy=1.0, buy=no_buy_gain)).theta == -1.0
    with pytest.raises(ValueError, match="sell ray"):
        classify(dataclasses.replace(big_sell, y0=0.0, sell_unbounded=True))


@pytest.mark.parametrize("weighting, loss_aversion", [
    (TverskyKahnemanWeighting(), 1e300),
    (PrelecWeighting(0.65, 1e10, 1.0), 2.25),
], ids=["tk-huge-loss-aversion", "prelec-huge-gain-delta"])
def test_an_underflowing_interior_candidate_is_refused_naming_its_ray(weighting,
                                                                      loss_aversion):
    """A buy candidate below the float range is no trade under a trade's label:
    refused, as an overflowing one is."""
    m = MarketModel(0.02, 0.01, Lognormal(0.06, 0.2))
    pref = CptPreference(PowerUtility(0.8, 0.88, loss_aversion), weighting)
    with pytest.raises(ValueError, match="buy ray's interior candidate underflows"):
        solve(Portfolio(1.0, 1.0), m, pref)
    with pytest.raises(ValueError, match="buy ray's interior candidate underflows"):
        solve_long(prepare_inputs(Portfolio(1.0, 1.0), m, pref))


def test_an_underflowing_sell_candidate_is_refused_only_when_it_is_the_answer():
    tiny_sell = synthetic_inputs(gain_sell=1e-60, loss_sell=0.5)
    with pytest.raises(ValueError, match="sell ray's interior candidate underflows"):
        solve_short(tiny_sell)
    with pytest.raises(ValueError, match="sell ray's interior candidate underflows"):
        classify(dataclasses.replace(tiny_sell, p_loss_buy=1.0))
    # the buy's interior candidate is worth more, so the sale's is not the answer
    sol = classify(tiny_sell)
    assert sol.case_id == "T3.1-2b" and sol.theta > 0.0


def test_scaling_buy_integrals_preserves_case_and_trade():
    # ratio-driven comparisons are scale-free: equal exponents for the full
    # dispatch, and the buy sub-solver for distinct exponents (the cross-ray
    # value comparison under distinct exponents is deliberately not scale-free)
    equal = synthetic_inputs(alpha=0.88, beta=0.88, gain_buy=1.2, loss_buy=0.4)
    base = classify(equal)
    for factor in (0.25, 4.0, 117.3):
        scaled = classify(inputs_with_scaled_buy(equal, factor))
        assert scaled.case_id == base.case_id
        assert scaled.kind == base.kind

    distinct = synthetic_inputs()
    base_long = solve_long(distinct)
    for factor in (0.25, 4.0, 117.3):
        scaled_long = solve_long(inputs_with_scaled_buy(distinct, factor))
        assert scaled_long.case_id == base_long.case_id
        assert scaled_long.theta == pytest.approx(base_long.theta, rel=1e-12)


class TestOracleDominance:
    @pytest.mark.parametrize("seed", [101, 202])
    def test_solution_dominates_dense_grid(self, seed):
        rng = random.Random(seed)
        m = MarketModel(rng.uniform(0, 0.02), rng.uniform(0, 0.03),
                        Lognormal(rng.uniform(0.0, 0.05), rng.uniform(0.08, 0.25)))
        pref = CptPreference(
            PowerUtility(rng.uniform(0.55, 0.75), rng.uniform(0.8, 0.95), rng.uniform(1.2, 3.0)),
            TK,
        )
        port = Portfolio(1.0, rng.uniform(0.4, 1.5))
        sol = solve(port, m, pref)
        assert sol.kind is SolutionKind.FINITE_POINT
        hi = max(10.0, 10.0 * abs(sol.theta))
        grid = np.linspace(-port.y0, hi, 4001)
        from cptinvest.oracle import evaluate_objective_grid

        values = evaluate_objective_grid(port, m, pref, grid)
        assert sol.prospect >= values.max() - 1e-6


class TestZeroInitial:
    def test_frictionless_sell_transform_collapses(self):
        m = MarketModel(0.02, 0.0, Lognormal(0.02, 0.2))
        pref = CptPreference(PowerUtility(0.7, 0.85, 2.0), TK)
        constrained = prepare_inputs(Portfolio(1.0, 1.0), m, pref)
        unconstrained = prepare_zero_initial_inputs(1.0, m, pref)
        assert unconstrained.p_loss_sell == pytest.approx(constrained.p_loss_sell)
        assert unconstrained.sell.gain == pytest.approx(constrained.sell.gain, rel=1e-9)
        assert unconstrained.sell.loss == pytest.approx(constrained.sell.loss, rel=1e-9)

    def test_short_loss_probability_always_positive(self):
        rng = random.Random(5)
        for _ in range(25):
            m = MarketModel(rng.uniform(0, 0.05), rng.uniform(0, 0.3),
                            Lognormal(rng.uniform(-0.05, 0.1), rng.uniform(0.05, 0.4)))
            inputs = prepare_zero_initial_inputs(1.0, m, CptPreference(PowerUtility(), TK))
            assert inputs.p_loss_sell > 0.0

    def test_unbounded_short_when_loss_aversion_is_low(self):
        # negative drift makes shorting attractive; equal exponents with low
        # aversion leave the sell ray unbounded
        m = MarketModel(0.0, 0.001, Lognormal(-0.1, 0.08))
        pref = CptPreference(PowerUtility(0.88, 0.88, 1.05), TK)
        inputs = prepare_zero_initial_inputs(1.0, m, pref)
        assert inputs.ratio_sell > 1.05 > inputs.ratio_buy
        sol = solve_zero_initial(1.0, m, pref)
        assert sol.kind is SolutionKind.MINUS_INFINITY
        # the objective grows monotonically along a geometric short ladder
        values = [evaluate_objective(Portfolio(1.0, 0.0), m, pref, -10.0**j)
                  for j in range(4)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zero_initial_interior_candidates_verified(self):
        m = weekly_market(5e-4)
        pref = CptPreference(PowerUtility(0.8, 0.88, 2.25), TK)
        sol = solve_zero_initial(1.0, m, pref)
        assert sol.kind is SolutionKind.FINITE_POINT
        port = Portfolio(1.0, 0.0)
        span = max(10.0, 10.0 * abs(sol.theta))
        report = verify(sol, port, m, pref, GridSpec(-span, span, 4001, 2), tol_value=1e-5)
        assert report.agreement == "match", report.detail


class TestProblemComparison:
    """Constrained problem vs the all-cash unconstrained problem."""

    def _random_instance(self, rng):
        m = MarketModel(rng.uniform(0, 0.03), rng.uniform(0.0, 0.08),
                        Lognormal(rng.uniform(-0.02, 0.06), rng.uniform(0.05, 0.3)))
        if rng.random() < 0.5:
            a = b = rng.uniform(0.5, 1.0)
        else:
            a = rng.uniform(0.4, 0.85)
            b = rng.uniform(a + 0.03, min(1.0, a + 0.3))
        pref = CptPreference(PowerUtility(a, b, rng.uniform(1.05, 4.0)), TK)
        return m, pref, rng.uniform(0.2, 2.0)

    def test_buy_optima_never_beat_the_unconstrained_problem(self):
        # identical objectives on the buy ray make this direction provable
        rng = random.Random(41)
        checked = 0
        for _ in range(40):
            m, pref, y0 = self._random_instance(rng)
            sol_c = solve(Portfolio(1.0, y0), m, pref)
            if not (sol_c.kind is SolutionKind.FINITE_POINT and sol_c.theta >= 0):
                continue
            sol_u = solve_zero_initial(1.0 + y0, m, pref)
            assert sol_c.prospect <= sol_u.prospect + 1e-7
            checked += 1
        assert checked >= 8

    def test_nonnegative_unconstrained_optimum_is_attainable_when_holding(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(40):
            m, pref, y0 = self._random_instance(rng)
            sol_u = solve_zero_initial(1.0 + (1 - m.lam) * y0, m, pref)
            if not (sol_u.kind is SolutionKind.FINITE_POINT and sol_u.theta >= 0
                    and math.isfinite(sol_u.prospect)):
                continue
            sol_c = solve(Portfolio(1.0, y0), m, pref)
            assert sol_c.prospect >= sol_u.prospect - 1e-7
            checked += 1
        assert checked >= 8

    @pytest.mark.xfail(
        strict=True,
        reason="published comparison fails for sell-side optima: the two "
        "problems carry different reference points, so the constrained "
        "seller can strictly beat the all-cash problem; see the "
        "counterexample test below",
    )
    def test_published_upper_bound_for_all_non_ill_posed_instances(self):
        rng = random.Random(7)
        for _ in range(40):
            m, pref, y0 = self._random_instance(rng)
            inputs = prepare_inputs(Portfolio(1.0, y0), m, pref)
            if ill_posed_condition_holds(inputs):
                continue
            sol_c = classify(inputs)
            sol_u = solve_zero_initial(1.0 + y0, m, pref)
            assert sol_c.prospect <= sol_u.prospect + 1e-7

    def test_sell_side_counterexample_confirmed_by_brute_force(self):
        m = MarketModel(0.025541, 0.005399, Lognormal(-0.007385, 0.192549))
        pref = CptPreference(PowerUtility(0.715533, 0.813180, 1.145259), TK)
        y0 = 0.548896
        inputs = prepare_inputs(Portfolio(1.0, y0), m, pref)
        assert not ill_posed_condition_holds(inputs)
        sol_c = classify(inputs)
        sol_u = solve_zero_initial(1.0 + y0, m, pref)
        assert sol_c.prospect > sol_u.prospect + 1e-4
        from cptinvest.oracle import evaluate_objective_grid

        grid_c = np.linspace(-y0, 5.0, 100001)
        grid_u = np.linspace(-5.0, 5.0, 100001)
        sup_c = evaluate_objective_grid(Portfolio(1.0, y0), m, pref, grid_c).max()
        sup_u = evaluate_objective_grid(Portfolio(1.0 + y0, 0.0), m, pref, grid_u).max()
        assert sup_c == pytest.approx(sol_c.prospect, abs=1e-5)
        assert sup_u == pytest.approx(sol_u.prospect, abs=1e-5)
        assert sup_c > sup_u + 1e-4


def test_solve_rejects_bad_preconditions():
    with pytest.raises(ValueError):
        solve(Portfolio(1.0, 0.0), WEEKLY, REFERENCE_PREF)
    with pytest.raises(TypeError):
        solve(Portfolio(1.0, 1.0), WEEKLY,
              CptPreference(ExponentialUtility(1.0, 1.0, 2.0), TK))
    degenerate = MarketModel(0.05, 0.0, Binomial(1.04, 1.02, 0.5))
    with pytest.raises(ValueError):
        solve(Portfolio(1.0, 1.0), degenerate, REFERENCE_PREF)


@pytest.mark.parametrize("law, utility, side", [
    # loss side: TK delta 0.69 against beta / nu = 0.9 / 1.2 = 0.75
    pytest.param(StudentT(1.2, 0.0, 0.1), PowerUtility(0.7, 0.9, 2.25), "loss", id="nu1.2-loss"),
    # gain side: TK gamma 0.61 against alpha / nu = 0.88 / nu >= 0.611
    *(pytest.param(StudentT(nu, 0.02, 0.1), PowerUtility(0.88, 0.88, 2.25), "gain",
                   id=f"nu{nu}-gain") for nu in (1.0, 1.2, 1.3, 1.44)),
])
def test_divergent_student_t_tails_raise_naming_the_side(law, utility, side):
    # adaptive quadrature returns finite, even negative, values on these tails
    m = MarketModel(0.01, 0.02, law)
    pref = CptPreference(utility, TK)
    port = Portfolio(1.0, 1.0)
    for call in (lambda: solve(port, m, pref),
                 lambda: solve_zero_initial(1.0, m, pref),
                 lambda: evaluate_objective(port, m, pref, 2.0)):
        with pytest.raises(ProspectDivergenceError) as excinfo:
            call()
        assert excinfo.value.side == side


@pytest.mark.parametrize("sigma", [150.0, 300.0, 1000.0])
@pytest.mark.parametrize("weighting", [TverskyKahnemanWeighting(), IdentityWeighting()],
                         ids=["tk", "identity"])
def test_lognormal_quantiles_past_the_float_range_are_refused(sigma, weighting):
    # the gain tail's quantiles overflow to inf, which quad cannot integrate
    m = MarketModel(0.02, 0.01, Lognormal(0.05, sigma))
    with pytest.raises(ProspectDivergenceError) as excinfo:
        solve(Portfolio(1.0, 1.0), m, CptPreference(PowerUtility(), weighting))
    assert excinfo.value.detail == "non-finite quadrature value inf"


@pytest.mark.parametrize("solver, expected", [
    (lambda: solve(Portfolio(1.0, 1.0), MarketModel(0.02, 0.01, Lognormal(0.1, 0.2)),
                   CptPreference(PowerUtility(0.6, 0.8, 1.2), TverskyKahnemanWeighting(0.61, 0.69))),
     "case_id='T3.1-2b', prospect=0.3252121437072064, theta=16.185779015317543"),
    (lambda: solve(Portfolio(1.0, 1.0), MarketModel(0.02, 0.01, Normal(0.1, 0.2)),
                   CptPreference(PowerUtility(0.6, 0.8, 1.2), PrelecWeighting(0.65, 1.0, 1.0))),
     "case_id='T3.1-2b', prospect=0.13816468114570152, theta=4.315268278698496"),
    (lambda: solve(Portfolio(1.0, 1.0), MarketModel(0.02, 0.01, StudentT(5.0, 0.1, 0.2)),
                   CptPreference(PowerUtility(0.6, 0.8, 1.2), TverskyKahnemanWeighting(0.61, 0.69))),
     "case_id='T3.1-2b', prospect=0.10455907784547991, theta=2.467953016795501"),
    (lambda: solve_zero_initial(1.0, MarketModel(0.02, 0.01, Lognormal(0.1, 0.2)),
                                CptPreference(PowerUtility(0.6, 0.8, 1.2), IdentityWeighting())),
     "case_id='T3.4-2b', prospect=0.6943155323029386, theta=59.874866882396034"),
], ids=["lognormal-tk", "normal-prelec", "student-t-tk", "all-cash-lognormal-identity"])
def test_adaptive_solves_keep_their_bits(solver, expected):
    # QUADPACK's answers to the last bit (numpy 2.4.6, scipy 1.17.1): the integrand's
    # scalar quantiles and utility powers are computed as they always were
    assert repr(solver()) == ("Solution(kind=<SolutionKind.FINITE_POINT: 'finite_point'>, "
                              f"{expected}, lo=None, hi=None, boundary=False)")



@pytest.mark.xfail(strict=True, reason="the sigma-domain tail stops at 700, and what it "
                   "leaves out is small enough that quad meets its target on a divergent "
                   "integral")
def test_prelec_against_a_student_t_tail_is_refused():
    # Student-t quantiles grow like q**(-1/nu), so in sigma = -ln q the gain
    # integrand e**(alpha*sigma/nu) * delta*gamma*sigma**(gamma-1) * e**(-delta*sigma**gamma)
    # is not integrable for any gamma < 1
    m = MarketModel(0.01, 0.01, StudentT(30.0, 0.0238, 0.1333))
    pref = CptPreference(PowerUtility(0.383, 0.425, 1.754),
                         PrelecWeighting(0.5857, 0.678, 0.769))
    with pytest.raises(ProspectDivergenceError):
        solve(Portfolio(1.0, 1.0), m, pref)

def _prelec_outcome_integral(log_prob_beyond, weighting, side, power, t_max=math.inf):
    """Outcome-domain Choquet integral of |z|**power on one side of zero.

    The integral over y > 0 of w(P(|z| > y**(1/power))), with the Prelec
    weighting w(q) = exp(-delta * (-ln q)**gamma) taken from log q so that no
    tail probability underflows.  Shares no code with the quantile-domain
    solver.
    """
    delta = weighting.delta_gain if side == "gain" else weighting.delta_loss

    def decumulative(y):
        return math.exp(-delta * (-log_prob_beyond(y ** (1.0 / power))) ** weighting.gamma)

    if math.isfinite(t_max):
        # w(P) vanishes slowly at the end of a bounded outcome: split toward it
        y_max = t_max**power
        edges = [0.0] + [y_max * (1.0 - 10.0**-k) for k in range(1, 10)] + [y_max]
    else:
        edges = [0.0, 1.0, math.inf]
    return sum(quad(decumulative, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
               for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("law, weighting, utility, r, lam", [
    pytest.param(Normal(0.0753, 0.1067), PrelecWeighting(0.522, 1.547, 0.568),
                 PowerUtility(0.687, 0.972, 2.09), 0.019, 0.018, id="normal-loss"),
    pytest.param(Lognormal(0.0858, 0.321), PrelecWeighting(0.567, 0.889, 0.737),
                 PowerUtility(0.664, 0.828, 2.14), 0.0148, 0.0094, id="lognormal-loss"),
    pytest.param(Lognormal(0.0382, 0.1248), PrelecWeighting(0.546, 0.670, 1.139),
                 PowerUtility(0.683, 0.976, 2.87), 0.0232, 0.022, id="lognormal-gain"),
])
def test_finite_prelec_integrals_near_one_half_are_accepted(law, weighting, utility, r, lam):
    """Prelec gamma just above 1/2 keeps lognormal and normal prospects finite.

    The quantile-domain tail remainder w(exp(-s)) must be taken at the
    truncation point s itself: capping s at 700 overstated it by orders of
    magnitude and refused these markets.  The four per-unit integrals are
    checked against an outcome-domain quadrature on scipy.stats laws.
    """
    m = MarketModel(r, lam, law)
    pref = CptPreference(utility, weighting)
    solution, inputs = solve_with_inputs(Portfolio(1.0, 1.0), m, pref)
    assert solution.kind is SolutionKind.FINITE_POINT

    if isinstance(law, Lognormal):
        gross = stats.lognorm(s=law.sigma, scale=math.exp(law.mu))
    else:
        gross = stats.norm(loc=1.0 + law.mu, scale=law.sigma)
    keep, one_r = 1.0 - lam, 1.0 + r
    bounded = isinstance(law, Lognormal)  # gross returns are positive
    # per unit: a buy pays 1 + r and liquidates at the bid keep * X; a sale
    # receives keep * (1 + r) and forgoes keep * X
    expected = {
        "gain_buy": _prelec_outcome_integral(
            lambda t: gross.logsf((one_r + t) / keep), weighting, "gain", utility.alpha),
        "loss_buy": _prelec_outcome_integral(
            lambda t: gross.logcdf((one_r - t) / keep), weighting, "loss", utility.beta,
            one_r if bounded else math.inf),
        "gain_sell": _prelec_outcome_integral(
            lambda t: gross.logcdf(one_r - t / keep), weighting, "gain", utility.alpha,
            keep * one_r if bounded else math.inf),
        "loss_sell": _prelec_outcome_integral(
            lambda t: gross.logsf(one_r + t / keep), weighting, "loss", utility.beta),
    }
    for name, value in expected.items():
        part, side = name.split("_")
        assert getattr(getattr(inputs, side), part) == pytest.approx(value, rel=1e-9,
                                                                     abs=1e-12), name
