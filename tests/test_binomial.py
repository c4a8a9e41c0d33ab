import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cptinvest import binomial
from cptinvest.binomial import (
    Payoff2,
    lambda_bar,
    prepare_binomial_inputs,
    prospect_at,
    pseudo_probabilities,
    replicate,
    solve_binomial,
    solve_ray,
)
from cptinvest.choquet import prospect_value
from cptinvest.distributions import DiscreteLaw
from cptinvest.market import (
    Binomial,
    Lognormal,
    MarketModel,
    Portfolio,
    check_no_arbitrage,
    terminal_wealth,
)
from cptinvest.oracle import GridSpec, evaluate_objective, verify
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


def market(u=1.2, d=0.9, p=0.5, r=0.05, lam=0.0):
    return MarketModel(r, lam, Binomial(u, d, p))


def preference(eta=1.0, zeta=2.0, weighting=TK):
    return CptPreference(ExponentialUtility(eta, eta, zeta), weighting)


def admissible_market(draw_u, draw_d, draw_p, draw_r, draw_lam):
    m = MarketModel(draw_r, draw_lam, Binomial(draw_u, draw_d, draw_p))
    return m if check_no_arbitrage(m).passed else None


class TestPseudoProbabilities:
    def test_frictionless_risk_neutral(self):
        pp = pseudo_probabilities(market())
        assert pp.buy_up == pytest.approx(0.5)
        assert pp.buy_down == pytest.approx(0.5)
        assert pp.sell_up == pytest.approx(0.5)
        assert pp.sell_down == pytest.approx(0.5)

    def test_with_costs_arithmetic(self):
        pp = pseudo_probabilities(market(u=1.2, d=0.9, r=0.0, lam=0.1))
        assert pp.buy_up == pytest.approx((1 - 0.81) / 0.27)
        assert pp.buy_down == pytest.approx((0.9 * 1.2 - 1.0) / 0.27)
        assert pp.sell_up == pytest.approx(0.0)
        assert pp.sell_down == pytest.approx(1.0)

    @given(
        u=st.floats(1.01, 1.8), gap=st.floats(0.05, 0.6), p=st.floats(0.05, 0.95),
        r=st.floats(0.0, 0.1), lam=st.floats(0.0, 0.4),
    )
    @settings(max_examples=80, deadline=None)
    def test_pairs_sum_to_one_and_positivity(self, u, gap, p, r, lam):
        d = u - gap
        assume(d > 0.01)
        m = admissible_market(u, d, p, r, lam)
        assume(m is not None)
        pp = pseudo_probabilities(m)
        assert pp.buy_up + pp.buy_down == pytest.approx(1.0, abs=1e-12)
        assert pp.sell_up + pp.sell_down == pytest.approx(1.0, abs=1e-12)
        assert pp.buy_up > 0.0
        assert pp.sell_down > 0.0

    def test_zero_cost_collapse_is_exact(self):
        m = market(u=1.17, d=0.83, p=0.31, r=0.042, lam=0.0)
        pp = pseudo_probabilities(m)
        assert abs(pp.buy_up - pp.sell_up) <= 1e-12
        assert abs(pp.buy_down - pp.sell_down) <= 1e-12


class TestReplication:
    def test_constant_payoff_needs_no_trade(self):
        m = market(r=0.05)
        theta, cash = replicate(m, Payoff2(2.1, 2.1))
        assert theta == 0.0
        assert cash == pytest.approx(2.1 / 1.05)

    def test_one_unit_of_the_risky_asset(self):
        m = market(u=1.2, d=0.9, r=0.05, lam=0.0)
        theta, cash = replicate(m, Payoff2(1.2, 0.9))
        assert theta == pytest.approx(1.0)
        assert cash == pytest.approx(1.0)

    @given(
        up=st.floats(-5, 5), down=st.floats(-5, 5),
        u=st.floats(1.02, 1.6), gap=st.floats(0.05, 0.5),
        r=st.floats(0.0, 0.08), lam=st.floats(0.0, 0.3), p=st.floats(0.1, 0.9),
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip_reproduces_both_states(self, up, down, u, gap, r, lam, p):
        d = u - gap
        assume(d > 0.01)
        m = admissible_market(u, d, p, r, lam)
        assume(m is not None)
        theta, cash = replicate(m, Payoff2(up, down))
        port = Portfolio(cash, 0.0)
        assert terminal_wealth(port, m, theta, u) == pytest.approx(up, abs=1e-12)
        assert terminal_wealth(port, m, theta, d) == pytest.approx(down, abs=1e-12)


class TestThresholds:
    def test_identity_weighting_even_odds(self):
        inputs = prepare_binomial_inputs(1.0, market(p=0.5), preference(weighting=IdentityWeighting()))
        thr = inputs.thresholds
        assert thr.buy_unbounded == pytest.approx(1.0)
        assert thr.sell_unbounded == pytest.approx(1.0)

    def test_equal_pseudo_probabilities_collapse_the_interior_threshold(self):
        # (1-lam)(u+d) = 2(1+r) forces buy_up = buy_down
        m = market(u=1.3, d=0.8, r=0.05, lam=0.0)
        pp = pseudo_probabilities(m)
        assert pp.buy_up == pytest.approx(pp.buy_down)
        thr = prepare_binomial_inputs(1.0, m, preference()).thresholds
        assert thr.buy_interior == pytest.approx(thr.buy_unbounded)

    def test_cross_checked_against_weight_eval(self):
        m = market(p=0.5, lam=0.07)
        thr = prepare_binomial_inputs(1.0, m, preference()).thresholds
        assert thr.buy_unbounded == pytest.approx(
            TK.weight("gain", 0.5) / TK.weight("loss", 0.5)
        )

    @given(
        u=st.floats(1.02, 1.6), gap=st.floats(0.05, 0.5), p=st.floats(0.1, 0.9),
        r=st.floats(0.0, 0.08), lam=st.floats(0.0, 0.25),
    )
    @settings(max_examples=80, deadline=None)
    def test_interior_threshold_identity(self, u, gap, p, r, lam):
        d = u - gap
        assume(d > 0.01)
        m = admissible_market(u, d, p, r, lam)
        assume(m is not None)
        pp = pseudo_probabilities(m)
        thr = prepare_binomial_inputs(1.0, m, preference()).thresholds
        assert thr.buy_interior == pytest.approx(
            (pp.buy_down / pp.buy_up) * thr.buy_unbounded, abs=1e-12, rel=1e-12
        )
        if pp.sell_down > 0:
            assert thr.sell_interior == pytest.approx(
                (pp.sell_up / pp.sell_down) * thr.sell_unbounded, abs=1e-12, rel=1e-12
            )


def _interior_trade(inputs, side):
    """The side's interior candidate: the ray optimum where its case is T4.x-4, else None."""
    sol = solve_ray(inputs, side)
    return sol.theta if sol.case_id.endswith("-4") else None


class TestCandidates:
    def _interior_market(self):
        # buy_down > buy_up > 0 requires (1-lam)(u+d) > 2(1+r)
        return market(u=1.5, d=0.95, r=0.0, lam=0.02, p=0.55)

    def test_candidate_vanishes_at_the_threshold(self):
        m = self._interior_market()
        thr = prepare_binomial_inputs(1.0, m, preference()).thresholds
        zeta = thr.buy_interior * (1 - 1e-12)
        inputs = prepare_binomial_inputs(1.0, m, preference(zeta=zeta))
        sol = solve_ray(inputs, "buy")
        assert sol.theta == pytest.approx(0.0, abs=1e-9)

    def test_doubling_curvature_halves_the_trades(self):
        buy_m = self._interior_market()
        i1 = prepare_binomial_inputs(1.0, buy_m, preference(eta=1.0, zeta=1.05))
        i2 = prepare_binomial_inputs(1.0, buy_m, preference(eta=2.0, zeta=1.05))
        assert _interior_trade(i2, "buy") == pytest.approx(_interior_trade(i1, "buy") / 2.0,
                                                           rel=1e-12)
        sell_m = market(u=1.04, d=0.85, r=0.02, lam=0.01, p=0.4)
        j1 = prepare_binomial_inputs(1.0, sell_m, preference(eta=1.0, zeta=1.05))
        j2 = prepare_binomial_inputs(1.0, sell_m, preference(eta=2.0, zeta=1.05))
        assert _interior_trade(j2, "sell") == pytest.approx(_interior_trade(j1, "sell") / 2.0,
                                                            rel=1e-12)
        # the interior regimes exclude each other across the two markets
        assert _interior_trade(i1, "sell") is None
        assert _interior_trade(j1, "buy") is None

    def test_grid_argmax_at_the_buy_candidate(self):
        m = self._interior_market()
        pref = preference(eta=1.5, zeta=1.2)
        inputs = prepare_binomial_inputs(1.0, m, pref)
        sol = solve_ray(inputs, "buy")
        assert sol.case_id == "T4.1-4"
        grid = np.linspace(0.0, 10 * sol.theta, 4001)
        values = [prospect_at(inputs, t) for t in grid]
        best = grid[int(np.argmax(values))]
        assert abs(best - sol.theta) <= grid[1] - grid[0]

    def test_rejected_outside_regime(self):
        inputs = prepare_binomial_inputs(1.0, market(), preference(zeta=5.0))
        for side in ("buy", "sell"):
            assert _interior_trade(inputs, side) is None

    def test_a_payoff_gap_rounded_to_zero_is_refused(self):
        # buy_down exceeds buy_up by 1.07e-12, past the 1e-12 comparison band, while
        # (1-lam)(u+d) - 2(1+r) rounds to exactly 0.0
        m = MarketModel(0.0, 0.10424306650568119,
                        Binomial(1.1164901313438287, 1.1162584248945973, 0.12020121465490022))
        pref = CptPreference(ExponentialUtility(2.9645016195189533, 2.9645016195189533,
                                                7.319383484359439), IdentityWeighting())
        inputs = prepare_binomial_inputs(1.0, m, pref)
        assert inputs.buy.gain_weight > inputs.buy.loss_weight > 0
        assert inputs.zeta < inputs.buy.interior
        for call in (lambda: solve_ray(inputs, "buy"), lambda: solve_binomial(1.0, m, pref)):
            with pytest.raises(ValueError, match="buy ray's payoff gap 0.0"):
                call()


class TestSubSolvers:
    def test_nonpositive_buy_down_means_no_buying(self):
        # lam above the buy leg of the no-trade threshold
        m = market(u=1.1, d=0.9, r=0.05, lam=0.08)
        inputs = prepare_binomial_inputs(1.0, m, preference())
        assert inputs.pseudo.buy_down <= 0
        sol = solve_ray(inputs, "buy")
        assert (sol.theta, sol.prospect, sol.case_id) == (0.0, 0.0, "T4.1-1a")

    def test_equal_pseudo_probs_low_aversion_unbounded(self):
        # rare down state keeps the unbounded-buy threshold above one
        m = market(u=1.3, d=0.8, r=0.05, lam=0.0, p=0.2)
        pp = pseudo_probabilities(m)
        assert pp.buy_up == pytest.approx(pp.buy_down, abs=1e-12)
        thr = prepare_binomial_inputs(1.0, m, preference()).thresholds
        assert thr.buy_unbounded > 1.0
        pref = preference(zeta=1.0 + 0.9 * (thr.buy_unbounded - 1.0))
        inputs = prepare_binomial_inputs(1.0, m, pref)
        sol = solve_ray(inputs, "buy")
        assert sol.kind is SolutionKind.PLUS_INFINITY
        assert sol.case_id == "T4.1-3a"
        expected = TK.weight("gain", 0.8) - pref.utility.loss_aversion * TK.weight("loss", 0.2)
        assert sol.prospect == pytest.approx(expected)
        assert sol.prospect > 0

    def test_interior_buy_value_from_two_atom_sum(self):
        m = market(u=1.5, d=0.95, r=0.0, lam=0.02, p=0.55)
        pref = preference(eta=1.5, zeta=1.2)
        inputs = prepare_binomial_inputs(1.0, m, pref)
        sol = solve_ray(inputs, "buy")
        assert sol.case_id == "T4.1-4"
        assert sol.prospect > 0
        # independent two-atom evaluation at the candidate
        port = Portfolio(1.0, 0.0)
        b = (1 + m.r) * 1.0
        d_up = terminal_wealth(port, m, sol.theta, 1.5) - b
        d_down = terminal_wealth(port, m, sol.theta, 0.95) - b
        direct = prospect_value(pref, DiscreteLaw([d_up, d_down], [0.45, 0.55])).total
        assert sol.prospect == pytest.approx(direct, rel=1e-12)

    def test_sell_mirror_cases(self):
        m_no_short = market(u=1.2, d=0.9, r=0.0, lam=0.12)
        inputs = prepare_binomial_inputs(1.0, m_no_short, preference())
        assert inputs.pseudo.sell_up <= 0
        assert solve_ray(inputs, "sell").case_id == "T4.2-1a"

        # sell_up > sell_down needs 2(1-lam)(1+r) > u+d
        m_sell = market(u=1.04, d=0.85, r=0.02, lam=0.01, p=0.4)
        pp = pseudo_probabilities(m_sell)
        assert pp.sell_up > pp.sell_down > 0
        pref = preference(eta=1.0, zeta=1.05)
        inputs = prepare_binomial_inputs(1.0, m_sell, pref)
        thr = inputs.thresholds
        assert pref.utility.loss_aversion < thr.sell_interior
        sol = solve_ray(inputs, "sell")
        assert sol.case_id == "T4.2-4"
        assert sol.theta < 0
        assert sol.prospect > 0

    def test_sell_knife_edge_interval(self):
        # sell_up == sell_down at u+d = 2(1+r); a likely down state keeps the
        # unbounded-sell threshold above one so the knife edge is reachable
        m = market(u=1.3, d=0.8, r=0.05, lam=0.0, p=0.8)
        pp = pseudo_probabilities(m)
        assert pp.sell_up == pytest.approx(pp.sell_down, abs=1e-12)
        thr = prepare_binomial_inputs(1.0, m, preference()).thresholds
        assert thr.sell_unbounded > 1.0
        pref = preference(zeta=thr.sell_unbounded)
        sol = solve_ray(prepare_binomial_inputs(1.0, m, pref), "sell")
        assert sol.kind is SolutionKind.INTERVAL
        assert sol.case_id == "T4.2-2"
        assert (sol.lo, sol.hi) == (-math.inf, 0.0)

    def test_a_sale_is_a_buy_on_the_mirrored_market(self):
        # a sale gains g = (1-lam)(1+r) - d in the down state and loses
        # l = u - (1-lam)(1+r) in the up state; a frictionless buy on a market
        # with up return 1+u+g, down return 1+u-l and rate u has the same two
        # outcomes with the state probabilities swapped
        rng = random.Random(4242)
        mirrored = {SolutionKind.PLUS_INFINITY: SolutionKind.MINUS_INFINITY,
                    SolutionKind.MINUS_INFINITY: SolutionKind.PLUS_INFINITY}
        fired = set()
        checked = 0
        for _ in range(3000):
            r = rng.uniform(0.0, 0.08)
            lam = rng.uniform(0.0, 0.1)
            keep_leg = (1.0 - lam) * (1.0 + r)
            u = keep_leg + rng.uniform(0.01, 0.6)
            if rng.random() < 0.15:
                d = 2.0 * keep_leg - u  # equal sell weights
            else:
                d = keep_leg - rng.uniform(0.01, 0.6)
            if not 0.0 < d < keep_leg:
                continue
            p = rng.uniform(0.05, 0.95)
            roll = rng.random()
            if roll < 0.4:
                w = TverskyKahnemanWeighting(rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0))
            elif roll < 0.7:
                w = PrelecWeighting(rng.uniform(0.35, 0.95), rng.uniform(0.5, 2.0),
                                    rng.uniform(0.5, 2.0))
            else:
                w = IdentityWeighting()
            m = MarketModel(r, lam, Binomial(u, d, p))
            thr = prepare_binomial_inputs(1.0, m, preference(weighting=w)).thresholds
            base = thr.sell_unbounded
            if rng.random() < 0.5 and thr.sell_interior is not None:
                base = thr.sell_interior
            zeta = max(1.0 + 1e-6, base * rng.uniform(0.6, 1.4))
            pref = preference(eta=rng.uniform(0.2, 3.0), zeta=zeta, weighting=w)
            g = keep_leg - d
            l = u - keep_leg
            mirror = MarketModel(u, 0.0, Binomial(1.0 + u + g, 1.0 + u - l, 1.0 - p))
            sell = solve_ray(prepare_binomial_inputs(1.0, m, pref), "sell")
            buy = solve_ray(prepare_binomial_inputs(1.0, mirror, pref), "buy")
            if sell.boundary or buy.boundary:
                continue
            assert sell.case_id == buy.case_id.replace("T4.1-", "T4.2-"), (m, pref)
            assert sell.kind is mirrored.get(buy.kind, buy.kind)
            assert sell.theta == pytest.approx(-buy.theta, rel=1e-9)
            assert sell.prospect == pytest.approx(buy.prospect, rel=1e-9)
            fired.add(sell.case_id)
            checked += 1
        assert checked > 2000
        assert {"T4.2-1b", "T4.2-1c", "T4.2-1d", "T4.2-3a", "T4.2-3b", "T4.2-4"} <= fired


def _knife_edge_problem(rng):
    """A random admissible market and preference, or None, with the merge's knife
    edges drawn on purpose: equal pseudo weights on one ray (both rays when
    lam = 0, and even odds then make both flat at one loss aversion), and loss
    aversion at a threshold, within 1e-13 of it, below all of them, or near one."""
    r = rng.uniform(0.0, 0.08)
    lam = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.1)
    keep = 1.0 - lam
    u = keep * (1.0 + r) + rng.uniform(0.01, 0.6)
    roll = rng.random()
    if roll < 0.2:
        d = 2.0 * (1.0 + r) / keep - u  # equal buy weights
    elif roll < 0.4:
        d = 2.0 * keep * (1.0 + r) - u  # equal sell weights
    else:
        d = rng.uniform(0.3, u - 0.02)
    even = lam == 0.0 and roll < 0.4 and rng.random() < 0.3
    p = 0.5 if even else rng.uniform(0.05, 0.95)
    roll = rng.random()
    if roll < 0.4:
        w = TverskyKahnemanWeighting(rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0))
    elif roll < 0.7:
        w = PrelecWeighting(rng.uniform(0.35, 0.95), rng.uniform(0.5, 2.0),
                            rng.uniform(0.5, 2.0))
    else:
        w = IdentityWeighting()
    if not 0.0 < d < u:
        return None
    m = MarketModel(r, lam, Binomial(u, d, p))
    if not check_no_arbitrage(m).passed:
        return None
    thr = prepare_binomial_inputs(1.0, m, preference(weighting=w)).thresholds
    levels = [x for x in (thr.buy_unbounded, thr.buy_interior,
                          thr.sell_unbounded, thr.sell_interior) if x is not None and x > 1.0]
    if not levels:
        return None
    zeta = rng.choice(levels)
    roll = rng.random()
    if roll < 0.25:
        zeta *= 1.0 + rng.uniform(-1e-13, 1e-13)
    elif roll < 0.6:
        zeta = 1.0 + (min(levels) - 1.0) * rng.uniform(0.0, 1.0)
    elif roll < 0.8:
        zeta *= rng.uniform(0.6, 1.4)
    return m, preference(eta=rng.uniform(0.2, 3.0), zeta=max(zeta, 1.0 + 1e-9), weighting=w)


class TestFullBinomialSolve:
    def test_costs_above_the_threshold_stop_trading(self):
        m = market(u=1.1, d=0.9, r=0.0, lam=0.15)
        assert m.lam >= lambda_bar(m)
        sol = solve_binomial(1.0, m, preference(zeta=1.01))
        assert sol.theta == 0.0
        assert sol.case_id == "T4.3-1"

    def test_frictionless_high_aversion_no_trade(self):
        # up-state pseudo weight below the down state with high aversion
        m = market(u=1.25, d=0.9, r=0.02, lam=0.0)
        pp = pseudo_probabilities(m)
        assert pp.buy_up < pp.buy_down
        thr = prepare_binomial_inputs(1.0, m, preference()).thresholds
        zeta = max(thr.buy_interior, thr.sell_interior) * 1.05
        sol = solve_binomial(1.0, m, preference(zeta=zeta))
        assert sol.theta == 0.0
        assert sol.case_id == "T4.3-1"

    def test_two_interior_candidates_resolved_by_value(self):
        # construct a market where both rays admit interior optima is not
        # possible (the pseudo-probability orderings are mutually exclusive),
        # so check the buy-interior vs sell-unbounded comparison instead
        m = market(u=1.5, d=0.95, r=0.0, lam=0.02, p=0.55)
        pref = preference(eta=1.5, zeta=1.2)
        sol = solve_binomial(1.0, m, pref)
        assert sol.case_id in ("T4.3-2a", "T4.3-2b", "T4.3-2c")
        grid = GridSpec(-10 * (1 + abs(sol.theta)), 10 * (1 + abs(sol.theta)), 4001, 2)
        report = verify(sol, Portfolio(1.0, 0.0), m, pref, grid)
        assert report.agreement == "match", report.detail

    def test_classification_complete_and_oracle_verified(self):
        rng = random.Random(90125)
        kinds = set()
        for _ in range(250):
            u = rng.uniform(1.01, 1.7)
            d = rng.uniform(0.4, u - 0.03)
            p = rng.uniform(0.05, 0.95)
            r = rng.uniform(0.0, 0.08)
            lam = rng.uniform(0.0, 0.35)
            m = MarketModel(r, lam, Binomial(u, d, p))
            if not check_no_arbitrage(m).passed:
                continue
            roll = rng.random()
            if roll < 0.4:
                w = TverskyKahnemanWeighting(rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0))
            elif roll < 0.7:
                w = PrelecWeighting(rng.uniform(0.35, 0.95), rng.uniform(0.5, 2.0),
                                    rng.uniform(0.5, 2.0))
            else:
                w = IdentityWeighting()
            eta = rng.uniform(0.2, 3.0)
            pref = CptPreference(
                ExponentialUtility(eta, eta, rng.uniform(1.01, 4.0)), w)
            sol = solve_binomial(1.0, m, pref)
            assert sol.case_id.startswith("T4.3-")
            kinds.add(sol.kind)
            ref = sol.theta if sol.kind is SolutionKind.FINITE_POINT else 1.0
            span = 10.0 * (1.0 + abs(ref))
            report = verify(sol, Portfolio(1.0, 0.0), m, pref,
                            GridSpec(-span, span, 2001, 2))
            assert report.agreement == "match", (sol, report.detail)
        assert SolutionKind.FINITE_POINT in kinds
        assert SolutionKind.PLUS_INFINITY in kinds or SolutionKind.MINUS_INFINITY in kinds

    def test_merge_keeps_the_better_ray_or_the_union_of_idle_rays(self):
        """T4.3 against both rays' own optima (T4.1, T4.2) on knife-edge problems.

        A trading ray has a nonzero prospect.  With none, the answer is no trade
        or the union of the flat rays' intervals; otherwise it is one trading
        ray's optimum, the better one, with a 1e-12 relative tie going to the
        finite optimum first and then to the buy.  Both rays never have interior
        candidates: a buy needs (1-lam)(u+d) > 2(1+r), a sale 2(1-lam)(1+r) > u+d.
        """
        rng = random.Random(20240614)
        fired, ties, checked = set(), 0, 0
        finite = SolutionKind.FINITE_POINT
        for _ in range(6000):
            problem = _knife_edge_problem(rng)
            if problem is None:
                continue
            m, pref = problem
            inputs = prepare_binomial_inputs(1.0, m, pref)
            buy, sell = solve_ray(inputs, "buy"), solve_ray(inputs, "sell")
            assert not (buy.case_id.endswith("-4") and sell.case_id.endswith("-4"))
            sol = solve_binomial(1.0, m, pref)
            fired.add(sol.case_id)
            checked += 1
            trading = [ray for ray in (buy, sell)
                       if ray.kind is not SolutionKind.INTERVAL and ray.prospect != 0.0]
            scale = max(1.0, abs(buy.prospect), abs(sell.prospect))
            tie = len(trading) == 2 and abs(buy.prospect - sell.prospect) <= 1e-12 * scale
            ties += tie
            assert sol.boundary == (buy.boundary or sell.boundary or tie), (m, pref, sol)
            if not trading:
                ends = [0.0] + [end for ray in (buy, sell)
                                if ray.kind is SolutionKind.INTERVAL for end in (ray.lo, ray.hi)]
                lo, hi = min(ends), max(ends)
                if lo == hi:
                    assert sol == Solution.point(0.0, "T4.3-1", 0.0, boundary=sol.boundary)
                else:
                    assert (sol.kind, sol.lo, sol.hi, sol.prospect) == \
                        (SolutionKind.INTERVAL, lo, hi, 0.0), (m, pref, sol)
                continue
            winner = buy if sol.theta == buy.theta else sell
            assert winner in trading, (m, pref, sol)
            assert (sol.theta, sol.kind, sol.prospect) == \
                (winner.theta, winner.kind, winner.prospect), (m, pref, sol)
            if tie:
                only_sale_finite = buy.kind is not finite and sell.kind is finite
                assert winner is (sell if only_sale_finite else buy), (m, pref, sol)
            elif len(trading) == 2:
                loser = sell if winner is buy else buy
                assert winner.prospect > loser.prospect, (m, pref, sol)
            # a finite buy is 2*, a finite sale 3*, an unbounded buy 7*, an unbounded sale 8*
            digit = {(True, True): "2", (False, True): "3",
                     (True, False): "7", (False, False): "8"}[winner is buy, sol.kind is finite]
            assert sol.case_id[5] == digit, (m, pref, sol)
        assert checked > 4000
        assert ties > 0
        assert fired == {"T4.3-" + label for label in (
            "1", "2a", "2b", "3a", "3b", "4", "5", "6", "7a", "7b", "7c", "8a", "8b", "8c")}

    @pytest.mark.parametrize("m, w, bracket, label", [
        (market(u=1.08, d=0.8, p=0.4, r=0.016), TverskyKahnemanWeighting(0.94, 0.68),
         (1.3, 1.31), "T4.3-3b"),
        (market(u=1.48, d=0.77, p=0.57, r=0.048, lam=0.003),
         TverskyKahnemanWeighting(0.92, 0.46), (1.849, 1.858), "T4.3-2b"),
    ])
    def test_a_value_tie_goes_to_the_finite_optimum(self, m, w, bracket, label):
        """Loss aversion bisected to where one ray's unbounded limit equals the
        other ray's interior value: the interior trade is kept, flagged boundary."""
        def gap(zeta):
            inputs = prepare_binomial_inputs(1.0, m, preference(zeta=zeta, weighting=w))
            buy, sell = solve_ray(inputs, "buy"), solve_ray(inputs, "sell")
            assert {buy.case_id[5:], sell.case_id[5:]} == {"3b", "4"}, (zeta, buy, sell)
            return buy.prospect - sell.prospect

        lo, hi = bracket
        rising = gap(hi) > 0.0
        assert (gap(lo) > 0.0) != rising
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (lo, mid) if (gap(mid) > 0.0) == rising else (mid, hi)
        assert abs(gap(lo)) <= 1e-12
        sol = solve_binomial(1.0, m, preference(zeta=lo, weighting=w))
        assert (sol.case_id, sol.kind, sol.boundary) == (label, SolutionKind.FINITE_POINT, True)

    def test_unbounded_solutions_certified_by_ladder(self):
        m = market(u=1.3, d=0.8, r=0.05, lam=0.0, p=0.2)
        pref = preference(eta=2.0, zeta=1.01)
        sol = solve_binomial(1.0, m, pref)
        assert sol.kind is SolutionKind.PLUS_INFINITY
        port = Portfolio(1.0, 0.0)
        values = [evaluate_objective(port, m, pref, 10.0**j / 2.0) for j in range(4)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(sol.prospect, abs=1e-9)


class TestNoTradeThreshold:
    def test_direct_arithmetic(self):
        assert lambda_bar(market(u=1.1, d=0.9, r=0.0)) == pytest.approx(0.1)
        got = lambda_bar(market(u=1.2, d=0.95, r=0.05))
        assert got == pytest.approx(max(1 - 1.05 / 1.2, 1 - 0.95 / 1.05))

    def test_frictionless_threshold_is_positive(self):
        assert lambda_bar(market()) > 0.0

    @given(
        u=st.floats(1.02, 1.6), gap=st.floats(0.05, 0.5), p=st.floats(0.1, 0.9),
        r=st.floats(0.0, 0.08),
    )
    @settings(max_examples=60, deadline=None)
    def test_signs_flip_exactly_at_the_threshold(self, u, gap, p, r):
        d = u - gap
        assume(d > 0.05)
        m0 = admissible_market(u, d, p, r, 0.0)
        assume(m0 is not None)
        bar = lambda_bar(m0)
        assume(0.001 < bar < 0.95)
        below = pseudo_probabilities(MarketModel(r, bar * (1 - 1e-6), Binomial(u, d, p)))
        above = pseudo_probabilities(MarketModel(r, min(bar * (1 + 1e-6), 0.999), Binomial(u, d, p)))
        assert max(below.buy_down, below.sell_up) > 0.0
        assert above.buy_down <= 1e-9 and above.sell_up <= 1e-9


def test_each_ray_is_built_once(monkeypatch):
    # the buy ray is unbounded (T4.1-3a), so no prospect is evaluated
    m = market(u=1.3, d=0.8, r=0.05, lam=0.0, p=0.2)
    buy_unbounded = prepare_binomial_inputs(1.0, m, preference()).thresholds.buy_unbounded
    pref = preference(zeta=1.0 + 0.9 * (buy_unbounded - 1.0))
    calls = {"pseudo_probabilities": 0, "on_side": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(binomial, "pseudo_probabilities",
                        counted("pseudo_probabilities", binomial.pseudo_probabilities))
    # each side's weight function is resolved once per solve, for both rays
    monkeypatch.setattr(TverskyKahnemanWeighting, "on_side",
                        counted("on_side", TverskyKahnemanWeighting.on_side))
    inputs = prepare_binomial_inputs(1.0, m, pref)
    assert calls == {"pseudo_probabilities": 1, "on_side": 2}
    assert solve_ray(inputs, "buy").case_id == "T4.1-3a"
    calls.update(dict.fromkeys(calls, 0))
    sol = solve_binomial(1.0, m, pref)
    assert (sol.case_id, calls) == ("T4.3-7a", {"pseudo_probabilities": 1, "on_side": 2})
    # the limit prospect reads the ray's two decision weights
    assert sol.prospect == TK.weight("gain", 0.8) - pref.utility.loss_aversion * TK.weight(
        "loss", 0.2)


REFUSAL_PREF = CptPreference(ExponentialUtility(1, 1, 2.25), TK)


@pytest.mark.parametrize("m, pref, error, message", [
    pytest.param(MarketModel(0.05, 0, Binomial(1.04, 1.02, 0.5)), REFUSAL_PREF, ValueError,
                 "market admits arbitrage or is degenerate: risk-free dominates: "
                 "P(gross > 1.05) = 0", id="arbitrage"),
    pytest.param(MarketModel(0.05, 0, Lognormal(0.05, 0.2)), REFUSAL_PREF, TypeError,
                 "this solver requires a two-state (binomial) return law", id="lognormal-law"),
    pytest.param(market(), CptPreference(PowerUtility(), TK), TypeError,
                 "the two-state solver requires the exponential utility pair", id="power"),
    pytest.param(market(), CptPreference(ExponentialUtility(1, 2, 2.25), TK), ValueError,
                 "the two-state solver requires equal gain/loss curvature", id="curvature"),
])
def test_solve_binomial_refuses_what_it_cannot_solve(m, pref, error, message):
    with pytest.raises(error) as raised:
        solve_binomial(1.0, m, pref)
    assert str(raised.value) == message


def test_solve_ray_names_a_bad_side():
    inputs = prepare_binomial_inputs(1.0, market(), REFUSAL_PREF)
    with pytest.raises(ValueError) as raised:
        solve_ray(inputs, "up")
    assert str(raised.value) == "side must be 'buy' or 'sell', got 'up'"
