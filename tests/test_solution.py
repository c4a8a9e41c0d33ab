import math

import pytest

from cptinvest.solution import Solution, SolutionKind


@pytest.mark.parametrize("solution, text", [
    (Solution.point(0.15938678012780705, "T3.1-2b", 0.011459084389032995),
     "theta* = 0.1593867801  (case T3.1-2b, prospect 0.01145908439)"),
    (Solution.interval(-math.inf, 0.0, "T4.3-2"),
     "any theta* in [-inf, 0]  (case T4.3-2, prospect 0) [boundary]"),
    (Solution(SolutionKind.INTERVAL, "T4.3-2", 0.0, lo=0.0, hi=math.inf),
     "any theta* in [0, +inf]  (case T4.3-2, prospect 0)"),
    (Solution.unbounded(-1.0, "T3.2-3", math.inf),
     "theta* = -inf  (case T3.2-3, prospect inf)"),
], ids=["point", "interval-from-minus-inf", "interval-to-plus-inf", "minus-infinity"])
def test_describe_names_the_trade_the_case_and_the_prospect(solution, text):
    assert solution.describe() == text


@pytest.mark.parametrize("direction, kind", [
    (1.0, SolutionKind.PLUS_INFINITY), (2.5, SolutionKind.PLUS_INFINITY),
    (-1.0, SolutionKind.MINUS_INFINITY), (-math.inf, SolutionKind.MINUS_INFINITY),
])
def test_an_unbounded_trade_takes_its_kind_and_theta_from_the_sign(direction, kind):
    sol = Solution.unbounded(direction, "T3.1-8b", 0.25)
    assert (sol.kind, sol.theta, sol.prospect, sol.boundary) == (
        kind, math.copysign(math.inf, direction), 0.25, False)
    assert sol.representative_theta == sol.theta


@pytest.mark.parametrize("lo, hi, theta", [
    (0.0, math.inf, 0.0), (-1.0, math.inf, -1.0), (-2.0, 0.0, -2.0),
    (-math.inf, 0.0, 0.0), (-math.inf, math.inf, 0.0),
], ids=["buy-ray", "from-the-floor", "sell-segment", "sell-ray", "whole-line"])
def test_an_interval_is_a_knife_edge_worth_zero_given_by_a_finite_theta(lo, hi, theta):
    sol = Solution.interval(lo, hi, "T3.4-7")
    assert (sol.kind, sol.lo, sol.hi, sol.prospect, sol.boundary) == (
        SolutionKind.INTERVAL, lo, hi, 0.0, True)
    assert sol.representative_theta == theta
