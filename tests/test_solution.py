import math

import pytest

from cptinvest.solution import Solution


@pytest.mark.parametrize("solution, text", [
    (Solution.point(0.15938678012780705, "T3.1-2b", 0.011459084389032995),
     "theta* = 0.1593867801  (case T3.1-2b, prospect 0.01145908439)"),
    (Solution.interval(-math.inf, 0.0, "T4.3-2", 0.0, boundary=True),
     "any theta* in [-inf, 0]  (case T4.3-2, prospect 0) [boundary]"),
    (Solution.interval(0.0, math.inf, "T4.3-2", 0.0),
     "any theta* in [0, +inf]  (case T4.3-2, prospect 0)"),
    (Solution.minus_infinity("T3.2-3", math.inf),
     "theta* = -inf  (case T3.2-3, prospect inf)"),
], ids=["point", "interval-from-minus-inf", "interval-to-plus-inf", "minus-infinity"])
def test_describe_names_the_trade_the_case_and_the_prospect(solution, text):
    assert solution.describe() == text
