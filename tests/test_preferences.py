import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptinvest.preferences import (
    CptPreference,
    ExponentialUtility,
    IdentityWeighting,
    PowerUtility,
    PrelecWeighting,
    TverskyKahnemanWeighting,
)


class TestPowerUtility:
    def test_reference_parameterization(self):
        u = PowerUtility(0.88, 0.88, 2.25)
        assert u.value_on("gain")(1.0) == 1.0
        assert u.value_on("loss")(1.0) == 2.25

    def test_zero_and_monotone(self):
        u = PowerUtility(0.5, 0.8, 2.0)
        assert u.value_on("gain")(0.0) == 0.0
        assert u.value_on("loss")(0.0) == 0.0
        xs = [0.1, 0.5, 1.0, 3.0]
        for side in ("gain", "loss"):
            vals = [u.value_on(side)(x) for x in xs]
            assert vals == sorted(vals)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PowerUtility(0.9, 0.8, 2.0)  # alpha > beta
        with pytest.raises(ValueError):
            PowerUtility(0.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            PowerUtility(0.5, 0.5, 1.0)  # no loss aversion
        with pytest.raises(ValueError):
            PowerUtility().value_on("gain")(-0.1)
        with pytest.raises(ValueError):
            PowerUtility().value_on("up")(0.1)


class TestExponentialUtility:
    def test_bounded_limits(self):
        u = ExponentialUtility(1.0, 1.0, 2.0)
        assert u.value_on("gain")(1e9) == pytest.approx(1.0)
        assert u.value_on("loss")(1e9) == pytest.approx(2.0)

    def test_small_x_is_linear(self):
        u = ExponentialUtility(2.0, 2.0, 1.5)
        assert u.value_on("gain")(1e-9) == pytest.approx(2e-9, rel=1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ExponentialUtility(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            ExponentialUtility(1.0, 1.0, 0.9)


class TestWeightings:
    def test_endpoints_exact(self):
        for w in (TverskyKahnemanWeighting(0.61, 0.69),
                  PrelecWeighting(0.65, 1.0, 1.0),
                  IdentityWeighting()):
            for side in ("gain", "loss"):
                assert w.on_side(side).weight(0.0) == 0.0
                assert w.on_side(side).weight(1.0) == 1.0

    def test_tk_exponent_one_is_identity(self):
        w = TverskyKahnemanWeighting(1.0, 1.0)
        assert w.on_side("gain").weight(0.3) == pytest.approx(0.3, abs=1e-14)
        assert w.on_side("gain").derivative(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_prelec_fixed_point(self):
        # exp(-(-ln q)**g) fixes q = 1/e for any exponent
        w = PrelecWeighting(0.5, 1.0, 1.0)
        assert w.on_side("gain").weight(math.exp(-1.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_strictly_increasing_interior(self):
        for w in (TverskyKahnemanWeighting(0.28, 0.28),
                  TverskyKahnemanWeighting(0.61, 0.69),
                  PrelecWeighting(0.4, 0.8, 1.3)):
            qs = [i / 50 for i in range(1, 50)]
            for side in ("gain", "loss"):
                vals = [w.on_side(side).weight(q) for q in qs]
                assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tk_rejects_flat_region_parameters(self):
        with pytest.raises(ValueError):
            TverskyKahnemanWeighting(0.25, 0.69)
        with pytest.raises(ValueError):
            TverskyKahnemanWeighting(0.61, 1.2)

    def test_range_checks(self):
        w = TverskyKahnemanWeighting()
        with pytest.raises(ValueError):
            w.on_side("gain").weight(1.2)
        with pytest.raises(ValueError):
            w.on_side("gain").derivative(0.0)
        with pytest.raises(ValueError):
            w.on_side("gain").derivative(1.0)

    def test_derivative_matches_finite_differences_at_64_points(self):
        h = 1e-6
        weightings = [
            TverskyKahnemanWeighting(0.61, 0.69),
            TverskyKahnemanWeighting(0.4, 0.95),
            PrelecWeighting(0.65, 1.0, 1.4),
            IdentityWeighting(),
        ]
        qs = [(i + 0.5) / 64 for i in range(64)]
        for w in weightings:
            for side in ("gain", "loss"):
                sided = w.on_side(side)
                for q in qs:
                    fd = (sided.weight(q + h) - sided.weight(q - h)) / (2 * h)
                    assert sided.derivative(q) == pytest.approx(fd, rel=1e-6), (w, side, q)

    def test_tk_derivative_diverges_like_power_at_zero(self):
        w = TverskyKahnemanWeighting(0.61, 0.69)
        # w'(q) ~ c * q**(gamma-1): ratio at q and q/10 grows by ~10**(1-gamma)
        r = w.on_side("gain").derivative(1e-8) / w.on_side("gain").derivative(1e-7)
        assert r == pytest.approx(10 ** (1 - 0.61), rel=1e-3)

    @given(q=st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_derivative_array_matches_scalar(self, q):
        for w in (TverskyKahnemanWeighting(0.5, 0.8), PrelecWeighting(0.6, 1.0, 2.0)):
            arr = w.derivative_array("loss", np.array([q]))
            assert arr[0] == pytest.approx(w.on_side("loss").derivative(q), rel=1e-12)


_UTILITY_METHODS = {"value_on": (), "value_array": (np.array([0.5]),), "growth_powers": ()}
_WEIGHTING_METHODS = {"on_side": (), "derivative_array": (np.array([0.5]),),
                      "endpoint_exponent": ()}
_PRELEC_METHODS = {"tail_span": (), "tail_weight": (1.0,),
                   "log_tail_density_array": (np.array([1.0]),)}


@pytest.mark.parametrize("part, method, args", [
    pytest.param(part, method, args, id=f"{type(part).__name__}.{method}")
    for parts, methods in (
        ((PowerUtility(), ExponentialUtility()), _UTILITY_METHODS),
        ((TverskyKahnemanWeighting(), PrelecWeighting(), IdentityWeighting()), _WEIGHTING_METHODS),
        ((PrelecWeighting(),), _PRELEC_METHODS),
    )
    for part in parts
    for method, args in methods.items()
])
def test_every_side_taking_method_refuses_an_unknown_side(part, method, args):
    with pytest.raises(ValueError, match="side must be 'gain' or 'loss', got 'up'"):
        getattr(part, method)("up", *args)


def test_preference_bundle():
    pref = CptPreference(PowerUtility(), TverskyKahnemanWeighting())
    assert pref.utility.loss_aversion == 2.25


@pytest.mark.parametrize("build", [
    lambda: PowerUtility(0.88, 0.88, math.nan),
    lambda: ExponentialUtility(math.nan, 1.0, 2.0),
    lambda: ExponentialUtility(1.0, math.nan, 2.0),
    lambda: ExponentialUtility(1.0, 1.0, math.nan),
    lambda: PrelecWeighting(0.65, math.nan, 1.0),
    lambda: PrelecWeighting(0.65, 1.0, math.nan),
], ids=["power-loss_aversion", "exp-eta_gain", "exp-eta_loss", "exp-loss_aversion",
        "prelec-delta_gain", "prelec-delta_loss"])
def test_nan_parameters_are_rejected(build):
    # a comparison with NaN is false, so a check written as `x <= lo` lets it pass
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("utility", [PowerUtility(0.7, 0.9, 2.25),
                                     ExponentialUtility(1.5, 0.8, 1.2)],
                         ids=["power", "exponential"])
@pytest.mark.parametrize("side", ["gain", "loss"])
def test_value_array_writes_into_out_bitwise_as_the_allocating_call(utility, side):
    import numpy as np

    x = np.array([0.0, 5e-324, 1e-300, 1e-9, 0.3, 1.0, 2.5, 40.0, 1e300]).reshape(3, 3)
    expected = utility.value_array(side, x)
    buf = np.full_like(x, np.nan)
    assert utility.value_array(side, x, out=buf) is buf
    assert buf.tobytes() == expected.tobytes()
    assert x[2, 2] == 1e300  # the input is left alone
    # the numpy convention: the output may alias the input
    aliased = x.copy()
    assert utility.value_array(side, aliased, out=aliased) is aliased
    assert aliased.tobytes() == expected.tobytes()
