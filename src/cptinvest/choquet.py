"""Prospect values of signed distributions via Choquet-type integrals.

Continuous laws are integrated in the quantile domain, where the weighting
derivative's endpoint singularities are explicit::

    v_plus  = integral_0^{S(0)} u_gain(Q(1 - q)) w_gain'(q) dq
    v_minus = integral_0^{F(0)} u_loss(-Q(q))    w_loss'(q) dq

Endpoints are regularized before handing panels to adaptive Gauss-Kronrod:
power-law blow-ups (inverse-S weightings) by the substitution
q = t**(1/(1-eps)), the near-hyperbolic lower tail of the exp-log weighting
by the change of variable q = exp(-s).  Discrete laws bypass quadrature and
are evaluated as exact rank-dependent sums, so no numerical noise enters the
closed-form binomial classification.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

from .preferences import CptPreference, Side, WeightingPair

__all__ = [
    "GainLoss",
    "ProspectDivergenceError",
    "gain_loss",
    "prospect_value",
    "distorted_tail_integral",
    "rank_dependent_sum",
    "rank_weights",
]

# convergence targets per integral side
_ABS_TARGET = 1e-10
_REL_TARGET = 1e-9
_MAX_PANELS = 2000

# quad is run tighter than the acceptance targets to leave headroom
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 2e-10

# the largest double below 1: q = 1 - t**m rounds to 1 past it
_BELOW_ONE = math.nextafter(1.0, 0.0)
# sigma = -ln q up to which q = e**-sigma stays a normal float
_SIGMA_MAX = 700.0


class ProspectDivergenceError(ArithmeticError):
    """Raised when one side of a prospect integral fails to converge."""

    def __init__(self, side: str, detail: str):
        self.side = side
        self.detail = detail
        super().__init__(f"prospect {side} integral did not converge: {detail}")


@dataclass(frozen=True)
class GainLoss:
    """Gains part, losses part and their error estimates; total = gain - loss."""

    gain: float
    loss: float
    gain_error: float = 0.0
    loss_error: float = 0.0

    @property
    def total(self) -> float:
        return self.gain - self.loss


_QUADPACK = "scipy.integrate._quadpack"


@functools.cache
def _qagse():
    """QUADPACK's ``_qagse`` from scipy's extension module, loaded by itself:
    importing ``scipy.integrate`` would load ``scipy.optimize`` and
    ``scipy.linalg`` too.  The module is private, so where it or ``_qagse`` is
    missing, ``scipy.integrate.quad``, which takes the same leading arguments,
    stands in."""
    ext = sys.modules.get(_QUADPACK)
    if ext is None:
        scipy_dirs = find_spec("scipy").submodule_search_locations
        integrate = [os.path.join(d, "integrate") for d in scipy_dirs]
        if (spec := PathFinder.find_spec(_QUADPACK, integrate)) is not None:
            ext = module_from_spec(spec)
            spec.loader.exec_module(ext)
            sys.modules[_QUADPACK] = ext
    qagse = getattr(ext, "_qagse", None)
    if qagse is None:
        from scipy.integrate import quad as qagse
    return qagse


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """Adaptive Gauss-Kronrod integral of f over a finite (a, b) by QUADPACK's
    qagse, with its full output: (value, abserr, infodict, ier or message).

    This is the call ``scipy.integrate.quad`` makes for finite bounds, so the
    results are its bits.  The extension loads on the first call: discrete laws
    and the oracle's fixed-node grid never integrate adaptively, so they skip it.
    """
    if a == b:
        # scipy.integrate.quad's shortcut: QUADPACK would still evaluate f at a
        return 0.0, 0.0, {"neval": 0, "last": 0}
    return _qagse()(f, a, b, (), 1, epsabs, epsrel, limit)


def _checked_quad(f, a: float, b: float, side: str):
    res = quad(f, a, b, _QUAD_EPSABS, _QUAD_EPSREL, _MAX_PANELS)
    value, abserr = res[0], res[1]
    if not math.isfinite(value):
        raise ProspectDivergenceError(side, f"non-finite quadrature value {value}")
    if value < 0.0:
        # every integrand here is nonnegative; QUADPACK can return a negative
        # value, with a tiny error estimate, for an integral that diverges
        raise ProspectDivergenceError(side, f"negative quadrature value {value:.6e}")
    return value, abserr


def distorted_tail_integral(value, weighting: WeightingPair, side: Side,
                            law) -> tuple[float, float]:
    """Integrate u(max(Q(1 - q), 0)) * w'(q) over (0, law.sf(0)), u = value(side).

    Q(1 - q) is the law's upper-tail quantile at level q; where the law
    has log-tail quantiles it is taken at q = exp(-s) without forming q,
    enabling the deep lower tail of exp-log weightings.  The side is resolved
    once, before the first node.  Returns (value, error_estimate).
    """
    upper = law.sf(0.0)
    if upper <= 0.0:
        return 0.0, 0.0
    upper = min(upper, 1.0)
    mid = 0.5 * upper
    power = weighting.endpoint_exponent(side)
    u, sided = value(side), weighting.on_side(side)
    derivative = sided.derivative
    # the upper-tail quantile, with its sign dispatch done once rather than per node
    shift, scale = law.shift, law.scale
    base_quantile = law.base.isf if scale > 0 else law.base.ppf

    # a node floors its outcome with a conditional: max(x, 0.0) with no builtin call
    def outcome(q):
        x = shift + scale * base_quantile(q)
        return u(0.0 if 0.0 > x else x)

    def plain(q):
        return outcome(q) * derivative(q)

    def at_end(end, sign, lo, hi):
        """Integral over (lo, hi), one of whose ends is q = end.

        w' blows up there when power < 1; q = end + sign * t**(1/power) then
        keeps the integrand bounded at t = 0.
        """
        if power >= 1.0:
            return _checked_quad(plain, lo, hi, side)
        m = 1.0 / power
        clamped = False

        def integrand(t):
            nonlocal clamped
            q = end + sign * t**m
            if q == 1.0:
                # t**m is below one ulp of 1: take the last q below it
                clamped = True
                q = _BELOW_ONE
            return outcome(q) * derivative(q) * m * t ** (m - 1.0)

        v, e = _checked_quad(integrand, 0.0, (hi - lo) ** power, side)
        if clamped:
            # the outcome falls as q rises: bound the sliver of weight past _BELOW_ONE
            e += (1.0 - sided.weight(_BELOW_ONE)) * abs(outcome(_BELOW_ONE))
        return v, e

    total = 0.0
    err = 0.0

    # (0, mid]: weighting derivative blows up at q -> 0
    log_density = getattr(sided, "log_tail_density", None)
    if log_density is not None:
        # q = exp(-s); integrand decays like exp(-delta * s**gamma)
        s_lo = -math.log(mid)
        s_hi = weighting.tail_span(side)
        if law.has_log_tail_quantiles:
            base_logq = law.base.isf_logq if scale > 0 else law.base.ppf_logq

            def outcome_at_s(s):
                x = shift + scale * base_logq(-s)
                return u(0.0 if 0.0 > x else x)
        else:
            s_hi = min(s_hi, _SIGMA_MAX)

            def outcome_at_s(s):
                return outcome(math.exp(-s))

        def log_integrand(s):
            return outcome_at_s(s) * log_density(s)

        cut = s_lo
        if s_hi > s_lo:
            v, e = _checked_quad(log_integrand, s_lo, s_hi, side)
            total += v
            err += e
            cut = s_hi
        # unresolved mass beyond the truncation point
        tail_mass = weighting.tail_weight(side, cut)
        if tail_mass > 0.0:
            err += tail_mass * abs(outcome_at_s(cut))
    else:
        v, e = at_end(0.0, 1.0, 0.0, mid)
        total += v
        err += e

    # [mid, upper]: singular only when upper reaches 1
    if upper > 1.0 - 1e-11:
        v, e = at_end(upper, -1.0, mid, upper)
    else:
        v, e = _checked_quad(plain, mid, upper, side)
    total += v
    err += e

    if err > max(_ABS_TARGET, _REL_TARGET * abs(total)):
        raise ProspectDivergenceError(
            side, f"error estimate {err:.3e} exceeds target for value {total:.6e}"
        )
    return total, err


def rank_weights(weighting: WeightingPair, side: Side, probs) -> list[float]:
    """Decision weights w(c_i) - w(c_{i-1}) of probabilities listed in rank order.

    ``c_i`` is the cumulative probability of the first i outcomes, clamped at 1
    against round-off; each increment depends only on its outcome's rank.
    """
    weight = weighting.on_side(side).weight
    w = [0.0]  # w(0) = 0
    cum = 0.0
    for p in probs:
        cum = 1.0 if 1.0 < (c := cum + p) else c  # min(cum + p, 1.0), with no call
        w.append(weight(cum))
    return [b - a for a, b in zip(w, w[1:])]


def rank_dependent_sum(
    utility_value,
    weighting: WeightingPair,
    atoms,
) -> tuple[float, float]:
    """Exact Choquet sums over a finite law: (gains part, losses part).

    ``atoms`` are (value, prob) pairs; ``utility_value(side)`` is the side's
    function of nonnegative magnitudes.  Gains are ranked from the top, losses
    from the bottom; atoms exactly at zero contribute to neither side.
    """
    ordered = sorted(atoms)
    gains = [a for a in reversed(ordered) if a[0] > 0.0]
    losses = [a for a in ordered if a[0] < 0.0]
    v_plus, u = 0.0, utility_value("gain")
    for (x, _), dw in zip(gains, rank_weights(weighting, "gain", [p for _, p in gains])):
        v_plus += u(x) * dw
    v_minus, u = 0.0, utility_value("loss")
    for (x, _), dw in zip(losses, rank_weights(weighting, "loss", [p for _, p in losses])):
        v_minus += u(-x) * dw
    return v_plus, v_minus


def gain_loss(value, weighting: WeightingPair, dist) -> GainLoss:
    """Gains and losses parts of a signed distribution under a value function.

    ``value(side)`` is the side's function of nonnegative magnitudes.  Discrete
    laws are exact rank-dependent sums; continuous laws are two distorted
    upper-tail integrals, with error estimates.
    """
    if dist.atoms is not None:
        return GainLoss(*rank_dependent_sum(value, weighting, dist.atoms))

    # the losses of dist are the gains of its negation, bit for bit
    v_plus, e_plus = distorted_tail_integral(value, weighting, "gain", dist)
    v_minus, e_minus = distorted_tail_integral(value, weighting, "loss", dist.affine(0.0, -1.0))
    return GainLoss(v_plus, v_minus, e_plus, e_minus)


def prospect_value(pref: CptPreference, dist) -> GainLoss:
    """CPT value of a signed distribution relative to reference zero.

    The loss part is the utility of the losses, loss aversion included.
    """
    return gain_loss(pref.utility.value_on, pref.weighting, dist)
