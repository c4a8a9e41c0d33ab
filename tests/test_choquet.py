import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

import cptinvest
from cptinvest import choquet
from cptinvest.choquet import (
    ProspectDivergenceError,
    distorted_tail_integral,
    prospect_value,
    rank_dependent_sum,
)
from cptinvest.continuous import prepare_inputs
from cptinvest.distributions import ContinuousLaw, DiscreteLaw, constant_law
from cptinvest.market import Lognormal, MarketModel, Normal, Portfolio, StudentT
from cptinvest.preferences import (
    CptPreference,
    ExponentialUtility,
    IdentityWeighting,
    PowerUtility,
    PrelecWeighting,
    TverskyKahnemanWeighting,
)

TK = TverskyKahnemanWeighting(0.61, 0.69)
POWER = PowerUtility(0.88, 0.88, 2.25)


class _UniformBase:
    """Uniform(0,1) base distribution for closed-form cross-checks."""

    def cdf(self, x):
        return min(max(x, 0.0), 1.0)

    def sf(self, x):
        return 1.0 - self.cdf(x)

    def ppf(self, q):
        return q

    def isf(self, q):
        return 1.0 - q


def uniform_law(lo, hi):
    return ContinuousLaw(_UniformBase(), shift=lo, scale=hi - lo)


def test_zero_distribution_has_zero_prospect():
    pref = CptPreference(POWER, TK)
    b = prospect_value(pref, constant_law(0.0))
    assert (b.gain, b.loss, b.total) == (0.0, 0.0, 0.0)


def test_two_point_prospect_closed_form():
    p = 0.3
    pref = CptPreference(POWER, TK)
    dist = DiscreteLaw([1.0, -1.0], [1.0 - p, p])
    b = prospect_value(pref, dist)
    assert b.gain == pytest.approx(TK.on_side("gain").weight(1.0 - p) * POWER.value_on("gain")(1.0))
    assert b.loss == pytest.approx(TK.on_side("loss").weight(p) * POWER.value_on("loss")(1.0))


def test_uniform_closed_form_matches_quadrature():
    # identity weighting: v_plus = E[(D+)^a] = 1/(2(a+1)), v_minus = k/(2(b+1))
    alpha, beta, k = 0.7, 0.88, 2.25
    pref = CptPreference(PowerUtility(alpha, beta, k), IdentityWeighting())
    b = prospect_value(pref, uniform_law(-1.0, 1.0))
    assert b.gain == pytest.approx(0.5 / (alpha + 1), abs=1e-8)
    assert b.loss == pytest.approx(k * 0.5 / (beta + 1), abs=1e-8)


def test_atoms_at_zero_contribute_nothing():
    pref = CptPreference(POWER, TK)
    with_zero = DiscreteLaw([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    without = DiscreteLaw([-1.0, 2.0], [0.25, 0.25 + 0.5])
    # the zero atom may absorb probability on either side of the ranking;
    # only the tail weights seen by nonzero atoms matter
    b = prospect_value(pref, with_zero)
    assert b.gain == pytest.approx(TK.on_side("gain").weight(0.25) * POWER.value_on("gain")(2.0))
    assert b.loss == pytest.approx(TK.on_side("loss").weight(0.25) * POWER.value_on("loss")(1.0))
    assert without.atoms[0][0] == -1.0  # sanity on the comparison fixture


def test_comonotonic_additivity_exact():
    """Rank sums equal the definition-based telescoping tail sums exactly."""
    pref = CptPreference(PowerUtility(0.6, 0.9, 3.0), TverskyKahnemanWeighting(0.4, 0.8))
    atoms = [(-2.0, 0.15), (-0.5, 0.2), (0.0, 0.05), (0.3, 0.35), (1.7, 0.25)]
    got_plus, got_minus = rank_dependent_sum(pref.utility.value_on, pref.weighting, atoms)

    # independent route: telescoping sums of weighted cumulative tail probabilities
    w, u = pref.weighting.on_side, pref.utility.value_on
    pos = sorted([a for a in atoms if a[0] > 0], reverse=True)
    tails = []
    c = 0.0
    for _, prob in pos:
        c += prob
        tails.append(c)
    expect_plus = sum(
        u("gain")(x) * (w("gain").weight(tails[i]) - w("gain").weight(tails[i - 1] if i else 0.0))
        for i, (x, _) in enumerate(pos)
    )
    neg = sorted([a for a in atoms if a[0] < 0])
    cums = []
    c = 0.0
    for _, prob in neg:
        c += prob
        cums.append(c)
    expect_minus = sum(
        u("loss")(-x) * (w("loss").weight(cums[i]) - w("loss").weight(cums[i - 1] if i else 0.0))
        for i, (x, _) in enumerate(neg)
    )
    assert got_plus == expect_plus  # exact, no tolerance
    assert got_minus == expect_minus


@given(
    values=st.lists(st.floats(-5, 5), min_size=2, max_size=6, unique=True),
    bumps=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_first_order_stochastic_dominance(values, bumps, seed):
    import random

    bumps = bumps[: len(values)]
    rng = random.Random(seed)
    probs = [rng.random() + 0.05 for _ in values]
    total = sum(probs)
    probs = [p / total for p in probs]
    pref = CptPreference(PowerUtility(0.7, 0.9, 2.0), TK)
    lower = DiscreteLaw(values, probs)
    higher = DiscreteLaw([v + b for v, b in zip(values, bumps)], probs)
    assert prospect_value(pref, lower).total <= prospect_value(pref, higher).total + 1e-12


@given(c=st.floats(0.1, 8.0))
@settings(max_examples=30, deadline=None)
def test_power_scale_consistency_discrete(c):
    pref = CptPreference(PowerUtility(0.6, 0.85, 2.5), TK)
    dist = DiscreteLaw([-1.5, -0.2, 0.8, 2.0], [0.2, 0.3, 0.3, 0.2])
    base = prospect_value(pref, dist)
    scaled = prospect_value(pref, dist.affine(0.0, c))
    assert scaled.gain == pytest.approx(c**0.6 * base.gain, rel=1e-12)
    assert scaled.loss == pytest.approx(c**0.85 * base.loss, rel=1e-12)


def test_power_scale_consistency_continuous():
    pref = CptPreference(PowerUtility(0.6, 0.85, 2.5), TK)
    dist = ContinuousLaw(Lognormal(0.01, 0.3).gross_law().base).affine(-1.0, 1.0)
    c = 3.7
    base = prospect_value(pref, dist)
    scaled = prospect_value(pref, dist.affine(0.0, c))
    assert scaled.gain == pytest.approx(c**0.6 * base.gain, rel=1e-7)
    assert scaled.loss == pytest.approx(c**0.85 * base.loss, rel=1e-7)


def test_identity_weighting_gains_only_equals_expected_utility():
    """No distortion and no losses: the prospect is plain expected utility."""
    mu, sigma, alpha = 0.05, 0.4, 0.75
    pref = CptPreference(PowerUtility(alpha, 0.9, 2.0), IdentityWeighting())
    dist = Lognormal(mu, sigma).gross_law()  # strictly positive support

    def density(x):
        return math.exp(-((math.log(x) - mu) ** 2) / (2 * sigma**2)) / (
            x * sigma * math.sqrt(2 * math.pi)
        )

    expected, _ = quad(lambda x: x**alpha * density(x), 0.0, math.inf, limit=400)
    b = prospect_value(pref, dist)
    assert b.loss == 0.0
    assert b.gain == pytest.approx(expected, abs=1e-8)


def test_exponential_utility_prospect_bounded():
    pref = CptPreference(ExponentialUtility(0.8, 0.8, 2.0), TK)
    dist = Normal(0.3, 1.5).gross_law().affine(-1.0, 1.0)  # heavy spread
    b = prospect_value(pref, dist)
    assert 0.0 < b.gain < 1.0
    assert 0.0 < b.loss < 2.0


def test_prelec_weighting_continuous_law():
    pref = CptPreference(PowerUtility(0.7, 0.85, 2.0), PrelecWeighting(0.65, 1.0, 1.2))
    dist = Lognormal(0.02, 0.25).gross_law().affine(-1.01, 1.0)
    b = prospect_value(pref, dist)
    assert b.gain > 0 and b.loss > 0
    assert math.isfinite(b.total)


@pytest.mark.parametrize("weighting", [TK, PrelecWeighting(0.65, 1.0, 1.2)], ids=["tk", "prelec"])
def test_integrand_nodes_call_the_base_quantile_directly(weighting, monkeypatch):
    # each integral binds its law's shift, scale and base quantile once; no node goes
    # through ContinuousLaw's range check and sign dispatch
    pref = CptPreference(PowerUtility(0.7, 0.85, 2.0), weighting)
    dist = Lognormal(0.02, 0.25).gross_law().affine(-1.01, 1.0)
    expected = prospect_value(pref, dist)

    def per_node(self, q):
        raise AssertionError("an integrand node went through ContinuousLaw")

    for name in ("ppf", "ppf_array", "isf_array", "isf_logq_array"):
        monkeypatch.setattr(ContinuousLaw, name, per_node)
    assert prospect_value(pref, dist) == expected


def test_genuine_divergence_is_reported_not_returned():
    # exp-log weighting with a small exponent under a lognormal tail and
    # power utility: the gains integral truly diverges
    pref = CptPreference(PowerUtility(0.9, 0.95, 2.0), PrelecWeighting(0.35, 1.0, 1.0))
    dist = Lognormal(0.0, 1.2).gross_law().affine(-1.0, 1.0)
    with pytest.raises(ProspectDivergenceError) as err:
        prospect_value(pref, dist)
    assert err.value.side in ("gain", "loss")


def _outcome_domain_side(pref, gross, shift, side, outcome_max=math.inf):
    """One side of the prospect of ``gross - shift`` from the outcome domain.

    The integral over x > 0 of w(P(beyond x)) u'(x), with the tail
    probability taken as a scipy.stats log probability so that Prelec
    weights of underflowing tails stay exact.  Shares no code with the
    quantile-domain evaluator.
    """
    weighting, utility = pref.weighting, pref.utility
    if side == "gain":
        log_beyond = lambda x: gross.logsf(shift + x)
    else:
        log_beyond = lambda x: gross.logcdf(shift - x)

    def weight(log_q):
        if isinstance(weighting, PrelecWeighting):
            delta = weighting.delta_gain if side == "gain" else weighting.delta_loss
            return math.exp(-delta * (-log_q) ** weighting.gamma)
        return weighting.on_side(side).weight(math.exp(log_q))

    if isinstance(utility, PowerUtility):
        power = utility.alpha if side == "gain" else utility.beta
        slope = lambda x: power * x ** (power - 1.0)
    else:
        eta = utility.eta_gain if side == "gain" else utility.eta_loss
        slope = lambda x: math.exp(-eta * x)

    def integrand(x):
        return weight(log_beyond(x)) * slope(x)

    if math.isfinite(outcome_max):
        # the tail probability drops to zero at a bounded outcome: split toward it
        edges = [0.0, 0.01, 0.1, 0.5 * outcome_max]
        edges += [outcome_max * (1.0 - 10.0**-k) for k in range(1, 16)]
        # the last sliver, [om(1 - 1e-15), om], is left out: the integrand falls as x
        # rises, so width times its value at the left end bounds what is missed
        sliver = (outcome_max - edges[-1]) * integrand(edges[-1])
        assert sliver <= 1e-15, (side, sliver)
    else:
        edges = [0.0, 0.01, 0.1, 1.0, 10.0, math.inf]
    value = 0.0
    for a, b in zip(edges, edges[1:]):
        piece, _, _, *flag = quad(integrand, a, b, epsabs=1e-15, epsrel=1e-12, limit=400,
                                  full_output=1)
        # a message after the info dict means QUADPACK's ier > 0: the piece did not converge
        assert not flag, (side, a, b, flag)
        value += piece
    return value * (utility.loss_aversion if side == "loss" else 1.0)


EXP_PRELEC = CptPreference(ExponentialUtility(1.0, 1.0, 2.0), PrelecWeighting(0.3, 1.0, 1.0))


@pytest.mark.parametrize("pref,law,shift", [
    pytest.param(EXP_PRELEC, Lognormal(0.0, 0.3), 1.01, id="exponential-prelec-lognormal"),
    pytest.param(EXP_PRELEC, Normal(0.0, 1.0), 1.01, id="exponential-prelec-normal"),
    # its quantile-domain tail passes the float range: the utility's bound takes over
    pytest.param(EXP_PRELEC, Lognormal(0.0, 1.0), 1.01, id="exponential-prelec-wide-lognormal"),
    pytest.param(CptPreference(POWER, TK), Lognormal(3.2932e-4, 7.4383e-3), 1.01,
                 id="power-tk-lognormal"),
    pytest.param(CptPreference(POWER, TK), Normal(0.01, 0.1), 1.01, id="power-tk-normal"),
    pytest.param(CptPreference(POWER, TK), StudentT(6.0, 0.0, 0.05), 1.01,
                 id="power-tk-student-t"),
    # P(gain) rounds to 1, so the gain side substitutes at the upper end q = 1
    pytest.param(CptPreference(POWER, TK), Normal(0.0, 0.01), 0.5, id="power-tk-all-gain"),
])
def test_finite_prospects_match_an_outcome_domain_quadrature(pref, law, shift):
    """Finite prospects are returned, and returned right.

    A bounded utility keeps the prospect finite even under Prelec gamma
    well below one half; power utility with TK weighting is finite against
    lognormal, normal and Student-t(6) tails.
    """
    b = prospect_value(pref, law.gross_law().affine(-shift, 1.0))
    if isinstance(law, Lognormal):
        gross, loss_max = stats.lognorm(s=law.sigma, scale=math.exp(law.mu)), shift
    elif isinstance(law, Normal):
        gross, loss_max = stats.norm(loc=1.0 + law.mu, scale=law.sigma), math.inf
    else:
        gross, loss_max = stats.t(df=law.nu, loc=1.0 + law.loc, scale=law.scale), math.inf
    assert b.gain == pytest.approx(_outcome_domain_side(pref, gross, shift, "gain"),
                                   rel=1e-9, abs=1e-12)
    assert b.loss == pytest.approx(_outcome_domain_side(pref, gross, shift, "loss", loss_max),
                                   rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("gamma,sigma", [(0.4, 0.3), (0.45, 0.05)])
def test_gains_certain_to_float_precision_are_refused_not_misread(gamma, sigma):
    """P(gain) rounds to 1, so deep in the upper-end substitution q = 1 - t**(1/gamma)
    rounds to 1, where no quantile exists.  The integrand stops at the last q below 1;
    the weight left beyond it, 1 - w(1 - 2**-53) (about 1e-6 at gamma 0.4, 1e-7 at
    0.45), times the outcome there exceeds the error target, so the gain side is
    refused instead of raising a ValueError about the quantile level.
    """
    pref = CptPreference(PowerUtility(), TverskyKahnemanWeighting(gamma, gamma))
    law = Lognormal(0.0, sigma).gross_law()
    assert law.sf(0.0) == 1.0
    with pytest.raises(ProspectDivergenceError) as err:
        prospect_value(pref, law)
    assert err.value.side == "gain"


@pytest.mark.parametrize("nu", [3.0, 6.0, 30.0])
def test_bounded_utility_under_prelec_on_student_t_tails_is_refused(nu):
    """Refused, not returned low.

    Without log-tail quantiles the Prelec integral stops at q = exp(-700),
    where the weight left beyond is exp(-700**0.3) = 8e-4 and the bounded
    utility of the Student-t quantile is close to 1.  That remainder exceeds
    the error target, so the gain side is refused; a quantile with the wrong
    sign there used to hide it and return a value 0.5-0.7 % low.
    """
    dist = StudentT(nu, 0.0, 0.1).gross_law().affine(-1.01, 1.0)
    with pytest.raises(ProspectDivergenceError) as err:
        prospect_value(EXP_PRELEC, dist)
    assert err.value.side == "gain"


_LAZY_QUAD_SCRIPT = """
import sys
import cptinvest as ci

pref = ci.CptPreference(ci.ExponentialUtility(1.5, 1.5, 1.2), ci.TverskyKahnemanWeighting(0.61, 0.69))
two_state = ci.MarketModel(0.0, 0.02, ci.Binomial(1.5, 0.95, 0.55))
sol = ci.solve_binomial(1.0, two_state, pref)
report = ci.verify(sol, ci.Portfolio(1.0, 0.0), two_state, pref, ci.GridSpec(-5.0, 5.0, 401))
assert report.agreement == "match", report
ci.prospect_value(pref, ci.Empirical((0.9, 0.97, 1.0, 1.04, 1.3)).gross_law())
assert "scipy.integrate" not in sys.modules, "loaded by discrete laws"
assert "scipy.integrate._quadpack" not in sys.modules, "loaded by discrete laws"
assert "scipy.special" not in sys.modules, "loaded by discrete laws"
power = ci.CptPreference(ci.PowerUtility(0.7, 0.9, 2.25), pref.weighting)
ci.solve(ci.Portfolio(1.0, 1.0), ci.MarketModel(0.01, 0.01, ci.Lognormal(0.05, 0.2)), power)
assert "scipy.integrate._quadpack" in sys.modules, "a continuous solve integrates adaptively"
loaded = {"scipy.integrate", "scipy.optimize", "scipy.linalg"} & set(sys.modules)
assert not loaded, f"QUADPACK's extension loads by itself, not through {loaded}"
assert "scipy.special" in sys.modules, "a continuous base computes with scipy.special"
assert {"scipy.special._ufuncs", "scipy.special.cython_special"} <= set(sys.modules)
loaded = {"scipy.special._basic", "scipy._lib._array_api"} & set(sys.modules)
assert not loaded, f"scipy.special's __init__ is deferred, but {loaded} loaded"
"""


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter on this checkout, ``SCIPY_ARRAY_API``
    unset; return its stdout."""
    src = str(Path(cptinvest.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "SCIPY_ARRAY_API"}
    done = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_discrete_laws_never_import_the_adaptive_integrator():
    """``choquet.quad`` loads QUADPACK's extension on its first call only, without
    ``scipy.integrate``, and ``scipy.special``'s extension modules load with the first
    continuous base law, without the package's ``__init__``."""
    _run_fresh(_LAZY_QUAD_SCRIPT)


_CONTINUOUS_SOLVE = """
import sys
import cptinvest as ci
from cptinvest import distributions
from cptinvest.continuous import prepare_inputs

pref = ci.CptPreference(ci.PowerUtility(0.7, 0.85, 2.0), ci.TverskyKahnemanWeighting(0.61, 0.69))
inputs = prepare_inputs(ci.Portfolio(1.0, 1.0), ci.MarketModel(0.01, 0.01, ci.Lognormal(0.06, 0.22)),
                        pref)
"""
_BOUND_FROM_PACKAGE = """
import scipy.special
names = ("gammaln", "ndtr", "ndtri", "ndtri_exp", "stdtr", "stdtrit")
assert all(getattr(distributions, n) is getattr(scipy.special, n) for n in names)
assert distributions.sc is sys.modules["scipy.special.cython_special"]
assert "__getattr__" not in vars(scipy.special)
assert "scipy.special._basic" in sys.modules, "the package ran its __init__"
print([(gl.gain.hex(), gl.gain_error.hex(), gl.loss.hex(), gl.loss_error.hex())
       for gl in (inputs.buy, inputs.sell)])
"""
_DEFERRED_SPECIAL_SCRIPTS = {
    # the deferred package becomes the full one on its first missing name
    "full-package-later": _CONTINUOUS_SOLVE + """
import pickle
assert "scipy.special._basic" not in sys.modules
import scipy.special.cython_special
assert scipy.special.cython_special.ndtri(0.5) == 0.0
assert "scipy.special._basic" not in sys.modules
from scipy.special import gamma
assert gamma(5.0) == 24.0
import scipy.stats
assert scipy.stats.norm.ppf(0.3) == scipy.special.ndtri(0.3)
assert pickle.loads(pickle.dumps(scipy.special.ndtr)) is scipy.special.ndtr
assert scipy.special.ndtri is distributions.ndtri
assert scipy.special._ufuncs is sys.modules["scipy.special._ufuncs"]
""" + _BOUND_FROM_PACKAGE,
    # imported before: the loader binds that package's modules
    "stats-first": "import scipy.stats\nimport scipy.special\nfull = scipy.special\n"
                   + _CONTINUOUS_SOLVE + "assert sys.modules['scipy.special'] is full\n"
                   + _BOUND_FROM_PACKAGE,
    # the private layout fails once: the package's __init__ runs at once
    "fallback": """
import sys
from importlib.abc import MetaPathFinder

class RefuseUfuncsOnce(MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy.special._ufuncs":
            sys.meta_path.remove(self)
            raise ModuleNotFoundError(f"refused: {name}", name=name)
        return None

sys.meta_path.insert(0, RefuseUfuncsOnce())
""" + _CONTINUOUS_SOLVE + """
assert not any(isinstance(f, RefuseUfuncsOnce) for f in sys.meta_path), "never refused"
""" + _BOUND_FROM_PACKAGE,
    # another thread's lookup between the two extensions' imports (where the loading
    # thread holds no import lock) runs the __init__ in that thread
    "other-thread": """
import threading
from cptinvest import distributions

found = []
real_import = distributions.import_module

def look_up_from_another_thread(name):
    if name == "scipy.special.cython_special":
        distributions.import_module = real_import
        def look_up():
            from scipy.special import gamma
            found.append(gamma(5.0))
        worker = threading.Thread(target=look_up)
        worker.start()
        worker.join(60)
        assert not worker.is_alive()
    return real_import(name)

distributions.import_module = look_up_from_another_thread
""" + _CONTINUOUS_SOLVE + """
assert found == [24.0], found
""" + _BOUND_FROM_PACKAGE,
    # under it the package's __init__ wraps some ufuncs, so it runs at once
    "scipy-array-api": "import os\nos.environ['SCIPY_ARRAY_API'] = '1'\n"
                       + _CONTINUOUS_SOLVE + _BOUND_FROM_PACKAGE
                       + "assert scipy.special.ndtri is not scipy.special._ufuncs.ndtri\n",
}


@pytest.mark.parametrize("case", sorted(_DEFERRED_SPECIAL_SCRIPTS))
def test_continuous_laws_bind_the_objects_scipy_special_exports(case):
    """In a fresh interpreter, whether ``scipy.special``'s ``__init__`` is deferred,
    ran before, runs in another thread while the extensions load, or runs at once
    because its ``_ufuncs`` fails to import or ``SCIPY_ARRAY_API`` makes it wrap the
    ufuncs: the laws compute with the objects that package exports, and a per-unit
    integral keeps the bits of this process's."""
    out = _run_fresh(_DEFERRED_SPECIAL_SCRIPTS[case])
    pref = CptPreference(PowerUtility(0.7, 0.85, 2.0), TK)
    inputs = prepare_inputs(Portfolio(1.0, 1.0), MarketModel(0.01, 0.01, Lognormal(0.06, 0.22)),
                            pref)
    assert out.strip() == repr([_hex(inputs.buy), _hex(inputs.sell)])


def _quad_summary(res):
    """Value, abserr, neval, last and ier of a full-output QUADPACK result.

    ``scipy.integrate.quad`` drops ier when it is 0 and puts QUADPACK's message in
    its place otherwise; the extension returns ier itself.
    """
    ier = 0 if len(res) == 3 else res[3]
    if isinstance(ier, str):
        ier = 1 if ier.startswith("The maximum number of subdivisions") else ier
    return res[0], res[1], res[2]["neval"], res[2]["last"], ier


def _solver_integrands():
    """(f, a, b, epsabs, epsrel, limit) of every adaptive integral the gain and loss
    sides of three laws take under TK, Prelec and identity weightings."""
    calls = []
    real = choquet.quad
    utility = PowerUtility(0.7, 0.85, 2.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(choquet, "quad", lambda *args: calls.append(args) or real(*args))
        for returns in (Lognormal(0.02, 0.25), Normal(0.02, 0.25), StudentT(4.0, 0.02, 0.25)):
            law = returns.gross_law().affine(-1.01, 1.0)
            for weighting in (TK, PrelecWeighting(0.65, 1.0, 1.2), IdentityWeighting()):
                for side, side_law in (("gain", law), ("loss", law.affine(0.0, -1.0))):
                    try:
                        distorted_tail_integral(utility.value_on, weighting, side, side_law)
                    except ProspectDivergenceError:
                        pass  # Student-t gains under Prelec are refused after integrating
    assert len(calls) == 36  # two panels per side
    return calls


def test_quad_gives_the_bits_of_scipy_integrate_quad():
    """The extension's qagse is the call scipy makes for finite bounds: same value,
    error estimate, evaluation count, panel count and flag on every solver integrand."""
    calls = _solver_integrands()
    for f, a, b, epsabs, epsrel, limit in calls:
        ours = choquet.quad(f, a, b, epsabs, epsrel, limit)
        ref = quad(f, a, b, full_output=1, epsabs=epsabs, epsrel=epsrel, limit=limit)
        assert _quad_summary(ours) == _quad_summary(ref)
        assert ours[3] == 0
    # the panel limit reached: QUADPACK's flag 1
    f, a, b, epsabs, epsrel, _ = calls[0]
    ours = choquet.quad(f, a, b, epsabs, epsrel, 2)
    assert ours[3] == 1
    assert _quad_summary(ours) == _quad_summary(quad(f, a, b, full_output=1, epsabs=epsabs,
                                                      epsrel=epsrel, limit=2))


def test_quad_on_an_empty_interval_never_calls_the_integrand():
    def never(x):
        raise AssertionError("integrand called on an empty interval")

    ours = choquet.quad(never, 0.3, 0.3, 1e-12, 2e-10, 2000)
    assert ours[:2] == (0.0, 0.0)
    assert _quad_summary(ours) == _quad_summary(quad(never, 0.3, 0.3, full_output=1))


def test_quad_propagates_the_integrands_exception():
    class Boom(Exception):
        pass

    def boom(x):
        if x > 0.5:
            raise Boom(x)
        return x

    for integrate in (lambda: choquet.quad(boom, 0.0, 1.0, 1e-12, 2e-10, 2000),
                      lambda: quad(boom, 0.0, 1.0, full_output=1)):
        with pytest.raises(Boom):
            integrate()


def test_quad_falls_back_to_scipy_integrate_without_qagse(monkeypatch):
    """An extension module without ``_qagse`` leaves the integrals to
    ``scipy.integrate.quad``, with the same results.  (A missing module is run in a
    fresh interpreter below.)"""
    calls = _solver_integrands()
    direct = [_quad_summary(choquet.quad(*c)) for c in calls]
    monkeypatch.setattr(choquet, "_QUADPACK", "scipy.integrate._odepack")
    choquet._qagse.cache_clear()
    try:
        assert choquet._qagse() is quad
        assert [_quad_summary(choquet.quad(*c)) for c in calls] == direct
    finally:
        choquet._qagse.cache_clear()


_QUADPACK_LOAD_SCRIPT = """
import sys
import cptinvest as ci
from cptinvest import choquet

fallback = sys.argv[1] == "fallback"
if fallback:
    choquet._QUADPACK = "scipy.integrate._no_such_extension"
calls = []
quad = choquet.quad
choquet.quad = lambda *args: calls.append(args) or quad(*args)
pref = ci.CptPreference(ci.PowerUtility(0.7, 0.9, 2.25), ci.TverskyKahnemanWeighting(0.61, 0.69))
sol = ci.solve(ci.Portfolio(1.0, 1.0), ci.MarketModel(0.01, 0.01, ci.Lognormal(0.05, 0.2)), pref)
choquet.quad = quad
assert ("scipy.integrate" in sys.modules) == fallback
import scipy.integrate

assert (choquet._qagse() is scipy.integrate.quad) == fallback
if not fallback:
    # scipy.integrate took the extension module choquet loaded, not a second copy
    assert choquet._qagse() is sys.modules["scipy.integrate._quadpack"]._qagse
    assert scipy.integrate._quadpack_py._quadpack is sys.modules["scipy.integrate._quadpack"]
summaries = []
for f, a, b, epsabs, epsrel, limit in calls:
    ours = quad(f, a, b, epsabs, epsrel, limit)
    ref = scipy.integrate.quad(f, a, b, (), 1, epsabs, epsrel, limit)
    summaries.append((ours[:2], ours[2]["neval"], ours[2]["last"]))
    assert summaries[-1] == (ref[:2], ref[2]["neval"], ref[2]["last"]) and len(ref) == 3
print(repr(sol), summaries)
"""


def test_quad_loads_quadpack_before_scipy_integrate_and_falls_back_without_it():
    """In a fresh interpreter: a continuous solve loads QUADPACK's extension by itself,
    ``import scipy.integrate`` still works after it and integrates to the same bits;
    with the extension's lookup failing, the solve runs through ``scipy.integrate``
    and prints the same solution and integrals."""
    src = str(Path(cptinvest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = []
    for mode in ("direct", "fallback"):
        done = subprocess.run([sys.executable, "-c", _QUADPACK_LOAD_SCRIPT, mode], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        out.append(done.stdout)
    assert out[0] == out[1]
    assert out[0].startswith("Solution(")


# float.hex of (gain, gain error, loss, loss error) of the buy and the sell ray's per-unit
# integrals: PowerUtility(0.7, 0.85, 2.0), MarketModel(0.01, 0.01, law), y0 = 1
_GOLDEN_LAWS = {"lognormal": Lognormal(0.06, 0.22), "normal": Normal(0.05, 0.2),
                "student-t": StudentT(4.0, 0.05, 0.2)}
_GOLDEN_WEIGHTINGS = {"tk": TK, "prelec": PrelecWeighting(0.65, 0.9, 1.1),
                      "identity": IdentityWeighting()}
_GOLDEN_INTEGRALS = {
    ("lognormal", "tk"): (
        ("0x1.b72d5c70cc504p-3", "0x1.a6ba6c0000000p-36",
         "0x1.9a48169f59d62p-4", "0x1.4d91f80000000p-38"),
        ("0x1.f3f4b785c7b7fp-4", "0x1.4725200000000p-38",
         "0x1.867008347d7dfp-3", "0x1.5285c00000000p-36"),
    ),
    ("lognormal", "prelec"): (
        ("0x1.1281684e8156cp-2", "0x1.18af1c13f8fe4p-38",
         "0x1.7c8607b9d304fp-4", "0x1.66953d815c32ep-47"),
        ("0x1.2b5602fb7b406p-3", "0x1.a5fd161ad7500p-40",
         "0x1.7a44a48019c20p-3", "0x1.a07420ef272eap-45"),
    ),
    ("lognormal", "identity"): (
        ("0x1.7f877bad5cc06p-3", "0x1.456d800000000p-39",
         "0x1.46b8421bf3a0ap-4", "0x1.72dc800000000p-41"),
        ("0x1.8fd80dd553231p-4", "0x1.5807800000000p-41",
         "0x1.49f5ed7298bf2p-3", "0x1.2d8cc00000000p-39"),
    ),
    ("normal", "tk"): (
        ("0x1.558f8710d2ecep-3", "0x1.d43e780000000p-37",
         "0x1.b7063f4226274p-4", "0x1.557b600000000p-37"),
        ("0x1.0ac636238dae4p-3", "0x1.69c1a80000000p-37",
         "0x1.2610a6b10d48ep-3", "0x1.c672500000000p-37"),
    ),
    ("normal", "prelec"): (
        ("0x1.9eba75927829fp-3", "0x1.f2f9a1d7f0829p-39",
         "0x1.9fa80107988a1p-4", "0x1.1ab8d8a72893cp-47"),
        ("0x1.46b8ce2751220p-3", "0x1.9c7b70f1f6ee6p-40",
         "0x1.15b502a31b62fp-3", "0x1.92c882c6230b1p-45"),
    ),
    ("normal", "identity"): (
        ("0x1.3627f6ac9447ep-3", "0x1.a538000000000p-40",
         "0x1.55b1e9b33f214p-4", "0x1.3a00000000000p-40"),
        ("0x1.9f6f1c2cb590ap-4", "0x1.361d400000000p-40",
         "0x1.01f6de63e4cc0p-3", "0x1.b080c00000000p-40"),
    ),
    ("student-t", "tk"): (
        ("0x1.b71748c2dd3b9p-3", "0x1.406dd00000000p-37",
         "0x1.34756b7a720a4p-3", "0x1.f0f4d00000000p-37"),
        ("0x1.70708cb0799c7p-3", "0x1.c3856c0000000p-36",
         "0x1.7cf681f2d33cfp-3", "0x1.2439000000000p-40"),
    ),
    ("student-t", "identity"): (
        ("0x1.5b66c61a1dc52p-3", "0x1.fcba600000000p-38",
         "0x1.a7696be3c40acp-4", "0x1.5f0b100000000p-38"),
        ("0x1.f0a0a7d489428p-4", "0x1.d758c00000000p-39",
         "0x1.29291358a4434p-3", "0x1.72a7b80000000p-36"),
    ),
}


def _hex(gl):
    return gl.gain.hex(), gl.gain_error.hex(), gl.loss.hex(), gl.loss_error.hex()


@pytest.mark.parametrize("law, weighting", sorted(_GOLDEN_INTEGRALS))
def test_per_unit_integrals_keep_their_bits(law, weighting):
    """prepare_inputs' four per-unit integrals and their error estimates, bit for bit."""
    pref = CptPreference(PowerUtility(0.7, 0.85, 2.0), _GOLDEN_WEIGHTINGS[weighting])
    inputs = prepare_inputs(Portfolio(1.0, 1.0),
                            MarketModel(0.01, 0.01, _GOLDEN_LAWS[law]), pref)
    assert (_hex(inputs.buy), _hex(inputs.sell)) == _GOLDEN_INTEGRALS[law, weighting]


def test_exponential_prospect_value_keeps_its_bits():
    """The oracle's adaptive path: prospect_value of a continuous law under
    ExponentialUtility, loss aversion included, bit for bit."""
    law = Lognormal(0.06, 0.22).gross_law().affine(-1.01, 1.0)
    pref = CptPreference(ExponentialUtility(1.3, 0.8, 2.0), TK)
    assert _hex(prospect_value(pref, law)) == (
        "0x1.4c8d58c46422ep-3", "0x1.f0008ecb3d89ep-36",
        "0x1.c92038ce7fdebp-4", "0x1.6aebe3d877832p-38")
