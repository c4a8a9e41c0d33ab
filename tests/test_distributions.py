import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln, ndtr, ndtri, ndtri_exp, stdtr, stdtrit

from cptinvest.distributions import (
    ContinuousLaw,
    DiscreteLaw,
    LognormalBase,
    NormalBase,
    StudentTBase,
    constant_law,
)


def test_normal_base_quantile_roundtrip():
    base = NormalBase()
    for q in [1e-12, 0.01, 0.3, 0.5, 0.77, 1 - 1e-12]:
        assert base.cdf(base.ppf(q)) == pytest.approx(q, rel=1e-12, abs=1e-15)
    assert base.isf(1e-300) > 36.0


def test_survival_is_complement():
    laws = [
        ContinuousLaw(NormalBase(), shift=0.3, scale=2.0),
        ContinuousLaw(LognormalBase(0.1, 0.5)),
        ContinuousLaw(StudentTBase(5.0), shift=-1.0, scale=0.7),
        DiscreteLaw([-1.0, 0.0, 2.5], [0.2, 0.3, 0.5]),
    ]
    for law in laws:
        for x in [-3.0, -1.0, 0.0, 0.4, 2.5, 7.0]:
            assert law.cdf(x) + law.prob_above(x) == pytest.approx(1.0, abs=1e-12)


@given(
    shift=st.floats(-5, 5),
    scale=st.floats(-3, 3).filter(lambda s: abs(s) > 1e-3),
    q=st.floats(0.001, 0.999),
)
@settings(max_examples=60, deadline=None)
def test_affine_quantiles_are_exact(shift, scale, q):
    base_law = ContinuousLaw(NormalBase())
    moved = base_law.affine(shift, scale)
    direct = shift + scale * base_law.ppf(q if scale > 0 else 1.0 - q)
    assert moved.ppf(q) == pytest.approx(direct, rel=1e-14, abs=1e-14)
    # quantile of the cdf comes back to the point
    x = moved.ppf(q)
    assert moved.ppf(moved.cdf(x)) == pytest.approx(x, rel=1e-9, abs=1e-9)


def test_affine_of_affine_composes():
    law = ContinuousLaw(LognormalBase(0.0, 0.3))
    twice = law.affine(1.0, -2.0).affine(-0.5, 3.0)
    # -0.5 + 3*(1 - 2X) = 2.5 - 6X
    assert twice.shift == pytest.approx(2.5)
    assert twice.scale == pytest.approx(-6.0)


def test_negative_scale_flips_tails():
    law = ContinuousLaw(NormalBase(), shift=0.0, scale=-1.0)
    assert law.cdf(-2.0) == pytest.approx(ContinuousLaw(NormalBase()).cdf(-2.0))
    assert law.ppf(0.01) == pytest.approx(-ContinuousLaw(NormalBase()).ppf(0.99))


def test_discrete_law_merges_and_normalizes():
    law = DiscreteLaw([2.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    assert law.atoms == ((1.0, 0.5), (2.0, 0.5))
    assert law.cdf(1.0) == 0.5
    assert law.prob_below(1.0) == 0.0
    assert law.prob_above(1.0) == 0.5


def test_discrete_law_builds_its_atoms_once():
    law = DiscreteLaw([2.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    assert law.atoms is law.atoms
    assert law.affine(1.0, 2.0).atoms == ((3.0, 0.5), (5.0, 0.5))


def test_constant_law():
    law = constant_law(3.0)
    assert law.atoms == ((3.0, 1.0),)
    assert law.cdf(2.999) == 0.0
    assert law.cdf(3.0) == 1.0


def test_discrete_affine_negative_scale_resorts():
    law = DiscreteLaw([1.0, 2.0], [0.25, 0.75])
    flipped = law.affine(0.0, -1.0)
    assert flipped.atoms == ((-2.0, 0.75), (-1.0, 0.25))


@pytest.mark.parametrize("scale", [0.9, -0.9], ids=["long", "negated"])
def test_vectorized_quantiles_match_scalar(scale):
    base = LognormalBase(0.02, 0.4)
    law = ContinuousLaw(base, shift=-1.0, scale=scale)
    qs = np.array([1e-6, 0.2, 0.5, 0.8, 1 - 1e-6])
    np.testing.assert_allclose(law.ppf_array(qs), [law.ppf(q) for q in qs], rtol=1e-13)
    upper = base.isf if scale > 0 else base.ppf
    np.testing.assert_allclose(law.isf_array(qs), [-1.0 + scale * upper(q) for q in qs],
                               rtol=1e-13)
    xs = np.array([-1.5, -0.5, 0.0, 1.0])
    np.testing.assert_allclose(law.sf_array(xs), [law.sf(x) for x in xs], rtol=1e-13)


def test_lognormal_survival_array_keeps_the_upper_tail():
    # sf(10) is 5.68e-31 here, far below the spacing of 1 - cdf
    base = LognormalBase(0.0, 0.2)
    xs = np.array([-1.0, 0.0, 1e-3, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0])
    np.testing.assert_allclose(base.sf_array(xs), [base.sf(x) for x in xs], rtol=1e-14, atol=0.0)


def test_log_tail_quantiles_reach_beyond_float_q():
    law = ContinuousLaw(LognormalBase(0.0, 0.2))
    deep = law.isf_logq_array(np.array([-800.0]))[0]  # q = exp(-800), not a float
    assert math.isfinite(deep)
    assert deep > law.isf_array(np.array([1e-300]))[0]


@pytest.mark.parametrize("law", [
    ContinuousLaw(NormalBase(), shift=0.3, scale=2.0),
    ContinuousLaw(NormalBase(), shift=0.3, scale=-2.0),
    ContinuousLaw(LognormalBase(0.1, 0.5)),
    ContinuousLaw(LognormalBase(0.1, 0.5), shift=1.0, scale=-1.5),
], ids=["normal", "normal-negated", "lognormal", "lognormal-negated"])
def test_log_quantile_arrays_follow_the_scalar_and_plain_quantiles(law):
    log_q = np.array([-5e3, -800.0, -40.0, -2.0, -0.1])
    # a negated law takes its upper tail from the base's lower-tail methods
    upper = law.base.isf_logq if law.scale > 0 else law.base.ppf_logq
    np.testing.assert_allclose(law.isf_logq_array(log_q),
                               [law.shift + law.scale * upper(x) for x in log_q], rtol=1e-15)
    # where q = exp(log_q) is a float, they match the plain quantile arrays
    q = np.exp(log_q[2:])
    np.testing.assert_allclose(law.isf_logq_array(log_q[2:]), law.isf_array(q), rtol=1e-13)


def test_log_tail_quantiles_past_the_float_range_are_infinite():
    # exp(mu + sigma * 812) overflows; the quantile is +inf, not an OverflowError
    assert LognormalBase(0.0, 1.0).isf_logq(-3.3e5) == math.inf


@pytest.mark.parametrize("nu", [1.5, 3.0, 6.0, 30.0])
def test_student_t_quantiles_keep_sign_and_accuracy_deep_in_the_tail(nu):
    base = StudentTBase(nu)
    s = np.arange(50.0, 741.0, 2.0)
    q = np.exp(-s)
    t = base.ppf_array(q)
    assert (t < 0).all()
    assert [base.ppf(x) for x in q] == list(t)
    assert np.array_equal(base.isf_array(q), -t)
    normal = q >= np.finfo(float).tiny
    # stdtr returns 0 once t**2 overflows; past |t| = 1e150 the tail is
    # F(t) = I_x(nu/2, 1/2) / 2 with x = nu / (nu + t**2) < 1e-299, whose
    # series is its leading term x**(nu/2) / (nu/2 B(nu/2, 1/2)) to double precision
    direct = normal & (np.abs(t) < 1e150)
    np.testing.assert_allclose(stdtr(nu, t[direct]) / q[direct], 1.0, rtol=0.0, atol=1e-8)
    far = normal & ~direct
    log_f = 0.5 * nu * (math.log(nu) - 2.0 * np.log(-t[far])) - math.log(nu) - betaln(0.5 * nu, 0.5)
    np.testing.assert_allclose(log_f, -s[far], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("nu", [1.5, 3.0, 30.0])
def test_student_t_tail_probabilities_survive_past_the_square_overflow(nu):
    base = StudentTBase(nu)
    # both sides of |t| = 1e150, where the CDF leaves stdtr for the leading
    # tail term, and past 1.34e154, where t**2 overflows; at nu = 3 and 30 the
    # deepest values lie below the float range and are 0 by either rule
    t = np.array([1e9, 1e100, 9e149, 1.1e150, 2e154, 1e200, 1e300])
    lower = base.cdf_array(-t)
    assert list(lower) == [base.cdf(-x) for x in t]
    assert list(base.sf_array(t)) == list(lower) == [base.sf(x) for x in t]
    lead = np.exp(0.5 * nu * (math.log(nu) - 2.0 * np.log(t)) - math.log(nu)
                  - betaln(0.5 * nu, 0.5))
    np.testing.assert_allclose(lower, lead, rtol=1e-12, atol=0.0)
    assert (lower[lead > 0.0] > 0.0).all()


def test_lognormal_quantiles_past_the_float_range_are_infinite():
    # exp(0.05 + 40 * 37.05) overflows: +inf, as isf_logq and the array twins give
    base = LognormalBase(0.05, 40.0)
    assert base.isf(1e-300) == math.inf
    with np.errstate(over="ignore"):
        assert base.isf_array(np.array([1e-300]))[0] == math.inf
    assert LognormalBase(0.05, 150.0).ppf(1.0 - 2.0**-53) == math.inf


def _exp(z):
    """``math.exp``, reading the OverflowError it raises past the float range as inf."""
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


# every scalar method against the ufunc expression it replaced: (base, method, reference)
_LOGNORMAL = LognormalBase(0.05, 0.2)
_WIDE = LognormalBase(0.05, 40.0)
_UFUNC_FORMS = [
    (NormalBase(), "cdf", lambda b, x: float(ndtr(x))),
    (NormalBase(), "sf", lambda b, x: float(ndtr(-x))),
    (NormalBase(), "ppf", lambda b, q: float(ndtri(q))),
    (NormalBase(), "isf", lambda b, q: -float(ndtri(q))),
    (NormalBase(), "ppf_logq", lambda b, lq: float(ndtri_exp(lq))),
    (NormalBase(), "isf_logq", lambda b, lq: -float(ndtri_exp(lq))),
    *(form for base in (_LOGNORMAL, _WIDE) for form in [
        (base, "cdf", lambda b, x: 0.0 if x <= 0.0 else float(ndtr((math.log(x) - b.mu) / b.sigma))),
        (base, "sf", lambda b, x: 1.0 if x <= 0.0 else float(ndtr(-(math.log(x) - b.mu) / b.sigma))),
        (base, "ppf", lambda b, q: _exp(b.mu + b.sigma * float(ndtri(q)))),
        (base, "isf", lambda b, q: _exp(b.mu - b.sigma * float(ndtri(q)))),
        (base, "ppf_logq", lambda b, lq: _exp(b.mu + b.sigma * float(ndtri_exp(lq)))),
        (base, "isf_logq", lambda b, lq: _exp(b.mu - b.sigma * float(ndtri_exp(lq)))),
    ]),
]


def _student_t_cdf(b, x):
    return float(b._tail_cdf(x)) if x < -1e150 else float(stdtr(b.nu, x))


def _student_t_ppf(b, q):
    t = float(stdtrit(b.nu, q))
    if q < b._q_deep or (t == math.inf and q < 0.5):
        return float(b._tail_quantile(q))
    return t


with np.errstate(invalid="ignore"):  # nu = inf: the tail coefficient is inf - inf
    _STUDENT_T = [StudentTBase(nu) for nu in (0.5, 1.0, 3.0, 30.0, 1e6, math.inf)]
_UFUNC_FORMS += [form for base in _STUDENT_T for form in [
    (base, "cdf", _student_t_cdf),
    (base, "sf", lambda b, x: _student_t_cdf(b, -x)),
    (base, "ppf", _student_t_ppf),
    (base, "isf", lambda b, q: -_student_t_ppf(b, q)),
]]


def _call(f, *args):
    """f(*args) and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return f(*args), [str(w.message) for w in caught]


_TINY = 5e-324  # the smallest denormal
_EDGES = [0.0, -0.0, _TINY, -_TINY, 2.2250738585072014e-308, 1e-300, 1e-20, 0.3, 0.5,
          1.0 - 2.0**-53, 1.0, 1.5, 2.0, -1.0, -40.0, 40.0, -1e155, 1e155, 1e300, -1e300,
          math.inf, -math.inf, math.nan]
_LOG_EDGES = [0.0, -0.0, -_TINY, -1e-300, -2.0**-53, -0.7, -40.0, -800.0, -3.3e5, -1e300,
              -math.inf, 0.5, math.inf, math.nan]


@pytest.mark.parametrize("base, method, reference", _UFUNC_FORMS,
                         ids=[f"{type(b).__name__}-{getattr(b, 'nu', getattr(b, 'sigma', ''))}-{m}"
                              for b, m, _ in _UFUNC_FORMS])
def test_scalar_methods_give_the_bits_of_the_ufunc_expressions(base, method, reference):
    rng = np.random.default_rng(7)
    if method.endswith("_logq"):
        inputs = _LOG_EDGES + list(-rng.exponential(50.0, 500))
    elif method in ("ppf", "isf"):
        inputs = _EDGES + list(rng.random(500)) + list(10.0 ** rng.uniform(-300, 0, 500))
    else:
        inputs = _EDGES + list(rng.standard_cauchy(500) * 10.0 ** rng.uniform(-3, 200, 500))
    for x in map(float, inputs):
        (got, got_warned), (want, want_warned) = _call(getattr(base, method), x), _call(reference, base, x)
        assert type(got) is float, (x, got)
        assert struct.pack("<d", got) == struct.pack("<d", want), (x, got, want)
        # the kernels warn of nothing; the Student-t tail term warns as it did
        assert got_warned == want_warned, x


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        DiscreteLaw([1.0], [0.5])
    with pytest.raises(ValueError):
        ContinuousLaw(NormalBase(), scale=0.0)
    with pytest.raises(ValueError):
        ContinuousLaw(NormalBase()).ppf(0.0)
    with pytest.raises(ValueError):
        LognormalBase(0.0, -1.0)
