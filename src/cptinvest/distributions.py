"""Scalar distributions exposing CDF, survival and quantile functions.

Continuous laws are represented as an exact affine transform ``shift +
scale * X`` of an analytic base distribution, so quantiles of derived
quantities (excess returns, wealth differences) are computed without any
resampling or interpolation.  Discrete laws carry their atoms explicitly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignedDistribution",
    "ContinuousLaw",
    "DiscreteLaw",
    "constant_law",
    "NormalBase",
    "LognormalBase",
    "StudentTBase",
]


class _AnalyticBase:
    """A base law computed by ``scipy.special``: built, copied or unpickled, it imports that.
    Scalar methods call ``cython_special`` (``sc``): the ufuncs' C kernels, no array dispatch."""

    def __new__(cls, *args, **kwargs):
        global gammaln, ndtr, ndtri, ndtri_exp, stdtr, stdtrit, sc
        from scipy.special import cython_special as sc
        from scipy.special import gammaln, ndtr, ndtri, ndtri_exp, stdtr, stdtrit
        return super().__new__(cls)

    def __reduce_ex__(self, protocol):  # pickle protocols 0 and 1 would skip __new__
        return super().__reduce_ex__(max(protocol, 2))


class _SymmetricBase(_AnalyticBase):
    """Base law symmetric about 0: its upper tail is the lower one reflected."""

    def sf(self, x: float) -> float:
        return self.cdf(-x)

    def isf(self, q: float) -> float:
        return -self.ppf(q)

    def sf_array(self, x):
        return self.cdf_array(-np.asarray(x, dtype=float))

    def isf_array(self, q):
        return -self.ppf_array(q)


class NormalBase(_SymmetricBase):
    """Standard normal base; inverse CDF via scipy's rational approximation."""

    def cdf(self, x: float) -> float:
        return sc.ndtr(x)

    def ppf(self, q: float) -> float:
        return sc.ndtri(q)

    def cdf_array(self, x):
        return ndtr(x)

    def ppf_array(self, q):
        return ndtri(q)

    def ppf_logq(self, log_q: float) -> float:
        """Quantile at q = exp(log_q), stable for arbitrarily deep tails."""
        return sc.ndtri_exp(log_q)

    def isf_logq(self, log_q: float) -> float:
        return -sc.ndtri_exp(log_q)

    def ppf_logq_array(self, log_q):
        return ndtri_exp(log_q)

    def isf_logq_array(self, log_q):
        return -ndtri_exp(log_q)


class LognormalBase(_AnalyticBase):
    """Law of exp(mu + sigma * N) with N standard normal."""

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError(f"lognormal sigma must be > 0, got {sigma}")
        self.mu = mu
        self.sigma = sigma

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return sc.ndtr((math.log(x) - self.mu) / self.sigma)

    def sf(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        return sc.ndtr(-(math.log(x) - self.mu) / self.sigma)

    # a quantile beyond the float range is inf, as in the array twins; the
    # try blocks stay inline, where they cost nothing on the integrand's path
    def ppf(self, q: float) -> float:
        try:
            return math.exp(self.mu + self.sigma * sc.ndtri(q))
        except OverflowError:
            return math.inf

    def isf(self, q: float) -> float:
        try:
            return math.exp(self.mu - self.sigma * sc.ndtri(q))
        except OverflowError:
            return math.inf

    def ppf_logq(self, log_q: float) -> float:
        try:
            return math.exp(self.mu + self.sigma * sc.ndtri_exp(log_q))
        except OverflowError:
            return math.inf

    def isf_logq(self, log_q: float) -> float:
        try:
            return math.exp(self.mu - self.sigma * sc.ndtri_exp(log_q))
        except OverflowError:
            return math.inf

    def ppf_logq_array(self, log_q):
        return np.exp(self.mu + self.sigma * ndtri_exp(log_q))

    def isf_logq_array(self, log_q):
        return np.exp(self.mu - self.sigma * ndtri_exp(log_q))

    def ppf_array(self, q):
        return np.exp(self.mu + self.sigma * ndtri(q))

    def isf_array(self, q):
        return np.exp(self.mu - self.sigma * ndtri(q))

    def cdf_array(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = ndtr((np.log(x[pos]) - self.mu) / self.sigma)
        return out

    def sf_array(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        pos = x > 0
        out[pos] = ndtr(-(np.log(x[pos]) - self.mu) / self.sigma)
        return out


# past |t| = 1e20 * max(nu, 1) the leading tail term is exact in double
# precision (its relative correction is below nu**2 / (2 t**2)); stdtrit is not:
# at nu = 3 it is off by 2x near q = exp(-400), and deeper it returns +inf
_T_TAIL_START = 1e20

# stdtr squares t, so from |t| = 1.34e154 on it returns exactly 0; past
# |t| = 1e150 the CDF is the leading tail term, exact there
_T_CDF_TAIL = 1e150


class StudentTBase(_SymmetricBase):
    """Standard Student-t with ``nu`` degrees of freedom."""

    def __init__(self, nu: float):
        if nu <= 0:
            raise ValueError(f"student-t nu must be > 0, got {nu}")
        self.nu = nu = float(nu)  # cython_special's stdtr/stdtrit refuse an int nu
        # lower tail F(t) ~ K * nu**((nu - 1)/2) * |t|**-nu,
        # K = Gamma((nu + 1)/2) / (sqrt(nu pi) Gamma(nu/2)); this is its log coefficient
        self._log_tail = (gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu)
                          - 0.5 * math.log(nu * math.pi) + 0.5 * (nu - 1.0) * math.log(nu))
        # the level whose leading-term quantile is -_T_TAIL_START * max(nu, 1), below 1/2
        self._q_deep = math.exp(self._log_tail - nu * math.log(_T_TAIL_START * max(nu, 1.0)))

    def _tail_quantile(self, q):
        """Leading-term lower-tail quantile -(K nu**((nu - 1)/2) / q)**(1/nu)."""
        with np.errstate(divide="ignore", over="ignore"):
            return -np.exp((self._log_tail - np.log(q)) / self.nu)

    def _tail_cdf(self, t):
        """Leading-term lower-tail probability K nu**((nu - 1)/2) |t|**-nu, t < 0."""
        return np.exp(self._log_tail - self.nu * np.log(-t))

    def cdf(self, x: float) -> float:
        if x < -_T_CDF_TAIL:
            return float(self._tail_cdf(x))
        return sc.stdtr(self.nu, x)

    def ppf(self, q: float) -> float:
        t = sc.stdtrit(self.nu, q)
        if q < self._q_deep or (t == math.inf and q < 0.5):
            return float(self._tail_quantile(q))
        return t

    def ppf_array(self, q):
        q = np.asarray(q, dtype=float)
        t = np.asarray(stdtrit(self.nu, q))
        deep = (q < self._q_deep) | ((t == np.inf) & (q < 0.5))
        if deep.any():
            t[deep] = self._tail_quantile(q[deep])
        return t

    def cdf_array(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(stdtr(self.nu, x))
        deep = x < -_T_CDF_TAIL
        if deep.any():
            out[deep] = self._tail_cdf(x[deep])
        return out


@dataclass(frozen=True)
class ContinuousLaw:
    """Law of ``shift + scale * X`` for an analytic base distribution."""

    base: object
    shift: float = 0.0
    scale: float = 1.0
    atoms = None  # a class attribute, not a field: no atoms

    def __post_init__(self):
        if self.scale == 0.0:
            raise ValueError("scale must be nonzero; use constant_law() for a point mass")

    @property
    def has_log_tail_quantiles(self) -> bool:
        return hasattr(self.base, "ppf_logq")

    def cdf(self, x: float) -> float:
        z = (x - self.shift) / self.scale
        return self.base.cdf(z) if self.scale > 0 else self.base.sf(z)

    def sf(self, x: float) -> float:
        z = (x - self.shift) / self.scale
        return self.base.sf(z) if self.scale > 0 else self.base.cdf(z)

    # P(X < x) and P(X > x): no atoms, so the strict probabilities are the CDF and survival
    prob_below = cdf
    prob_above = sf

    def ppf(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        if self.scale > 0:
            return self.shift + self.scale * self.base.ppf(q)
        return self.shift + self.scale * self.base.isf(q)

    def sf_array(self, x):
        z = (np.asarray(x, dtype=float) - self.shift) / self.scale
        return self.base.sf_array(z) if self.scale > 0 else self.base.cdf_array(z)

    def ppf_array(self, q):
        """Vectorized lower-tail quantiles (levels strictly inside (0, 1))."""
        if self.scale > 0:
            return self.shift + self.scale * self.base.ppf_array(q)
        return self.shift + self.scale * self.base.isf_array(q)

    def isf_array(self, q):
        if self.scale > 0:
            return self.shift + self.scale * self.base.isf_array(q)
        return self.shift + self.scale * self.base.ppf_array(q)

    def isf_logq_array(self, log_q):
        if self.scale > 0:
            return self.shift + self.scale * self.base.isf_logq_array(log_q)
        return self.shift + self.scale * self.base.ppf_logq_array(log_q)

    def affine(self, shift: float, scale: float) -> "SignedDistribution":
        """Exact law of ``shift + scale * X``."""
        if scale == 0.0:
            return constant_law(shift)
        return ContinuousLaw(self.base, shift + scale * self.shift, scale * self.scale)


class DiscreteLaw:
    """Finite-support law: sorted atoms with their masses and cumulative masses."""

    def __init__(self, values, probs):
        pairs: dict[float, float] = {}
        for v, p in zip(values, probs, strict=True):
            if p < 0:
                raise ValueError(f"atom probability must be >= 0, got {p}")
            if p > 0:
                pairs[float(v)] = pairs.get(float(v), 0.0) + float(p)
        if not pairs:
            raise ValueError("discrete law needs at least one atom with positive mass")
        total = sum(pairs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"atom probabilities must sum to 1, got {total}")
        xs = sorted(pairs)
        self._xs = tuple(xs)
        self._ps = tuple(pairs[x] / total for x in xs)
        cum = []
        c = 0.0
        for p in self._ps:
            c += p
            cum.append(c)
        cum[-1] = 1.0
        self._cum = tuple(cum)
        self.atoms: tuple[tuple[float, float], ...] = tuple(zip(self._xs, self._ps))

    def cdf(self, x: float) -> float:
        i = bisect.bisect_right(self._xs, x)
        return self._cum[i - 1] if i > 0 else 0.0

    def prob_below(self, x: float) -> float:
        """P(X < x), strict."""
        i = bisect.bisect_left(self._xs, x)
        return self._cum[i - 1] if i > 0 else 0.0

    def prob_above(self, x: float) -> float:
        """P(X > x), strict."""
        return 1.0 - self.cdf(x)

    def affine(self, shift: float, scale: float) -> "DiscreteLaw":
        if scale == 0.0:
            return constant_law(shift)
        return DiscreteLaw([shift + scale * x for x in self._xs], self._ps)

    def __repr__(self):
        inside = ", ".join(f"{x!r}: {p!r}" for x, p in self.atoms)
        return f"DiscreteLaw({{{inside}}})"


def constant_law(c: float) -> DiscreteLaw:
    return DiscreteLaw([c], [1.0])


# Anything with cdf/prob_below/prob_above/atoms/affine; continuous laws add sf and quantiles.
SignedDistribution = ContinuousLaw | DiscreteLaw
