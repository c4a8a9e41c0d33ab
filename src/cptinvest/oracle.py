"""Brute-force verification of solver output, straight from definitions.

The objective is built from the wealth difference against the do-nothing
benchmark pathwise (no per-unit factorization, no case analysis).  ``verify``
evaluates it on the grid evaluator only; ``evaluate_objective``, the adaptive
reference, feeds its law to the generic prospect evaluator.  A refined grid
search certifies finite optima; unbounded claims are certified by monotone
growth along a geometric ladder toward the stated limit prospect.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from .choquet import _BELOW_ONE, _SIGMA_MAX, ProspectDivergenceError, prospect_value, rank_weights
from .distributions import DiscreteLaw
from .market import MarketModel, Portfolio, reference_wealth, terminal_wealth
from .preferences import CptPreference, ExponentialUtility, PrelecWeighting
from .solution import Solution, SolutionKind

__all__ = [
    "GridRangeError",
    "GridSpec",
    "GridSearchResult",
    "OracleReport",
    "difference_law",
    "evaluate_objective",
    "evaluate_objective_grid",
    "grid_search",
    "verify",
]

_LADDER = (1.0, 10.0, 100.0, 1000.0)
_LIMIT_TOL = 1e-9
# grid rows per block of the per-row work, which runs in place in one _ROW_BLOCK x 160
# float64 buffer (160 KiB; 192 KiB for Prelec rows) allocated once per side_value call.
# With rows of 384 nodes, fresh temporaries per block each came from mmap, about 13 000
# minor page faults and 20 ms of system time per 4001-row grid, against none with the
# reused buffer; of 32 to 512 rows, 128 and 256 ran fastest, and 128 faulted less
_ROW_BLOCK = 128
# mantissa bits kept of a grid row's crossing -b/s.  All rows on a trade ray cross at
# one gross return ((1+r)/(1-lam) for buys, 1+r for sales down to -y0) and differ only
# by rounding, at most ~2**-37 relative (the cancellation in held - y0 at small theta);
# 32 bits give them one level, so quantiles and w' are computed once per ray.  The
# integrand vanishes at the crossing, so moving it by <= 2**-32 relative moves a row
# by about eps**(1 + kink), ~1e-15.  Short sales past the holdings keep distinct levels
_CROSSING_BITS = 32
# relative widening of a discrete grid column's crossing -b/s, far above rounding
_CROSSING_MARGIN = 2.0**-30
_LN2 = math.log(2.0)


class GridRangeError(ValueError):
    """A trade past floating point: its wealth difference overflows, pathwise or on
    a grid row, or a grid row's tail reaches levels the law's quantiles cannot take."""


@dataclass(frozen=True)
class GridSpec:
    """Search grid; each refinement re-grids +-2 steps around the incumbent at 10x."""

    lo: float
    hi: float
    n_points: int = 4001
    refinement_rounds: int = 2

    def __post_init__(self):
        for name in ("n_points", "refinement_rounds"):
            if isinstance(count := getattr(self, name), bool) or not hasattr(count, "__index__"):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"grid bounds and span must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.n_points}")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")


@dataclass(frozen=True)
class GridSearchResult:
    argmax_theta: float
    max_value: float
    final_step: float
    n_evaluations: int


@dataclass(frozen=True)
class OracleReport:
    agreement: str  # "match" | "mismatch"
    detail: str
    closed_form_theta: float
    closed_form_value: float
    argmax_theta: float | None = None
    max_value: float | None = None
    final_step: float | None = None
    n_evaluations: int | None = None  # points the search, ladder and grid, or interval evaluated


def difference_law(p: Portfolio, m: MarketModel, theta: float):
    """Law of terminal wealth minus the do-nothing benchmark, built pathwise.

    Both wealth and benchmark are affine in the realized gross return once
    the trade's sign fixes the cost legs, so two pathwise probes pin the law
    exactly; a third probe guards the extraction.
    """

    def diff(gross: float) -> float:
        value = terminal_wealth(p, m, theta, gross) - reference_wealth(p, m, gross)
        if not math.isfinite(value):
            raise GridRangeError(f"the wealth difference at theta={float(theta)!r} overflows "
                                 "the float range")
        return value

    atoms = m.law.atoms
    if atoms is not None:
        return DiscreteLaw([diff(x) for x, _ in atoms], [w for _, w in atoms])
    base = diff(0.0)
    slope = diff(1.0) - base
    probe = diff(2.0)
    if abs(base + 2.0 * slope - probe) > 1e-9 * (1.0 + abs(probe)):
        raise AssertionError("wealth difference is not affine in the gross return")
    return m.law.affine(base, slope)


def evaluate_objective(p: Portfolio, m: MarketModel, pref: CptPreference,
                       theta: float) -> float:
    """Prospect of trading theta, from definitions only."""
    return prospect_value(pref, difference_law(p, m, theta)).total


@lru_cache(maxsize=8)
def _gauss_nodes(n_panels: int, grading: float = 1.0):
    """16-point Gauss-Legendre nodes and weights on [0, 1], panel edges (i/n_panels)**grading."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, n_panels + 1) ** grading
    nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b)
                            for a, b in zip(edges[:-1], edges[1:])])
    weights = np.concatenate([0.5 * (b - a) * w for a, b in zip(edges[:-1], edges[1:])])
    return nodes, weights


def _affine_coefficients(p: Portfolio, m: MarketModel, thetas: np.ndarray):
    """Per-theta (base, slope) of the wealth difference as a function of gross."""
    one_r = 1.0 + m.r
    held = p.y0 + thetas
    base = -one_r * thetas - m.lam * one_r * np.maximum(-thetas, 0.0)
    slope = (held - m.lam * np.maximum(held, 0.0)) - (p.y0 - m.lam * max(p.y0, 0.0))
    return base, slope


def _ray_crossing(cross: np.ndarray) -> np.ndarray:
    """Each row's sign-change gross return, its mantissa rounded to _CROSSING_BITS."""
    mantissa, exponent = np.frexp(cross)
    return np.ldexp(np.round(np.ldexp(mantissa, _CROSSING_BITS)), exponent - _CROSSING_BITS)


def _continuous_objective_grid(p: Portfolio, m: MarketModel, pref: CptPreference,
                               thetas: np.ndarray) -> np.ndarray:
    """Fixed-node Choquet evaluation of the whole theta grid at once.

    Each theta's wealth difference is an affine map of the gross return, so
    its quantile function reuses the return law's quantiles.  A side of
    probability ``level`` splits at level/2: the tail end is integrated in
    sigma = -ln q, the upper end after substituting out the singularities at
    q = level.
    """
    law = m.law
    base, slope = _affine_coefficients(p, m, thetas)
    utility = pref.utility
    # rows in no slope class (theta NaN or +inf) stay NaN, refused by the caller
    out = np.full_like(thetas, np.nan)

    const_rows = slope == 0.0
    if const_rows.any():
        vals = base[const_rows]
        out[const_rows] = (utility.value_array("gain", np.maximum(vals, 0.0))
                           - utility.value_array("loss", np.maximum(-vals, 0.0)))

    weighting = pref.weighting
    prelec = isinstance(weighting, PrelecWeighting)
    # tail-end panels: 6 under TK and identity, 8 under Prelec, whose spans reach ~8 000
    # at gamma = 0.5 with the mass in their first percent; upper-end panels: 4, edges
    # (i/4)**5.  Rows of 160 or 192 nodes stay within 1e-11 of rows on 48 tail and 24
    # upper-end panels, on random problems over every law, weighting and utility
    tail_x, tail_w = _gauss_nodes(8 if prelec else 6)
    up_t, up_w = _gauss_nodes(4, 5.0)
    n_tail = tail_x.size
    nu = getattr(law.base, "nu", math.inf)  # Student-t quantiles: |Q| ~ q**(-1/nu)

    def tail_nodes(side):
        """A side's tail-end nodes on [sigma0, sigma0 + span], as sigma - sigma0, and
        their quadrature weights."""
        if prelec:
            span = weighting.tail_span(side)
        else:
            # the integrand decays like e**(-rate * sigma), rate = e - p/nu (endpoint
            # exponent, utility power at infinity, Student-t degrees of freedom): past
            # the span, about e**-40 = 4e-18 of the piece is left out
            rate = weighting.endpoint_exponent(side) - utility.growth_powers(side)[1] / nu
            if rate <= 0.0:
                raise ProspectDivergenceError(side, f"quantile tail nu={nu:g} is too heavy")
            span = 40.0 / rate
        # panels geometric in sigma - sigma_L, sigma_L = sigma0 - ln 2 = -ln(level): the
        # integrand's singularities (the kink at the crossing sigma_L, and q = 1) all lie
        # at sigma <= sigma_L, and each panel keeps its distance from them
        log_ratio = math.log1p(span / _LN2)
        offset = _LN2 * np.expm1(log_ratio * tail_x)
        return offset, (offset + _LN2) * log_ratio * tail_w

    def side_value(side, tail, law, b, s, upper):
        """integral of u(b + s*Q(1 - q)) w'(q) over (0, upper), s > 0: (0, upper/2] in sigma."""
        live = upper > 1e-300
        # q-nodes depend on a row only through upper, one level per trade ray:
        # quantiles and weights once per level, the utility pathwise per row
        levels, inv = np.unique(upper[live], return_inverse=True)
        half = 0.5 * levels
        offset, tail_weights = tail
        sigma = -np.log(half)[:, None] + offset
        deep = sigma > _SIGMA_MAX
        if deep.any() and not law.has_log_tail_quantiles:
            raise GridRangeError(
                f"the {side} tail reaches sigma = -ln q = {sigma.max():.4g}, past "
                f"{_SIGMA_MAX:g}, where the law's quantiles need a log-probability form it lacks")
        # one row of nodes per level: the tail-end piece, then the upper-end piece.  There
        # q = level - half * t**m_u removes the utility's kink at the crossing and, where the
        # level rounds to 1, the w' singularity at q = 1, kept below 1
        m_u = 1.0 / min(utility.growth_powers(side)[0], weighting.endpoint_exponent(side))
        q = np.concatenate([np.exp(-np.minimum(sigma, _SIGMA_MAX)),
                            np.minimum(levels[:, None] - half[:, None] * up_t ** m_u,
                                       _BELOW_ONE)], axis=1)
        quantiles = law.isf_array(q)
        # tail-end weights rho(sigma) = w'(e**-sigma) * e**-sigma
        weights = weighting.derivative_array(side, q)
        if prelec:
            weights[:, :n_tail] = weighting.log_tail_density_array(side, sigma)
            if deep.any():
                # q = e**-sigma underflows there: the quantile comes from sigma itself
                quantiles[:, :n_tail][deep] = law.isf_logq_array(-sigma[deep])
        else:
            # past sigma = 700, rho < e**-196 (endpoint exponents are >= 0.28): dropped
            weights[:, :n_tail] *= q[:, :n_tail]
            weights[:, :n_tail][deep] = 0.0
        # the Jacobians and quadrature weights folded into one weight per node
        weights[:, :n_tail] *= tail_weights
        weights[:, n_tail:] *= m_u * up_t ** (m_u - 1.0) * up_w
        weights[:, n_tail:] *= half[:, None]
        # rows sorted by level, so a block inside one level broadcasts that level's nodes
        by_level = np.argsort(inv, kind="stable")
        rows, ks = np.nonzero(live)[0][by_level], inv[by_level]
        b_rows, s_rows = b[rows], s[rows]
        sums = np.empty(rows.size)
        block = np.empty((min(rows.size, _ROW_BLOCK), q.shape[1]))
        # a row's arithmetic and its order do not depend on its block
        for lo in range(0, rows.size, _ROW_BLOCK):
            blk = slice(lo, lo + _ROW_BLOCK)
            k = ks[blk]
            d = block[:k.size]
            if k[0] == k[-1]:
                k = k[0]  # one level: broadcast its nodes, no gather
            np.multiply(s_rows[blk, None], quantiles[k], out=d)
            d += b_rows[blk, None]
            utility.value_array(side, np.maximum(d, 0.0, out=d), out=d)
            d *= weights[k]
            d.sum(axis=1, out=sums[blk])
        # 0.0, or NaN for a row without a level (theta = -inf, where b is NaN)
        result = upper * 0.0
        result[rows] = sums
        return result

    for sign in (1.0, -1.0):
        rows = sign * slope > 0.0
        if not rows.any():
            continue
        # b + s*X = b + (sign*s)*(sign*X) with sign*s > 0; losses negate b and the law, exactly
        gain_law, loss_law = law.affine(0.0, sign), law.affine(0.0, -sign)
        b = base[rows]
        s = sign * slope[rows]
        # gross return where the difference changes sign, rounded to one level per ray
        cross = _ray_crossing(-b / s)
        prob_gain = gain_law.sf_array(cross)
        # both sides' divergence checks come before either side's range check
        gain_tail, loss_tail = tail_nodes("gain"), tail_nodes("loss")
        # rows whose b + s*Q overflows come out infinite or NaN, refused by the caller
        with np.errstate(over="ignore", invalid="ignore"):
            out[rows] = (side_value("gain", gain_tail, gain_law, b, s, prob_gain)
                         - side_value("loss", loss_tail, loss_law, -b, s, 1.0 - prob_gain))
    return out


@lru_cache(maxsize=8)
def _decision_weights(weighting, probs: tuple[float, ...]):
    """Read-only (gain, loss) decision weights of ascending atoms of masses ``probs``:
    one row per atom, column 0 for rows with s >= 0, where gains rank from the top
    atom down and losses from the bottom up, column 1 for rows with s < 0."""

    def from_top(side):
        return rank_weights(weighting, side, probs[::-1])[::-1]

    gain = np.column_stack([from_top("gain"), rank_weights(weighting, "gain", probs)])
    loss = np.column_stack([rank_weights(weighting, "loss", probs), from_top("loss")])
    gain.flags.writeable = loss.flags.writeable = False
    return gain, loss


def _discrete_objective_grid(p: Portfolio, m: MarketModel, pref: CptPreference,
                             thetas: np.ndarray) -> np.ndarray:
    """Exact rank-dependent sums for a 1-D theta grid at once.

    Each row's wealth difference b + s*x is monotone in the gross return x,
    so the sign of s fixes the rank order of the atoms: every decision weight
    is one of two per atom and side, shared by the rows.  They depend on the
    weighting and the masses only, so one cached build serves every grid call
    of a ``verify``.  Blocks hold one row per atom and the thetas across; summed
    over the atoms, every theta accumulates atom by atom, independent of its
    neighbours.

    In a block of one slope sign, each side works on one run of atoms, past every
    column's crossing -b/s or up to it: the atoms left out have b + s*x of the other
    sign, so their terms are exact +0.0 at the ends of each theta's sum.  A block
    across s = 0, and a law of two atoms, whose runs drop one atom at most, take all.
    """
    xs, probs = zip(*m.law.atoms)  # ascending gross returns
    n, x_col = len(xs), np.array(xs)[:, None]
    width = max(2, _ROW_BLOCK * 160 // n)  # blocks of the continuous grid's element budget
    cols = np.concatenate((thetas, thetas)) if thetas.size == 1 else thetas
    base, slope = _affine_coefficients(p, m, cols)
    up = slope >= 0.0
    starts = [0] if cols.size else []
    if cols.size > width:  # past one block, a single sign change starts a block
        cuts, f = [0, cols.size], np.flatnonzero(up[1:] != up[:-1]) + 1
        if f.size == 1 and 1 < f[0] < cols.size - 1:
            cuts.insert(1, int(f[0]))
        # numpy sums a lone column pairwise, not atom by atom: one left over joins the last block
        starts = [e for lo, hi in zip(cuts, cuts[1:]) for e in range(lo, hi, width) if hi - e > 1]
    # per block, the atoms below every widened crossing and up to past every one; NaN: all
    runs = [(0, n)] * len(starts)
    if n > 2:
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at theta = 0
            cross = -base / slope
        runs = [(bisect.bisect_left(xs, lo - _CROSSING_MARGIN * abs(lo)),
                 bisect.bisect_right(xs, hi + _CROSSING_MARGIN * abs(hi)))
                for lo, hi in zip(np.minimum.reduceat(cross, starts).tolist(),
                                  np.maximum.reduceat(cross, starts).tolist())]
    gain, loss = _decision_weights(pref.weighting, probs)
    out = np.empty_like(cols)
    buf = np.empty(2 * n * min(cols.size, width + 1))  # b + s*x in front, the gain run behind
    for lo, hi, (k_lo, k_hi) in zip(starts, starts[1:] + [cols.size], runs):
        blk, o, w = slice(lo, hi), out[lo:hi], hi - lo
        k_up = np.count_nonzero(up[blk])
        if 0 < k_up < w:  # the block across s = 0: every atom
            k_lo, k_hi = 0, n
            gw = np.where(up[blk], gain[:, :1], gain[:, 1:])
            lw = np.where(up[blk], loss[:, :1], loss[:, 1:])
        else:  # slopes of one sign: one column, broadcast
            gw, lw = (gain[:, :1], loss[:, :1]) if k_up else (gain[:, 1:], loss[:, 1:])
        (g0, g1), (l0, l1) = ((k_lo, n), (0, k_hi)) if k_up else ((0, k_hi), (k_lo, n))
        d = np.multiply(x_col, slope[blk], out=buf[:n * w].reshape(n, w))
        d += base[blk]
        u = np.maximum(d[g0:g1], 0.0, out=buf[buf.size - (g1 - g0) * w:].reshape(g1 - g0, w))
        pref.utility.value_array("gain", u, out=u)
        u *= gw[g0:g1]
        np.add.reduce(u, axis=0, out=o)
        d = d[l0:l1]
        pref.utility.value_array("loss", np.maximum(np.negative(d, out=d), 0.0, out=d), out=d)
        d *= lw[l0:l1]
        o -= np.add.reduce(d, axis=0)
    return out[:thetas.size]


def evaluate_objective_grid(p: Portfolio, m: MarketModel, pref: CptPreference,
                            thetas: np.ndarray) -> np.ndarray:
    """Vectorized objective over a theta grid.

    Discrete laws use exact rank-dependent sums; continuous laws, under every
    weighting, use the shared fixed-node Choquet evaluation.  Thetas of any
    shape are evaluated flat, and the values come back in their shape.
    """
    shape = np.shape(thetas)
    thetas = np.asarray(thetas, dtype=float).ravel()
    grid = _continuous_objective_grid if m.law.atoms is None else _discrete_objective_grid
    values = grid(p, m, pref, thetas)
    # a wealth difference that overflows makes its row, and so the sum, infinite or NaN
    if not math.isfinite(values.sum()) and not np.isfinite(values).all():
        theta = float(thetas[~np.isfinite(values)][0])
        raise GridRangeError(f"the wealth difference at theta={theta!r} overflows the float range")
    return values.reshape(shape)


def grid_search(p: Portfolio, m: MarketModel, pref: CptPreference,
                spec: GridSpec) -> GridSearchResult:
    """Deterministic refined grid argmax of the objective."""
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
        n_evals += count
        best = int(np.argmax(values))
        if not refinement or values[best] >= best_value:
            best_theta = float(grid[best])
            best_value = float(values[best])
        step = (sub_hi - sub_lo) / (count - 1)

    return GridSearchResult(best_theta, best_value, step, n_evals)


def _certify_unbounded(solution: Solution, p: Portfolio, m: MarketModel,
                       pref: CptPreference, spec: GridSpec, tol: float) -> tuple[bool, str, int]:
    """Certify a claimed unbounded optimum along a geometric ladder.

    For bounded (exponential) utilities the objective may dip before rising
    toward its limit, so the requirements are: a nondecreasing outer ladder,
    the ladder end within 1e-9 of the claimed limit prospect, and no grid
    point beating the limit.  Unbounded power objectives on an infinite ray
    are monotone, so there strict increase along the whole ladder is required.
    Also returns how many points it evaluated: the ladder, plus the grid.
    """
    sign = 1.0 if solution.kind is SolutionKind.PLUS_INFINITY else -1.0
    scale = 1.0 / pref.utility.eta_gain if isinstance(pref.utility, ExponentialUtility) else 1.0
    if m.law.atoms is not None and math.isfinite(solution.prospect):
        # stretch the ladder when a state's per-unit wealth difference is
        # small, so the bounded utility actually saturates by the last rung
        unit = [abs(x) for x, _ in difference_law(p, m, sign).atoms]
        smallest = min((u for u in unit if u > 0), default=1.0)
        scale = scale * max(1.0, 0.04 / smallest)
    values = evaluate_objective_grid(p, m, pref, sign * scale * np.array(_LADDER))
    ladder = ", ".join(f"{v:.10g}" for v in values)
    n_evals = len(values)

    if not math.isfinite(solution.prospect):
        if not (np.diff(values) > 0.0).all():
            return False, f"objective not strictly increasing along the ladder: [{ladder}]", n_evals
        return True, "monotone ladder certification passed", n_evals

    gap = abs(values[-1] - solution.prospect)
    if gap > _LIMIT_TOL:
        return False, f"ladder end misses the limit prospect by {gap:.3e}", n_evals
    if values[-1] < values[-2] - _LIMIT_TOL:
        return False, f"objective not approaching the limit from below: [{ladder}]", n_evals
    grid = np.linspace(spec.lo, spec.hi, min(spec.n_points, 2001))
    n_evals += len(grid)
    best = float(evaluate_objective_grid(p, m, pref, grid).max())
    if best > solution.prospect + tol:
        return False, (f"a finite trade beats the claimed limit: {best:.10g} vs "
                       f"{solution.prospect:.10g}"), n_evals
    return True, "ladder limit and grid dominance certification passed", n_evals


def _certify_interval(solution: Solution, p: Portfolio, m: MarketModel,
                      pref: CptPreference, tol: float) -> tuple[bool, str, int]:
    # the part within 10 of no trade, which every interval contains
    thetas = np.linspace(max(solution.lo, -10.0), min(solution.hi, 10.0), 11)
    gaps = np.abs(evaluate_objective_grid(p, m, pref, thetas) - solution.prospect)
    worst = int(np.argmax(gaps))
    if gaps[worst] > tol:
        return False, (f"objective deviates by {gaps[worst]:.3e} from the reported prospect "
                       f"at theta={thetas[worst]:.6g}"), len(thetas)
    return True, "interval is flat at the reported prospect", len(thetas)


def _certify_point(solution: Solution, result: GridSearchResult, p: Portfolio,
                   m: MarketModel, pref: CptPreference, tol: float) -> tuple[bool, str]:
    gap = result.max_value - solution.prospect
    if abs(gap) > tol:
        return False, (f"grid maximum {result.max_value:.10g} vs reported "
                       f"{solution.prospect:.10g} (gap {gap:.3e}, worst theta "
                       f"{result.argmax_theta:.6g})")
    direct = float(evaluate_objective_grid(p, m, pref, np.array([solution.theta]))[0])
    if abs(direct - solution.prospect) > tol:
        return False, (f"objective at the reported theta is {direct:.10g}, not the reported "
                       f"prospect {solution.prospect:.10g}")
    theta_gap = abs(result.argmax_theta - solution.theta)
    if theta_gap > result.final_step * (1.0 + 1e-9) and result.max_value > direct + tol:
        # a distant argmax only disqualifies when it is strictly better
        # (machine-flat plateaus put the grid argmax arbitrarily far away)
        return False, (f"grid argmax {result.argmax_theta:.6g} sits {theta_gap:.3e} away "
                       f"with a strictly better value {result.max_value:.10g}")
    return True, "grid search confirms the reported optimum"


def verify(solution: Solution, p: Portfolio, m: MarketModel, pref: CptPreference,
           spec: GridSpec, tol_value: float | None = None) -> OracleReport:
    """Certify a solver result against the definitional objective.

    Finite points must match the refined grid argmax within one final step
    and the grid maximum within tolerance; intervals must be flat; unbounded
    solutions must pass the geometric-ladder certification.
    """
    # closed-form arithmetic for discrete laws, quadrature-limited otherwise
    tol = (1e-5 if m.law.atoms is None else 1e-6) if tol_value is None else tol_value
    search = ()
    if solution.kind in (SolutionKind.PLUS_INFINITY, SolutionKind.MINUS_INFINITY):
        ok, detail, n_evals = _certify_unbounded(solution, p, m, pref, spec, tol)
    elif solution.kind is SolutionKind.INTERVAL:
        ok, detail, n_evals = _certify_interval(solution, p, m, pref, tol)
    else:
        result = grid_search(p, m, pref, spec)
        *search, n_evals = astuple(result)
        ok, detail = _certify_point(solution, result, p, m, pref, tol)
    return OracleReport("match" if ok else "mismatch", detail, solution.representative_theta,
                        solution.prospect, *search, n_evaluations=n_evals)
