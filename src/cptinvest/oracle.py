"""Brute-force verification of solver output, straight from definitions.

The objective is evaluated by building the law of the wealth difference
against the do-nothing benchmark pathwise (no per-unit factorization, no
case analysis) and feeding it to the generic prospect evaluator.  A refined
grid search then certifies finite optima; unbounded claims are certified by
monotone growth along a geometric ladder toward the stated limit prospect.
"""

from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from .choquet import ProspectDivergenceError, prospect_value, rank_weights
from .distributions import DiscreteLaw, constant_law
from .market import MarketModel, Portfolio, reference_wealth, terminal_wealth
from .preferences import CptPreference, ExponentialUtility
from .solution import Solution, SolutionKind

__all__ = [
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
# grid rows per block of the per-row work, which runs in place in one _ROW_BLOCK x 384
# float64 buffer (384 KiB) allocated once per side_value call: fresh temporaries of that
# size per block each came from mmap, about 13 000 minor page faults and 20 ms of system
# time per 4001-row grid, against none with the reused buffer.  Of 32 to 512 rows, 128
# and 256 ran fastest (three 4001-row grids in 77 ms, 90 ms at 32); 128 faults less
_ROW_BLOCK = 128
# mantissa bits kept of a grid row's crossing -b/s.  All rows on a trade ray cross at
# one gross return ((1+r)/(1-lam) for buys, 1+r for sales down to -y0) and differ only
# by rounding, at most ~2**-37 relative (the cancellation in held - y0 at small theta);
# 32 bits give them one level, so quantiles and w' are computed once per ray.  The
# integrand vanishes at the crossing, so moving it by <= 2**-32 relative moves a row
# by about eps**(1 + kink), ~1e-15.  Short sales past the holdings keep distinct levels
_CROSSING_BITS = 32


@dataclass(frozen=True)
class GridSpec:
    """Search grid; each refinement re-grids +-2 steps around the incumbent at 10x."""

    lo: float
    hi: float
    n_points: int = 4001
    refinement_rounds: int = 2

    def __post_init__(self):
        for name in ("n_points", "refinement_rounds"):
            count = getattr(self, name)
            try:
                operator.index(count)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {count!r}") from None
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
    n_evaluations: int | None = None  # grid points the refined search evaluated

    @property
    def matched(self) -> bool:
        return self.agreement == "match"


def difference_law(p: Portfolio, m: MarketModel, theta: float):
    """Law of terminal wealth minus the do-nothing benchmark, built pathwise.

    Both wealth and benchmark are affine in the realized gross return once
    the trade's sign fixes the cost legs, so two pathwise probes pin the law
    exactly; a third probe guards the extraction.
    """

    def diff(gross: float) -> float:
        return terminal_wealth(p, m, theta, gross) - reference_wealth(p, m, gross)

    law = m.returns.gross_law()
    atoms = law.atoms
    if atoms is not None:
        return DiscreteLaw([diff(x) for x, _ in atoms], [w for _, w in atoms])
    base = diff(0.0)
    slope = diff(1.0) - base
    probe = diff(2.0)
    if abs(base + 2.0 * slope - probe) > 1e-9 * (1.0 + abs(probe)):
        raise AssertionError("wealth difference is not affine in the gross return")
    if slope == 0.0:
        return constant_law(base)
    return law.affine(base, slope)


def evaluate_objective(p: Portfolio, m: MarketModel, pref: CptPreference,
                       theta: float) -> float:
    """Prospect of trading theta, from definitions only."""
    return prospect_value(pref, difference_law(p, m, theta)).total


@lru_cache(maxsize=8)
def _gauss_nodes(n_panels: int, order: int):
    # panels graded toward 0, where slowly varying log factors concentrate
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, n_panels + 1) ** 3
    nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b)
                            for a, b in zip(edges[:-1], edges[1:])])
    weights = np.concatenate([np.full(order, 0.5 * (b - a)) * w
                              for a, b in zip(edges[:-1], edges[1:])])
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
    its quantile function reuses the return law's quantiles; gains and losses
    are integrated on shared Gauss-Legendre nodes after substituting out the
    singularities at both ends, the tail one including quantile growth.
    """
    law = m.returns.gross_law()
    base, slope = _affine_coefficients(p, m, thetas)
    utility = pref.utility
    out = np.zeros_like(thetas)

    const_rows = slope == 0.0
    if const_rows.any():
        vals = base[const_rows]
        out[const_rows] = np.where(
            vals > 0, utility.value_array("gain", np.maximum(vals, 0.0)),
            np.where(vals < 0, -utility.value_array("loss", np.maximum(-vals, 0.0)), 0.0),
        )

    weighting = pref.weighting
    nodes, node_weights = _gauss_nodes(12, 16)
    nu = getattr(law.base, "nu", math.inf)  # Student-t quantiles: |Q| ~ q**(-1/nu)

    def side_value(side, b, s, upper, use_upper_tail):
        """integral of u(|Q_D|) w'(q) over (0, upper), both endpoints substituted."""
        live = upper > 1e-300
        if not live.any():
            return np.zeros_like(b)
        # q-nodes depend on a row only through upper, one level per trade ray:
        # quantiles and weights once per level, the utility pathwise per row
        levels, inv = np.unique(upper[live], return_inverse=True)
        half = 0.5 * levels
        kink, growth = utility.growth_powers(side)
        # near q = 0 the integrand behaves like q**(endpoint - 1 - growth/nu)
        tail = weighting.endpoint_exponent(side) - growth / nu
        if tail <= 0.0:
            raise ProspectDivergenceError(side, f"quantile tail nu={nu:g} is too heavy")
        m_w = 1.0 / tail
        m_u = 1.0 / kink
        # one row of nodes per level: the tail-end piece, then the upper-end piece
        q = np.concatenate([half[:, None] * nodes ** m_w,
                            levels[:, None] - half[:, None] * nodes ** m_u], axis=1)
        jac = np.concatenate([m * nodes ** (m - 1.0) * node_weights for m in (m_w, m_u)])
        quantiles = law.isf_array(q) if use_upper_tail else law.ppf_array(q)
        # w', the Jacobian and the half-width folded into one weight per node
        weights = weighting.derivative_array(side, q)
        weights *= jac
        weights *= half[:, None]
        # rows sorted by level, so a block inside one level broadcasts that level's
        # nodes; a loss magnitude -(b + s*Q) is exactly (-b) + (-s)*Q
        by_level = np.argsort(inv, kind="stable")
        rows, ks = np.nonzero(live)[0][by_level], inv[by_level]
        b_rows, s_rows = (b[rows], s[rows]) if side == "gain" else (-b[rows], -s[rows])
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
        result = np.zeros_like(b)
        result[rows] = sums
        return result

    for sign in (1.0, -1.0):
        rows = (slope > 0.0) if sign > 0 else (slope < 0.0)
        if not rows.any():
            continue
        b = base[rows]
        s = slope[rows]
        # gross return where the difference changes sign, rounded to one level per ray
        cross = _ray_crossing(-b / s)
        prob_gain = law.sf_array(cross) if sign > 0 else law.cdf_array(cross)
        out[rows] = (side_value("gain", b, s, prob_gain, sign > 0)
                     - side_value("loss", b, s, 1.0 - prob_gain, sign < 0))
    return out


def _discrete_objective_grid(p: Portfolio, m: MarketModel, pref: CptPreference,
                             thetas: np.ndarray) -> np.ndarray:
    """Exact rank-dependent sums for the whole theta grid at once.

    Each row's wealth difference b + s*x is monotone in the gross return x,
    so the sign of s fixes the rank order of the atoms: every decision weight
    is one of two per atom and side, shared by the rows.  Rows accumulate
    atom by atom, each independent of its neighbours.
    """
    xs, probs = zip(*m.returns.gross_law().atoms)  # ascending gross returns
    base, slope = _affine_coefficients(p, m, thetas)
    utility, weighting = pref.utility, pref.weighting

    def from_top(side):
        return rank_weights(weighting, side, probs[::-1])[::-1]

    # s >= 0: gains rank from the top atom down, losses from the bottom up
    rising = slope >= 0.0
    gain_rising, gain_falling = from_top("gain"), rank_weights(weighting, "gain", probs)
    loss_rising, loss_falling = rank_weights(weighting, "loss", probs), from_top("loss")
    v_plus = np.zeros_like(thetas)
    v_minus = np.zeros_like(thetas)
    for x, g_up, g_down, l_up, l_down in zip(xs, gain_rising, gain_falling,
                                             loss_rising, loss_falling):
        d = base + slope * x
        v_plus += utility.value_array("gain", np.maximum(d, 0.0)) * np.where(rising, g_up, g_down)
        v_minus += utility.value_array("loss", np.maximum(-d, 0.0)) * np.where(rising, l_up, l_down)
    return v_plus - v_minus


def evaluate_objective_grid(p: Portfolio, m: MarketModel, pref: CptPreference,
                            thetas: np.ndarray) -> np.ndarray:
    """Vectorized objective over a theta grid.

    Discrete laws use exact rank-dependent sums; continuous laws use the
    shared fixed-node Choquet evaluation (except the exp-log weighting, whose
    lower tail needs the adaptive path).
    """
    thetas = np.asarray(thetas, dtype=float)
    if m.returns.discrete:
        return _discrete_objective_grid(p, m, pref, thetas)
    if getattr(pref.weighting, "log_tail_density", None) is not None:
        return np.array([evaluate_objective(p, m, pref, t) for t in thetas])
    return _continuous_objective_grid(p, m, pref, thetas)


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


def _default_tol(m: MarketModel) -> float:
    # closed-form arithmetic for discrete laws, quadrature-limited otherwise
    return 1e-6 if m.returns.discrete else 1e-5


def _ladder_scale(pref: CptPreference) -> float:
    if isinstance(pref.utility, ExponentialUtility):
        return 1.0 / pref.utility.eta_gain
    return 1.0


def _certify_unbounded(solution: Solution, p: Portfolio, m: MarketModel,
                       pref: CptPreference, spec: GridSpec, tol: float) -> tuple[bool, str]:
    """Certify a claimed unbounded optimum along a geometric ladder.

    For bounded (exponential) utilities the objective may dip before rising
    toward its limit, so the requirements are: a nondecreasing outer ladder,
    the ladder end within 1e-9 of the claimed limit prospect, and no grid
    point beating the limit.  Unbounded power objectives on an infinite ray
    are monotone, so there strict increase along the whole ladder is required.
    """
    sign = 1.0 if solution.kind is SolutionKind.PLUS_INFINITY else -1.0
    scale = _ladder_scale(pref)
    atoms = m.returns.gross_law().atoms
    if atoms is not None and math.isfinite(solution.prospect):
        # stretch the ladder when a state's per-unit wealth difference is
        # small, so the bounded utility actually saturates by the last rung
        unit = [abs(terminal_wealth(p, m, sign, x) - reference_wealth(p, m, x))
                for x, _ in atoms]
        smallest = min((u for u in unit if u > 0), default=1.0)
        scale = scale * max(1.0, 0.04 / smallest)
    thetas = [sign * step * scale for step in _LADDER]
    values = [evaluate_objective(p, m, pref, t) for t in thetas]

    if not math.isfinite(solution.prospect):
        increasing = all(b > a for a, b in zip(values, values[1:]))
        if not increasing:
            return False, f"objective not strictly increasing along the ladder: {values}"
        return True, "monotone ladder certification passed"

    gap = abs(values[-1] - solution.prospect)
    if gap > _LIMIT_TOL:
        return False, f"ladder end misses the limit prospect by {gap:.3e}"
    if values[-1] < values[-2] - _LIMIT_TOL:
        return False, f"objective not approaching the limit from below: {values}"
    grid = np.linspace(spec.lo, spec.hi, min(spec.n_points, 2001))
    best = float(evaluate_objective_grid(p, m, pref, grid).max())
    if best > solution.prospect + tol:
        return False, (f"a finite trade beats the claimed limit: {best:.10g} vs "
                       f"{solution.prospect:.10g}")
    return True, "ladder limit and grid dominance certification passed"


def _certify_interval(solution: Solution, p: Portfolio, m: MarketModel,
                      pref: CptPreference, tol: float) -> tuple[bool, str]:
    lo = solution.lo if math.isfinite(solution.lo) else solution.hi - 10.0
    hi = min(solution.hi, lo + 10.0)
    worst_gap = 0.0
    worst_theta = lo
    for theta in np.linspace(lo, hi, 11):
        gap = abs(evaluate_objective(p, m, pref, float(theta)) - solution.prospect)
        if gap > worst_gap:
            worst_gap = gap
            worst_theta = float(theta)
    if worst_gap > tol:
        return False, (f"objective deviates by {worst_gap:.3e} from the reported prospect "
                       f"at theta={worst_theta:.6g}")
    return True, "interval is flat at the reported prospect"


def _certify_point(solution: Solution, result: GridSearchResult, p: Portfolio,
                   m: MarketModel, pref: CptPreference, tol: float) -> tuple[bool, str]:
    gap = result.max_value - solution.prospect
    if abs(gap) > tol:
        return False, (f"grid maximum {result.max_value:.10g} vs reported "
                       f"{solution.prospect:.10g} (gap {gap:.3e}, worst theta "
                       f"{result.argmax_theta:.6g})")
    direct = evaluate_objective(p, m, pref, solution.theta)
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
    tol = _default_tol(m) if tol_value is None else tol_value
    search = ()
    if solution.kind in (SolutionKind.PLUS_INFINITY, SolutionKind.MINUS_INFINITY):
        ok, detail = _certify_unbounded(solution, p, m, pref, spec, tol)
    elif solution.kind is SolutionKind.INTERVAL:
        ok, detail = _certify_interval(solution, p, m, pref, tol)
    else:
        result = grid_search(p, m, pref, spec)
        search = astuple(result)
        ok, detail = _certify_point(solution, result, p, m, pref, tol)
    return OracleReport("match" if ok else "mismatch", detail,
                        solution.representative_theta, solution.prospect, *search)
