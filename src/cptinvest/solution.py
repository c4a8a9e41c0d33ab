"""Tagged optimal-strategy results shared by the closed-form solvers."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = ["SolutionKind", "Solution"]


class SolutionKind(enum.Enum):
    FINITE_POINT = "finite_point"
    INTERVAL = "interval"
    PLUS_INFINITY = "plus_infinity"
    MINUS_INFINITY = "minus_infinity"


@dataclass(frozen=True)
class Solution:
    """Optimal trade with the fired case label and the optimal prospect.

    ``prospect`` is the value attained (at the interval representative for
    interval solutions, the limit value for unbounded exponential-utility
    solutions, and +inf for genuinely ill-posed cases).  ``boundary`` marks
    classifications that fell inside the numerical tolerance band.
    """

    kind: SolutionKind
    case_id: str
    prospect: float
    theta: float | None = None
    lo: float | None = None
    hi: float | None = None
    boundary: bool = False

    @classmethod
    def point(cls, theta: float, case_id: str, prospect: float, boundary: bool = False):
        return cls(SolutionKind.FINITE_POINT, case_id, prospect, theta=theta, boundary=boundary)

    @classmethod
    def interval(cls, lo: float, hi: float, case_id: str):
        """A flat interval [lo, hi] of optima.  Every interval is a knife edge
        (``boundary``), is worth 0 and contains no trade, theta = 0."""
        return cls(SolutionKind.INTERVAL, case_id, 0.0, lo=lo, hi=hi, boundary=True)

    @classmethod
    def unbounded(cls, direction: float, case_id: str, prospect: float):
        """A trade without bound, in the direction of ``direction``'s sign."""
        theta = math.copysign(math.inf, direction)
        kind = SolutionKind.PLUS_INFINITY if theta > 0 else SolutionKind.MINUS_INFINITY
        return cls(kind, case_id, prospect, theta=theta)

    @property
    def representative_theta(self) -> float:
        """A concrete theta: the point itself, or the interval's finite lower end, else
        its upper end capped at no trade (0.0 on the whole line)."""
        if self.kind is SolutionKind.INTERVAL:
            return self.lo if math.isfinite(self.lo) else min(self.hi, 0.0)
        return self.theta

    def describe(self) -> str:
        if self.kind is SolutionKind.FINITE_POINT:
            where = f"theta* = {self.theta:.10g}"
        elif self.kind is SolutionKind.INTERVAL:
            lo = "-inf" if self.lo == -math.inf else f"{self.lo:.10g}"
            hi = "+inf" if self.hi == math.inf else f"{self.hi:.10g}"
            where = f"any theta* in [{lo}, {hi}]"
        elif self.kind is SolutionKind.PLUS_INFINITY:
            where = "theta* = +inf"
        else:
            where = "theta* = -inf"
        flag = " [boundary]" if self.boundary else ""
        return f"{where}  (case {self.case_id}, prospect {self.prospect:.10g}){flag}"
