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
    def interval(cls, lo: float, hi: float, case_id: str, prospect: float = 0.0,
                 boundary: bool = False):
        return cls(SolutionKind.INTERVAL, case_id, prospect, lo=lo, hi=hi, boundary=boundary)

    @classmethod
    def plus_infinity(cls, case_id: str, prospect: float, boundary: bool = False):
        return cls(SolutionKind.PLUS_INFINITY, case_id, prospect, theta=math.inf,
                   boundary=boundary)

    @classmethod
    def minus_infinity(cls, case_id: str, prospect: float, boundary: bool = False):
        return cls(SolutionKind.MINUS_INFINITY, case_id, prospect, theta=-math.inf,
                   boundary=boundary)

    @property
    def representative_theta(self) -> float:
        """A concrete theta: the point itself, or the finite interval end."""
        if self.kind is SolutionKind.INTERVAL:
            return self.lo if math.isfinite(self.lo) else self.hi
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
