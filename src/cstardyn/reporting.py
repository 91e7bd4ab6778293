"""Structured residual reports shared by the verification operations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Check:
    """A named residual against its tolerance.  ``where`` optionally locates
    the largest residual, e.g. ``{"g": 1, "h": 0, "x": 2}``."""

    name: str
    residual: float
    tol: float
    where: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass
class CheckReport:
    """A list of named residual checks; verification ops report rather than raise."""

    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, residual: float, tol: float, where: Optional[dict] = None) -> None:
        if math.isnan(residual):
            residual = math.inf
        self.checks.append(Check(name, float(residual), float(tol), where))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def worst(self) -> Check | None:
        return max(self.checks, key=lambda c: c.residual, default=None)

    def residual_of(self, name: str) -> float:
        return max(c.residual for c in self.checks if c.name == name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "tol": c.tol,
                    "passed": c.passed,
                    **({} if c.where is None else {"where": c.where}),
                }
                for c in self.checks
            ],
        }
