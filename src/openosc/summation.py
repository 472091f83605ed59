"""Adaptive summation primitives with certified tails.

Every truncated series in this package reports the partial value together
with a mathematically valid bound on what was dropped.  ``converged``
means the bound met the policy, never that terms "looked small".

``certified_sum`` is the only adaptive loop in the package.  Each series
supplies it an endless source of ``(term, count, tail)`` steps: ``term``
is the step's contribution, ``count`` the number of series terms it
covers, and ``tail`` must bound everything after that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError

__all__ = ["TruncationPolicy", "SeriesResult", "certified_sum"]


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for adaptive sums.

    The sum stops once the certified tail bound drops below
    ``max(rel_tol * |value|, abs_tol)``; ``max_terms`` caps the work
    regardless.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_terms: int = 10_000_000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.abs_tol < 0.0:
            raise DomainError(f"abs_tol must be non-negative, got {self.abs_tol!r}")
        if int(self.max_terms) < 1:
            raise DomainError(f"max_terms must be at least 1, got {self.max_terms!r}")

    def satisfied(self, value: float, tail_bound: float) -> bool:
        return tail_bound <= max(self.rel_tol * abs(value), self.abs_tol)


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum plus the certificate that justifies (or denies) it."""

    value: float
    terms_used: int
    tail_bound: float
    converged: bool


def certified_sum(
    steps: Iterable[tuple[float, int, float]], policy: TruncationPolicy
) -> SeriesResult:
    """Add steps until ``policy`` accepts the tail or ``max_terms`` is reached.

    The result is ``converged`` only when the tail bound after the last
    summed step meets the policy; hitting the term cap is reported with
    ``converged=False`` and the tail bound at that point.
    """
    value = 0.0
    terms = 0
    for term, count, tail in steps:
        value += term
        terms += count
        if policy.satisfied(value, tail):
            return SeriesResult(value, terms, tail, True)
        if terms >= policy.max_terms:
            return SeriesResult(value, terms, tail, False)
    raise ValueError("step source ended before the policy or the term cap stopped the sum")


# --- closed-form tails of polynomial-times-geometric series -----------------
#
# T_p(m, x) = sum_{r >= m} r^p x^r for 0 < x < 1.  Used to bound shell
# counts (which grow at most quadratically) against exponential decay.


def geom_tail0(m: int, x: float) -> float:
    return x**m / (1.0 - x)


def geom_tail1(m: int, x: float) -> float:
    return x**m * (m - (m - 1) * x) / (1.0 - x) ** 2


def geom_tail2(m: int, x: float) -> float:
    num = m * m - (2 * m * m - 2 * m - 1) * x + (m - 1) * (m - 1) * x * x
    return x**m * num / (1.0 - x) ** 3
