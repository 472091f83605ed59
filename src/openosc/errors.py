"""Exception types shared across the package.

``DomainError`` covers every precondition violation a caller can trigger
with bad physical input; the CLI maps it to its own exit code, distinct
from usage errors and from numerical non-convergence.
"""

__all__ = [
    "DomainError",
    "ClosureError",
    "ChemicalPotentialError",
    "EnumerationLimitError",
    "ConvergenceError",
]


class DomainError(ValueError):
    """A physical precondition does not hold for the given input."""


class ClosureError(DomainError):
    """Declared particle total disagrees with the summed occupations."""


class ChemicalPotentialError(DomainError):
    """Chemical potential leaves a Bose occupation undefined or negative."""


class EnumerationLimitError(DomainError):
    """Requested configuration space exceeds the brute-force cap."""


class ConvergenceError(RuntimeError):
    """A truncated series failed to meet its tolerance within the term cap."""
