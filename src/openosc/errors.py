"""Exception types shared across the package.

``DomainError`` covers every precondition violation a caller can trigger
with bad physical input; the CLI maps it to its own exit code, distinct
from usage errors and from numerical non-convergence.
"""

from typing import Any

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


def spell(value: Any) -> str:
    """``repr(value)`` for an error message that repeats an index or count.

    An ``int`` past ``sys.get_int_max_str_digits()`` has no decimal ``repr``;
    it is spelled by its sign and bit length instead.
    """
    try:
        return repr(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<int of {abs(value).bit_length()} bits>"
