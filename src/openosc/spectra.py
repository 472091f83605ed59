"""Harmonic oscillator spectra in the occupation-number representation.

A single vibrational mode ladder has level energies ``hbar*omega*(q + 1/2)``
for integer ``q >= 0``.  Many-body states of non-interacting particles on
that ladder are sparse occupation maps ``q -> n_q``; the total particle
number is the sum of the counts and is carried explicitly so that a
malformed state can be rejected rather than silently repaired.

It is also the one home of the three argument rules: ``check_scale`` for
scales and tolerances, ``check_mu`` for the chemical potential, and
``check_integer`` for every index, count and size.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .errors import ClosureError, DomainError, spell

__all__ = [
    "OscillatorParams",
    "OccupationState",
    "level_index",
    "mode_energy",
    "ensemble_energy",
]


@dataclass(frozen=True)
class OscillatorParams:
    """Physical constants of one oscillator species.

    Parameters
    ----------
    hbar : float
        Reduced Planck constant, kept explicit so unit systems other than
        ``hbar = 1`` round-trip through every formula.
    mass : float
        Particle mass.  Unused by the bare ladder but required by the
        translational-gas extension.
    omega : float
        Angular frequency of the mode.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "omega"):
            check_scale(name, getattr(self, name))
        # hbar*omega can overflow or underflow where both factors are fine
        check_scale("hbar*omega", self.quantum)

    @property
    def quantum(self) -> float:
        """Level spacing ``hbar * omega``."""
        return self.hbar * self.omega


def check_scale(name: str, value: float, zero_ok: bool = False) -> None:
    """Refuse a physical parameter or derived scale that is NaN, infinite, negative or zero.

    With ``zero_ok`` zero passes, as the decoupling limit of a chain does.
    """
    sign = "non-negative" if zero_ok else "positive"
    if not (value >= 0.0 if zero_ok else value > 0.0):  # also NaN
        raise DomainError(f"{name} must be {sign}, got {value!r}")
    if value == math.inf:
        raise DomainError(f"{name} must be finite and {sign}, got {value!r}")


def check_mu(mu: float) -> None:
    """Refuse a NaN chemical potential: no occupation or threshold exists there."""
    if math.isnan(mu):
        raise DomainError(f"mu must be a number, got {mu!r}")


def check_integer(name: str, value: Any, least: int | None = 0) -> int:
    """``int(value)``, or ``DomainError`` unless ``value`` is a whole number ``>= least``.

    ``least`` is 0, 1 or ``None``, which allows any sign.  Integral floats
    pass; NaN, infinities, fractions and non-numbers do not.
    """
    try:
        n = int(value)
        whole = n == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or least is not None and n < least:
        rule = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}[least]
        raise DomainError(f"{name} must be {rule}, got {spell(value)}")
    return n


def level_index(q: int) -> int:
    """Return ladder index ``q`` as an ``int``; reject negative or fractional ones."""
    return check_integer("level index", q)


@dataclass(frozen=True)
class OccupationState:
    """Sparse occupation map ``q -> n_q`` with a validated particle total.

    Zero counts are dropped on construction.  If ``total`` is supplied it
    must equal the summed counts; a mismatch raises :class:`ClosureError`
    instead of being patched over, because a state whose stated total
    disagrees with its occupations carries no trustworthy information.
    Keys pass through :meth:`_level`, which subclasses override to index
    other spectra.
    """

    occupations: Mapping[int, int]
    total: int | None = None

    @staticmethod
    def _level(key: Any) -> Any:
        return level_index(key)

    def __post_init__(self) -> None:
        clean = {}
        for key, n in self.occupations.items():
            level = self._level(key)
            n = check_integer("occupation count", n)
            if n > 0:
                clean[level] = n
        object.__setattr__(self, "occupations", clean)
        if self.total is None:
            object.__setattr__(self, "total", sum(clean.values()))
        self.validate()

    @classmethod
    def from_levels(cls, levels: Iterable[Any]) -> "OccupationState":
        """Build a state from one key per particle."""
        return cls(dict(Counter(levels)))

    def items(self) -> list[tuple[Any, int]]:
        """Occupied ``(key, n)`` pairs in ascending key order."""
        return sorted(self.occupations.items())

    def validate(self) -> None:
        """Re-check closure and keys; guards against mutation of the backing map."""
        derived = sum(self.occupations.values())
        if derived != self.total:
            raise ClosureError(
                f"declared total {spell(self.total)} != summed occupations {spell(derived)}"
            )
        for key, n in self.occupations.items():
            self._level(key)
            if n < 0:
                raise DomainError(f"invalid entry q={spell(key)}, n={spell(n)}")


def mode_energy(q: int, p: OscillatorParams) -> float:
    """Energy ``hbar*omega*(q + 1/2)`` of ladder level ``q``.

    Raises
    ------
    DomainError
        If ``q`` is negative or not an integer, or the energy overflows.
    """
    q = level_index(q)
    try:
        energy = p.quantum * (q + 0.5)
    except OverflowError:  # q past the float range
        energy = math.inf
    return finite_energy(energy, "q", q)


def finite_energy(energy: float, name: str, index: Any) -> float:
    """``energy``, or ``DomainError`` naming the level ``name = index`` where it is ``inf``."""
    if energy == math.inf:  # an infinite level would make E - mu a NaN at mu = inf
        raise DomainError(f"energy of level {name} = {spell(index)} overflows the float range")
    return energy


def ensemble_energy(occ: OccupationState, p: OscillatorParams) -> float:
    """Total energy ``sum_q hbar*omega*(q + 1/2) * n_q`` of an occupation state.

    The sum is ``math.fsum``, correctly rounded, so the same state gives the
    same bits on every Python version.
    """
    occ.validate()
    return math.fsum(mode_energy(q, p) * n for q, n in occ.items())
