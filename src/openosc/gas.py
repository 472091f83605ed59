"""Oscillator ladder coupled to free translational motion in a periodic box.

The translational branch carries a single signed integer quantum number
``k`` with energy ``eps_k = 4*pi^2*hbar^2*k^2 / (2*m*L^2)``; the joint
single-particle energy adds the vibrational ladder on top.  All
accessibility statements inherit the strict-threshold convention from the
pure ladder: level ``(k, q)`` is open exactly when
``q > q_min(mu, k) = mu/(hbar*omega) - eps_k/(hbar*omega) - 1/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .spectra import (
    OccupationState, OscillatorParams, check_integer, check_mu, check_scale, checked_fsum,
    finite_energy, level_index, mode_energy,
)

__all__ = [
    "GasParams",
    "GasOccupationState",
    "BoseConditionRow",
    "BoseConditionReport",
    "translational_energy",
    "joint_energy",
    "effective_energy_gas",
    "q_min_gas",
    "bose_gas_condition",
]


@dataclass(frozen=True)
class GasParams:
    """Oscillator species plus the periodic box length for the free branch."""

    osc: OscillatorParams
    box_length: float = 1.0

    def __post_init__(self) -> None:
        check_scale("box_length", self.box_length)
        # An infinite prefactor would make eps_0 = prefactor * 0 a nan; a zero
        # one would erase the free branch.
        try:
            prefactor = self.translational_prefactor
        except (OverflowError, ZeroDivisionError):
            prefactor = math.inf
        check_scale("translational prefactor", prefactor)

    @property
    def translational_prefactor(self) -> float:
        """Coefficient of ``k^2`` in the translational branch."""
        p = self.osc
        return (4.0 * math.pi**2 * p.hbar**2) / (2.0 * p.mass * self.box_length**2)

    @classmethod
    def reduced(cls) -> "GasParams":
        """Unit-free parameter set: translational prefactor and ``hbar*omega`` both 1.

        ``mass = 2*pi^2`` makes the prefactor cancel exactly in floating
        point, so ``eps_k == k^2`` holds bit-for-bit.
        """
        return cls(OscillatorParams(hbar=1.0, mass=2.0 * math.pi**2, omega=1.0), 1.0)


def translational_energy(k: int, g: GasParams) -> float:
    """Free-motion energy ``prefactor * k^2`` of integer ``k``; ``DomainError`` on overflow."""
    k = check_integer("translational index", k, None)
    try:
        energy = g.translational_prefactor * (k * k)
    except OverflowError:  # k*k past the float range
        energy = math.inf
    return finite_energy(energy, "k", k)


def joint_energy(k: int, q: int, g: GasParams) -> float:
    """Single-particle energy ``eps_k + hbar*omega*(q + 1/2)``; ``DomainError`` on overflow."""
    energy = translational_energy(k, g) + mode_energy(q, g.osc)
    return finite_energy(energy, "(k, q)", (k, q))


@dataclass(frozen=True)
class GasOccupationState(OccupationState):
    """Sparse occupation map ``(k, q) -> n`` over the joint spectrum."""

    @staticmethod
    def _level(key: tuple[int, int]) -> tuple[int, int]:
        k, q = key
        return (check_integer("translational index", k, None), level_index(q))


def effective_energy_gas(occ: GasOccupationState, mu: float, g: GasParams) -> float:
    """Effective energy ``sum_{k,q} [eps_k + hbar*omega*(q+1/2) - mu] * n_{k,q}``."""
    check_mu(mu)
    occ.validate()
    terms = ((joint_energy(k, q, g) - mu) * n for (k, q), n in occ.items())
    return checked_fsum(terms, "gas effective energy")


def q_min_gas(mu: float, k: int, g: GasParams) -> float:
    """Vibrational threshold at fixed ``k``; reduces to the pure ladder at ``k = 0``."""
    check_mu(mu)
    return (mu - translational_energy(k, g)) / g.osc.quantum - 0.5


class BoseConditionRow(NamedTuple):
    """Validity of the two Bose chemical-potential conditions at one ``k``."""

    k: int
    extended: bool  # eps_k + hbar*omega/2 > mu (joint ground level open)
    classic: bool  # eps_k > mu (free branch alone)
    gap: bool  # extended holds while classic fails


class BoseConditionReport(NamedTuple):
    """Per-``k`` rows of ``bose_gas_condition`` and their summary flags."""

    rows: tuple[BoseConditionRow, ...]
    all_extended: bool
    all_classic: bool
    any_gap: bool


def bose_gas_condition(mu: float, g: GasParams, k_max: int) -> BoseConditionReport:
    """Tabulate extended vs classic Bose validity over ``k in [-k_max, k_max]``.

    The extended condition opens the joint ground level ``(k, 0)``; the
    classic one ignores the zero-point shift.  Their disagreement window
    ``eps_k <= mu < eps_k + hbar*omega/2`` is reported per ``k`` rather
    than silently resolved.  The cost is linear in ``k_max``, with no cap:
    a huge but valid ``k_max`` runs that long.
    """
    k_max = check_integer("k_max", k_max)
    rows = []
    for k in range(-k_max, k_max + 1):
        extended = joint_energy(k, 0, g) - mu > 0.0
        classic = translational_energy(k, g) - mu > 0.0
        rows.append(BoseConditionRow(k, extended, classic, extended and not classic))
    return BoseConditionReport(
        tuple(rows),
        all(r.extended for r in rows),
        all(r.classic for r in rows),
        any(r.gap for r in rows),
    )
