"""Chemical-potential control of a single oscillator ladder.

Subtracting ``mu`` per particle from the Hamiltonian turns level ``q`` into
an effective mode of energy ``hbar*omega_eff(q) = hbar*omega*(q + 1/2) - mu``.
A level is accessible when that effective energy is strictly positive,
i.e. when ``q > q_min = mu/(hbar*omega) - 1/2``.  The boundary case
``omega_eff == 0`` is deliberately excluded: a zero-frequency effective
mode costs nothing to populate and is not a confined excitation.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .spectra import (
    OccupationState, OscillatorParams, check_integer, check_mu, checked_fsum, level_index,
    mode_energy,
)

__all__ = [
    "FermionClass",
    "AccessibleSet",
    "PositivityReport",
    "effective_frequency",
    "q_min_vibrational",
    "is_accessible",
    "accessible_set",
    "effective_energy_vibrational",
    "positivity_check",
    "classify_fermion_state",
]


class FermionClass(enum.Enum):
    """Single-particle classification against the chemical potential."""

    BOUND = "bound"
    EXCHANGEABLE = "exchangeable"


def effective_frequency(q: int, mu: float, p: OscillatorParams) -> float:
    """Effective mode energy ``hbar*omega*(q + 1/2) - mu`` of level ``q``."""
    return mode_energy(q, p) - mu


def q_min_vibrational(mu: float, p: OscillatorParams) -> float:
    """Real threshold below which levels are closed off: ``mu/(hbar*omega) - 1/2``."""
    check_mu(mu)
    return mu / p.quantum - 0.5


def is_accessible(q: int, mu: float, p: OscillatorParams) -> bool:
    """Strict accessibility test ``q > q_min``; the boundary level is excluded."""
    return level_index(q) > q_min_vibrational(mu, p)


class AccessibleSet(NamedTuple):
    """Accessibility survey of levels ``0..q_max``.

    ``accessible`` holds levels with ``hbar*omega_eff > 0``; ``boundary``
    holds levels at the exact zero crossing ``hbar*omega_eff == 0``.
    Boundary levels are never counted as accessible.
    """

    q_min: float
    accessible: tuple[int, ...]
    boundary: tuple[int, ...]


def accessible_set(mu: float, p: OscillatorParams, q_max: int) -> AccessibleSet:
    """Classify levels ``0..q_max`` by the sign of their effective energy."""
    q_max = check_integer("q_max", q_max)
    acc: list[int] = []
    edge: list[int] = []
    for q in range(q_max + 1):
        w = effective_frequency(q, mu, p)
        if w == 0.0:
            edge.append(q)
        elif w > 0.0:
            acc.append(q)
    return AccessibleSet(q_min_vibrational(mu, p), tuple(acc), tuple(edge))


def effective_energy_vibrational(
    occ: OccupationState, mu: float, p: OscillatorParams
) -> float:
    """Grand-canonical effective energy ``sum_q [hbar*omega*(q+1/2) - mu] * n_q``."""
    check_mu(mu)
    occ.validate()
    terms = (effective_frequency(q, mu, p) * n for q, n in occ.items())
    return checked_fsum(terms, "effective energy")


class PositivityReport(NamedTuple):
    """Outcome of a strict-positivity check of the effective energy."""

    positive: bool
    energy: float
    offending: tuple[int, ...]  # occupied levels with hbar*omega_eff <= 0


def positivity_check(
    occ: OccupationState, mu: float, p: OscillatorParams
) -> PositivityReport:
    """Check ``effective_energy > 0`` and name occupied levels that break it.

    The empty state reports energy ``0.0`` and is not positive.
    """
    energy = effective_energy_vibrational(occ, mu, p)
    bad = tuple(
        q for q, _ in occ.items() if effective_frequency(q, mu, p) <= 0.0
    )
    return PositivityReport(energy > 0.0, energy, bad)


def classify_fermion_state(q: int, mu: float, p: OscillatorParams) -> FermionClass:
    """BOUND when ``hbar*omega*(q+1/2) < mu``, else EXCHANGEABLE.

    Exact equality lands on EXCHANGEABLE: a level at the chemical potential
    costs nothing to trade with the reservoir, so it is not held as bound.
    """
    if mode_energy(q, p) < mu:
        return FermionClass.BOUND
    return FermionClass.EXCHANGEABLE
