"""Linear chain of coupled oscillators and its normal-mode bookkeeping.

The normal modes of an ``N``-site chain with nearest-neighbour coupling
``c`` have frequencies ``omega_s = omega * sqrt(1 + 4*c*sin^2(pi*s/N))``
for ``s = 1..N``.  An assignment places one ladder index ``q_s`` on each
mode; the canonical energy is the plain sum over modes.

A grouped rewriting collects modes sharing the same ladder index,
``sum_q [sum_{s in S_q} hbar*omega_s*(q + 1/2)] * n_q - mu * n``.  Taken
literally this double-counts whenever a group holds more than one mode,
because the bracket already sums the group while ``n_q = |S_q|``
multiplies it again.  ``grouped_form_energy`` evaluates that rewriting
as written and flags the disagreement instead of correcting it, so the
discrepancy stays observable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, spell
from .spectra import (
    OccupationState, OscillatorParams, check_integer, check_mu, check_scale, checked_fsum,
    finite_energy, level_index,
)

__all__ = [
    "ChainParams",
    "ChainAssignment",
    "GroupedFormResult",
    "chain_frequencies",
    "chain_energy",
    "chain_effective_energy",
    "grouped_form_energy",
    "q_min_chain",
]


@dataclass(frozen=True)
class ChainParams:
    """Chain of ``count`` sites built on one oscillator species."""

    count: int
    osc: OscillatorParams
    coupling: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", check_integer("count", self.count, 1))
        check_scale("coupling", self.coupling, zero_ok=True)
        # The top mode, s nearest N/2, can overflow where hbar*omega and the
        # coupling are fine.  No list holds the modes of a longer chain.
        n = self.count
        if n <= sys.maxsize:
            top = max(_frequency(self, s) for s in {n // 2, (n + 1) // 2} - {0})
            check_scale("hbar*omega_s", self.osc.hbar * top)


@dataclass(frozen=True)
class ChainAssignment:
    """One ladder index per normal mode, ordered ``s = 1..N``."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise DomainError("assignment must cover at least one mode")
        object.__setattr__(self, "levels", tuple(level_index(q) for q in self.levels))

    def level_groups(self) -> dict[int, tuple[int, ...]]:
        """Map ladder index ``q`` to the mode indices ``s`` (1-based) using it."""
        groups: dict[int, list[int]] = {}
        for s, q in enumerate(self.levels, start=1):
            groups.setdefault(q, []).append(s)
        return {q: tuple(ss) for q, ss in sorted(groups.items())}

    def occupation_state(self) -> OccupationState:
        """Collapse the assignment to a ladder occupation map."""
        return OccupationState.from_levels(self.levels)


def _check_assignment(a: ChainAssignment, ch: ChainParams) -> None:
    if len(a.levels) != ch.count:
        raise DomainError(
            f"assignment covers {len(a.levels)} modes, chain has {spell(ch.count)}"
        )


def _mode_energy(s: int, q: int, freqs: list[float], ch: ChainParams) -> float:
    """``hbar*omega_s*(q + 1/2)`` of mode ``s`` at level ``q``; ``DomainError`` where it is inf."""
    return finite_energy(ch.osc.hbar * freqs[s - 1] * (q + 0.5), "(s, q)", (s, q))


def _frequency(ch: ChainParams, s: int) -> float:
    """Normal-mode frequency ``omega * sqrt(1 + 4c sin^2(pi*s/N))`` of mode ``s``."""
    stiffening = 4.0 * ch.coupling * math.sin(math.pi * s / ch.count) ** 2
    return ch.osc.omega * math.sqrt(1.0 + stiffening)


def chain_frequencies(ch: ChainParams) -> list[float]:
    """Normal-mode frequencies ``omega_s``, ``s = 1..N``."""
    return [_frequency(ch, s) for s in range(1, ch.count + 1)]


def chain_energy(a: ChainAssignment, ch: ChainParams) -> float:
    """Canonical energy ``sum_s hbar*omega_s*(q_s + 1/2)``."""
    _check_assignment(a, ch)
    freqs = chain_frequencies(ch)
    terms = (_mode_energy(s, q, freqs, ch) for s, q in enumerate(a.levels, 1))
    return checked_fsum(terms, "chain energy")


def chain_effective_energy(a: ChainAssignment, mu: float, ch: ChainParams) -> float:
    """Per-mode effective sum ``sum_s [hbar*omega_s*(q_s + 1/2) - mu]``."""
    check_mu(mu)
    _check_assignment(a, ch)
    freqs = chain_frequencies(ch)
    terms = (_mode_energy(s, q, freqs, ch) - mu for s, q in enumerate(a.levels, 1))
    return checked_fsum(terms, "chain effective energy")


class GroupedFormResult(NamedTuple):
    """Literal grouped evaluation next to the canonical one."""

    value: float
    canonical: float
    discrepancy: bool  # any ladder index shared by more than one mode
    difference: float  # value - canonical


def grouped_form_energy(
    a: ChainAssignment, mu: float, ch: ChainParams
) -> GroupedFormResult:
    """Evaluate the grouped rewriting literally and compare with the canonical sum.

    The grouped value multiplies each group's summed frequency by the
    group's particle count, so it exceeds the canonical energy whenever a
    group holds more than one mode.  The mismatch is reported, not fixed.
    """
    _check_assignment(a, ch)
    freqs = chain_frequencies(ch)
    groups = a.level_groups()
    value = 0.0
    for q, members in sorted(groups.items()):
        group_sum = checked_fsum((_mode_energy(s, q, freqs, ch) for s in members), "group energy")
        value += group_sum * len(members)
    value -= mu * len(a.levels)
    canonical = chain_effective_energy(a, mu, ch)
    discrepancy = any(len(members) > 1 for members in groups.values())
    return GroupedFormResult(value, canonical, discrepancy, value - canonical)


def q_min_chain(mu: float, q: int, a: ChainAssignment, ch: ChainParams) -> float:
    """Accessibility threshold ``mu / (sum_{s in S_q} hbar*omega_s) - 1/2``.

    Defined only for ladder indices actually used by the assignment; an
    empty group has no frequency sum to divide by.
    """
    _check_assignment(a, ch)
    groups = a.level_groups()
    if q not in groups:
        raise DomainError(f"no mode is assigned ladder index {spell(q)}")
    freqs = chain_frequencies(ch)
    denom = checked_fsum((ch.osc.hbar * freqs[s - 1] for s in groups[q]), "group frequency sum")
    return mu / denom - 0.5
