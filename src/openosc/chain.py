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
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, spell
from .spectra import OccupationState, OscillatorParams, check_scale, level_index

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
        if self.count != int(self.count) or int(self.count) < 1:
            raise DomainError(f"count must be a positive integer, got {spell(self.count)}")
        check_scale("coupling", self.coupling, zero_ok=True)


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


def _fsum(terms: Iterable[float], what: str) -> float:
    """``math.fsum(terms)``; where its finite partial sums overflow, a ``DomainError``."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DomainError(f"{what} overflows the float range") from None


def chain_frequencies(ch: ChainParams) -> list[float]:
    """Normal-mode frequencies ``omega * sqrt(1 + 4c sin^2(pi*s/N))``, ``s = 1..N``."""
    n = ch.count
    return [
        ch.osc.omega * math.sqrt(1.0 + 4.0 * ch.coupling * math.sin(math.pi * s / n) ** 2)
        for s in range(1, n + 1)
    ]


def chain_energy(a: ChainAssignment, ch: ChainParams) -> float:
    """Canonical energy ``sum_s hbar*omega_s*(q_s + 1/2)``."""
    _check_assignment(a, ch)
    freqs = chain_frequencies(ch)
    return _fsum((ch.osc.hbar * w * (q + 0.5) for w, q in zip(freqs, a.levels)), "chain energy")


def chain_effective_energy(a: ChainAssignment, mu: float, ch: ChainParams) -> float:
    """Per-mode effective sum ``sum_s [hbar*omega_s*(q_s + 1/2) - mu]``."""
    _check_assignment(a, ch)
    freqs = chain_frequencies(ch)
    terms = (ch.osc.hbar * w * (q + 0.5) - mu for w, q in zip(freqs, a.levels))
    return _fsum(terms, "chain effective energy")


@dataclass(frozen=True)
class GroupedFormResult:
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
        group_sum = _fsum((ch.osc.hbar * freqs[s - 1] * (q + 0.5) for s in members), "group energy")
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
    denom = _fsum((ch.osc.hbar * freqs[s - 1] for s in groups[q]), "group frequency sum")
    return mu / denom - 0.5
