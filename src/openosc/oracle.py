"""Brute-force verification over explicitly enumerated Fock configurations.

Everything here trades efficiency for independence: occupation averages
and ground states are recomputed from raw Boltzmann sums over every
configuration of a small mode set, so the closed-form results elsewhere
in the package have something dumb and trustworthy to be checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ChemicalPotentialError, DomainError, EnumerationLimitError
from .spectra import OscillatorParams, mode_energy
from .stats import StatisticsKind, Thermo

__all__ = [
    "CONFIGURATION_CAP",
    "ModeSet",
    "Configuration",
    "GroundStateResult",
    "enumerate_configurations",
    "gc_average_occupation",
    "ground_state_search",
    "per_mode_limit",
]

CONFIGURATION_CAP = 10_000_000


@dataclass(frozen=True)
class ModeSet:
    """Finite list of single-particle energies, one per mode."""

    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.energies:
            raise DomainError("mode set must contain at least one mode")
        clean = tuple(float(e) for e in self.energies)
        for e in clean:
            if not math.isfinite(e):
                raise DomainError(f"mode energy must be finite, got {e!r}")
        object.__setattr__(self, "energies", clean)

    @classmethod
    def from_oscillator(cls, p: OscillatorParams, q_max: int) -> "ModeSet":
        """Ladder levels ``hbar*omega*(q + 1/2)`` for ``q = 0..q_max``."""
        if q_max < 0:
            raise DomainError(f"q_max must be non-negative, got {q_max!r}")
        return cls(tuple(mode_energy(q, p) for q in range(int(q_max) + 1)))

    def __len__(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class Configuration:
    """Occupation counts per mode, aligned with a ModeSet."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def energy(self, modes: ModeSet) -> float:
        return sum(e * n for e, n in zip(modes.energies, self.counts))


def per_mode_limit(kind: StatisticsKind, cutoff: int) -> int:
    """Largest count per mode that enumeration visits: 1 for fermions, else ``cutoff``."""
    if cutoff != int(cutoff) or int(cutoff) < 0:
        raise DomainError(f"cutoff must be a non-negative integer, got {cutoff!r}")
    # Fermionic counts are 0/1 regardless of any requested cutoff.
    return 1 if kind is StatisticsKind.FERMI else int(cutoff)


def enumerate_configurations(
    modes: ModeSet, kind: StatisticsKind, cutoff: int = 1
) -> Iterator[Configuration]:
    """Yield every configuration in fixed lexicographic order.

    Per-mode counts run over ``{0, 1}`` for fermions and ``{0..cutoff}``
    for bosons.  The full space is refused up front when it exceeds
    ``CONFIGURATION_CAP`` configurations.
    """
    limit = per_mode_limit(kind, cutoff)
    size = (limit + 1) ** len(modes)
    if size > CONFIGURATION_CAP:
        raise EnumerationLimitError(
            f"{size} configurations exceed the cap of {CONFIGURATION_CAP}"
        )
    for counts in itertools.product(range(limit + 1), repeat=len(modes)):
        yield Configuration(counts)


def gc_average_occupation(
    modes: ModeSet,
    t: Thermo,
    kind: StatisticsKind,
    cutoff: int = 1,
) -> tuple[float, ...]:
    """Per-mode mean occupations from the raw grand-canonical sum.

    Each configuration is weighted by ``exp(-beta*(E - mu*n))``; the
    largest exponent is factored out first so the sums cannot overflow.
    For fermions the finite space is exact; for bosons the truncation at
    ``cutoff`` leaves an error on the scale of the neglected geometric
    tail.

    Raises
    ------
    ChemicalPotentialError
        For bosons when some mode has ``energy <= mu``; the truncated
        average would exist but approximates nothing.
    """
    if kind is StatisticsKind.BOSE:
        bad = [i for i, e in enumerate(modes.energies) if not e - t.mu > 0.0]
        if bad:
            raise ChemicalPotentialError(
                f"energy <= mu at mode index {bad}: Bose averages require "
                "beta*(energy - mu) > 0 for every mode"
            )
    limit = per_mode_limit(kind, cutoff)
    # The weight exponent -beta*sum_i (e_i - mu)*n_i is maximised mode by
    # mode, so the offset needs no enumeration pass of its own.
    a_max = -t.beta * sum(
        min(0.0, (e - t.mu) * limit) for e in modes.energies
    )
    norm = 0.0
    sums = [0.0] * len(modes)
    for cfg in enumerate_configurations(modes, kind, cutoff):
        a = -t.beta * sum(
            (e - t.mu) * n for e, n in zip(modes.energies, cfg.counts)
        )
        w = math.exp(a - a_max)
        norm += w
        for i, n in enumerate(cfg.counts):
            if n:
                sums[i] += n * w
    return tuple(s / norm for s in sums)


@dataclass(frozen=True)
class GroundStateResult:
    """Minimiser of the effective energy over the enumerated space."""

    bounded: bool
    energy: float | None
    configuration: Configuration | None


def ground_state_search(
    modes: ModeSet,
    mu: float,
    kind: StatisticsKind,
    cutoff: int = 1,
) -> GroundStateResult:
    """Minimise ``sum_i (e_i - mu) * n_i`` by exhaustive search.

    For bosons a single mode with ``e_i - mu < 0`` already makes the
    spectrum unbounded below (piling particles on it lowers the energy
    without limit), so that is reported before any enumeration.  The
    returned configuration is the first minimiser in enumeration order.
    """
    if kind is StatisticsKind.BOSE and any(e - mu < 0.0 for e in modes.energies):
        return GroundStateResult(False, None, None)
    best: float | None = None
    best_cfg: Configuration | None = None
    for cfg in enumerate_configurations(modes, kind, cutoff):
        value = sum((e - mu) * n for e, n in zip(modes.energies, cfg.counts))
        if best is None or value < best:
            best = value
            best_cfg = cfg
    return GroundStateResult(True, best, best_cfg)
