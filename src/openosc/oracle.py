"""Brute-force verification over explicitly enumerated Fock configurations.

Everything here trades efficiency for independence: occupation averages
and ground states are recomputed from raw Boltzmann sums over every
configuration of a small mode set, so the closed-form results elsewhere
in the package have something dumb and trustworthy to be checked against.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ChemicalPotentialError, DomainError, EnumerationLimitError, spell
from .spectra import OscillatorParams, level_index, mode_energy
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
        return cls(tuple(mode_energy(q, p) for q in range(level_index(q_max) + 1)))

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
        return math.fsum(e * n for e, n in zip(modes.energies, self.counts))


def per_mode_limit(kind: StatisticsKind, cutoff: int) -> int:
    """Largest count per mode that enumeration visits: 1 for fermions, else ``cutoff``."""
    if cutoff != int(cutoff) or int(cutoff) < 0:
        raise DomainError(f"cutoff must be a non-negative integer, got {spell(cutoff)}")
    # Fermionic counts are 0/1 regardless of any requested cutoff.
    return 1 if kind is StatisticsKind.FERMI else int(cutoff)


def _checked_limit(kind: StatisticsKind, cutoff: int, n_modes: int) -> int:
    """``per_mode_limit``, refusing a space of more than ``CONFIGURATION_CAP`` configurations."""
    limit = per_mode_limit(kind, cutoff)
    size = (limit + 1) ** n_modes
    if size > CONFIGURATION_CAP:
        raise EnumerationLimitError(
            f"{spell(size)} configurations exceed the cap of {CONFIGURATION_CAP}"
        )
    return limit


def enumerate_configurations(
    modes: ModeSet, kind: StatisticsKind, cutoff: int = 1
) -> Iterator[Configuration]:
    """Yield every configuration in fixed lexicographic order.

    Per-mode counts run over ``{0, 1}`` for fermions and ``{0..cutoff}``
    for bosons.  The full space is refused up front when it exceeds
    ``CONFIGURATION_CAP`` configurations.
    """
    limit = _checked_limit(kind, cutoff, len(modes))
    for counts in itertools.product(range(limit + 1), repeat=len(modes)):
        yield Configuration(counts)


# Largest number of consecutive configurations whose exponents the walk
# holds at once.
_BLOCK = 256

_Table = list[list[float]]
_Counts = tuple[int, ...]


def _exponent_table(modes: ModeSet, mu: float, limit: int, scale: float) -> _Table:
    """Rows ``(e_i - mu) * n`` for ``n = 0..limit``, one per mode.

    Raises ``DomainError`` when ``scale`` times some entry is not finite:
    such an exponent gives no weight, and ``inf * 0`` would turn every
    unoccupied count into NaN.
    """
    table = [[(e - mu) * n for n in range(limit + 1)] for e in modes.energies]
    bad = [i for i, row in enumerate(table) if not all(math.isfinite(scale * s) for s in row)]
    if bad:
        raise DomainError(
            f"exponent {scale!r}*(energy - mu)*n is not finite at mode index "
            f"{bad} for mu = {mu!r}"
        )
    return table


def _expand(values: list[float], rows: _Table) -> list[float]:
    """Extend each value by every entry of each row in turn, in lexicographic order."""
    for row in rows:
        values = [v + s for v in values for s in row]
    return values


def _walk(table: _Table) -> Iterator[tuple[_Counts, list[_Counts], list[float]]]:
    """Every configuration's exponent, in lexicographic order, one block at a time.

    The trailing modes that span at most ``_BLOCK`` configurations (at
    least the last mode) form the tail; the leading modes form the head.
    Yields ``(head, tails, values)`` where ``values[p]`` is the exponent of
    configuration ``head + tails[p]``: ``0.0`` plus the table entries of
    its counts, added left to right.  ``tails`` is one shared list unless
    the last mode alone has more than ``_BLOCK`` counts; its row is then
    walked in slices of ``_BLOCK``.
    """
    k = len(table) - 1
    size = len(table[k])
    while k and size * len(table[k - 1]) <= _BLOCK:
        k -= 1
        size *= len(table[k])
    head_rows, tail_rows = table[:k], table[k:]
    heads = itertools.product(*(range(len(row)) for row in head_rows))
    prefixes = _expand([0.0], head_rows)
    if size <= _BLOCK:
        tails = list(itertools.product(*(range(len(row)) for row in tail_rows)))
        for head, v in zip(heads, prefixes):
            yield head, tails, _expand([v], tail_rows)
        return
    (row,) = tail_rows
    for head, v in zip(heads, prefixes):
        for a in range(0, size, _BLOCK):
            part = row[a:a + _BLOCK]
            yield head, [(n,) for n in range(a, a + len(part))], [v + s for s in part]


def _fold(total: float, terms: Iterable[float]) -> float:
    """``total`` plus each term in turn: plain left-to-right float adds."""
    for x in terms:
        total += x
    return total


def _columns(tails: list[_Counts], first: int) -> list[tuple[int, list[bool], list[int] | None]]:
    """Per trailing mode: its index, the block positions it occupies and its
    counts there, or ``None`` when every one of them is 1."""
    columns = []
    for j, col in enumerate(zip(*tails), first):
        counts = [n for n in col if n]
        ones = all(n == 1 for n in counts)
        columns.append((j, [n != 0 for n in col], None if ones else counts))
    return columns


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

    Summation order: configurations are visited in lexicographic order of
    their counts ``(n_0, n_1, ...)``.  A configuration's exponent sum is
    ``((0.0 + x_0) + x_1) + ...`` with ``x_i = (e_i - mu)*n_i``, one plain
    float add per mode from the first mode to the last; its weight is
    ``exp(-beta*sum - a_max)``.  The normalisation and each mode's sum of
    ``n_i * weight`` (over configurations with ``n_i > 0``) are plain float
    adds in that same configuration order, so the result does not depend
    on how the walk is blocked.

    Raises
    ------
    ChemicalPotentialError
        For bosons when some mode has ``energy <= mu``; the truncated
        average would exist but approximates nothing.
    EnumerationLimitError
        When the space exceeds ``CONFIGURATION_CAP`` configurations.
    DomainError
        When some ``beta*(e_i - mu)*n`` or the largest exponent is not
        finite, so that weights would be NaN.
    """
    if kind is StatisticsKind.BOSE:
        bad = [i for i, e in enumerate(modes.energies) if not e - t.mu > 0.0]
        if bad:
            raise ChemicalPotentialError(
                f"energy <= mu at mode index {bad}: Bose averages require "
                "beta*(energy - mu) > 0 for every mode"
            )
    limit = _checked_limit(kind, cutoff, len(modes))
    table = _exponent_table(modes, t.mu, limit, t.beta)
    # The weight exponent -beta*sum_i (e_i - mu)*n_i is maximised mode by
    # mode, so the offset needs no enumeration pass of its own.
    nb = -t.beta
    a_max = nb * _fold(0.0, (min(0.0, row[-1]) for row in table))
    if not math.isfinite(a_max):
        raise DomainError(f"largest weight exponent overflows: {a_max!r}")
    exp = math.exp
    norm = 0.0
    sums = [0.0] * len(table)
    columns_of = None
    for head, tails, values in _walk(table):
        if tails is not columns_of:
            columns_of, columns = tails, _columns(tails, len(head))
        ws = [exp(nb * v - a_max) for v in values]
        norm = _fold(norm, ws)
        for i, n in enumerate(head):
            if n:
                sums[i] = _fold(sums[i], ws if n == 1 else [n * w for w in ws])
        for j, mask, counts in columns:
            terms = itertools.compress(ws, mask)
            sums[j] = _fold(sums[j], terms if counts is None else map(operator.mul, counts, terms))
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
    without limit), so that is reported before any enumeration.  Energies
    are summed in the order ``gc_average_occupation`` states, and the
    returned configuration is the first minimiser in lexicographic order.

    Raises
    ------
    EnumerationLimitError
        When the space exceeds ``CONFIGURATION_CAP`` configurations.
    DomainError
        When some ``(e_i - mu)*n`` is not finite.
    """
    if kind is StatisticsKind.BOSE and any(e - mu < 0.0 for e in modes.energies):
        return GroundStateResult(False, None, None)
    limit = _checked_limit(kind, cutoff, len(modes))
    best: float | None = None
    for head, tails, values in _walk(_exponent_table(modes, mu, limit, 1.0)):
        low = min(values)
        if best is None or low < best:
            best, counts = low, head + tails[values.index(low)]
    return GroundStateResult(True, best, Configuration(counts))
