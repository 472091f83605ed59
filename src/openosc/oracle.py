"""Brute-force verification over explicitly enumerated Fock configurations.

Everything here trades efficiency for independence: occupation averages
and ground states are recomputed from raw Boltzmann sums over every
configuration of a small mode set, so the closed-form results elsewhere
in the package have something dumb and trustworthy to be checked against.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import ChemicalPotentialError, DomainError, EnumerationLimitError, spell
from .spectra import OscillatorParams, check_integer, mode_energy
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
        return cls(tuple(mode_energy(q, p) for q in range(check_integer("q_max", q_max) + 1)))

    def __len__(self) -> int:
        return len(self.energies)


class Configuration(NamedTuple):
    """Occupation counts per mode, aligned with a ModeSet."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def energy(self, modes: ModeSet) -> float:
        return math.fsum(e * n for e, n in zip(modes.energies, self.counts))


def per_mode_limit(kind: StatisticsKind, cutoff: int) -> int:
    """Largest count per mode that enumeration visits: 1 for fermions, else ``cutoff``."""
    cutoff = check_integer("cutoff", cutoff)
    # Fermionic counts are 0/1 regardless of any requested cutoff.
    return 1 if kind is StatisticsKind.FERMI else cutoff


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


# Most configurations in one block.  A block is one head configuration with
# every tail configuration, or with one slice of ``_BLOCK`` counts of a last
# mode that alone has more.  The walk holds the weights of up to ``_GROUP``
# blocks before it folds them into the column, so it keeps at most
# ``_GROUP * _BLOCK`` weights at once besides the exponent tables.
_BLOCK = 256
_GROUP = 64

_Table = list[list[float]]
_Counts = tuple[int, ...]
_Slices = list[tuple[int, _Table]]


def _exponent_table(modes: ModeSet, mu: float, limit: int, scale: float) -> _Table:
    """Rows ``(e_i - mu) * n`` for ``n = 0..limit``, one per mode.

    Raises ``DomainError`` when ``scale`` times some entry is not finite:
    such an exponent gives no weight, and ``inf * 0`` would turn every
    unoccupied count into NaN.  Also when ``scale`` times the deepest
    configuration's sum is not finite: each row's last entry if negative,
    else 0.0, added with plain float adds in mode order, as both walks add a
    configuration's entries.  Float adds round monotonically, so no
    configuration's sum lies lower.
    """
    table = [[(e - mu) * n for n in range(limit + 1)] for e in modes.energies]
    bad = [i for i, row in enumerate(table) if not all(math.isfinite(scale * s) for s in row)]
    if bad:
        raise DomainError(
            f"exponent {scale!r}*(energy - mu)*n is not finite at mode index "
            f"{bad} for mu = {mu!r}"
        )
    deepest = scale * functools.reduce(operator.add, (min(0.0, row[-1]) for row in table), 0.0)
    if not math.isfinite(deepest):
        raise DomainError(f"deepest configuration's exponent overflows: {deepest!r} at mu = {mu!r}")
    return table


def _expand(values: list[float], rows: _Table) -> list[float]:
    """Extend each value by every entry of each row in turn, in lexicographic order."""
    for row in rows:
        values = [v + s for v in values for s in row]
    return values


def _split(table: _Table) -> tuple[Iterator[_Counts], list[float], _Slices, list[_Counts]]:
    """Split the modes into a head and a tail, for a walk in blocks.

    The trailing modes that span at most ``_BLOCK`` configurations (at
    least the last mode) form the tail; the leading modes form the head.
    Returns ``(heads, prefixes, slices, tails)``:

    - ``heads`` yields each head configuration's counts in lexicographic
      order, and ``prefixes`` holds their exponent sums
      ``((0.0 + x_0) + x_1) + ...``, where ``x_i`` is mode ``i``'s table
      entry;
    - ``slices`` lists ``(a, rows)``: the tail's rows once, with ``a = 0``,
      unless the last mode alone has more than ``_BLOCK`` counts; its row is
      then cut into slices of ``_BLOCK`` that start at count ``a``;
    - ``tails`` lists the tail's counts in lexicographic order, the last
      one counted from ``a``; a block's ``p``-th configuration has
      ``tails[p]``.
    """
    k = len(table) - 1
    size = len(table[k])
    while k and size * len(table[k - 1]) <= _BLOCK:
        k -= 1
        size *= len(table[k])
    head_rows, tail_rows = table[:k], table[k:]
    heads = itertools.product(*(range(len(row)) for row in head_rows))
    if size <= _BLOCK:
        slices = [(0, tail_rows)]
    else:
        (row,) = tail_rows
        slices = [(a, [row[a:a + _BLOCK]]) for a in range(0, size, _BLOCK)]
    tails = list(itertools.product(*(range(min(len(row), _BLOCK)) for row in tail_rows)))
    return heads, _expand([0.0], head_rows), slices, tails


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

    Summation order: the modes split into leading head modes and trailing
    tail modes that span at most ``_BLOCK`` configurations (at least the
    last mode).  With ``x_i = (e_i - mu)*n_i``, each ``v`` below is
    ``((0.0 + x_i) + ...)`` over the modes of its half, added from the
    first to the last.  A head configuration's offset is
    ``c = -beta*v_head - top_head`` and a tail configuration's exponent
    ``d = -beta*v_tail - top_tail``, where ``top`` is the half's largest
    ``-beta*v``, so that the largest weight is exactly 1.  A
    configuration's weight is ``exp(c + d)``: one ``exp`` per configuration.
    A block is one head configuration with every tail configuration, and
    blocks are visited in lexicographic order of the head's counts.  Its
    weights are added by ``math.fsum`` into the block total; the
    normalisation adds up the totals, and each occupied head mode
    ``n_i * total``, in block order.  The weights are also added,
    position by position and in block order, into one column of at most
    ``_BLOCK`` running sums, and each tail mode's sum is ``math.fsum`` of
    ``n_j`` times that column.  The walk holds the weights of up to
    ``_GROUP`` blocks and then folds them in at once: each column entry
    becomes the built-in ``sum`` of itself and that position's weight of
    each held block, a short last slice counting as exact zeros.  Before
    Python 3.12 ``sum`` adds floats left to right with plain double adds,
    the same bits as adding one block at a time; from 3.12 on it
    compensates its adds, which only shrinks their rounding.  A last mode
    of more than ``_BLOCK`` counts is walked in slices of ``_BLOCK``: the
    slice that starts at count ``a`` adds ``a * total`` to that mode, like
    a head count, and its counts within the slice go through the column.
    So a space of at most ``_BLOCK`` configurations gets
    ``fsum(n_i * w) / fsum(w)`` exactly, and a larger one adds one rounding
    per block to each sum.

    Raises
    ------
    ChemicalPotentialError
        For bosons when some mode has ``energy <= mu``; the truncated
        average would exist but approximates nothing.
    EnumerationLimitError
        When the space exceeds ``CONFIGURATION_CAP`` configurations.
    DomainError
        When some ``beta*(e_i - mu)*n``, or ``beta`` times the deepest
        configuration's sum of them, is not finite, so that weights would
        be NaN.
    """
    if kind is StatisticsKind.BOSE:
        bad = [i for i, e in enumerate(modes.energies) if not e - t.mu > 0.0]
        if bad:
            raise ChemicalPotentialError(
                f"energy <= mu at mode index {bad}: Bose averages require "
                "beta*(energy - mu) > 0 for every mode"
            )
    limit = _checked_limit(kind, cutoff, len(modes))
    heads, prefixes, slices, tails = _split(_exponent_table(modes, t.mu, limit, t.beta))
    nb = -t.beta
    # Each half loses its own largest exponent: every exponent is then at
    # most 0 and the largest is exactly 0, however large the entries.
    top = nb * min(prefixes)
    parts = [(a, [nb * v for v in _expand([0.0], rows)]) for a, rows in slices]
    top_tail = max(max(u) for _, u in parts)
    parts = [(a, [s - top_tail for s in u]) for a, u in parts]
    exp, fsum, last = math.exp, math.fsum, len(modes) - 1
    norm = 0.0
    sums = [0.0] * len(modes)
    column = [0.0] * len(tails)
    group: list[list[float]] = []
    for head, v in zip(heads, prefixes):
        c = nb * v - top
        for a, u in parts:
            ws = [exp(c + s) for s in u]
            total = fsum(ws)
            norm += total
            for i, n in enumerate(head):
                if n:
                    sums[i] += n * total
            if a:
                sums[last] += a * total
            group.append(ws)
            if len(group) == _GROUP:
                column = list(map(sum, itertools.zip_longest(column, *group, fillvalue=0.0)))
                group.clear()
    column = list(map(sum, itertools.zip_longest(column, *group, fillvalue=0.0)))
    for j, counts in enumerate(zip(*tails), last + 1 - len(tails[0])):
        sums[j] += fsum(map(operator.mul, counts, column))
    return tuple(s / norm for s in sums)


class GroundStateResult(NamedTuple):
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
    without limit), so that is reported before any enumeration.  A
    configuration's energy is ``((0.0 + x_0) + x_1) + ...`` with
    ``x_i = (e_i - mu)*n_i``, one plain float add per mode from the first
    mode to the last, and the returned configuration is the first
    minimiser in lexicographic order of the counts ``(n_0, n_1, ...)``.

    Raises
    ------
    EnumerationLimitError
        When the space exceeds ``CONFIGURATION_CAP`` configurations.
    DomainError
        When some ``(e_i - mu)*n``, or the deepest configuration's sum of
        them, is not finite.
    """
    if kind is StatisticsKind.BOSE and any(e - mu < 0.0 for e in modes.energies):
        return GroundStateResult(False, None, None)
    limit = _checked_limit(kind, cutoff, len(modes))
    heads, prefixes, slices, tails = _split(_exponent_table(modes, mu, limit, 1.0))
    best: float | None = None
    for head, v in zip(heads, prefixes):
        for a, rows in slices:
            values = _expand([v], rows)
            low = min(values)
            if best is None or low < best:
                best, at = low, (head, a, values.index(low))
    head, a, p = at
    *tail, n = tails[p]
    return GroundStateResult(True, best, Configuration((*head, *tail, a + n)))
