"""Adaptive summation primitives with certified tails.

Every truncated series in this package reports the partial value together
with a mathematically valid bound on what was dropped.  ``converged``
means the bound met the policy's rule, stated once in the plain loop of
``TruncationPolicy.first_satisfied``, never that terms "looked small".

``certified_sum`` is the only adaptive loop in the package.  Each series
supplies it an endless source of blocks of steps; a step is a
``(term, count, tail)`` triple: ``term`` is the step's contribution,
``count`` the number of series terms it covers, and ``tail`` must bound
everything after that step.  ``block_sizes`` is the one schedule that
sizes the blocks of every series: a short sum takes one block of
``_FIRST_BLOCK`` steps, a long one blocks that double up to ``_MAX_BLOCK``;
a ladder cuts the block that holds its closing level short.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .spectra import check_integer, check_scale

__all__ = ["TruncationPolicy", "SeriesResult", "certified_sum"]


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for adaptive sums.

    The sum stops once the certified tail bound drops below
    ``max(rel_tol * |value|, abs_tol)``; ``max_terms`` caps the work
    regardless.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_terms: int = 10_000_000

    def __post_init__(self) -> None:
        check_scale("rel_tol", self.rel_tol)
        check_scale("abs_tol", self.abs_tol, zero_ok=True)
        object.__setattr__(self, "max_terms", check_integer("max_terms", self.max_terms, 1))

    def satisfied(self, value: float, tail_bound: float) -> bool:
        return self.first_satisfied((value,), (tail_bound,)) == 0

    def first_satisfied(self, values: Iterable[float], tail_bounds: Iterable[float]) -> int | None:
        """Index of the first pair with ``tail <= max(rel_tol * |value|, abs_tol)``, or ``None``.

        The one home of the stopping rule; pairs run out with the shorter
        sequence.  A NaN value or tail never satisfies it.
        """
        rel_tol, abs_tol = self.rel_tol, self.abs_tol
        index = 0
        for size, tail in zip(map(abs, values), tail_bounds):
            scaled = rel_tol * size
            if tail <= (abs_tol if abs_tol > scaled else scaled):
                return index
            index += 1
        return None


# The policy of every sum called with ``policy=None``: frozen, so one instance serves all.
_DEFAULT_POLICY = TruncationPolicy()


class SeriesResult(NamedTuple):
    """Partial sum plus the certificate that justifies (or denies) it."""

    value: float
    terms_used: int
    tail_bound: float
    converged: bool


Block = tuple[Sequence[float], Sequence[int], Sequence[float]]

# Most steps in one block.  A sum holds about six lists of this length at once:
# over the first 60 lib_kernels tasks 1024 raised the peak RSS by ~0.4 MB and
# 256 by nothing measurable, within a few per cent of the same speed.
_MAX_BLOCK = 256
# Steps in a sum's first block; each later one doubles.  The reduced series at
# the default rel_tol stops within 31 shells for mu < 2, so it is one block.
_FIRST_BLOCK = 32
# Fewest steps for which a block is first tested as a whole.  The block that
# holds the stop always fails that test, so only the full-size blocks of long
# sums take it; the schedule's smaller first blocks go straight to the exact rule.
_SKIP_TEST = 256


def certified_sum(blocks: Iterable[Block], policy: TruncationPolicy) -> SeriesResult:
    """Add steps until ``policy`` accepts the tail or ``max_terms`` is reached.

    ``blocks`` yields ``(terms, counts, tails)``: three parallel sequences
    holding one step each, in summation order.  The sum stops at the
    first step whose tail bound satisfies ``policy`` against the value
    after that step (``converged=True``), or else at the first step that
    brings the summed counts to ``max_terms`` (``converged=False``, with
    the tail bound at that point; a step's count may overshoot the cap).
    Steps after the stopping step are never added.

    The value is the plain left-to-right sum ``0.0 + t0 + t1 + ...`` of
    the steps' terms, carried across blocks, so block sizes change the
    speed only, never the bits.  A long block whose smallest tail exceeds
    ``max(rel_tol * max|value|, abs_tol)``, the largest threshold any of
    its steps has, is passed over; every other block's steps are tested
    with ``policy.first_satisfied``, the exact rule.
    """
    value = 0.0
    used = 0
    cap = policy.max_terms
    for terms, counts, tails in blocks:
        values = list(itertools.accumulate(terms, initial=value))
        block_used = sum(counts)  # ints: exact
        steps = len(tails)
        capped = used + block_used >= cap
        if capped:  # only steps up to the first one whose count reaches the cap
            steps = bisect_left(list(itertools.accumulate(counts, initial=used)), cap, 1)
        met = None
        if steps < _SKIP_TEST or not min(tails) > max(
            policy.rel_tol * max(max(values), -min(values)), policy.abs_tol
        ):
            met = policy.first_satisfied(itertools.islice(values, 1, steps + 1), tails)
        if met is not None or capped:
            stop = steps - 1 if met is None else met
            return SeriesResult(
                values[stop + 1], used + sum(counts[: stop + 1]), tails[stop], met is not None
            )
        value = values[-1]
        used += block_used
    raise ValueError("step source ended before the policy or the term cap stopped the sum")


def block_sizes() -> Iterator[int]:
    """Sizes of a sum's successive blocks: ``_FIRST_BLOCK`` steps, doubling up to ``_MAX_BLOCK``.

    A sum evaluates at most its last block past the stopping step: fewer
    than ``_MAX_BLOCK`` steps, and fewer than twice the steps it uses
    plus ``_FIRST_BLOCK``.
    """
    size = _FIRST_BLOCK
    while True:
        yield size
        size = min(2 * size, _MAX_BLOCK)


# --- closed-form tail of a quadratic-times-geometric series ----------------


def geom_tails2(ms: Iterable[int], x: float) -> list[float]:
    """``T_2(m, x) = sum_{r >= m} r^2 x^r`` for each ``m`` of ``ms``, ``0 < x < 1``.

    It bounds the reduced-series shells, whose terms grow at most
    quadratically, against their exponential decay.
    """
    denominator = (1.0 - x) ** 3
    return [
        x**m * (m * m - (2 * m * m - 2 * m - 1) * x + (m - 1) * (m - 1) * x * x) / denominator
        for m in ms
    ]
