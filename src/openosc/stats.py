"""Grand-canonical occupation statistics for the oscillator systems.

Single-level means follow the standard quantum ideal-gas form

    n(eps) = 1 / (exp(beta * (eps - mu)) -+ 1),

with the upper sign for bosons and the lower for fermions.  The Bose
branch is only defined for ``beta * (eps - mu) > 0``; this module refuses
invalid arguments instead of returning a negative "occupation".

One kernel, ``occupation_numbers``, evaluates every occupation in the package,
one level's or a sum's block of them, and alone raises on a Bose ``x <= 0``
or warns below ``_TINY_X``.

``ladder_closing`` adds a ladder's occupations from a level with ``x > 0``
on in closed form.  The ladder mean and every gas column in ``series``
close with it from their first level with ``x >= closing_start(y)``.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ChemicalPotentialError, DomainError
from .gas import GasParams, joint_energy, q_min_gas
from .spectra import OscillatorParams, check_mu
from .summation import (
    _MAX_BLOCK, Block, SeriesResult, TruncationPolicy, block_sizes, certified_sum
)

__all__ = [
    "StatisticsKind",
    "Thermo",
    "ThresholdReport",
    "occupation_number",
    "mean_particle_number",
    "bose_threshold_equivalence",
]

# Above this exponent the direct denominator would lose the answer to
# cancellation or overflow; the exp(-x) rearrangement is exact there.
_LARGE_X = 30.0
# Below this the Bose mean exceeds ~1e12 and one ulp of x moves the result
# by a full unit; the caller gets a warning rather than silent garbage.
_TINY_X = 1e-12
# A closing keeps at least ceil(_FUGACITY_DEPTH / x) terms of the fugacity expansion.
_FUGACITY_DEPTH = 46.0
# Below this y = beta*hbar*omega no ladder is closed: the kernel's
# 1/(1 - exp(-y))^2 overflows near y ~ 1e-154.
_CLOSING_MIN_Y = 1e-150


class StatisticsKind(enum.Enum):
    """Exchange statistics selector."""

    BOSE = "bose"
    FERMI = "fermi"

    @classmethod
    def from_name(cls, name: str) -> "StatisticsKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DomainError(f"unknown statistics {name!r}, expected bose or fermi") from None


@dataclass(frozen=True)
class Thermo:
    """Inverse temperature and chemical potential of the reservoir.

    ``beta`` must be positive and finite: zero temperature is a limit.
    """

    beta: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise DomainError(f"beta must be positive, got {self.beta!r}")
        if self.beta == math.inf:
            raise DomainError(
                "beta = inf is not finite: zero temperature is a limit, not an input"
            )
        check_mu(self.mu)


def occupation_number(energy: float, t: Thermo, kind: StatisticsKind) -> float:
    """Mean occupation of one level at energy ``energy``.

    Parameters
    ----------
    energy : float
        Single-particle level energy.
    t : Thermo
        Reservoir parameters ``beta`` and ``mu``.
    kind : StatisticsKind
        BOSE or FERMI.

    Returns
    -------
    float
        ``1 / (exp(x) - 1)`` or ``1 / (exp(x) + 1)`` with
        ``x = beta * (energy - mu)``, evaluated in the ``exp(-x)`` form
        for large ``x`` so that ``x = 800`` underflows cleanly to zero
        instead of overflowing.

    Raises
    ------
    ChemicalPotentialError
        For the Bose branch when ``x <= 0``: the geometric series behind
        the mean diverges and no occupation exists.

    Warns
    -----
    RuntimeWarning
        For the Bose branch when ``0 < x < 1e-12``, where the result
        exceeds ~1e12 and carries essentially no relative precision.
    """
    return occupation_numbers([t.beta * (energy - t.mu)], kind)[0]


def occupation_numbers(xs: Sequence[float], kind: StatisticsKind) -> list[float]:
    """``occupation_number`` at the exponents ``xs``: the one place either formula is evaluated.

    The first Bose ``x <= 0`` raises; else one warning per call if a Bose ``x < _TINY_X``,
    naming the line two calls up: the caller of ``occupation_number``, or the line
    of ``certified_sum`` that pulls a sum's blocks.
    """
    if kind is StatisticsKind.FERMI:
        return [
            1.0 / (math.exp(x) + 1.0) if x < 0.0 else (z := math.exp(-x)) / (1.0 + z)
            for x in xs
        ]
    if not min(xs, default=_TINY_X) >= _TINY_X:  # also a NaN first
        low = [x for x in xs if x < _TINY_X]
        for x in low:
            if x <= 0.0:
                raise ChemicalPotentialError(
                    f"Bose occupation undefined: beta*(energy - mu) = {x!r} <= 0"
                )
        if low:
            # One constant message, so the default filter reports a long sum once.
            warnings.warn(
                f"Bose occupation at beta*(energy - mu) < {_TINY_X:g} exceeds ~1e12; "
                "the value is dominated by rounding of the exponent",
                RuntimeWarning,
                stacklevel=3,
            )
    return [(z := math.exp(-x)) / (1.0 - z) if x > _LARGE_X else 1.0 / math.expm1(x) for x in xs]


def mean_particle_number(
    t: Thermo,
    p: OscillatorParams,
    kind: StatisticsKind,
    policy: TruncationPolicy | None = None,
    occupations: list[float] | None = None,
) -> SeriesResult:
    """Mean total particle number on one ladder, ``sum_q n(hbar*omega*(q+1/2))``.

    The sum is truncated adaptively.  Beyond the last summed level every
    occupation is bounded by ``C * exp(-x_q)`` with ``x_q`` the scaled
    level exponent, and consecutive bounds shrink by the fixed ratio
    ``exp(-beta*hbar*omega)``; the reported tail bound is that geometric
    majorant, so ``converged`` is a certificate rather than a guess.

    Unless the policy is met first, one closing step (``ladder_closing``)
    adds the levels from the first with ``x >= sqrt(46*beta*hbar*omega)``
    on, with its remainder as the tail bound, if it fits under
    ``max_terms``: ~1.4k terms instead of ~210k at ``beta = 1e-4``.

    When ``occupations`` is a list, each summed occupation is appended to
    it in level order, ``terms_used`` entries in all.  Such a call never
    closes the ladder, as the CLI reports require; its result differs from
    the closed one within both tail bounds and the rounding of the adds,
    and not at all where the sum stops before the closing.

    Raises
    ------
    ChemicalPotentialError
        For bosons when ``mu`` is not strictly below the ground level
        energy ``hbar*omega/2``.
    DomainError
        For bosons when the ground exponent ``beta*(hbar*omega/2 - mu)``
        underflows to 0.
    """
    if policy is None:
        policy = TruncationPolicy()
    check_bose_ground(t, p.quantum, kind, "ladder")
    kept = 0 if occupations is None else len(occupations)
    result = certified_sum(_ladder_steps(t, p, kind, policy, occupations), policy)
    if occupations is not None:
        del occupations[kept + result.terms_used :]
    return result


def check_bose_ground(t: Thermo, quantum: float, kind: StatisticsKind, what: str) -> None:
    """Refuse a Bose sum over levels from ``hbar*omega/2 = quantum/2`` up that has no occupation.

    ``mu`` must lie strictly below that ground level, and the ground
    exponent ``beta*(quantum/2 - mu)`` must stay ``> 0`` in floating point:
    every higher level's is at least as large.  ``what`` names the sum.
    """
    if kind is not StatisticsKind.BOSE:
        return
    ground = 0.5 * quantum
    if not t.mu < ground:
        raise ChemicalPotentialError(
            f"Bose {what} requires mu < hbar*omega/2 = {ground!r}, got {t.mu!r}"
        )
    x0 = t.beta * (ground - t.mu)
    if not x0 > 0.0:
        raise DomainError(
            f"Bose {what} ground exponent beta*(hbar*omega/2 - mu) underflows to {x0!r}: "
            f"beta = {t.beta!r} and hbar*omega/2 - mu = {ground - t.mu!r} are too small"
        )


def closing_start(y: float) -> float:
    """Exponent ``x_c`` where a ladder (the mean or a gas column) closes, or ``inf`` for none.

    ``x_c/y`` levels plus ~``46/x_c`` closing terms are least at
    ``x_c = sqrt(46*y)``; no closing below ``_CLOSING_MIN_Y`` or where ``46*y`` overflows.
    """
    return math.sqrt(_FUGACITY_DEPTH * y) if y > _CLOSING_MIN_Y else math.inf


def _ladder_steps(
    t: Thermo,
    p: OscillatorParams,
    kind: StatisticsKind,
    policy: TruncationPolicy,
    occupations: list[float] | None,
) -> Iterator[Block]:
    """Blocks of consecutive levels; level ``q + 1``'s exponent anchors step ``q``'s tail.

    The energies repeat ``mode_energy``'s expression without its index
    check, which the generated ``q`` always passes.  Each block's
    occupations are appended to ``occupations``, also those past the
    stopping level, which the caller cuts off.  Without ``occupations``
    the source ends with ``_closing_step`` at the first level with
    ``x >= closing_start(y)``, if there is one.
    """
    beta, mu, quantum = t.beta, t.mu, p.quantum
    fermi = kind is StatisticsKind.FERMI
    y = beta * quantum
    one_minus_ratio = -math.expm1(-y)  # no cancellation at tiny y
    x_c = math.inf if occupations is not None else closing_start(y)
    start = 0
    for size in block_sizes():
        levels = range(start, start + size + 1)
        start += size
        xs = [beta * (quantum * (q + 0.5) - mu) for q in levels]
        close = bisect_left(xs, x_c, 0, size) if x_c < math.inf else size
        closing = None
        if close < size:
            closing = _closing_step(xs[close], levels[close], y, kind, policy)
            if closing is None:
                x_c = math.inf  # no closing fits: the rest goes level by level
            else:
                size = close
                xs = xs[: size + 1]
        terms = occupation_numbers(xs[:-1], kind)
        if not one_minus_ratio:  # y = 0: no geometric tail bound
            tails = [math.inf] * size
        elif fermi:
            tails = [(math.exp(-x) if x > -700.0 else math.inf) / one_minus_ratio for x in xs[1:]]
        else:
            tails = [math.exp(-x) / -math.expm1(-x) / one_minus_ratio for x in xs[1:]]
        if occupations is not None:
            occupations.extend(terms)
        if closing is not None:
            value, count, remainder = closing
            yield terms + [value], [1] * size + [count], tails + [remainder]
            return
        yield terms, [1] * size, tails


def _closing_step(
    x: float, head: int, y: float, kind: StatisticsKind, policy: TruncationPolicy
) -> tuple[float, int, float] | None:
    """The ladder's closing at ``x`` after ``head`` levels, or ``None`` if it would pass
    ``max_terms`` or its remainder misses the policy (then the sum could not stop there)."""
    if head + closing_terms(x, policy.rel_tol) > policy.max_terms:
        return None
    closing = ladder_closing(x, 1.0, 0.0, y, kind, policy.rel_tol)
    return closing if policy.satisfied(closing[0], closing[2]) else None


def closing_terms(x: float, rel_tol: float) -> int:
    """Fugacity terms ``J = max(1, ceil(D/x))`` a closing at ``x`` keeps (see ``ladder_closing``).

    ``D = max(46, log(2/c) - log(1 - exp(-x)))`` with ``c = min(2**-64, rel_tol)``.
    """
    tol = min(2.0**-64, rel_tol)
    depth = max(_FUGACITY_DEPTH, math.log(2.0) - math.log(tol) - math.log(-math.expm1(-x))) / x
    return math.ceil(depth) if depth > 1.0 else 1  # also at x = inf or nan


def ladder_closing(
    x: float, w: float, slope: float, y: float, kind: StatisticsKind, rel_tol: float
) -> tuple[float, int, float]:
    """``sum_{i >= 0} (w + slope*i) * n(x + i*y)`` for ``x > 0``: value, terms, remainder.

    For ``x > 0`` the occupation is its fugacity series
    ``n(x) = sum_{j >= 1} s^(j+1) exp(-j*x)``, ``s = 1`` for bosons and
    ``s = -1`` for fermions, and every sum over ``i`` is geometric:

        sum_i (w + slope*i) n(x + i*y) = sum_{j >= 1} s^(j+1) T_j,
        T_j = exp(-j*x) * [w/(1 - z_j) + slope*z_j/(1 - z_j)^2],  z_j = exp(-j*y).

    The value is the ``math.fsum`` of the first ``J = closing_terms(x, rel_tol)``
    terms, in pieces of at most ``_MAX_BLOCK``, with ``1 - z_j`` taken as
    ``-expm1(-j*y)``.  For ``w, slope >= 0`` the bracket falls with ``j``,
    so ``T_{j+1} <= exp(-x) T_j`` and the dropped terms add up to at most
    ``T_{J+1}/(1 - exp(-x))`` (bosons: positive, geometric) or ``T_{J+1}``
    (fermions: alternating); that remainder, rounded up by ``2**-48``, is
    returned.  The value is at least ``T_1`` (bosons) or
    ``T_1 - T_2 >= (1 - exp(-x)) T_1`` (fermions), so for both

        remainder / value <= exp(-J*x) / (1 - exp(-x)) <= c/2

    once ``J*x >= log(2/c) - log(1 - exp(-x))``, the rule of
    ``closing_terms``: below ``2**-64`` of the value, or ``rel_tol`` if
    smaller, with a factor 2 to spare for rounding.  Below ``x = 1`` that
    takes ~``log(1/(1 - exp(-x)))/x`` terms more than ``46/x``; from
    ``x = 1`` up, at ``rel_tol >= 2**-64``, ``J = ceil(46/x)``.
    """
    count = closing_terms(x, rel_tol)
    fermi = kind is StatisticsKind.FERMI
    pieces = (
        _fugacity_terms(j, min(j + _MAX_BLOCK, count + 1), x, w, slope, y, fermi)
        for j in range(1, count + 1, _MAX_BLOCK)
    )
    value = math.fsum(itertools.chain.from_iterable(pieces))
    remainder = _fugacity_terms(count + 1, count + 2, x, w, slope, y, False)[0]
    remainder *= 1.0 + 2.0**-48
    if not fermi:
        remainder /= -math.expm1(-x)
    return value, count, remainder


def _fugacity_terms(
    start: int, stop: int, x: float, w: float, slope: float, y: float, fermi: bool
) -> list[float]:
    """``s^(j+1) T_j`` for ``start <= j < stop``, ``start`` odd."""
    js = range(start, stop)
    terms = [
        math.exp(-j * x) * (w / om + slope * math.exp(-j * y) / om / om)
        for j, om in zip(js, [-math.expm1(-j * y) for j in js])
    ]
    if fermi:
        terms[1::2] = [-term for term in terms[1::2]]
    return terms


@dataclass(frozen=True)
class ThresholdReport:
    """Pointwise agreement of occupation validity with the access threshold."""

    agreed: bool
    mismatches: tuple[tuple[int, int], ...]
    points: int


def bose_threshold_equivalence(
    mu: float,
    g: GasParams,
    k_max: int,
    q_max: int,
    beta: float = 1.0,
) -> ThresholdReport:
    """Check that the Bose occupation at ``(k, q)`` exists iff ``q > q_min(mu, k)``.

    For every grid point the exponent test ``beta*(E - mu) > 0`` (which is
    exactly when the occupation is defined, and then automatically
    non-negative) is compared with the strict threshold test.
    Disagreements are returned, not summarised away.  Far above threshold
    the occupation underflows to ``+0.0``, which still counts as a valid
    non-negative value.
    """
    if k_max < 0 or q_max < 0:
        raise DomainError("k_max and q_max must be non-negative")
    t = Thermo(beta, mu)
    mismatches: list[tuple[int, int]] = []
    points = 0
    for k in range(-int(k_max), int(k_max) + 1):
        threshold = q_min_gas(mu, k, g)
        for q in range(int(q_max) + 1):
            points += 1
            defined = t.beta * (joint_energy(k, q, g) - mu) > 0.0
            accessible = q > threshold
            agree = defined == accessible
            if defined:
                n = occupation_number(joint_energy(k, q, g), t, StatisticsKind.BOSE)
                agree = agree and n >= 0.0
            if not agree:
                mismatches.append((k, q))
    return ThresholdReport(not mismatches, tuple(mismatches), points)
