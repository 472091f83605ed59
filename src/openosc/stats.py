"""Grand-canonical occupation statistics for the oscillator systems.

Single-level means follow the standard quantum ideal-gas form

    n(eps) = 1 / (exp(beta * (eps - mu)) -+ 1),

with the upper sign for bosons and the lower for fermions.  The Bose
branch is only defined for ``beta * (eps - mu) > 0``; this module refuses
invalid arguments instead of returning a negative "occupation".

One kernel, ``occupation_numbers``, evaluates every occupation in the package,
one level's or a sum's block of them, and alone raises on a Bose ``x <= 0``
or warns below ``_TINY_X``.

One walker, ``_ladder_blocks``, sums the ladder mean and every gas column in
``series``: levels one by one, each with a geometric tail bound on the rest.  It
alone decides where and whether a ladder closes: at its first level with
``x >= closing_start(y)``, where ``ladder_closing`` adds the rest in closed form,
if that fits the term cap and meets the policy.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Generator, Sequence

from .errors import ChemicalPotentialError, DomainError
from .gas import GasParams, joint_energy, q_min_gas
from .spectra import OscillatorParams, check_integer, check_mu
from .summation import (
    _DEFAULT_POLICY, _MAX_BLOCK, Block, SeriesResult, TruncationPolicy, block_sizes,
    certified_sum,
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
    naming the line two calls up: the caller of ``occupation_number``, or the line that
    pulls a sum's blocks (in ``certified_sum``; in ``series._column_steps`` for a gas sum).
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
    on, with its remainder as the tail bound, if it fits under ``max_terms``
    and meets the policy: ~1.4k terms instead of ~210k at ``beta = 1e-4``.

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
        policy = _DEFAULT_POLICY
    check_bose_ground(t, p.quantum, kind, "ladder")
    kept = 0 if occupations is None else len(occupations)
    ladder = _ladder_blocks(t, p.quantum, 0.0, 0.0, 1.0, 1, kind, policy, occupations=occupations)
    result = certified_sum(ladder, policy)
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


def _ladder_blocks(
    t: Thermo, quantum: float, corner: float, alpha: float, gamma: float, mult: int,
    kind: StatisticsKind, policy: TruncationPolicy, used: int = 0, extra: float = 0.0,
    occupations: list[float] | None = None,
) -> Generator[Block, None, tuple[int, float]]:
    """Blocks of the ladder ``E_q = corner + quantum*(q + 1/2)``: level ``q`` adds
    ``mult*(alpha*E_q + gamma)*n(x_q)``, ``alpha >= 0``, and counts ``mult`` terms.

    Level ``q``'s tail is ``extra`` plus ``mult*c*exp(-x)/(1 - z)*(alpha*E + |gamma|
    + alpha*quantum*z/(1 - z))`` at ``x = x_{q+1}``, ``E = E_{q+1}``, ``z = exp(-y)``,
    ``c = 1`` (fermions) or ``1/(1 - exp(-x))`` (bosons): ``ladder_closing``'s first
    bracket.  The mean's unit weight and ``extra = 0`` skip the weighting.  Blocks'
    occupations are appended to ``occupations``; the caller cuts what it did not use.
    Without ``occupations`` the ladder closes at its first level with ``x >= x_c =
    closing_start(y)`` if the ``J`` closing terms fit under ``max_terms`` after the
    ``used`` terms and the head, and the remainder meets the policy; then it returns
    the terms used so far and ``mult`` times the remainder.
    """
    beta = t.beta
    shift = t.mu - corner  # level q's exponent is beta*(quantum*(q + 1/2) - shift)
    fermi = kind is StatisticsKind.FERMI
    plain = not alpha and gamma == 1.0 and mult == 1 and not extra
    y = beta * quantum
    om = -math.expm1(-y)  # 1 - z, without cancellation at tiny y
    # Past E the weights are at most alpha*E + lift.  No geometric tail bound exists
    # at y = 0 or where z/(1 - z) overflows (y ~ 1e-320); alpha = 0 skips that term.
    lift = abs(gamma) + (alpha and alpha * quantum * math.exp(-y) / om) if om else math.inf
    x_c = math.inf if occupations is not None else closing_start(y)
    edge = (x_c / beta + shift) / quantum  # about q + 1/2 where x reaches x_c
    start = 0
    for size in block_sizes():
        # End the block just past the level where x reaches x_c; should rounding put
        # that level one further, the next block holds it.
        if edge - start < size:
            size = int(max(edge - start, 0.0)) + 2
        levels = range(start, start + size + 1)
        start += size
        xs = [beta * (quantum * (q + 0.5) - shift) for q in levels]
        close = bisect_left(xs, x_c, 0, size) if x_c < math.inf else size
        closing = None
        if close < size:
            head = used + mult * levels[close]
            count = closing_terms(xs[close], policy.rel_tol)
            if head + count <= policy.max_terms:
                w = alpha * (corner + quantum * (levels[close] + 0.5)) + gamma
                value, remainder = ladder_closing(xs[close], w, alpha * quantum, y, kind, count)
                if policy.satisfied(mult * value, mult * remainder):
                    closing = mult * value, count, mult * remainder
                    size = close
                    levels, xs = levels[: size + 1], xs[: size + 1]
            if closing is None:
                x_c = edge = math.inf  # no closing fits: the rest goes level by level
        if size:
            ns = occupation_numbers(xs[:-1], kind)
            if occupations is not None:
                occupations.extend(ns)
            if lift == math.inf:
                tails = [math.inf] * size
            elif fermi:
                tails = [(math.exp(-x) if x > -700.0 else math.inf) / om for x in xs[1:]]
            else:
                tails = [math.exp(-x) / -math.expm1(-x) / om for x in xs[1:]]
            if not plain:  # each energy weights its level's term and the tail before it
                es = [corner + quantum * (q + 0.5) for q in levels] if alpha else [0.0] * len(xs)
                ns = [mult * (alpha * e + gamma) * n for e, n in zip(es, ns)]
                tails = [extra + mult * tail * (alpha * e + lift) for e, tail in zip(es[1:], tails)]
        else:  # a gas column closes at its first level
            ns = tails = []
        if closing is not None:
            value, count, remainder = closing
            yield ns + [value], [mult] * size + [count], tails + [extra + remainder]
            return head + count, remainder
        yield ns, [mult] * size, tails


def closing_terms(x: float, rel_tol: float) -> int:
    """Fugacity terms ``J = max(1, ceil(D/x))`` a closing at ``x`` keeps (see ``ladder_closing``).

    ``D = max(46, log(2/c) - log(1 - exp(-x)))`` with ``c = min(2**-64, rel_tol)``.
    """
    tol = min(2.0**-64, rel_tol)
    depth = max(_FUGACITY_DEPTH, math.log(2.0) - math.log(tol) - math.log(-math.expm1(-x))) / x
    return math.ceil(depth) if depth > 1.0 else 1  # also at x = inf or nan


def ladder_closing(
    x: float, w: float, slope: float, y: float, kind: StatisticsKind, count: int
) -> tuple[float, float]:
    """``sum_{i >= 0} (w + slope*i) * n(x + i*y)`` for ``x > 0``: value and remainder.

    For ``x > 0`` the occupation is its fugacity series
    ``n(x) = sum_{j >= 1} s^(j+1) exp(-j*x)``, ``s = 1`` for bosons and
    ``s = -1`` for fermions, and every sum over ``i`` is geometric:

        sum_i (w + slope*i) n(x + i*y) = sum_{j >= 1} s^(j+1) T_j,
        T_j = exp(-j*x) * [w/(1 - z_j) + slope*z_j/(1 - z_j)^2],  z_j = exp(-j*y).

    The value is the ``math.fsum`` of the first ``J = count`` terms, in
    pieces of at most ``_MAX_BLOCK``, with ``1 - z_j`` taken as
    ``-expm1(-j*y)``.  For ``w, slope >= 0`` the bracket falls with ``j``,
    so ``T_{j+1} <= exp(-x) T_j`` and the dropped terms add up to at most
    ``T_{J+1}/(1 - exp(-x))`` (bosons: positive, geometric) or ``T_{J+1}``
    (fermions: alternating).  That remainder ``exp(-(J+1)*x) * F`` is raised
    by ``2**-52 * ((J+1)*x + 16)`` of itself, for the rounding of the exponent
    (over ``2**-48``: ``J*x >= 46``) and of ``F``, and by ``F + 4`` least
    subnormals, for one that underflows.  The value is at least ``T_1``
    (bosons) or ``T_1 - T_2 >= (1 - exp(-x)) T_1`` (fermions), so for both

        remainder / value <= exp(-J*x) / (1 - exp(-x)) <= c/2

    once ``J*x >= log(2/c) - log(1 - exp(-x))``, the rule of
    ``closing_terms``: below ``2**-64`` of the value, or ``rel_tol`` if
    smaller, with a factor 2 to spare for rounding.  Below ``x = 1`` that
    takes ~``log(1/(1 - exp(-x)))/x`` terms more than ``46/x``; from
    ``x = 1`` up, at ``rel_tol >= 2**-64``, ``J = ceil(46/x)``.
    """
    fermi = kind is StatisticsKind.FERMI
    pieces = (
        _fugacity_terms(j, min(j + _MAX_BLOCK, count + 1), x, w, slope, y, fermi)
        for j in range(1, count + 1, _MAX_BLOCK)
    )
    value = math.fsum(itertools.chain.from_iterable(pieces))
    j = count + 1
    om = -math.expm1(-j * y)  # T_j at x = 0, as _fugacity_terms writes it:
    f = w / om + (slope and slope * math.exp(-j * y) / om / om)
    f /= 1.0 if fermi else -math.expm1(-x)
    remainder = math.exp(-j * x) * f * (1.0 + 2.0**-52 * (j * x + 16.0))
    return value, remainder + (f + 4.0) * 2.0**-1074


def _fugacity_terms(
    start: int, stop: int, x: float, w: float, slope: float, y: float, fermi: bool
) -> list[float]:
    """``s^(j+1) T_j`` for ``start <= j < stop``, ``start`` odd."""
    terms = [  # om = 1 - exp(-j*y) is bound before the slope term reads it
        math.exp(-j * x)
        * (w / (om := -math.expm1(-j * y)) + (slope and slope * math.exp(-j * y) / om / om))
        for j in range(start, stop)
    ]
    if fermi:
        terms[1::2] = map(operator.neg, terms[1::2])
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
) -> ThresholdReport:
    """Check that the Bose occupation at ``(k, q)`` exists iff ``q > q_min(mu, k)``.

    For every grid point the test ``E - mu > 0``, which holds exactly when
    the occupation is defined at any ``beta``, is compared with the strict
    threshold test; a defined occupation, evaluated at ``beta = 1``, must
    also be non-negative.
    Disagreements are returned, not summarised away.  Far above threshold
    the occupation underflows to ``+0.0``, which still counts as a valid
    non-negative value.
    """
    k_max = check_integer("k_max", k_max)
    q_max = check_integer("q_max", q_max)
    t = Thermo(1.0, mu)
    mismatches: list[tuple[int, int]] = []
    points = 0
    for k in range(-k_max, k_max + 1):
        threshold = q_min_gas(mu, k, g)
        for q in range(q_max + 1):
            points += 1
            energy = joint_energy(k, q, g)
            defined = energy - mu > 0.0
            agree = defined == (q > threshold)
            if defined:
                agree = agree and occupation_number(energy, t, StatisticsKind.BOSE) >= 0.0
            if not agree:
                mismatches.append((k, q))
    return ThresholdReport(not mismatches, tuple(mismatches), points)
