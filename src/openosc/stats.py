"""Grand-canonical occupation statistics for the oscillator systems.

Single-level means follow the standard quantum ideal-gas form

    n(eps) = 1 / (exp(beta * (eps - mu)) -+ 1),

with the upper sign for bosons and the lower for fermions.  The Bose
branch is only defined for ``beta * (eps - mu) > 0``; this module refuses
invalid arguments instead of returning a negative "occupation".
"""

from __future__ import annotations

import enum
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ChemicalPotentialError, DomainError
from .gas import GasParams, joint_energy, q_min_gas, translational_energy
from .spectra import OscillatorParams, check_mu
from .summation import Block, SeriesResult, TruncationPolicy, block_sizes, certified_sum

__all__ = [
    "StatisticsKind",
    "Thermo",
    "IdealBoseGasResult",
    "ThresholdReport",
    "occupation_number",
    "mean_particle_number",
    "ideal_bose_gas",
    "bose_threshold_equivalence",
]

# Above this exponent the direct denominator would lose the answer to
# cancellation or overflow; the exp(-x) rearrangement is exact there.
_LARGE_X = 30.0
# Below this the Bose mean exceeds ~1e12 and one ulp of x moves the result
# by a full unit; the caller gets a warning rather than silent garbage.
_TINY_X = 1e-12


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
    """Inverse temperature and chemical potential of the reservoir."""

    beta: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise DomainError(f"beta must be positive, got {self.beta!r}")
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
    x = t.beta * (energy - t.mu)
    if kind is StatisticsKind.FERMI:
        if x >= 0.0:
            z = math.exp(-x)
            return z / (1.0 + z)
        return 1.0 / (math.exp(x) + 1.0)
    if x <= 0.0:
        raise ChemicalPotentialError(
            f"Bose occupation undefined: beta*(energy - mu) = {x!r} <= 0"
        )
    if x < _TINY_X:
        # One constant message, so the default filter reports a long sum once.
        warnings.warn(
            f"Bose occupation at beta*(energy - mu) < {_TINY_X:g} exceeds ~1e12; "
            "the value is dominated by rounding of the exponent",
            RuntimeWarning,
            stacklevel=2,
        )
    if x > _LARGE_X:
        z = math.exp(-x)
        return z / (1.0 - z)
    return 1.0 / math.expm1(x)


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

    When ``occupations`` is a list, each summed occupation is appended to
    it in level order, ``terms_used`` entries in all; the result is the
    same either way.

    Raises
    ------
    ChemicalPotentialError
        For bosons when ``mu`` is not strictly below the ground level
        energy ``hbar*omega/2``.
    """
    if policy is None:
        policy = TruncationPolicy()
    if kind is StatisticsKind.BOSE and not t.mu < 0.5 * p.quantum:
        raise ChemicalPotentialError(
            f"Bose ladder requires mu < hbar*omega/2 = {0.5 * p.quantum!r}, got {t.mu!r}"
        )
    kept = 0 if occupations is None else len(occupations)
    result = certified_sum(_ladder_steps(t, p, kind, policy, occupations), policy)
    if occupations is not None:
        del occupations[kept + result.terms_used :]
    return result


def fast_occupations(xs: Sequence[float], kind: StatisticsKind) -> list[float] | None:
    """``occupation_number`` at the exponents ``xs``, same bits, in one comprehension.

    Returns ``None`` for bosons when some exponent is below ``_TINY_X``:
    that level warns or raises, so the caller goes through
    ``occupation_number`` level by level instead.
    """
    if kind is StatisticsKind.FERMI:
        return [
            1.0 / (math.exp(x) + 1.0) if x < 0.0 else (z := math.exp(-x)) / (1.0 + z)
            for x in xs
        ]
    if not min(xs) >= _TINY_X:
        return None
    return [1.0 / math.expm1(x) if x <= _LARGE_X else (z := math.exp(-x)) / (1.0 - z) for x in xs]


def ladder_floor(x0: float, y: float, kind: StatisticsKind) -> float:
    """Lower bound on a ladder mean once it is near its stop, or 0.0.

    ``x0`` is the ground level's exponent and ``y = beta*hbar*omega``.
    The occupation falls along the ladder, so the mean is at least its
    first term and at least ``(1/y) * integral_{x0}^inf n(x) dx``; half of
    the integral leaves room for the part beyond the stop.
    """
    try:
        if kind is StatisticsKind.FERMI:
            first = 1.0 / (math.exp(x0) + 1.0)
            integral = math.log1p(math.exp(-x0)) if x0 >= 0.0 else math.log1p(math.exp(x0)) - x0
        else:
            first = 1.0 / math.expm1(x0)
            integral = -math.log(-math.expm1(-x0))
        floor = max(first, 0.5 * integral / y)
    except (ArithmeticError, ValueError):
        return 0.0
    return floor if floor < math.inf else 0.0


def _ladder_stop(
    t: Thermo, p: OscillatorParams, kind: StatisticsKind, policy: TruncationPolicy
) -> int:
    """Levels a ladder mean is predicted to sum, from its own tail bound.

    Step ``q``'s tail is ``h(x_{q+1}) / (1 - exp(-y))`` with
    ``h(x) = exp(-x)`` (Fermi) or ``exp(-x) / (1 - exp(-x))`` (Bose),
    which falls with ``x``; against ``ladder_floor`` it meets the policy
    once ``x_{q+1}`` passes ``-log(c)`` or ``log1p(1/c)`` respectively,
    with ``c`` the policy's threshold times ``1 - exp(-y)``.
    """
    beta, mu, quantum = t.beta, t.mu, p.quantum
    try:
        floor = ladder_floor(beta * (quantum * 0.5 - mu), beta * quantum, kind)
        c = -math.expm1(-beta * quantum) * max(policy.rel_tol * floor, policy.abs_tol)
        x_stop = -math.log(c) if kind is StatisticsKind.FERMI else math.log1p(1.0 / c)
        levels = (x_stop / beta + mu) / quantum - 0.5
    except (ArithmeticError, ValueError):
        return policy.max_terms
    if not levels < policy.max_terms:  # also NaN
        return policy.max_terms
    # one level of slack for the rounding of the inversion
    return int(max(levels, 0.0)) + 2


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
    stopping level, which the caller cuts off.
    """
    beta, mu, quantum = t.beta, t.mu, p.quantum
    fermi = kind is StatisticsKind.FERMI
    one_minus_ratio = -math.expm1(-beta * quantum)  # no cancellation at tiny y
    start = 0
    for size in block_sizes(_ladder_stop(t, p, kind, policy)):
        levels = range(start, start + size + 1)
        start += size
        xs = [beta * (quantum * (q + 0.5) - mu) for q in levels]
        if fermi:
            # exp(-x) of a level is its occupation's z and the head of the tail before it
            heads = [math.exp(-x) if x > -700.0 else math.inf for x in xs]
            cut = bisect_left(xs, 0.0, 0, size)  # the levels before it have x < 0
            terms = [1.0 / (math.exp(x) + 1.0) for x in xs[:cut]]
            terms += [z / (1.0 + z) for z in heads[cut:size]]
            tails = [head / one_minus_ratio for head in heads[1:]]
        else:
            terms = fast_occupations(xs[:-1], kind)
            if terms is None:
                terms = [occupation_number(quantum * (q + 0.5), t, kind) for q in levels[:-1]]
            tails = [math.exp(-x) / -math.expm1(-x) / one_minus_ratio for x in xs[1:]]
        if occupations is not None:
            occupations.extend(terms)
        yield terms, [1] * size, tails


@dataclass(frozen=True)
class IdealBoseGasResult:
    """Log-partition function and per-mode means of the free Bose branch."""

    log_z: float
    occupations: dict[int, float]
    tail_bound: float  # bound on the log-partition weight beyond the k range
    converged: bool


def ideal_bose_gas(
    t: Thermo,
    g: GasParams,
    k_max: int,
    policy: TruncationPolicy | None = None,
) -> IdealBoseGasResult:
    """Ideal Bose gas on the translational branch over ``k in [-k_max, k_max]``.

    ``log Z = sum_k -log(1 - exp(-beta*(eps_k - mu)))`` over the given
    range, with mean occupations per ``k`` and a bound on the neglected
    ``|k| > k_max`` contribution.

    Raises
    ------
    ChemicalPotentialError
        If any ``k`` in the range (or the first one beyond it, which
        anchors the tail bound) has ``eps_k <= mu``.  The offending
        indices are named in the message.
    """
    if policy is None:
        policy = TruncationPolicy()
    if k_max < 0:
        raise DomainError(f"k_max must be non-negative, got {k_max!r}")
    k_max = int(k_max)
    offenders = [
        k
        for k in range(-k_max, k_max + 1)
        if not translational_energy(k, g) - t.mu > 0.0
    ]
    if offenders:
        raise ChemicalPotentialError(
            f"eps_k <= mu at k = {sorted(offenders, key=abs)}: "
            "the Bose branch requires eps_k - mu > 0 for every k"
        )
    a = g.translational_prefactor
    x_edge = t.beta * (a * (k_max + 1) ** 2 - t.mu)
    if not x_edge > 0.0:
        raise ChemicalPotentialError(
            f"eps_k <= mu at k = {k_max + 1}; enlarge k_max past the "
            "classical threshold so the tail bound applies"
        )
    log_z = 0.0
    occupations: dict[int, float] = {}
    for k in range(-k_max, k_max + 1):
        x = t.beta * (translational_energy(k, g) - t.mu)
        log_z += -math.log1p(-math.exp(-x))
        occupations[k] = occupation_number(
            translational_energy(k, g), t, StatisticsKind.BOSE
        )
    edge = math.exp(-x_edge)
    ratio = math.exp(-t.beta * a * (2 * k_max + 3))
    # Each dropped -log1p term is at most exp(-x_k)/(1 - edge), and the
    # exp(-x_k) decay beyond the range is at least geometric with `ratio`
    # because eps_k grows quadratically in |k|.
    tail = 2.0 * (edge / (1.0 - edge)) / (1.0 - ratio)
    return IdealBoseGasResult(log_z, occupations, tail, policy.satisfied(log_z, tail))


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
