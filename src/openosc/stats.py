"""Grand-canonical occupation statistics for the oscillator systems.

Single-level means follow the standard quantum ideal-gas form

    n(eps) = 1 / (exp(beta * (eps - mu)) -+ 1),

with the upper sign for bosons and the lower for fermions.  The Bose
branch is only defined for ``beta * (eps - mu) > 0``; this module refuses
invalid arguments instead of returning a negative "occupation".
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator

from .errors import ChemicalPotentialError, DomainError
from .gas import GasParams, joint_energy, q_min_gas, translational_energy
from .spectra import OscillatorParams
from .summation import SeriesResult, TruncationPolicy, certified_sum

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
    return certified_sum(_ladder_steps(t, p, kind, occupations), policy)


def _ladder_steps(
    t: Thermo, p: OscillatorParams, kind: StatisticsKind, occupations: list[float] | None
) -> Iterator[tuple[float, int, float]]:
    """One level per step; the next level's energy anchors the tail and is reused.

    The energies repeat ``mode_energy``'s expression without its index
    check, which the generated ``q`` always passes.
    """
    quantum = p.quantum
    one_minus_ratio = -math.expm1(-t.beta * quantum)  # no cancellation at tiny y
    energy = quantum * 0.5
    for q in itertools.count(1):
        term = occupation_number(energy, t, kind)
        if occupations is not None:
            occupations.append(term)
        energy = quantum * (q + 0.5)
        x_next = t.beta * (energy - t.mu)
        head = math.exp(-x_next) if x_next > -700.0 else math.inf
        if kind is StatisticsKind.BOSE:
            head /= -math.expm1(-x_next)
        yield term, 1, head / one_minus_ratio


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
