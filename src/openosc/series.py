"""Certified evaluation of the equilibrium effective-energy series.

The central object is the reduced double series

    S(mu) = sum_{k in Z} sum_{q >= 0} (k^2 + q) / (C * exp(k^2 + q) -+ 1),

with ``C = exp(1/2 - mu)``, written in units where the translational
prefactor, ``hbar*omega`` and ``beta`` are all one.  Substituting
``r = k^2 + q`` collapses the grid onto integer shells: shell ``r``
holds ``2*floor(sqrt(r)) + 1`` identical terms, so

    S(mu) = sum_{r >= 0} (2*floor(sqrt(r)) + 1) * r / (C * exp(r) -+ 1).

Every adaptive sum below carries a closed-form tail bound built from
``sum_{r >= m} r^p x^r`` formulas, so a ``converged`` result certifies
its own truncation error.  ``reduced_series_bound`` gives the a-priori
analytic ceiling the numerics are checked against.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ChemicalPotentialError, DomainError
from .gas import GasParams
from .stats import StatisticsKind, Thermo, occupation_number
from .summation import (
    SeriesResult,
    TruncationPolicy,
    certified_sum,
    geom_tail0,
    geom_tail1,
    geom_tail2,
)

__all__ = [
    "reduced_series",
    "reduced_series_bound",
    "equilibrium_effective_energy",
    "equilibrium_particle_number",
    "quartic_reciprocal_tail",
    "CheckResult",
    "EstimateReport",
    "verify_series_estimates",
]

# Analytic ceiling at mu = 1/2 (where C = 1): 4*pi^4/3 + 16*pi^6/189 + 8*pi^8/315.
_BOUND_CONSTANT = (
    4.0 * math.pi**4 / 3.0
    + 16.0 * math.pi**6 / 189.0
    + 8.0 * math.pi**8 / 315.0
)


def _safe_exp(y: float) -> float:
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


# --- reduced series ----------------------------------------------------------


def reduced_series(
    mu: float,
    kind: StatisticsKind,
    policy: TruncationPolicy | None = None,
) -> SeriesResult:
    """Evaluate ``S(mu)`` by integer shells with a certified geometric tail.

    Terms in the dropped shells ``r > R`` obey
    ``(2*floor(sqrt(r)) + 1) * r <= 3 r^2`` and the denominator is at
    least ``C * exp(r) * D`` with ``D = 1`` for fermions and
    ``D = 1 - exp(-(R+1))/C`` for bosons, so the tail is bounded by
    ``3/(C*D) * sum_{r > R} r^2 exp(-r)`` in closed form.

    Raises
    ------
    ChemicalPotentialError
        For bosons when ``mu >= 1/2`` (the ``k = q = 0`` term of the
        underlying sum has no valid occupation there).
    DomainError
        When ``C`` is not a finite positive float (``|mu|`` beyond about
        709, or a NaN ``mu``); the tail bound divides by it.
    """
    if policy is None:
        policy = TruncationPolicy()
    if kind is StatisticsKind.BOSE and not mu < 0.5:
        raise ChemicalPotentialError(
            f"Bose reduced series requires mu < 1/2, got {mu!r}"
        )
    c = _safe_exp(0.5 - mu)
    if not 0.0 < c < math.inf:
        raise DomainError(
            f"exp(1/2 - mu) must be finite and positive, got {c!r} for mu = {mu!r}"
        )
    return certified_sum(_reduced_steps(mu, c, kind), policy)


def _reduced_steps(
    mu: float, c: float, kind: StatisticsKind
) -> Iterator[tuple[float, int, float]]:
    """One integer shell ``r`` per step, with ``c = exp(1/2 - mu)``."""
    t = Thermo(1.0, mu)
    x = math.exp(-1.0)
    bose = kind is StatisticsKind.BOSE
    for r in itertools.count():
        mult = 2 * math.isqrt(r) + 1
        d = 1.0 - math.exp(-(r + 1.0)) / c if bose else 1.0
        # occupation at energy r + 1/2 equals 1 / (C*exp(r) -+ 1) exactly
        term = mult * r * occupation_number(r + 0.5, t, kind)
        yield term, mult, 3.0 * geom_tail2(r + 1, x) / (c * d)


def reduced_series_bound(mu: float) -> float:
    """Closed-form ceiling ``exp(mu - 1/2) * (4pi^4/3 + 16pi^6/189 + 8pi^8/315)``.

    Valid for fermions at every ``mu``; the Bose reading additionally
    needs ``mu < 1/2`` for the series itself to exist.

    Raises
    ------
    DomainError
        When the ceiling is not a finite float (``mu`` above about 704).
    """
    ceiling = _safe_exp(mu - 0.5) * _BOUND_CONSTANT
    if not math.isfinite(ceiling):
        raise DomainError(f"reduced-series ceiling is not finite for mu = {mu!r}")
    return ceiling


# --- general-units shell summation ------------------------------------------
#
# In physical units the shell variable is u_k + q with u_k = eps_k/(hbar w).
# Since q is an integer, floor(u_k + q) = floor(u_k) + q, so shell m holds
# exactly one q per admissible k and every (k, q) lands in exactly one shell.


def _shell_sum(
    t: Thermo,
    g: GasParams,
    kind: StatisticsKind,
    policy: TruncationPolicy,
    alpha: float,
    gamma: float,
) -> SeriesResult:
    """Certified ``sum_{k,q} (alpha*E + gamma) * n_{k,q}``, one shell per step."""
    b = g.osc.quantum
    if kind is StatisticsKind.BOSE and not t.mu < 0.5 * b:
        raise ChemicalPotentialError(
            f"Bose gas requires mu < hbar*omega/2 = {0.5 * b!r}, got {t.mu!r}"
        )
    return certified_sum(_shell_steps(t, g, kind, alpha, gamma), policy)


def _shell_steps(
    t: Thermo,
    g: GasParams,
    kind: StatisticsKind,
    alpha: float,
    gamma: float,
) -> Iterator[tuple[float, int, float]]:
    b = g.osc.quantum
    a = g.translational_prefactor
    beta = t.beta
    x = math.exp(-beta * b)
    s = math.sqrt(b / a)
    boltz = _safe_exp(beta * t.mu)
    half = math.exp(-0.5 * beta * b)
    # Shell r holds at most 2s*sqrt(r + 1) + 1 <= s*r + 2s + 1 terms, each of
    # weight at most alpha*b*r + w0 with w0 = alpha*1.5*b + |gamma| and
    # occupation at most cstat*half*x^r, so the shells after m add up to at
    # most cstat*half*(aa*T2 + bb*T1 + cc*T0) with T_p = geom_tailp(m + 1, x).
    w0 = alpha * 1.5 * b + abs(gamma)
    aa = alpha * s * b
    bb = s * w0 + alpha * (2.0 * s + 1.0) * b
    cc = (2.0 * s + 1.0) * w0
    floors = [0]  # floor(u_k) for k = 0, 1, ...; grows as shells open up
    for m in itertools.count():
        while True:
            k = len(floors)
            fu = math.floor(a * k * k / b)
            if fu <= m:
                floors.append(fu)
            else:
                break
        subtotal = 0.0
        count = 0
        for k, fu in enumerate(floors):
            q = m - fu
            if q < 0:
                continue
            energy = a * k * k + b * (q + 0.5)
            mult = 1 if k == 0 else 2
            subtotal += mult * (alpha * energy + gamma) * occupation_number(energy, t, kind)
            count += mult
        if x == 1.0:  # exp(-beta*b) rounded to 1: no geometric tail; inf is a valid bound
            yield subtotal, count, math.inf
            continue
        if kind is StatisticsKind.FERMI:
            cstat = boltz
        else:
            # smallest energy beyond shell m anchors the Bose enhancement factor
            gap = b * (m + 1.5) - t.mu
            cstat = boltz / (1.0 - math.exp(-beta * gap))
        tail = (cstat * half) * (
            aa * geom_tail2(m + 1, x)
            + bb * geom_tail1(m + 1, x)
            + cc * geom_tail0(m + 1, x)
        )
        yield subtotal, count, tail


def equilibrium_effective_energy(
    t: Thermo,
    g: GasParams,
    kind: StatisticsKind,
    policy: TruncationPolicy | None = None,
    mu_shifted: bool = False,
) -> SeriesResult:
    """Mean energy ``sum_{k,q} [eps_k + hbar*omega*(q+1/2)] * n_{k,q}`` at equilibrium.

    With ``mu_shifted=True`` each term carries ``(E - mu)`` instead of
    ``E``, i.e. the grand-canonical effective weight.  Terms are summed
    in expanding shells of the scaled variable ``eps_k/(hbar*omega) + q``
    with symmetric ``+-k`` pairs taken together; the tail bound covers
    all unvisited shells.
    """
    gamma = -t.mu if mu_shifted else 0.0
    return _shell_sum(t, g, kind, policy or TruncationPolicy(), 1.0, gamma)


def equilibrium_particle_number(
    t: Thermo,
    g: GasParams,
    kind: StatisticsKind,
    policy: TruncationPolicy | None = None,
) -> SeriesResult:
    """Mean particle number ``sum_{k,q} n_{k,q}`` by the same shell scheme."""
    return _shell_sum(t, g, kind, policy or TruncationPolicy(), 0.0, 1.0)


# --- independent estimate checks --------------------------------------------


def quartic_reciprocal_tail(a: int) -> float:
    """Upper estimate of ``sum_{r >= a} r^-4`` by direct summation.

    Terms up to ``R = 4a + 1000`` are summed explicitly and the remainder
    is replaced by its integral majorant ``1/(3 R^3)``, so the result is
    an upper bound up to float rounding.  Deliberately self-contained: no
    special-function library stands between this number and the series it
    certifies.
    """
    if a != int(a) or int(a) < 1:
        raise DomainError(f"tail start must be a positive integer, got {a!r}")
    a = int(a)
    r_stop = 4 * a + 1000
    rs = np.arange(a, r_stop + 1, dtype=float)
    return float(np.sum(rs**-4.0)) + 1.0 / (3.0 * r_stop**3)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    bound: float
    detail: str = ""


@dataclass(frozen=True)
class EstimateReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


_ZETA_DENOMS = {4: 90, 6: 945, 8: 9450}

# pi to 50 decimals; the p = 8 remainder at R = 1000 is ~1.4e-22, far below
# double rounding of a sum of order one, so this comparison must run in
# extended precision to mean anything.
_PI_50 = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


def _zeta_partial_gap(p: int, terms: int) -> tuple[float, float]:
    """(|closed form - partial sum|, integral remainder bound) for sum r^-p."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        partial = sum(
            decimal.Decimal(1) / decimal.Decimal(r) ** p for r in range(1, terms + 1)
        )
        target = _PI_50**p / _ZETA_DENOMS[p]
        gap = abs(target - partial)
        bound = decimal.Decimal(1) / ((p - 1) * decimal.Decimal(terms) ** (p - 1))
    return float(gap), float(bound)


def verify_series_estimates(
    zeta_terms: int = 1000,
    k_max: int = 20,
    grid_step: float = 0.5,
    grid_max: float = 50.0,
) -> EstimateReport:
    """Re-derive the three estimate families the analytic ceiling rests on.

    1. Partial sums of ``sum r^-p`` for ``p = 4, 6, 8`` land within the
       integral remainder ``1/((p-1) R^(p-1))`` of ``pi^p/90``,
       ``pi^p/945`` and ``pi^p/9450`` respectively.
    2. ``sum_{r >= k^2} r^-4 <= (1/6) (2/k^6 + 6/k^8)`` for each ``k``.
    3. ``exp(r) >= r^5/120`` across the sampled grid.

    Each family reports its tightest case so a pass is inspectable.
    """
    if zeta_terms < 1 or k_max < 1 or grid_step <= 0.0 or grid_max < 0.0:
        raise DomainError("verification parameters must be positive")
    checks: list[CheckResult] = []

    for p in (4, 6, 8):
        gap, bound = _zeta_partial_gap(p, int(zeta_terms))
        checks.append(CheckResult(f"zeta-partial-p{p}", gap <= bound, gap, bound))

    tightest: tuple[int, float, float, float] | None = None
    all_ok = True
    for k in range(1, int(k_max) + 1):
        upper = quartic_reciprocal_tail(k * k)
        bound = (2.0 / k**6 + 6.0 / k**8) / 6.0
        all_ok = all_ok and upper <= bound
        slack = bound - upper
        if tightest is None or slack < tightest[1]:
            tightest = (k, slack, upper, bound)
    assert tightest is not None
    checks.append(
        CheckResult(
            "polygamma-tail",
            all_ok,
            tightest[2],
            tightest[3],
            f"tightest at k={tightest[0]}",
        )
    )

    steps = int(round(grid_max / grid_step))
    min_margin = math.inf
    min_at = 0.0
    ok = True
    for i in range(steps + 1):
        r = i * grid_step
        margin = math.exp(r) - r**5 / 120.0
        ok = ok and margin >= 0.0
        if margin < min_margin:
            min_margin = margin
            min_at = r
    checks.append(
        CheckResult("exp-minorant", ok, min_margin, 0.0, f"tightest at r={min_at}")
    )
    return EstimateReport(tuple(checks))
