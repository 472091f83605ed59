"""Certified evaluation of the equilibrium effective-energy series.

The central object is the reduced double series

    S(mu) = sum_{k in Z} sum_{q >= 0} (k^2 + q) / (C * exp(k^2 + q) -+ 1),

with ``C = exp(1/2 - mu)``, written in units where the translational
prefactor, ``hbar*omega`` and ``beta`` are all one.  Substituting
``r = k^2 + q`` collapses the grid onto integer shells: shell ``r``
holds ``2*floor(sqrt(r)) + 1`` identical terms, so

    S(mu) = sum_{r >= 0} (2*floor(sqrt(r)) + 1) * r / (C * exp(r) -+ 1).

The gas sums in physical units go column by column: column ``+-k`` is a
ladder in ``q``, summed by the ladder mean's walker (``stats._ladder_blocks``):
level by level while ``x = beta*(E - mu)`` is below ``stats.closing_start``,
then closed by the fugacity expansion ``n(x) = sum_j (+-1)^(j+1) exp(-j*x)``,
whose sums over ``q`` are geometric (``stats.ladder_closing``).

Every adaptive sum below carries a closed-form tail bound, so a
``converged`` result certifies its own truncation error: the reduced
series through ``sum_{r >= m} r^2 x^r``, a gas sum through the closed
columns' remainders (under ``2**-64`` of each, or ``rel_tol`` if smaller), a
bound on all later columns (``_columns_after``) and a geometric bound on the
rest of the column it is in, so it may stop inside a column.  Neither covers
the rounding of the driver's plain adds, at most ``(terms_used + 16) * 2**-53 *
|value|`` for positive terms: ~100 times less for a gas sum of ~1.7k terms
(``beta = 0.011``) than for the ~175k of the diagonal shells it replaced.
``reduced_series_bound`` gives the a-priori analytic ceiling the numerics are
checked against.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ChemicalPotentialError, DomainError
from .gas import GasParams
from .spectra import check_integer
from .stats import StatisticsKind, Thermo, _ladder_blocks, check_bose_ground, occupation_numbers
from .summation import (
    _DEFAULT_POLICY, Block, SeriesResult, TruncationPolicy, block_sizes, certified_sum,
    geom_tails2,
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
        policy = _DEFAULT_POLICY
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


def _reduced_steps(mu: float, c: float, kind: StatisticsKind) -> Iterator[Block]:
    """Blocks of integer shells ``r``, with ``c = exp(1/2 - mu)``.

    The occupation at energy ``r + 1/2`` equals ``1 / (C*exp(r) -+ 1)``
    exactly; its exponent is ``(r + 1/2) - mu`` since ``beta = 1``.
    """
    bose = kind is StatisticsKind.BOSE
    start = 0
    for size in block_sizes():
        mults, weights, energies, decays, tails = _reduced_shells(start, start + size)
        start += size
        occupations = occupation_numbers([e - mu for e in energies], kind)
        terms = [w * n for w, n in zip(weights, occupations)]
        if bose:  # the denominator's floor D = 1 - exp(-(r + 1))/C
            yield terms, mults, [tail / (c * (1.0 - z / c)) for tail, z in zip(tails, decays)]
        else:
            yield terms, mults, [tail / c for tail in tails]


@functools.lru_cache(maxsize=16)
def _reduced_shells(start: int, stop: int) -> tuple[tuple, ...]:
    """What the shells ``start <= r < stop`` share at every ``mu``: their multiplicities
    ``m = 2*floor(sqrt(r)) + 1``, integer weights ``m*r``, energies ``r + 1/2``, decays
    ``exp(-(r + 1))`` and tails ``3*T_2(r + 1, exp(-1))``.

    Most sums take the same first block.  ``m*r*n``, ``(r + 1/2) - mu`` and
    ``3*T_2/(C*D)`` group as written, so these products keep every bit.
    """
    shells = range(start, stop)
    mults = tuple([2 * math.isqrt(r) + 1 for r in shells])
    return (
        mults,
        tuple([m * r for m, r in zip(mults, shells)]),
        tuple([r + 0.5 for r in shells]),
        tuple([math.exp(-(r + 1.0)) for r in shells]),
        tuple([3.0 * t2 for t2 in geom_tails2(range(start + 1, stop + 1), math.exp(-1.0))]),
    )


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


# --- general-units gas sums, column by column --------------------------------
#
# Column k of the (k, q) grid is a ladder in q, with exponents x_0 + q*y for
# y = beta*hbar*omega; columns k and -k are equal and summed as one.


def _shell_sum(
    t: Thermo,
    g: GasParams,
    kind: StatisticsKind,
    policy: TruncationPolicy,
    alpha: float,
    gamma: float,
) -> SeriesResult:
    """Certified ``sum_{k,q} (alpha*E + gamma) * n_{k,q}``, one column ``+-k`` at a time."""
    check_bose_ground(t, g.osc.quantum, kind, "gas")
    if not math.isfinite(gamma):  # E - mu at an infinite mu: inf * 0 on every level
        raise DomainError(f"the weight E - mu is not finite at mu = {t.mu!r}")
    return certified_sum(_column_steps(t, g, kind, alpha, gamma, policy), policy)


def _column_steps(
    t: Thermo, g: GasParams, kind: StatisticsKind, alpha: float, gamma: float,
    policy: TruncationPolicy,
) -> Iterator[Block]:
    """Blocks of columns ``k = 0, 1, ...``, each one ladder of ``stats._ladder_blocks``.

    Column ``k``'s tails add the remainders of the columns closed before it and
    ``_columns_after``, the bound on later columns.
    """
    b, a = g.osc.quantum, g.translational_prefactor
    used, remainders = 0, 0.0
    for k in itertools.count():
        extra = remainders + _columns_after(k, t, g, kind, alpha, gamma)
        used, remainder = yield from _ladder_blocks(
            t, b, a * k * k, alpha, gamma, 2 if k else 1, kind, policy, used, extra
        )
        remainders += remainder


def _columns_after(
    k: int, t: Thermo, g: GasParams, kind: StatisticsKind, alpha: float, gamma: float
) -> float:
    """Bound on ``|sum_{|k'| > k} sum_q (alpha*E + gamma) * n_{k',q}|`` from one exponent.

    Let ``K = k + 1``, ``E_K = eps_K + hbar*omega/2`` and
    ``X = beta*(E_K - mu)``.  Every level past column ``k`` has
    ``n <= c*exp(-x)``, with ``c = 1`` (fermions, any ``x``) or
    ``1/(1 - exp(-X))`` (bosons, ``x >= X > 0``), and a weight of at most
    ``alpha*E + |gamma|``.  Column ``K + i`` lies ``a*d_i`` above column
    ``K``, ``d_i = 2Ki + i^2 >= (2K + 1)i``, so with
    ``r = exp(-beta*a*(2K + 1))`` and ``z = exp(-y)`` those columns add up to
    at most

        2c exp(-X) sum_{i >= 0} r^i (A0 + A1 d_i) = 2c exp(-X) [A0 T_0 + A1 (2K T_1 + T_2)],

    with ``A0 = (alpha*E_K + |gamma|)/(1 - z) + alpha*hbar*omega*z/(1 - z)^2``,
    ``A1 = alpha*a/(1 - z)`` and ``T_p = sum_i i^p r^i`` in closed form
    (``1/(1-r)``, ``r/(1-r)^2``, ``r(1+r)/(1-r)^3``).  ``X`` is lowered by
    ``2**-48 * (|X| + 2*beta*E_K)``, more than its own rounding error, and
    the bound raised by ``2**-48`` of itself, more than the other factors'.
    """
    b = g.osc.quantum
    a = g.translational_prefactor
    beta = t.beta
    big = k + 1
    edge = a * big * big + 0.5 * b
    x = beta * (edge - t.mu)
    if x < math.inf:
        x -= 2.0**-48 * (abs(x) + 2.0 * beta * edge)
    step = beta * a * (2 * big + 1)
    om_r = -math.expm1(-step)
    if not om_r > 0.0 or (kind is StatisticsKind.BOSE and not x > 0.0):
        return math.inf
    r = math.exp(-step)
    om = -math.expm1(-beta * b)
    c = 1.0 if kind is StatisticsKind.FERMI else 1.0 / -math.expm1(-x)
    a0 = (alpha * edge + abs(gamma)) / om + alpha * b * math.exp(-beta * b) / om / om
    columns = a0 / om_r + alpha * a / om * r * (2 * big + (1.0 + r) / om_r) / om_r / om_r
    return 2.0 * c * _safe_exp(-x) * columns * (1.0 + 2.0**-48)


def equilibrium_effective_energy(
    t: Thermo,
    g: GasParams,
    kind: StatisticsKind,
    policy: TruncationPolicy | None = None,
    mu_shifted: bool = False,
) -> SeriesResult:
    """Mean energy ``sum_{k,q} [eps_k + hbar*omega*(q+1/2)] * n_{k,q}`` at equilibrium.

    With ``mu_shifted=True`` each term carries ``(E - mu)`` instead of
    ``E``, i.e. the grand-canonical effective weight.  Columns ``+-k``
    are summed in turn, ``k = 0, 1, ...``, each a ladder of the mean's walker:
    the levels with ``beta*(E - mu) < closing_start(beta*hbar*omega)`` one by
    one, the rest by ``ladder_closing`` if that fits the policy.  The tail
    bound is the closings' remainders, ``_columns_after``'s bound on every
    column not yet summed and a geometric bound on the current column's
    remaining levels.  An infinite ``mu`` with ``mu_shifted`` raises ``DomainError``.
    """
    gamma = -t.mu if mu_shifted else 0.0
    return _shell_sum(t, g, kind, policy or _DEFAULT_POLICY, 1.0, gamma)


def equilibrium_particle_number(
    t: Thermo,
    g: GasParams,
    kind: StatisticsKind,
    policy: TruncationPolicy | None = None,
) -> SeriesResult:
    """Mean particle number ``sum_{k,q} n_{k,q}`` by the same column scheme."""
    return _shell_sum(t, g, kind, policy or _DEFAULT_POLICY, 0.0, 1.0)


# --- independent estimate checks --------------------------------------------


def quartic_reciprocal_tail(a: int) -> float:
    """Upper estimate of ``sum_{r >= a} r^-4`` by direct summation.

    Terms up to ``R = 4a + 1000`` are summed explicitly and the remainder
    is replaced by its integral majorant ``1/(3 R^3)``, so the result is
    an upper bound up to float rounding.  Deliberately self-contained: no
    special-function library stands between this number and the series it
    certifies.
    """
    a = check_integer("a", a, 1)
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


def verify_series_estimates() -> EstimateReport:
    """Re-derive the three estimate families the analytic ceiling rests on.

    1. Partial sums of ``sum r^-p`` for ``p = 4, 6, 8`` land within the
       integral remainder ``1/((p-1) R^(p-1))`` of ``pi^p/90``,
       ``pi^p/945`` and ``pi^p/9450`` respectively.
    2. ``sum_{r >= k^2} r^-4 <= (1/6) (2/k^6 + 6/k^8)`` for each ``k``.
    3. ``exp(r) >= r^5/120`` across the sampled grid.

    The sizes are the paper's: ``R = 1000`` terms, ``k = 1..20`` and the
    grid ``r = 0, 0.5, ..., 50`` (101 points).  Each family reports its
    tightest case so a pass is inspectable.
    """
    checks: list[CheckResult] = []

    for p in (4, 6, 8):
        gap, bound = _zeta_partial_gap(p, 1000)
        checks.append(CheckResult(f"zeta-partial-p{p}", gap <= bound, gap, bound))

    tightest: tuple[int, float, float, float] | None = None
    all_ok = True
    for k in range(1, 21):
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

    min_margin = math.inf
    min_at = 0.0
    ok = True
    for i in range(101):
        r = i * 0.5
        margin = math.exp(r) - r**5 / 120.0
        ok = ok and margin >= 0.0
        if margin < min_margin:
            min_margin = margin
            min_at = r
    checks.append(
        CheckResult("exp-minorant", ok, min_margin, 0.0, f"tightest at r={min_at}")
    )
    return EstimateReport(tuple(checks))
