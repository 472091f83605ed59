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
import functools
import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ChemicalPotentialError, DomainError
from .gas import GasParams
from .stats import StatisticsKind, Thermo, fast_occupations, ladder_floor, occupation_number
from .summation import (
    Block,
    SeriesResult,
    TruncationPolicy,
    block_sizes,
    certified_sum,
    geom_tails0,
    geom_tails1,
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
    return certified_sum(_reduced_steps(mu, c, kind, policy), policy)


def _reduced_stop(t: Thermo, c: float, kind: StatisticsKind, policy: TruncationPolicy) -> int:
    """Shells the reduced series is predicted to sum, from its own tail bound.

    With ``x = exp(-1)``, ``T_2(m, x) <= (m + 1)^2 x^m / (1 - x)^3``
    and ``d`` is smallest at ``r = 0``, so shell ``r``'s tail is at most
    ``K (m + 1)^2 exp(-m)`` with ``m = r + 1``.  That meets the policy
    against the largest term (the sum is at least that) once
    ``m - 2 log(m + 1) >= L``, solved by fixed-point steps from ``m = L``.
    """
    x = math.exp(-1.0)
    d = 1.0 - x / c if kind is StatisticsKind.BOSE else 1.0
    r = int(t.mu) if t.mu > 1.0 else 1  # the terms peak near shell mu - 1/2
    largest = (2 * math.isqrt(r) + 1) * r * occupation_number(r + 0.5, t, kind)
    try:
        threshold = max(policy.rel_tol * largest, policy.abs_tol)
        level = math.log(3.0 / ((1.0 - x) ** 3 * c * d * threshold))
        m = max(level, 1.0)
        for _ in range(4):
            m = max(level + 2.0 * math.log(m + 1.0), 1.0)
    except (ArithmeticError, ValueError):
        return policy.max_terms
    # one shell of slack for the rounding of the inversion
    return int(m) + 2 if m < policy.max_terms else policy.max_terms


def _reduced_steps(
    mu: float, c: float, kind: StatisticsKind, policy: TruncationPolicy
) -> Iterator[Block]:
    """Blocks of integer shells ``r``, with ``c = exp(1/2 - mu)``.

    The occupation at energy ``r + 1/2`` equals ``1 / (C*exp(r) -+ 1)``
    exactly; its exponent is ``(r + 1/2) - mu`` since ``beta = 1``.
    """
    t = Thermo(1.0, mu)
    bose = kind is StatisticsKind.BOSE
    start = 0
    for size in block_sizes(_reduced_stop(t, c, kind, policy)):
        shells = range(start, start + size)
        start += size
        mults, t2s = _reduced_shells(shells.start, shells.stop)
        occupations = fast_occupations([r + 0.5 - mu for r in shells], kind)
        if occupations is None:
            occupations = [occupation_number(r + 0.5, t, kind) for r in shells]
        terms = [m * r * n for m, r, n in zip(mults, shells, occupations)]
        ds = [1.0 - math.exp(-(r + 1.0)) / c for r in shells] if bose else [1.0] * size
        yield terms, mults, [3.0 * t2 / (c * d) for t2, d in zip(t2s, ds)]


@functools.lru_cache(maxsize=16)
def _reduced_shells(start: int, stop: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Multiplicities ``2*floor(sqrt(r)) + 1`` and tails ``T_2(r + 1, exp(-1))`` of shells ``r``.

    Neither depends on ``mu``, and most sums take the same first block.
    """
    mults = tuple([2 * math.isqrt(r) + 1 for r in range(start, stop)])
    return mults, tuple(geom_tails2(range(start + 1, stop + 1), math.exp(-1.0)))


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
    return certified_sum(_shell_steps(t, g, kind, policy, alpha, gamma), policy)


def _shell_steps(
    t: Thermo,
    g: GasParams,
    kind: StatisticsKind,
    policy: TruncationPolicy,
    alpha: float,
    gamma: float,
) -> Iterator[Block]:
    """Blocks of shells ``m``.

    A shell's subtotal is a left fold from 0.0 over ``k = 0, 1, ...``
    (``functools.reduce``, not ``sum``, which compensates from Python 3.12).
    """
    b = g.osc.quantum
    a = g.translational_prefactor
    beta, mu = t.beta, t.mu
    x = math.exp(-beta * b)
    s = math.sqrt(b / a)
    boltz = _safe_exp(beta * mu)
    half = math.exp(-0.5 * beta * b)
    # Shell r holds at most 2s*sqrt(r + 1) + 1 <= s*r + 2s + 1 terms, each of
    # weight at most alpha*b*r + w0 with w0 = alpha*1.5*b + |gamma| and
    # occupation at most cstat*half*x^r, so the shells after m add up to at
    # most cstat*half*(aa*T2 + bb*T1 + cc*T0) with T_p = geom_tails<p> at m + 1.
    w0 = alpha * 1.5 * b + abs(gamma)
    aa = alpha * s * b
    bb = s * w0 + alpha * (2.0 * s + 1.0) * b
    cc = (2.0 * s + 1.0) * w0

    def tails_at(shells: range) -> list[float]:
        if x == 1.0:  # exp(-beta*b) rounded to 1: no geometric tail; inf is a valid bound
            return [math.inf] * len(shells)
        if kind is StatisticsKind.FERMI:
            cstats = [boltz] * len(shells)
        else:
            # smallest energy beyond shell m anchors the Bose enhancement factor
            cstats = [boltz / (1.0 - math.exp(-beta * (b * (m + 1.5) - mu))) for m in shells]
        ms = range(shells.start + 1, shells.stop + 1)
        return [
            (cstat * half) * (aa * t2 + bb * t1 + cc * t0)
            for cstat, t2, t1, t0 in zip(
                cstats, geom_tails2(ms, x), geom_tails1(ms, x), geom_tails0(ms, x)
            )
        ]

    # Per k = 0, 1, ...: floor(u_k), the corner energy a*k*k, and the number
    # of (k, q) cells the k stands for (k and -k); grown as shells open up.
    # Since q is an integer, shell m holds q = m - floor(u_k) for every k
    # with floor(u_k) <= m, and the floors grow with k.
    floors = [0]
    corners = [0.0]
    mults = [1]
    start = 0
    threshold = max(policy.rel_tol * _shell_floor(t, g, kind, alpha, gamma), policy.abs_tol)
    stop = _first_met(lambda m: tails_at(range(m, m + 1))[0], threshold, policy.max_terms - 1)
    # shell m evaluates one cell per k <= sqrt(m*b/a)
    widest = math.isqrt(int(min(stop * b / a, 1e18))) + 1
    for size in block_sizes(stop + 1, widest):
        shells = range(start, start + size)
        start += size
        while (fu := math.floor(a * len(floors) * len(floors) / b)) < start:
            corners.append(a * len(floors) * len(floors))
            floors.append(fu)
            mults.append(2)
        widths = [bisect_right(floors, m) for m in shells]
        energies = [
            corner + b * (m - fu + 0.5)
            for m, width in zip(shells, widths)
            for corner, fu in zip(corners[:width], floors)
        ]
        occupations = fast_occupations([beta * (e - mu) for e in energies], kind)
        if occupations is None:
            occupations = [occupation_number(e, t, kind) for e in energies]
        cells = [mult for width in widths for mult in mults[:width]]
        weighted = [
            mult * (alpha * e + gamma) * n for mult, e, n in zip(cells, energies, occupations)
        ]
        ends = list(itertools.accumulate(widths))
        subtotals = [
            functools.reduce(operator.add, weighted[end - width : end], 0.0)
            for end, width in zip(ends, widths)
        ]
        yield subtotals, [2 * width - 1 for width in widths], tails_at(shells)


def _shell_floor(
    t: Thermo, g: GasParams, kind: StatisticsKind, alpha: float, gamma: float
) -> float:
    """Lower bound on a shell sum once it is near its stop, from its first columns.

    Column ``k`` of the ``(k, q)`` grid is a ladder whose weights grow
    along ``q`` from their value at ``q = 0``, so that weight times the
    column's ``ladder_floor`` bounds the column from below.  Columns with
    a weight that is not positive are left out, and the count stops at
    64 columns or once a column adds under 0.1 % of the total.
    """
    b = g.osc.quantum
    a = g.translational_prefactor
    total = 0.0
    for k in range(64):
        bottom = a * k * k + 0.5 * b
        weight = alpha * bottom + gamma
        if not weight > 0.0:
            continue
        floor = ladder_floor(t.beta * (bottom - t.mu), t.beta * b, kind)
        column = (2 if k else 1) * weight * floor
        total += column
        if not column > 1e-3 * total:
            break
    return total


def _first_met(tail_at: Callable[[int], float], threshold: float, last: int) -> int:
    """First ``m <= last`` with ``tail_at(m) <= threshold`` (else ``last``), for a falling tail.

    Doubling steps find a bracket, bisection the shell: about
    ``2*log2(m)`` evaluations of the tail bound in all.
    """
    lo, hi = -1, 0  # tail_at(lo) exceeds the threshold; hi is the next probe
    while not tail_at(hi) <= threshold:
        if hi >= last:
            return last
        lo, hi = hi, min(2 * hi + 1, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_at(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


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
