"""Tests for the reduced series, its analytic ceiling, and the shell sums.

The brute-force oracle below evaluates the double sum over a rectangular
(k, q) window directly, with no shell bookkeeping, and was used to freeze
the reference values before the adaptive implementation existed.
"""

import decimal
import functools
import itertools
import math

import pytest

from openosc import (
    ChemicalPotentialError,
    DomainError,
    GasParams,
    OscillatorParams,
    StatisticsKind,
    Thermo,
    TruncationPolicy,
    equilibrium_effective_energy,
    equilibrium_particle_number,
    mean_particle_number,
    quartic_reciprocal_tail,
    reduced_series,
    reduced_series_bound,
    verify_series_estimates,
)
from openosc.series import _columns_after, _zeta_partial_gap
from openosc.stats import closing_terms, ladder_closing
from openosc.summation import certified_sum, geom_tails2

RG = GasParams.reduced()
BOSE = StatisticsKind.BOSE
FERMI = StatisticsKind.FERMI


def brute_reduced_series(mu, kind, k_max=30, q_max=800):
    """Rectangular double sum over (k, q); no shells, no reindexing."""
    sign = -1.0 if kind is BOSE else 1.0
    c = math.exp(0.5 - mu)
    total = 0.0
    for k in range(-k_max, k_max + 1):
        for q in range(q_max + 1):
            r = k * k + q
            if r > 700:
                break
            total += r / (c * math.exp(r) + sign)
    return total


@pytest.mark.parametrize("m", [0, 1, 2, 5, 17])
@pytest.mark.parametrize("x", [math.exp(-1.0), 0.3])
def test_geometric_tail_closed_forms(m, x):
    direct = 0.0
    r = m
    while True:
        term = r**2 * x**r
        direct += term
        r += 1
        if term < 1e-22 and r > m + 5:
            break
    assert geom_tails2([m], x) == [pytest.approx(direct, rel=1e-12, abs=1e-15)]


# Values frozen from brute_reduced_series at generous cutoffs.
FROZEN_S = {
    (BOSE, -2.0): 0.25259860934315087,
    (BOSE, -1.0): 0.7055620645580514,
    (BOSE, 0.0): 2.0863336313469034,
    (BOSE, 0.4): 3.3694515151814506,
    (FERMI, -1.0): 0.6508830047783457,
    (FERMI, 0.0): 1.668193460705131,
    (FERMI, 1.0): 3.9891701495294107,
    (FERMI, 2.0): 8.615222646393846,
}


@pytest.mark.parametrize("kind,mu", sorted(FROZEN_S, key=repr))
def test_reduced_series_matches_frozen_oracle(kind, mu):
    result = reduced_series(mu, kind)
    assert result.converged
    assert abs(result.value - FROZEN_S[(kind, mu)]) <= result.tail_bound + 1e-11


@pytest.mark.parametrize("kind,mu", sorted(FROZEN_S, key=repr))
def test_reduced_series_matches_live_rectangular_sum(kind, mu):
    result = reduced_series(mu, kind)
    brute = brute_reduced_series(mu, kind)
    assert result.value == pytest.approx(brute, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("kind,mu", sorted(FROZEN_S, key=repr))
def test_reduced_series_stays_below_its_ceiling(kind, mu):
    result = reduced_series(mu, kind)
    assert result.value + result.tail_bound <= reduced_series_bound(mu)


def test_reduced_series_bose_domain():
    with pytest.raises(ChemicalPotentialError):
        reduced_series(0.5, BOSE)
    with pytest.raises(ChemicalPotentialError):
        reduced_series(1.0, BOSE)
    # Fermions carry no such limit.
    assert reduced_series(3.0, FERMI).converged


def test_reduced_series_reports_shell_terms():
    result = reduced_series(0.0, FERMI)
    # Shell r contributes 2*floor(sqrt(r)) + 1 lattice points.
    assert result.terms_used > result.value
    assert result.terms_used < 5000


def test_reduced_series_non_convergence_is_reported():
    policy = TruncationPolicy(rel_tol=1e-10, abs_tol=1e-30, max_terms=5)
    result = reduced_series(0.0, FERMI, policy)
    assert not result.converged
    assert result.tail_bound > 0.0
    assert result.terms_used >= policy.max_terms
    assert not policy.satisfied(result.value, result.tail_bound)


@pytest.mark.parametrize("kind", [FERMI, BOSE], ids=["fermi", "bose"])
@pytest.mark.parametrize(
    "shell_sum",
    [
        lambda t, kind, policy: equilibrium_particle_number(t, RG, kind, policy),
        lambda t, kind, policy: equilibrium_effective_energy(t, RG, kind, policy),
        lambda t, kind, policy: equilibrium_effective_energy(
            t, RG, kind, policy, mu_shifted=True
        ),
    ],
    ids=["particle_number", "energy", "effective_energy"],
)
def test_shell_sum_non_convergence_is_reported(shell_sum, kind):
    policy = TruncationPolicy(rel_tol=1e-10, abs_tol=1e-30, max_terms=5)
    result = shell_sum(Thermo(1.0, 0.0), kind, policy)
    assert not result.converged
    assert result.terms_used >= policy.max_terms
    assert result.tail_bound > 0.0
    assert not policy.satisfied(result.value, result.tail_bound)


def test_reduced_series_monotone_in_mu():
    for kind in (FERMI, BOSE):
        grid = (-2.0, -1.0, 0.0, 0.4) if kind is BOSE else (-1.0, 0.0, 1.0, 2.0)
        values = [reduced_series(mu, kind).value for mu in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_bose_series_dominates_fermi_at_equal_mu():
    for mu in (-2.0, -1.0, 0.0, 0.4):
        assert reduced_series(mu, BOSE).value > reduced_series(mu, FERMI).value


def test_ceiling_value_at_the_bose_edge():
    # exp(0) * (4pi^4/3 + 16pi^6/189 + 8pi^8/315), frozen from a
    # 50-digit evaluation: 452.24479849159915...
    assert reduced_series_bound(0.5) == pytest.approx(452.2447984915991, abs=1e-6)


def test_ceiling_scales_exponentially_in_mu():
    for mu in (-3.0, 0.0, 1.7):
        ratio = reduced_series_bound(mu) / reduced_series_bound(0.0)
        assert ratio == pytest.approx(math.exp(mu), rel=1e-13)


def test_unrepresentable_mu_is_a_domain_error():
    # Near mu = 704 the ceiling overflows; beyond |mu| ~ 709 C = exp(1/2 - mu)
    # leaves the float range and the tail bound would divide by it or by 0.
    assert math.isfinite(reduced_series_bound(700.0))
    for mu in (705.0, 720.0):
        with pytest.raises(DomainError, match="ceiling is not finite"):
            reduced_series_bound(mu)
    for kind, mu in ((FERMI, 1e300), (FERMI, -800.0), (BOSE, -800.0), (FERMI, math.nan)):
        with pytest.raises(DomainError, match=r"exp\(1/2 - mu\) must be finite and positive"):
            reduced_series(mu, kind)


def brute_equilibrium(mu, kind, weight, k_max=40, q_max=760):
    """Rectangular oracle for the physical-units shell sums (reduced gas)."""
    sign = -1.0 if kind is BOSE else 1.0
    total = 0.0
    for k in range(-k_max, k_max + 1):
        for q in range(q_max + 1):
            e = k * k + q + 0.5
            x = e - mu
            if x > 700.0:
                break
            n = 1.0 / (math.exp(x) + sign)
            w = {"energy": e, "effective": e - mu, "count": 1.0}[weight]
            total += w * n
    return total


def test_equilibrium_energy_fermi_reference():
    t = Thermo(1.0, 0.0)
    result = equilibrium_effective_energy(t, RG, FERMI)
    assert result.converged
    # Frozen rectangular value 2.332058401313134.
    assert abs(result.value - 2.332058401313134) <= result.tail_bound + 1e-10
    assert result.value == pytest.approx(brute_equilibrium(0.0, FERMI, "energy"), rel=1e-10)


def test_equilibrium_particle_number_reference():
    t = Thermo(1.0, 0.0)
    result = equilibrium_particle_number(t, RG, FERMI)
    assert abs(result.value - 1.3277298812159957) <= result.tail_bound + 1e-10


def test_equilibrium_bose_branch():
    t = Thermo(1.0, 0.3)
    result = equilibrium_effective_energy(t, RG, BOSE)
    assert result.converged
    assert result.value == pytest.approx(brute_equilibrium(0.3, BOSE, "energy"), rel=1e-9)
    with pytest.raises(ChemicalPotentialError):
        equilibrium_effective_energy(Thermo(1.0, 0.5), RG, BOSE)


def test_equilibrium_bose_refuses_an_underflowing_ground_exponent():
    # The same ground exponent check as the ladder mean: beta*hbar*omega/2 underflows.
    g = GasParams(OscillatorParams(omega=1e-30))
    for total in (equilibrium_particle_number, equilibrium_effective_energy):
        with pytest.raises(DomainError, match="underflows to 0.0") as err:
            total(Thermo(1e-300, 0.0), g, BOSE)
        assert not isinstance(err.value, ChemicalPotentialError)


def test_equilibrium_shifted_weight_identity():
    """Raw minus mu-shifted energy must equal mu times the particle number."""
    for kind, mu in ((FERMI, 1.6), (BOSE, 0.3)):
        t = Thermo(1.0, mu)
        raw = equilibrium_effective_energy(t, RG, kind)
        shifted = equilibrium_effective_energy(t, RG, kind, mu_shifted=True)
        number = equilibrium_particle_number(t, RG, kind)
        slack = raw.tail_bound + shifted.tail_bound + abs(mu) * number.tail_bound
        assert abs((raw.value - shifted.value) - mu * number.value) <= slack + 1e-9


def test_equilibrium_reduces_to_series_plus_zero_point():
    """In reduced units the raw energy is S(mu) plus half the mean number."""
    for kind, mu in ((FERMI, 0.0), (FERMI, 1.0), (BOSE, -1.0), (BOSE, 0.3)):
        t = Thermo(1.0, mu)
        raw = equilibrium_effective_energy(t, RG, kind)
        s = reduced_series(mu, kind)
        n = equilibrium_particle_number(t, RG, kind)
        gap = abs(raw.value - s.value - 0.5 * n.value)
        assert gap <= raw.tail_bound + s.tail_bound + 0.5 * n.tail_bound + 1e-9


def test_equilibrium_vanishes_at_deep_negative_mu():
    result = equilibrium_effective_energy(Thermo(1.0, -30.0), RG, FERMI)
    assert result.converged
    assert result.value < 1e-11


def test_shell_sum_tail_stays_finite_at_huge_mu():
    # exp(beta*mu) overflows past beta*mu ~ 709.8; the bound on the columns
    # after k takes beta*(eps_{k+1} + hbar*omega/2 - mu) as one exponent.
    policy = TruncationPolicy(max_terms=100_000)
    result = equilibrium_particle_number(Thermo(1.0, 720.0), RG, FERMI, policy)
    assert math.isfinite(result.tail_bound)
    assert result.converged


def test_effective_weight_at_an_infinite_mu_is_a_domain_error():
    # E - mu is infinite on every level and the occupation 0 or 1.
    for kind, mu in ((FERMI, math.inf), (FERMI, -math.inf), (BOSE, -math.inf)):
        with pytest.raises(DomainError, match="E - mu is not finite"):
            equilibrium_effective_energy(Thermo(1.0, mu), RG, kind, mu_shifted=True)


def decimal_reduced_series(mu, kind, shells=400, digits=50):
    """S(mu) over shells 0..shells-1 in `digits`-digit decimal arithmetic."""
    sign = -1 if kind is BOSE else 1
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        c = (decimal.Decimal(0.5) - decimal.Decimal(mu)).exp()
        total = decimal.Decimal(0)
        for r in range(shells):
            total += (2 * math.isqrt(r) + 1) * r / (c * decimal.Decimal(r).exp() + sign)
        return total


@pytest.mark.xfail(
    strict=True,
    reason="certified_sum adds in plain floating point and tail_bound leaves out the "
    "accumulated rounding, which at rel_tol=1e-16 is several times the truncation bound",
)
def test_reduced_series_certificate_covers_accumulated_rounding():
    result = reduced_series(30.0, FERMI, TruncationPolicy(rel_tol=1e-16))
    assert result.converged
    # Shells past 400 add less than 1e-100 to a sum of about 4e3.
    error = abs(decimal.Decimal(result.value) - decimal_reduced_series(30.0, FERMI))
    assert error <= decimal.Decimal(result.tail_bound)


def test_shell_sum_at_tiny_beta_reports_the_cap():
    # exp(-beta*hbar*omega) rounds to 1.0 below beta*hbar*omega ~ 1.1e-16, but
    # 1 - exp(-y) taken as -expm1(-y) keeps both tail bounds finite (~7e33 Fermi,
    # ~4e50 Bose here): _columns_after's rounding allowance on the later columns'
    # exponent 1.5e-17 is relative, so it keeps that exponent above 0.  Column 0
    # does not close at such y, so both sums go level by level to their cap.
    policy = TruncationPolicy(max_terms=1000)
    fermi = equilibrium_particle_number(Thermo(1e-17, 0.0), RG, FERMI, policy)
    with pytest.warns(RuntimeWarning, match="rounding of the exponent"):
        bose = equilibrium_particle_number(Thermo(1e-17, 0.0), RG, BOSE, policy)
    for result in (fermi, bose):
        assert 0.0 < result.tail_bound < math.inf
        assert not result.converged
        assert result.terms_used == policy.max_terms


@pytest.mark.parametrize("kind", [FERMI, BOSE], ids=["fermi", "bose"])
@pytest.mark.parametrize("mu_shifted", [False, True], ids=["energy", "effective_energy"])
def test_shell_sum_meets_a_relative_tolerance_below_two_to_the_minus_64(kind, mu_shifted):
    # Closings that ignored the policy kept ~2**-64 of their column, so at
    # rel_tol = 1e-25 the remainders alone missed it and the sum ran to its
    # cap (100,000 terms); with the policy's rel_tol it stops in a few hundred.
    policy = TruncationPolicy(rel_tol=1e-25, abs_tol=0.0, max_terms=10**5)
    t = Thermo(0.3, 0.0)
    for result in (
        equilibrium_particle_number(t, RG, kind, policy),
        equilibrium_effective_energy(t, RG, kind, policy, mu_shifted=mu_shifted),
    ):
        assert result.converged
        assert result.terms_used < 1000
        assert result.tail_bound <= 1e-25 * abs(result.value)


# --- the column sums against 40-digit references ------------------------------
#
# On the reduced gas (eps_k = k^2, hbar*omega = 1) level q of column k has
# x = beta*(k^2 + q + 1/2 - mu).  The references add each level's weight times
# exp(-x)/(1 -+ exp(-x)) in 40-digit decimal, with exp(-x) stepped along the
# column by the factor exp(-beta).  A column stops _X_STOP past its first
# level and the gas after the first column to start beyond _X_STOP, where
# what is left is below 1e-40 of every sum below.

_X_STOP = 100
WEIGHTS = {"count": (0.0, 1.0), "energy": (1.0, 0.0), "effective": (1.0, None)}
COLUMN_CASES = [(BOSE, -1.0), (BOSE, 0.49), (FERMI, 0.0), (FERMI, 3.0)]


def weight_of(weight, mu):
    alpha, gamma = WEIGHTS[weight]
    return alpha, -mu if gamma is None else gamma


def decimal_column(x, w, slope, y, kind, span=_X_STOP, digits=40):
    """sum_{i >= 0} (w + slope*i) * n(x + i*y) while i*y < span, in `digits` digits."""
    sign = 1 if kind is BOSE else -1
    d = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        x, w, slope, y = d(x), d(w), d(slope), d(y)
        ratio = (-y).exp()
        p = (-x).exp()
        total = d(0)
        end = x + span
        while x < end:
            total += w * p / (1 - sign * p)
            x += y
            w += slope
            p *= ratio
        return total


@functools.lru_cache(maxsize=None)
def decimal_columns(beta, mu, kind, weight):
    """Column sums k = 0, 1, ... (one sign of k) while the column starts below _X_STOP."""
    alpha, gamma = weight_of(weight, mu)
    columns = []
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal
        while beta * (len(columns) ** 2 + 0.5 - mu) < _X_STOP:
            bottom = len(columns) ** 2 + d("0.5")
            x = d(beta) * (bottom - d(mu))
            columns.append(decimal_column(x, d(alpha) * bottom + d(gamma), alpha, beta, kind))
    return columns


def decimal_gas(beta, mu, kind, weight):
    columns = decimal_columns(beta, mu, kind, weight)
    return columns[0] + 2 * sum(columns[1:])


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("kind, mu", COLUMN_CASES, ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("beta", [0.05, 0.3, 1.0])
def test_closing_remainder_covers_the_dropped_fugacity_terms(beta, kind, mu, weight):
    # The closing of column k starts at its first level with x >= 1.  From
    # the same float inputs, the J fugacity terms it keeps (in decimal) differ
    # from the rest of the column (in decimal, level by level) by the terms
    # it drops.  Those are down to ~1e-40 of the value at x = 50, so both
    # sides take 80 digits and the column runs 170 past its first level.
    alpha, gamma = weight_of(weight, mu)
    s = 1 if kind is BOSE else -1
    for k in (0, 1, 2, 5, 9):
        q = 0
        while beta * (k * k + q + 0.5 - mu) < 1.0:
            q += 1
        energy = k * k + q + 0.5
        x = beta * (energy - mu)
        if x >= _X_STOP / 2:
            break
        w = alpha * energy + gamma
        count = closing_terms(x, TruncationPolicy().rel_tol)
        value, remainder = ladder_closing(x, w, alpha, beta, kind, count)
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            d = decimal.Decimal
            kept = d(0)
            for j in range(1, count + 1):
                z = (-j * d(beta)).exp()
                kept += s ** (j + 1) * (-j * d(x)).exp() * (
                    d(w) / (1 - z) + d(alpha) * z / (1 - z) ** 2
                )
            exact = decimal_column(x, w, alpha, beta, kind, span=170, digits=80)
            assert abs(exact - kept) <= d(remainder), (k, count)
            assert remainder <= 2.0**-64 * value
            assert abs(d(value) - exact) <= d(remainder) + d(4 * count * 2.0**-53 * value)


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("kind, mu", COLUMN_CASES, ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("beta", [0.05, 0.3, 1.0])
def test_bound_after_each_column_covers_the_dropped_columns(beta, kind, mu, weight):
    # At beta = 0.05, Fermi mu = 3 the first columns start below mu, and the
    # effective weight E - mu is negative on their first levels.
    alpha, gamma = weight_of(weight, mu)
    columns = decimal_columns(beta, mu, kind, weight)
    t = Thermo(beta, mu)
    dropped = decimal.Decimal(0)
    for k in reversed(range(len(columns) - 1)):
        dropped += 2 * columns[k + 1]
        bound = _columns_after(k, t, RG, kind, alpha, gamma)
        assert abs(dropped) <= decimal.Decimal(bound), (k, bound)


def test_columns_after_is_infinite_when_the_column_ratio_rounds_to_one():
    # A prefactor of 1.97e-299 at beta = 1e-300 makes beta*a*(2K + 1)
    # underflow to 0, so r = 1 and the later columns have no geometric bound.
    g = GasParams(OscillatorParams(), 1e150)
    t = Thermo(1e-300, 0.0)
    assert _columns_after(0, t, g, FERMI, 0.0, 1.0) == math.inf
    result = equilibrium_particle_number(t, g, FERMI, TruncationPolicy(max_terms=1000))
    assert not result.converged
    assert result.terms_used == 1000
    assert result.tail_bound == math.inf


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("kind, mu", COLUMN_CASES, ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("beta", [0.05, 0.3, 1.0, 10.0])
def test_shell_sums_against_a_decimal_reference(beta, kind, mu, weight, rel_tol):
    # The driver's plain adds round by at most (terms + 16) * 2**-53 * |value|,
    # the allowance bench/checks.py grants; tail_bound covers the rest.
    t = Thermo(beta, mu)
    policy = TruncationPolicy(rel_tol=rel_tol)
    if weight == "count":
        result = equilibrium_particle_number(t, RG, kind, policy)
    else:
        result = equilibrium_effective_energy(t, RG, kind, policy, weight == "effective")
    assert result.converged
    allowance = (result.terms_used + 16) * 2.0**-53 * abs(result.value)
    error = abs(decimal.Decimal(result.value) - decimal_gas(beta, mu, kind, weight))
    assert error <= decimal.Decimal(result.tail_bound + allowance)


def test_ladder_and_gas_means_are_distinct_sums():
    # Sanity guard: the one-ladder mean has no translational copies, so it
    # must be strictly below the gas count at the same reservoir.
    ladder = mean_particle_number(Thermo(1.0, 0.0), RG.osc, FERMI)
    gas = equilibrium_particle_number(Thermo(1.0, 0.0), RG, FERMI)
    assert ladder.value < gas.value


def test_quartic_tail_validation():
    with pytest.raises(DomainError):
        quartic_reciprocal_tail(0)
    with pytest.raises(DomainError):
        quartic_reciprocal_tail(-3)


def test_quartic_tail_against_polygamma():
    """The self-summed estimate must sit just above the special-function value."""
    special = pytest.importorskip("scipy.special")
    for a in (1, 2, 5, 10, 100, 400):
        upper = quartic_reciprocal_tail(a)
        exact = float(special.polygamma(3, a)) / 6.0
        assert upper >= exact - 1e-15
        assert upper - exact <= 2e-12


def test_quartic_tail_first_values():
    # sum_{r>=1} r^-4 = pi^4/90.
    assert quartic_reciprocal_tail(1) == pytest.approx(math.pi**4 / 90.0, rel=1e-12)
    assert quartic_reciprocal_tail(2) == pytest.approx(
        math.pi**4 / 90.0 - 1.0, rel=1e-10
    )


def test_verify_series_estimates_all_pass():
    report = verify_series_estimates()
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "zeta-partial-p4",
        "zeta-partial-p6",
        "zeta-partial-p8",
        "polygamma-tail",
        "exp-minorant",
    ]
    for check in report.checks:
        assert check.passed, check


def test_verify_series_estimates_gaps_within_bounds():
    # The integral remainder bounds the zeta gap at any R, not only at the
    # R = 1000 that verify_series_estimates uses.
    for p in (4, 6, 8):
        gap, bound = _zeta_partial_gap(p, 500)
        assert 0.0 < gap <= bound


@pytest.mark.parametrize("terms", [1, 10, 100, 1000])
@pytest.mark.parametrize("p", [4, 6, 8])
def test_zeta_partial_gap_is_within_the_integral_remainder(p, terms):
    gap, bound = _zeta_partial_gap(p, terms)
    assert 0.0 < gap <= bound
    assert bound == 1.0 / ((p - 1) * terms ** (p - 1))


PAPER_SIZE_CHECKS = [
    ("zeta-partial-p4", _zeta_partial_gap(4, 1000)[0], 1.0 / 3e9, ""),
    ("zeta-partial-p6", _zeta_partial_gap(6, 1000)[0], 2e-16, ""),
    ("zeta-partial-p8", _zeta_partial_gap(8, 1000)[0], 1.0 / 7e21, ""),
    ("polygamma-tail", quartic_reciprocal_tail(400), (2.0 / 20**6 + 6.0 / 20**8) / 6.0,
     "tightest at k=20"),
    ("exp-minorant", 1.0, 0.0, "tightest at r=0.0"),
]


@pytest.mark.parametrize(
    "name, observed, bound, detail", PAPER_SIZE_CHECKS, ids=[c[0] for c in PAPER_SIZE_CHECKS]
)
def test_verify_series_estimates_runs_at_the_paper_sizes(name, observed, bound, detail):
    # R = 1000 terms, k = 1..20 and r = 0, 0.5, ..., 50: the tightest k is
    # the last one and the exp minorant is tightest at the grid's start.
    check = {c.name: c for c in verify_series_estimates().checks}[name]
    assert check.passed
    assert (check.observed, check.detail) == (observed, detail)
    assert check.bound == bound


def test_truncation_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(rel_tol=0.0)
    with pytest.raises(DomainError):
        TruncationPolicy(abs_tol=-1.0)
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=0)


def test_truncation_policy_satisfied_rule():
    policy = TruncationPolicy(rel_tol=1e-3, abs_tol=1e-6)
    assert policy.satisfied(10.0, 0.009)
    assert not policy.satisfied(10.0, 0.011)
    assert policy.satisfied(0.0, 1e-7)
    assert not policy.satisfied(math.nan, 1e-7)
    assert not policy.satisfied(10.0, math.nan)


def test_truncation_policy_first_satisfied_is_the_same_rule():
    specials = [0.0, -0.0, 1e-320, 1e-7, 0.009, 0.011, 10.0, -10.0, math.inf, -math.inf, math.nan]
    for policy in (TruncationPolicy(1e-3, 1e-6), TruncationPolicy(1e-3, 0.0), TruncationPolicy(1)):
        for value, tail in itertools.product(specials, repeat=2):
            met = policy.first_satisfied([value], [tail])
            rule = tail <= max(policy.rel_tol * abs(value), policy.abs_tol)  # written out
            assert (met == 0) is rule, (policy, value, tail)
            assert policy.satisfied(value, tail) is rule, (policy, value, tail)
            assert met in (0, None)
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]
    tails = [0.0, 1e-15, math.inf, math.nan]
    for policy in (TruncationPolicy(abs_tol=0.0), TruncationPolicy(abs_tol=1e-14)):
        for value, tail in itertools.product(values, tails):
            rule = tail <= max(policy.rel_tol * abs(value), policy.abs_tol)
            assert (policy.first_satisfied([value], [tail]) == 0) is rule, (policy, value, tail)
            assert policy.satisfied(value, tail) is rule, (policy, value, tail)
    policy = TruncationPolicy(rel_tol=1e-3, abs_tol=1e-6)
    assert policy.first_satisfied([10.0, 10.0, 0.0, 10.0], [0.011, math.nan, 1e-7, 0.0]) == 2
    assert policy.first_satisfied([10.0, math.nan], [0.011, 0.0]) is None
    assert policy.first_satisfied([10.0, 10.0], [0.011]) is None


def test_certified_sum_stops_on_policy_or_cap():
    # sum_{r >= 0} 2^-r with the exact tail 2^-r after step r, in blocks of
    # `size` steps that each cover `count` series terms.
    def halves(count, size):
        for start in itertools.count(0, size):
            steps = [0.5**r for r in range(start, start + size)]
            yield steps, [count] * size, steps

    for size in (1, 4, 64):
        met = certified_sum(halves(1, size), TruncationPolicy(rel_tol=1e-3, abs_tol=0.0))
        assert met.converged
        assert met.terms_used == 10  # first r with 2^-r <= 1e-3 * value is r = 9
        assert met.value + met.tail_bound == 2.0

        capped = certified_sum(halves(3, size), TruncationPolicy(rel_tol=1e-3, max_terms=7))
        assert not capped.converged
        assert capped.terms_used == 9  # a step's count may overshoot the cap
        assert capped.tail_bound == 0.25

    with pytest.raises(ValueError):
        certified_sum(iter([([1.0], [1], [1.0])]), TruncationPolicy())
