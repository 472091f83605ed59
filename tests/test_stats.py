"""Tests for occupation statistics, ladder means, and the Bose threshold check.

Reference values were frozen from straightforward oracles evaluated to
convergence before the adaptive implementations existed: direct logistic
and geometric-series formulas for single levels, and plain 30-term partial
sums with hand-bounded remainders for ladder means.
"""

import decimal
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openosc import (
    ChemicalPotentialError,
    DomainError,
    GasParams,
    OscillatorParams,
    StatisticsKind,
    Thermo,
    TruncationPolicy,
    bose_threshold_equivalence,
    joint_energy,
    mean_particle_number,
    mode_energy,
    occupation_number,
    q_min_gas,
)
from openosc.stats import closing_terms, ladder_closing

REDUCED = OscillatorParams()
RG = GasParams.reduced()
BOSE = StatisticsKind.BOSE
FERMI = StatisticsKind.FERMI


def test_kind_from_name():
    assert StatisticsKind.from_name("bose") is BOSE
    assert StatisticsKind.from_name(" Fermi ") is FERMI
    with pytest.raises(DomainError):
        StatisticsKind.from_name("anyon")


def test_thermo_requires_positive_beta():
    with pytest.raises(DomainError):
        Thermo(0.0)
    with pytest.raises(DomainError):
        Thermo(-1.0)


def test_thermo_rejects_a_nan_mu():
    # A NaN mu made every ladder and shell sum run to its term cap.
    with pytest.raises(DomainError, match="mu"):
        Thermo(1.0, math.nan)
    with pytest.raises(DomainError, match="mu"):
        Thermo(1.0, -math.nan)


def test_fermi_occupation_at_unit_exponent():
    # 1/(e + 1), frozen from the closed form.
    value = occupation_number(1.0, Thermo(1.0, 0.0), FERMI)
    assert value == pytest.approx(0.2689414213699951, rel=1e-15)


def test_fermi_occupation_at_the_chemical_potential():
    assert occupation_number(0.7, Thermo(2.0, 0.7), FERMI) == 0.5


def test_fermi_occupation_negative_exponent():
    # x = -1 mirrors x = 1 through half filling.
    value = occupation_number(-1.0, Thermo(1.0, 0.0), FERMI)
    assert value == pytest.approx(1.0 - 0.2689414213699951, rel=1e-14)


def test_bose_occupation_at_log_two():
    value = occupation_number(math.log(2.0), Thermo(1.0, 0.0), BOSE)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_extreme_exponents_underflow_cleanly():
    assert occupation_number(800.0, Thermo(1.0, 0.0), FERMI) == 0.0
    assert occupation_number(800.0, Thermo(1.0, 0.0), BOSE) == 0.0
    assert occupation_number(-800.0, Thermo(1.0, 0.0), FERMI) == 1.0


def test_bose_occupation_rejects_non_positive_exponent():
    with pytest.raises(ChemicalPotentialError):
        occupation_number(1.0, Thermo(1.0, 1.0), BOSE)
    with pytest.raises(ChemicalPotentialError):
        occupation_number(1.0, Thermo(1.0, 2.0), BOSE)


def test_bose_occupation_warns_in_the_blowup_window():
    with pytest.warns(RuntimeWarning):
        value = occupation_number(1.0 + 1e-13, Thermo(1.0, 1.0), BOSE)
    assert value == pytest.approx(1e13, rel=1e-2)


def test_large_exponent_branch_is_continuous():
    # The exp(-x) rearrangement takes over above x = 30; both forms agree
    # to machine precision on either side of the switch.
    t = Thermo(1.0, 0.0)
    for kind in (BOSE, FERMI):
        below = occupation_number(29.999999, t, kind)
        above = occupation_number(30.000001, t, kind)
        assert below == pytest.approx(above, rel=1e-5)
        assert above < below


@given(
    delta=st.floats(0.01, 20.0, allow_nan=False),
    mu=st.floats(-5.0, 5.0, allow_nan=False),
    beta=st.sampled_from([0.5, 1.0, 3.0]),
)
@settings(max_examples=120)
def test_fermi_particle_hole_symmetry(delta, mu, beta):
    """n(mu + d) + n(mu - d) = 1 for the logistic form."""
    t = Thermo(beta, mu)
    total = occupation_number(mu + delta, t, FERMI) + occupation_number(
        mu - delta, t, FERMI
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_occupations_decrease_with_energy():
    t = Thermo(1.0, 0.0)
    for kind in (BOSE, FERMI):
        values = [occupation_number(0.1 * j, t, kind) for j in range(1, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))


@given(x=st.floats(0.05, 30.0, allow_nan=False))
@settings(max_examples=100)
def test_bose_exceeds_fermi_at_equal_exponent(x):
    # Beyond x ~ 37 the two means differ by less than one ulp and collapse
    # to the same double, so the strict comparison stops at the branch cut.
    t = Thermo(1.0, 0.0)
    assert occupation_number(x, t, BOSE) > occupation_number(x, t, FERMI)


def test_ladder_mean_fermi_reference():
    # Frozen 30-term oracle at beta = 1, mu = 0: 0.6825694789672743 with
    # remainder below 9e-14.
    result = mean_particle_number(Thermo(1.0, 0.0), REDUCED, FERMI)
    assert result.converged
    assert abs(result.value - 0.6825694789672743) <= result.tail_bound + 1e-13
    assert result.value == pytest.approx(0.6826, abs=1e-3)


def test_ladder_mean_fermi_shifted_reference():
    result = mean_particle_number(Thermo(1.0, 1.6), REDUCED, FERMI)
    assert abs(result.value - 1.7781087552865196) <= result.tail_bound + 1e-12


def test_ladder_mean_cold_fermi_counts_bound_levels():
    # At beta = 50 and mu = 1.6 the two levels below mu are essentially
    # full and everything above is empty.
    result = mean_particle_number(Thermo(50.0, 1.6), REDUCED, FERMI)
    assert result.value == pytest.approx(1.9933071490757153, rel=1e-9)
    assert result.value == pytest.approx(2.0, abs=0.01)


def test_ladder_mean_bose_deep_chemical_potential():
    result = mean_particle_number(Thermo(1.0, -10.0), REDUCED, BOSE)
    assert result.converged
    assert result.value == pytest.approx(4.356289841965251e-05, rel=1e-8)


def test_ladder_mean_bose_moderate_reference():
    result = mean_particle_number(Thermo(1.0, 0.3), REDUCED, BOSE)
    assert abs(result.value - 5.138759394424152) <= result.tail_bound + 1e-10


def test_ladder_mean_bose_monotone_in_mu():
    values = [
        mean_particle_number(Thermo(1.0, mu), REDUCED, BOSE).value
        for mu in (-10.0, -5.0, -2.0, -1.0, 0.2, 0.4)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_ladder_mean_bose_domain():
    with pytest.raises(ChemicalPotentialError):
        mean_particle_number(Thermo(1.0, 0.5), REDUCED, BOSE)
    with pytest.raises(ChemicalPotentialError):
        mean_particle_number(Thermo(1.0, 0.6), REDUCED, BOSE)
    # Just below the ground level is fine, if slowly convergent.
    mean_particle_number(Thermo(1.0, 0.499), REDUCED, BOSE)


def test_ladder_mean_bose_refuses_an_underflowing_ground_exponent():
    # mu = 0 is below hbar*omega/2 = 5e-31, but beta times that underflows to 0:
    # the error names the underflow, not mu.
    with pytest.raises(DomainError, match="underflows to 0.0") as err:
        mean_particle_number(Thermo(1e-300, 0.0), OscillatorParams(omega=1e-30), BOSE)
    assert not isinstance(err.value, ChemicalPotentialError)


def test_thermo_refuses_infinite_beta():
    # At beta = inf the level at mu has x = inf*0 = NaN, which no policy accepts.
    with pytest.raises(DomainError, match="not finite"):
        Thermo(math.inf, 0.5)
    assert Thermo(1e308, 0.5).beta == 1e308


def test_ladder_mean_reports_non_convergence():
    policy = TruncationPolicy(rel_tol=1e-10, abs_tol=1e-30, max_terms=3)
    result = mean_particle_number(Thermo(0.05, 0.0), REDUCED, FERMI, policy)
    assert not result.converged
    assert result.terms_used == 3
    assert result.tail_bound > 0.0
    assert not policy.satisfied(result.value, result.tail_bound)


@pytest.mark.parametrize(
    "kind, t, policy, converged",
    [
        (BOSE, Thermo(0.05, -0.3), TruncationPolicy(), True),
        (FERMI, Thermo(0.05, 1.0), TruncationPolicy(), True),
        (BOSE, Thermo(1e-3, 0.4), TruncationPolicy(rel_tol=1e-13), True),
        (FERMI, Thermo(0.05, 0.0), TruncationPolicy(abs_tol=1e-30, max_terms=7), False),
    ],
    ids=["bose", "fermi", "bose-deep", "fermi-capped"],
)
def test_ladder_mean_hands_back_its_summed_occupations(kind, t, policy, converged):
    # A call that asks for the occupations adds every level; one that does not
    # closes the ladder at x >= sqrt(46*beta*hbar*omega), unless it stops
    # before that (fermi-capped), so it agrees within both certificates.
    occupations = []
    result = mean_particle_number(t, REDUCED, kind, policy, occupations=occupations)
    closed = mean_particle_number(t, REDUCED, kind, policy)
    if closed != result:
        assert closed.converged and closed.terms_used < result.terms_used
        rounding = (closed.terms_used + result.terms_used + 16) * 2.0**-53 * result.value
        assert abs(closed.value - result.value) <= closed.tail_bound + result.tail_bound + rounding
    assert len(occupations) == result.terms_used
    assert occupations == [
        occupation_number(mode_energy(q, REDUCED), t, kind) for q in range(result.terms_used)
    ]
    assert result.converged is converged


def test_ladder_mean_certificate_brackets_a_longer_run():
    """The reported tail bound must cover the distance to a finer answer."""
    loose = mean_particle_number(
        Thermo(1.0, 0.0), REDUCED, FERMI, TruncationPolicy(rel_tol=1e-6)
    )
    tight = mean_particle_number(
        Thermo(1.0, 0.0), REDUCED, FERMI, TruncationPolicy(rel_tol=1e-13)
    )
    assert loose.terms_used <= tight.terms_used
    assert abs(tight.value - loose.value) <= loose.tail_bound


def test_threshold_equivalence_moderate_grid():
    for mu in (-1.0, 0.0, 0.3, 0.5, 1.0, 2.5):
        report = bose_threshold_equivalence(mu, RG, k_max=12, q_max=30)
        assert report.agreed, f"mismatch at mu={mu}: {report.mismatches[:5]}"
        assert report.mismatches == ()
        assert report.points == 25 * 31


@pytest.mark.parametrize("mu", [-1.0, 0.0, 0.3, 0.5, 1.0, 2.5])
def test_threshold_verdict_is_the_same_at_every_beta(mu):
    # bose_threshold_equivalence evaluates at beta = 1 only: whether a Bose
    # occupation exists is the sign of E - mu, which no positive beta flips.
    grid = [(k, q) for k in range(-12, 13) for q in range(31)]
    open_points = {(k, q) for k, q in grid if q > q_min_gas(mu, k, RG)}
    for beta in (0.01, 1.0, 100.0):
        t = Thermo(beta, mu)
        defined = set()
        for k, q in grid:
            try:
                occupation_number(joint_energy(k, q, RG), t, BOSE)
            except ChemicalPotentialError:
                continue
            defined.add((k, q))
        assert defined == open_points, beta
    assert bose_threshold_equivalence(mu, RG, k_max=12, q_max=30).agreed


def test_threshold_equivalence_validation():
    with pytest.raises(DomainError):
        bose_threshold_equivalence(0.0, RG, k_max=-1, q_max=5)


@pytest.mark.xfail(
    strict=True,
    reason="certified_sum adds in plain floating point and tail_bound leaves out the "
    "accumulated rounding, which here is about 5x the truncation bound",
)
def test_ladder_certificate_covers_accumulated_rounding():
    occupations = []
    policy = TruncationPolicy(rel_tol=1e-13, max_terms=10**8)
    result = mean_particle_number(Thermo(1e-4, -2.0), REDUCED, BOSE, policy, occupations)
    assert result.converged
    assert len(occupations) == result.terms_used
    # Every term is positive, so the exact sum is at least the correctly
    # rounded sum of the summed terms.
    assert math.fsum(occupations) - result.value <= result.tail_bound


# --- the closing below x = 1 ---------------------------------------------------


def decimal_ladder(x, w, slope, y, kind, span=60, digits=40):
    """(sum, bound on the rest) of sum_i (w + slope*i) * n(x + i*y) over x + i*y < x + span.

    Level by level in `digits`-digit decimal, exp(-x) stepped by exp(-y).  Past
    the last level every n is at most p_i/(1 - p) (p its first exp(-x_i)), so
    the rest is at most that times a weighted geometric sum in closed form.
    """
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
        rest = p / (1 - p) * (w / (1 - ratio) + slope * ratio / (1 - ratio) ** 2)
        return total, rest


@given(
    kind=st.sampled_from([BOSE, FERMI]),
    x=st.floats(1e-4, 1.0, exclude_max=True),
    y=st.floats(1e-3, 1.0),
    weight=st.one_of(st.just((1.0, 0.0)), st.tuples(st.floats(0.5, 20.0), st.just(1.0))),
)
@settings(max_examples=30, deadline=None)
@example(kind=BOSE, x=1e-4, y=1e-3, weight=(1.0, 0.0))
@example(kind=FERMI, x=1e-4, y=1e-3, weight=(20.0, 1.0))
@example(kind=FERMI, x=0.999, y=1.0, weight=(1.0, 0.0))
def test_closing_below_unit_exponent_against_a_decimal_ladder(kind, x, y, weight):
    # Below x = 1 the value is only at least (1 - exp(-x)) T_1; closing_terms
    # adds the terms that keeps the remainder below 2**-64 of the value.
    w, slope = weight
    rel_tol = TruncationPolicy().rel_tol
    count = closing_terms(x, rel_tol)
    value, remainder = ladder_closing(x, w, slope, y, kind, count)
    # the proof's bound exp(-J*x)/(1 - exp(-x)) on remainder/value is below 2**-65
    assert count * x >= 65 * math.log(2.0) - math.log(-math.expm1(-x))
    assert remainder <= 2.0**-64 * abs(value)
    lo, rest = decimal_ladder(x, w, slope, y, kind)
    d = decimal.Decimal
    allowance = d(remainder) + d((count + 16) * 2.0**-53 * abs(value))
    # the exact sum lies in [lo, lo + rest]
    assert d(value) - lo <= allowance
    assert lo + rest - d(value) <= allowance


@pytest.mark.parametrize("kind", [BOSE, FERMI])
def test_ladder_closing_meets_the_tightest_relative_tolerance(kind):
    # A fixed J = ceil(46/x) leaves a remainder of ~2**-64 of the value, which
    # never meets rel_tol = 1e-300; certified_sum then ran out of steps.
    policy = TruncationPolicy(rel_tol=1e-300, abs_tol=0.0)
    result = mean_particle_number(Thermo(1e-4, 0.0), REDUCED, kind, policy)
    assert result.converged
    assert result.terms_used < 20_000
    assert result.tail_bound <= 1e-300 * result.value


def decimal_dropped_terms(x, w, slope, y, kind, count, digits=60):
    """``|sum_{j > count} s^(j+1) T_j|`` of ``ladder_closing``, in ``digits``-digit decimal.

    The terms fall by at least ``exp(-x)`` each; the sum stops once one is
    below ``10**-(digits + 2)`` of the first.
    """
    sign = 1 if kind is BOSE else -1
    d = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ex, ey = (-d(x)).exp(), (-d(y)).exp()
        j = count + 1
        e, z = ex**j, ey**j
        total, first = d(0), None
        while True:
            t = e * (d(w) / (1 - z) + d(slope) * z / (1 - z) ** 2)
            first = t if first is None else first
            total += sign ** (j + 1) * t
            if t <= first.scaleb(-digits - 2):
                return abs(total)
            j, e, z = j + 1, e * ex, z * ey


def test_closing_remainder_covers_its_rounding_and_underflow():
    # Every closing has J*x >= 46, so the rounding of the exponent -(J+1)*x
    # alone moves exp by more than 2**-48; past x ~ 350 the remainder is
    # subnormal or underflows to 0.  Neither may take it below the exact tail.
    rel_tol = TruncationPolicy().rel_tol
    t = Thermo(3.2208312593304522, -9.765221828861328)
    x = t.beta * (0.5 - t.mu)  # this ladder mean closes at its ground level
    exact = decimal_dropped_terms(x, 1.0, 0.0, t.beta, BOSE, closing_terms(x, rel_tol))
    assert decimal.Decimal(mean_particle_number(t, REDUCED, BOSE).tail_bound) >= exact
    rng = random.Random(2026)
    for _ in range(600):
        x = math.exp(rng.uniform(math.log(0.05), math.log(900.0)))
        y = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
        w = math.exp(rng.uniform(math.log(0.5), math.log(1e3)))
        slope = rng.choice([0.0, rng.uniform(0.0, 10.0)])
        kind = rng.choice([BOSE, FERMI])
        count = closing_terms(x, rel_tol)
        remainder = ladder_closing(x, w, slope, y, kind, count)[1]
        exact = decimal_dropped_terms(x, w, slope, y, kind, count)
        assert decimal.Decimal(remainder) >= exact, (x, w, slope, y, kind)


def test_ladder_at_an_underflowing_level_spacing_reports_the_cap():
    # beta*hbar*omega = 1e-330 rounds to 0.0: no geometric tail bound exists,
    # where the tails divided by 1 - exp(-y) = 0.0 before.
    t, p = Thermo(1e-300, 0.0), OscillatorParams(omega=1e-30)
    policy = TruncationPolicy(max_terms=1000)
    for occupations in (None, []):
        result = mean_particle_number(t, p, FERMI, policy, occupations)
        assert not result.converged
        assert result.terms_used == 1000
        assert result.tail_bound == math.inf
