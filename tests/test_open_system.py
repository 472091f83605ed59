"""Tests for accessibility thresholds and effective-energy accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openosc import (
    DomainError,
    FermionClass,
    OccupationState,
    OscillatorParams,
    accessible_set,
    classify_fermion_state,
    effective_energy_vibrational,
    effective_frequency,
    ensemble_energy,
    is_accessible,
    mode_energy,
    positivity_check,
    q_min_vibrational,
)

REDUCED = OscillatorParams()


def test_effective_frequency_values():
    assert effective_frequency(0, 0.0, REDUCED) == 0.5
    assert effective_frequency(2, 2.5, REDUCED) == 0.0
    assert effective_frequency(3, 2.5, REDUCED) == 1.0
    assert effective_frequency(0, -1.0, REDUCED) == 1.5


def test_q_min_examples():
    assert q_min_vibrational(2.5, REDUCED) == 2.0
    assert q_min_vibrational(0.0, REDUCED) == -0.5
    p = OscillatorParams(omega=2.0)
    assert q_min_vibrational(3.0, p) == 1.0


def test_boundary_level_is_not_accessible():
    # q = 2 sits exactly at q_min for mu = 2.5 and must be excluded.
    assert not is_accessible(2, 2.5, REDUCED)
    assert is_accessible(3, 2.5, REDUCED)


def test_everything_accessible_at_negative_mu():
    assert all(is_accessible(q, -4.0, REDUCED) for q in range(50))


def test_is_accessible_rejects_negative_level():
    with pytest.raises(DomainError):
        is_accessible(-1, 0.0, REDUCED)


def test_accessible_set_survey():
    result = accessible_set(2.5, REDUCED, q_max=5)
    assert result.q_min == 2.0
    assert result.accessible == (3, 4, 5)
    assert result.boundary == (2,)


@pytest.mark.parametrize("mu, accessible, boundary", [
    (-1.0, (0, 1, 2, 3, 4, 5), ()),
    (0.0, (0, 1, 2, 3, 4, 5), ()),
    (0.5, (1, 2, 3, 4, 5), (0,)),
    (2.5, (3, 4, 5), (2,)),
    # 1e-13 past the crossing, level 2 is closed rather than on the boundary.
    (2.5 + 1e-13, (3, 4, 5), ()),
    (5.5, (), (5,)),
])
def test_accessible_set_boundary_is_the_exact_zero_crossing(mu, accessible, boundary):
    result = accessible_set(mu, REDUCED, q_max=5)
    assert result.accessible == accessible
    assert result.boundary == boundary
    closed = set(range(6)) - set(accessible) - set(boundary)
    assert closed == {q for q in range(6) if effective_frequency(q, mu, REDUCED) < 0.0}


def test_accessible_set_validation():
    with pytest.raises(DomainError):
        accessible_set(0.0, REDUCED, q_max=-1)


# Dyadic grids keep every intermediate exactly representable, so the two
# formulations of the threshold must agree bit for bit, not just roughly.
dyadic_mu = st.integers(-5120, 5120).map(lambda m: m / 1024.0)
dyadic_omega = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])


@given(q=st.integers(0, 200), mu=dyadic_mu, omega=dyadic_omega)
@settings(max_examples=200)
def test_accessibility_equals_positive_effective_frequency(q, mu, omega):
    p = OscillatorParams(omega=omega)
    assert is_accessible(q, mu, p) == (effective_frequency(q, mu, p) > 0.0)


@given(mu=dyadic_mu, omega=dyadic_omega)
@settings(max_examples=100)
def test_accessible_set_is_upward_closed(mu, omega):
    p = OscillatorParams(omega=omega)
    acc = accessible_set(mu, p, q_max=30).accessible
    if acc:
        assert acc == tuple(range(acc[0], 31))


@given(mu_lo=dyadic_mu, mu_hi=dyadic_mu)
@settings(max_examples=100)
def test_raising_mu_never_opens_levels(mu_lo, mu_hi):
    if mu_lo > mu_hi:
        mu_lo, mu_hi = mu_hi, mu_lo
    lo = set(accessible_set(mu_lo, REDUCED, q_max=20).accessible)
    hi = set(accessible_set(mu_hi, REDUCED, q_max=20).accessible)
    assert hi <= lo


def test_effective_energy_example():
    state = OccupationState({0: 2, 3: 1})
    assert effective_energy_vibrational(state, 1.0, REDUCED) == pytest.approx(1.5)


def test_effective_energy_empty_state():
    assert effective_energy_vibrational(OccupationState({}), 3.0, REDUCED) == 0.0


@given(occ=st.dictionaries(st.integers(0, 30), st.integers(0, 5), max_size=6), mu=dyadic_mu)
@settings(max_examples=80)
def test_effective_energy_equals_raw_minus_mu_times_n(occ, mu):
    state = OccupationState(occ)
    combined = effective_energy_vibrational(state, mu, REDUCED)
    split = ensemble_energy(state, REDUCED) - mu * state.total
    assert combined == pytest.approx(split, abs=1e-10)


def test_positivity_check_flags_offending_level():
    report = positivity_check(OccupationState({0: 1}), 1.0, REDUCED)
    assert not report.positive
    assert report.energy == pytest.approx(-0.5)
    assert report.offending == (0,)


def test_positivity_check_positive_case():
    report = positivity_check(OccupationState({3: 1}), 1.0, REDUCED)
    assert report.positive
    assert report.energy == pytest.approx(2.5)
    assert report.offending == ()


def test_positivity_check_boundary_level_offends():
    report = positivity_check(OccupationState({2: 1}), 2.5, REDUCED)
    assert not report.positive
    assert report.energy == 0.0
    assert report.offending == (2,)


def test_positivity_check_empty_state_not_positive():
    report = positivity_check(OccupationState({}), -1.0, REDUCED)
    assert not report.positive
    assert report.energy == 0.0


def test_positivity_check_mixed_occupation():
    # One deep level drags the total below zero even with a high partner.
    report = positivity_check(OccupationState({0: 3, 4: 1}), 1.6, REDUCED)
    assert report.energy == pytest.approx(0.5 * 3 - 1.6 * 3 + (4.5 - 1.6))
    assert report.offending == (0,)


def test_fermion_classification_at_mu_1_6():
    assert classify_fermion_state(0, 1.6, REDUCED) is FermionClass.BOUND
    assert classify_fermion_state(1, 1.6, REDUCED) is FermionClass.BOUND
    assert classify_fermion_state(2, 1.6, REDUCED) is FermionClass.EXCHANGEABLE


def test_fermion_classification_equality_is_exchangeable():
    assert classify_fermion_state(0, 0.5, REDUCED) is FermionClass.EXCHANGEABLE
    assert classify_fermion_state(2, 2.5, REDUCED) is FermionClass.EXCHANGEABLE


@given(q=st.integers(0, 100), mu=dyadic_mu, omega=dyadic_omega)
@settings(max_examples=150)
def test_bound_iff_negative_effective_frequency(q, mu, omega):
    p = OscillatorParams(omega=omega)
    bound = classify_fermion_state(q, mu, p) is FermionClass.BOUND
    assert bound == (effective_frequency(q, mu, p) < 0.0)


@given(q=st.integers(0, 100), mu=dyadic_mu)
@settings(max_examples=100)
def test_bound_levels_are_never_accessible(q, mu):
    if classify_fermion_state(q, mu, REDUCED) is FermionClass.BOUND:
        assert not is_accessible(q, mu, REDUCED)


def test_mode_energy_consistency_with_effective_frequency():
    for q in range(10):
        assert effective_frequency(q, 0.0, REDUCED) == mode_energy(q, REDUCED)
