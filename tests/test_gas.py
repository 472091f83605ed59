"""Tests for the oscillator-plus-free-motion joint spectrum."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openosc import (
    ClosureError,
    DomainError,
    GasOccupationState,
    GasParams,
    OscillatorParams,
    bose_gas_condition,
    effective_energy_gas,
    joint_energy,
    q_min_gas,
    q_min_vibrational,
    translational_energy,
)

RG = GasParams.reduced()


def test_reduced_params_cancel_the_prefactor_exactly():
    assert RG.translational_prefactor == 1.0
    for k in range(-6, 7):
        assert translational_energy(k, RG) == float(k * k)


def test_translational_energy_physical_units():
    g = GasParams(OscillatorParams(hbar=1.0, mass=1.0), box_length=2.0)
    expected = 4.0 * math.pi**2 / (2.0 * 4.0)
    assert translational_energy(1, g) == pytest.approx(expected)
    assert translational_energy(3, g) == pytest.approx(9.0 * expected)


def test_translational_energy_even_in_k():
    g = GasParams(OscillatorParams(mass=3.0), box_length=0.7)
    for k in range(1, 10):
        assert translational_energy(k, g) == translational_energy(-k, g)


def test_translational_energy_quadratic_scaling_is_exact():
    g = GasParams(OscillatorParams(mass=3.0), box_length=0.7)
    assert translational_energy(2, g) == 4.0 * translational_energy(1, g)


def test_translational_energy_rejects_fractional_k():
    with pytest.raises(DomainError):
        translational_energy(1.5, RG)


def test_translational_energy_refuses_an_overflowing_k():
    # k*k past the float range raised a bare OverflowError; just below it the
    # energy rounded to inf, and inf - mu is a NaN at mu = inf.
    for k in (10**300, -(10**300), 10**154):
        with pytest.raises(DomainError, match=f"level k = {k} overflows"):
            translational_energy(k, GasParams(OscillatorParams()))
    assert translational_energy(10**154, RG) == 1e308


def test_joint_energy_refuses_two_finite_parts_that_overflow_together():
    q = int(1.5e308)
    assert math.isfinite(translational_energy(10**154, RG))
    assert math.isfinite(joint_energy(0, q, RG))
    with pytest.raises(DomainError, match=rf"\(k, q\) = \(-{10**154}, {q}\) overflows"):
        joint_energy(-(10**154), q, RG)
    with pytest.raises(DomainError, match=f"level q = {10**400} overflows"):
        joint_energy(0, 10**400, RG)


def test_box_length_validation():
    with pytest.raises(DomainError):
        GasParams(OscillatorParams(), box_length=0.0)
    # A translational prefactor that overflows or whose denominator
    # underflows to zero would put nan or inf into eps_0.
    for osc, box_length in (
        (OscillatorParams(hbar=1.3e154), 1.0),
        (OscillatorParams(mass=1e-320), 1.0),
        (OscillatorParams(), 1e-170),
    ):
        with pytest.raises(DomainError, match="translational prefactor"):
            GasParams(osc, box_length)


def test_joint_energy_adds_the_two_branches():
    assert joint_energy(0, 0, RG) == 0.5
    assert joint_energy(1, 0, RG) == 1.5
    assert joint_energy(2, 3, RG) == 7.5
    assert joint_energy(-2, 3, RG) == joint_energy(2, 3, RG)


def test_effective_energy_gas_example():
    # Two particles parked on the joint ground level contribute nothing at
    # mu = 0.5; the lone (k=1, q=1) particle contributes 1 + 1.5 - 0.5.
    state = GasOccupationState({(0, 0): 2, (1, 1): 1})
    value = effective_energy_gas(state, 0.5, RG)
    per_entry = sum((joint_energy(k, q, RG) - 0.5) * n for (k, q), n in state.items())
    assert value == pytest.approx(per_entry)
    assert value == pytest.approx(2.0)


def test_effective_energy_gas_empty():
    assert effective_energy_gas(GasOccupationState({}), 2.0, RG) == 0.0


@pytest.mark.parametrize("occupations", [
    {(0, 0): 10**400}, {(0, 0): 10**308, (1, 0): 10**308},
], ids=["count-past-float-range", "intermediate-overflow"])
def test_effective_energy_gas_refuses_an_overflowing_sum(occupations):
    # Both raised a bare OverflowError.
    with pytest.raises(DomainError, match="gas effective energy overflows"):
        effective_energy_gas(GasOccupationState(occupations), 0.0, RG)


@given(
    occ=st.dictionaries(
        st.tuples(st.integers(-5, 5), st.integers(0, 10)),
        st.integers(0, 4),
        max_size=6,
    ),
    mu=st.integers(-64, 64).map(lambda m: m / 16.0),
)
@settings(max_examples=80)
def test_effective_energy_gas_matches_split_form(occ, mu):
    state = GasOccupationState(occ)
    combined = effective_energy_gas(state, mu, RG)
    raw = sum(joint_energy(k, q, RG) * n for (k, q), n in state.items())
    assert combined == pytest.approx(raw - mu * state.total, abs=1e-10)


def test_gas_occupation_state_closure():
    GasOccupationState({(0, 0): 2}, total=2)
    with pytest.raises(ClosureError):
        GasOccupationState({(0, 0): 2}, total=1)


def test_gas_occupation_state_drops_zeros_and_validates():
    state = GasOccupationState({(0, 0): 1, (3, 2): 0})
    assert state.items() == [((0, 0), 1)]
    with pytest.raises(DomainError):
        GasOccupationState({(0, -1): 1})
    with pytest.raises(DomainError):
        GasOccupationState({(0, 0): -2})
    with pytest.raises(DomainError):
        GasOccupationState({(0.5, 0): 1})
    state.occupations[(1, 1)] = 2
    with pytest.raises(ClosureError):
        state.validate()


def test_q_min_gas_reduces_to_ladder_at_k0():
    for mu in (-3.0, 0.0, 0.7, 2.5):
        assert q_min_gas(mu, 0, RG) == q_min_vibrational(mu, RG.osc)


def test_q_min_gas_values():
    # mu = 2.5, k = 1 in reduced units: (2.5 - 1)/1 - 0.5 = 1.0.
    assert q_min_gas(2.5, 1, RG) == 1.0
    assert q_min_gas(2.5, 0, RG) == 2.0
    # Far free branch closes the ladder entirely (threshold below any q >= 0
    # only when mu is large; here it goes strongly negative).
    assert q_min_gas(0.0, 3, RG) == -9.5


def test_q_min_gas_decreases_with_translational_energy():
    for mu in (-1.0, 0.0, 1.5, 4.0):
        thresholds = [q_min_gas(mu, k, RG) for k in range(0, 8)]
        assert thresholds == sorted(thresholds, reverse=True)


def test_q_min_gas_increases_with_mu():
    for k in (0, 1, 4):
        values = [q_min_gas(mu, k, RG) for mu in (-2.0, -0.5, 0.0, 1.0, 3.0)]
        assert values == sorted(values)


@given(
    k=st.integers(-12, 12),
    q=st.integers(0, 40),
    mu=st.integers(-5120, 5120).map(lambda m: m / 1024.0),
)
@settings(max_examples=200)
def test_joint_threshold_matches_positive_effective_term(k, q, mu):
    """q > q_min(mu, k) must coincide with eps_k + energy(q) - mu > 0."""
    open_by_threshold = q > q_min_gas(mu, k, RG)
    open_by_energy = joint_energy(k, q, RG) - mu > 0.0
    assert open_by_threshold == open_by_energy


def test_bose_condition_gap_window():
    # mu = 0.3 sits in the zero-point window at k = 0 only.
    report = bose_gas_condition(0.3, RG, k_max=3)
    by_k = {r.k: r for r in report.rows}
    assert by_k[0].extended and not by_k[0].classic and by_k[0].gap
    for k in (1, 2, 3, -1, -2, -3):
        assert by_k[k].extended and by_k[k].classic and not by_k[k].gap
    assert report.all_extended
    assert not report.all_classic
    assert report.any_gap


def test_bose_condition_negative_mu_no_gap():
    report = bose_gas_condition(-1.0, RG, k_max=4)
    assert report.all_extended
    assert report.all_classic
    assert not report.any_gap


def test_bose_condition_boundary_mu_half():
    # mu exactly at the joint ground level: extended fails at k = 0.
    report = bose_gas_condition(0.5, RG, k_max=2)
    by_k = {r.k: r for r in report.rows}
    assert not by_k[0].extended
    assert not report.all_extended


def test_bose_condition_rows_cover_symmetric_window():
    report = bose_gas_condition(0.0, RG, k_max=2)
    assert [r.k for r in report.rows] == [-2, -1, 0, 1, 2]


def test_bose_condition_k_max_validation():
    with pytest.raises(DomainError):
        bose_gas_condition(0.0, RG, k_max=-1)
