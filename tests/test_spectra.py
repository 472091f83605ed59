"""Tests for oscillator parameters, occupation states, and raw spectra."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openosc import (
    ClosureError,
    DomainError,
    GasOccupationState,
    OccupationState,
    OscillatorParams,
    ensemble_energy,
    mode_energy,
)

REDUCED = OscillatorParams()


def test_mode_energy_ground_state():
    assert mode_energy(0, REDUCED) == 0.5


def test_mode_energy_ladder():
    assert mode_energy(3, REDUCED) == 3.5
    p = OscillatorParams(hbar=2.0, omega=3.0)
    assert mode_energy(1, p) == pytest.approx(9.0)


def test_mode_energy_uniform_spacing_exact_in_reduced_units():
    for q in range(200):
        assert mode_energy(q + 1, REDUCED) - mode_energy(q, REDUCED) == 1.0


@given(q=st.integers(0, 10_000), scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]))
def test_mode_energy_uniform_spacing_dyadic(q, scale):
    # Dyadic quanta keep every product exact, so the spacing is bitwise hbar*omega.
    p = OscillatorParams(omega=scale)
    assert mode_energy(q + 1, p) - mode_energy(q, p) == p.quantum


def test_mode_energy_negative_index_rejected():
    with pytest.raises(DomainError):
        mode_energy(-1, REDUCED)


def test_mode_energy_refuses_an_overflowing_level():
    # hbar*omega = 1e308 is finite, but level 2 lies at 2.5e308.
    p = OscillatorParams(hbar=1e308)
    assert mode_energy(1, p) == 1.5e308
    with pytest.raises(DomainError, match="overflows"):
        mode_energy(2, p)
    # q past the float range raised a bare OverflowError from q + 0.5
    with pytest.raises(DomainError, match=f"level q = {10**400} overflows"):
        mode_energy(10**400, REDUCED)


def test_params_validation():
    with pytest.raises(DomainError):
        OscillatorParams(omega=0.0)
    with pytest.raises(DomainError):
        OscillatorParams(omega=-1.0)
    with pytest.raises(DomainError):
        OscillatorParams(hbar=0.0)
    with pytest.raises(DomainError):
        OscillatorParams(mass=-2.0)


def test_quantum_property():
    p = OscillatorParams(hbar=0.5, omega=3.0)
    assert p.quantum == pytest.approx(1.5)


def test_ensemble_energy_three_singly_occupied_levels():
    state = OccupationState({0: 1, 1: 1, 2: 1})
    assert ensemble_energy(state, REDUCED) == pytest.approx(4.5)


def test_ensemble_energy_weighted_levels():
    # 2 particles at q=0 and one at q=3 with quantum 2: 2*1 + 7 = 9.
    p = OscillatorParams(omega=2.0)
    state = OccupationState({0: 2, 3: 1})
    assert ensemble_energy(state, p) == pytest.approx(9.0)


def test_ensemble_energy_empty_state_is_zero():
    assert ensemble_energy(OccupationState({}), REDUCED) == 0.0


def test_ensemble_energy_condensed_ground_state():
    state = OccupationState({0: 7})
    assert ensemble_energy(state, REDUCED) == 3.5


occupation_maps = st.dictionaries(
    st.integers(0, 40), st.integers(0, 6), max_size=8
)


@given(occ=occupation_maps)
@settings(max_examples=80)
def test_ensemble_energy_matches_per_particle_sum(occ):
    """The weighted sum must agree with expanding every particle individually."""
    state = OccupationState(occ)
    expanded = [mode_energy(q, REDUCED) for q, n in occ.items() for _ in range(n)]
    assert ensemble_energy(state, REDUCED) == pytest.approx(
        math.fsum(expanded), abs=1e-12
    )


@given(a=occupation_maps, b=occupation_maps)
@settings(max_examples=60)
def test_ensemble_energy_additive_over_merged_states(a, b):
    merged = dict(a)
    for q, n in b.items():
        merged[q] = merged.get(q, 0) + n
    lhs = ensemble_energy(OccupationState(merged), REDUCED)
    rhs = ensemble_energy(OccupationState(a), REDUCED) + ensemble_energy(
        OccupationState(b), REDUCED
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_occupation_state_drops_zero_counts():
    state = OccupationState({0: 1, 5: 0, 9: 0})
    assert dict(state.items()) == {0: 1}
    assert state.total == 1


def test_occupation_state_total_is_derived():
    state = OccupationState({2: 3, 7: 1})
    assert state.total == 4


def test_occupation_state_declared_total_checked():
    OccupationState({0: 2}, total=2)
    with pytest.raises(ClosureError):
        OccupationState({0: 2}, total=3)
    with pytest.raises(ClosureError):
        OccupationState({0: 2}, total=2.5)


def test_occupation_state_rejects_negative_count():
    with pytest.raises(DomainError):
        OccupationState({0: -1})


def test_occupation_state_rejects_negative_level():
    with pytest.raises(DomainError):
        OccupationState({-2: 1})


def test_occupation_state_rejects_non_integer_count():
    with pytest.raises(DomainError):
        OccupationState({0: 1.5})


def test_occupation_state_from_levels():
    state = OccupationState.from_levels([0, 0, 3])
    assert dict(state.items()) == {0: 2, 3: 1}
    assert state.total == 3
    # Every key goes through the level check: no silent truncation.
    with pytest.raises(DomainError):
        OccupationState.from_levels([1.5])
    assert OccupationState.from_levels([2.0, 2]).occupations == {2: 2}
    gas = GasOccupationState.from_levels([(0, 1), (0, 1), (-2, 0)])
    assert gas.occupations == {(0, 1): 2, (-2, 0): 1}


def test_occupation_state_items_sorted():
    state = OccupationState({9: 1, 2: 1, 4: 2})
    assert [q for q, _ in state.items()] == [2, 4, 9]


def test_construction_copies_the_input_map():
    raw = {0: 1}
    state = OccupationState(raw)
    raw[3] = 2
    assert dict(state.items()) == {0: 1}


def test_validate_detects_mutated_backing_map():
    state = OccupationState({0: 1})
    state.validate()
    # The frozen dataclass still exposes a plain dict, so closure is
    # re-checked on demand rather than trusted forever.
    state.occupations[3] = 2
    with pytest.raises(ClosureError):
        state.validate()
