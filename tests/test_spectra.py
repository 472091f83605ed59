"""Tests for oscillator parameters, occupation states, and raw spectra."""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openosc import (
    ChainAssignment,
    ChainParams,
    ClosureError,
    DomainError,
    GasOccupationState,
    GasParams,
    ModeSet,
    OccupationState,
    OscillatorParams,
    StatisticsKind,
    Thermo,
    TruncationPolicy,
    accessible_set,
    bose_gas_condition,
    bose_threshold_equivalence,
    chain_frequencies,
    ensemble_energy,
    gc_average_occupation,
    level_index,
    mode_energy,
    per_mode_limit,
    q_min_chain,
    q_min_gas,
    quartic_reciprocal_tail,
    translational_energy,
    verify_series_estimates,
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


# Past Python's default limit of 4,300 digits for converting an int to str.
HUGE = 10**5000
SPELLED = f"<int of {HUGE.bit_length()} bits>"
NONNEG = "a non-negative integer"
RG = GasParams.reduced()


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: translational_energy(HUGE, RG), f"level k = {SPELLED} overflows"),
        (lambda: mode_energy(HUGE, REDUCED), f"level q = {SPELLED} overflows"),
        (lambda: level_index(-HUGE), f"index must be {NONNEG}, got -{SPELLED}"),
        (lambda: q_min_gas(0.0, HUGE, RG), f"level k = {SPELLED} overflows"),
        (lambda: OccupationState({-HUGE: 1}), f"index must be {NONNEG}, got -{SPELLED}"),
        (lambda: OccupationState({0: -HUGE}), f"count must be {NONNEG}, got -{SPELLED}"),
        (lambda: OccupationState({0: 1}, total=HUGE), f"declared total {SPELLED} != summed"),
        (lambda: bose_gas_condition(0.0, RG, -HUGE), f"k_max must be {NONNEG}, got -{SPELLED}"),
        (lambda: accessible_set(0.0, REDUCED, -HUGE), f"q_max must be {NONNEG}, got -{SPELLED}"),
        (lambda: quartic_reciprocal_tail(-HUGE), f"positive integer, got -{SPELLED}"),
        (
            lambda: TruncationPolicy(max_terms=-HUGE),
            f"max_terms must be a positive integer, got -{SPELLED}",
        ),
        (lambda: ChainParams(-HUGE, REDUCED), f"count must be a positive integer, got -{SPELLED}"),
        (
            lambda: q_min_chain(0.0, 0, ChainAssignment((0,)), ChainParams(HUGE, REDUCED)),
            f"chain has {SPELLED}",
        ),
        (
            lambda: gc_average_occupation(ModeSet((1.0,)), Thermo(1.0), StatisticsKind.BOSE, HUGE),
            f"{SPELLED} configurations exceed the cap",
        ),
    ],
)
def test_an_index_or_count_too_long_to_print_is_spelled_by_its_size(call, expected):
    # The message that repeats it raised a bare ValueError from int -> str instead.
    with pytest.raises(DomainError) as err:
        call()
    assert expected in str(err.value)


BOSE = StatisticsKind.BOSE

# (name in the message, least allowed value or None for any sign, call) for
# each public entry point that takes an index, count or size.
INTEGER_ARGUMENTS = [
    ("level index", 0, lambda v: level_index(v)),
    ("level index", 0, lambda v: mode_energy(v, REDUCED)),
    ("level index", 0, lambda v: OccupationState({v: 1})),
    ("occupation count", 0, lambda v: OccupationState({0: v})),
    ("translational index", None, lambda v: translational_energy(v, RG)),
    ("translational index", None, lambda v: GasOccupationState({(v, 0): 1})),
    ("k_max", 0, lambda v: bose_gas_condition(0.0, RG, v)),
    ("count", 1, lambda v: chain_frequencies(ChainParams(v, REDUCED))),
    ("q_max", 0, lambda v: accessible_set(0.0, REDUCED, v)),
    ("k_max", 0, lambda v: bose_threshold_equivalence(0.0, RG, v, 2)),
    ("q_max", 0, lambda v: bose_threshold_equivalence(0.0, RG, 1, v)),
    ("cutoff", 0, lambda v: per_mode_limit(BOSE, v)),
    ("cutoff", 0, lambda v: gc_average_occupation(ModeSet((1.0,)), Thermo(1.0), BOSE, v)),
    ("q_max", 0, lambda v: ModeSet.from_oscillator(REDUCED, v)),
    ("a", 1, lambda v: quartic_reciprocal_tail(v)),
    ("max_terms", 1, lambda v: TruncationPolicy(max_terms=v)),
]
INTEGER_IDS = [f"{i}-{name}" for i, (name, _, _) in enumerate(INTEGER_ARGUMENTS)]
# Each call with each value that is not a whole number, and with one below its least.
NOT_WHOLE = [math.nan, math.inf, -math.inf, 2.5, None, "3"]
REFUSED = [
    pytest.param(name, call, value, id=f"{case}-{value!r}")
    for case, (name, least, call) in zip(INTEGER_IDS, INTEGER_ARGUMENTS)
    for value in NOT_WHOLE + ([] if least is None else [least - 1])
]


@pytest.mark.parametrize("name, call, value", REFUSED)
def test_every_index_count_and_size_refuses_what_is_not_a_whole_number(name, call, value):
    # NaN and the infinities raised a bare ValueError or OverflowError from int();
    # a fractional size was truncated or stored as given.
    with pytest.raises(DomainError, match=f"{name} must be"):
        call(value)


@pytest.mark.parametrize("name, least, call", INTEGER_ARGUMENTS, ids=INTEGER_IDS)
def test_an_integral_float_index_count_or_size_gives_the_result_of_its_int(name, least, call):
    # ChainParams(3.0, p) was accepted, then chain_frequencies died in range(1, 4.0).
    assert repr(call(3.0)) == repr(call(3))


# These checks run at the paper's fixed sizes and at its exact threshold;
# they keep no tolerance, grid or temperature knob.
@pytest.mark.parametrize("function, parameters", [
    (verify_series_estimates, []),
    (bose_threshold_equivalence, ["mu", "g", "k_max", "q_max"]),
    (accessible_set, ["mu", "p", "q_max"]),
], ids=lambda v: getattr(v, "__name__", "-"))
def test_threshold_and_estimate_checks_take_only_their_inputs(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


def test_an_occupation_state_is_read_through_items_not_iteration():
    state = OccupationState({3: 1, 0: 2})
    assert state.items() == [(0, 2), (3, 1)]
    with pytest.raises(TypeError):
        iter(state)


@pytest.mark.parametrize("name, call", [
    ("rel_tol", lambda v: TruncationPolicy(rel_tol=v)),
    ("abs_tol", lambda v: TruncationPolicy(abs_tol=v)),
], ids=["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_every_tolerance_and_grid_knob_is_a_checked_scale(name, call, value):
    # A NaN abs_tol was accepted and acted as 0.
    with pytest.raises(DomainError, match=f"{name} must be"):
        call(value)


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
