"""Tests for coupled-chain normal modes and the grouped-form diagnostic."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openosc import (
    ChainAssignment,
    ChainParams,
    DomainError,
    OscillatorParams,
    chain_effective_energy,
    chain_energy,
    chain_frequencies,
    effective_energy_vibrational,
    grouped_form_energy,
    q_min_chain,
    q_min_vibrational,
)

OSC = OscillatorParams()


def test_decoupled_chain_is_flat():
    ch = ChainParams(count=5, osc=OSC, coupling=0.0)
    assert chain_frequencies(ch) == [1.0] * 5


def test_last_mode_frequency_is_bare():
    # sin(pi * N / N) vanishes, so mode N always sits at the bare frequency.
    for n in (1, 2, 3, 7):
        ch = ChainParams(count=n, osc=OSC, coupling=0.8)
        assert chain_frequencies(ch)[-1] == 1.0


def test_four_site_quarter_coupling_frequencies():
    ch = ChainParams(count=4, osc=OSC, coupling=0.25)
    freqs = chain_frequencies(ch)
    # s = 2 has sin^2 = 1, so omega_2 = sqrt(1 + 4c) = sqrt(2).
    assert freqs[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert freqs == pytest.approx(
        [1.224744871391589, 1.4142135623730951, 1.224744871391589, 1.0]
    )


def test_frequency_band_limits():
    ch = ChainParams(count=9, osc=OscillatorParams(omega=2.0), coupling=0.6)
    top = 2.0 * math.sqrt(1.0 + 4.0 * 0.6)
    for w in chain_frequencies(ch):
        assert 2.0 <= w <= top * (1 + 1e-15)


def test_frequency_reflection_symmetry():
    ch = ChainParams(count=8, osc=OSC, coupling=0.37)
    freqs = chain_frequencies(ch)
    for s in range(1, 8):
        assert freqs[s - 1] == pytest.approx(freqs[8 - s - 1], rel=1e-12)


def test_chain_params_validation():
    with pytest.raises(DomainError):
        ChainParams(count=0, osc=OSC)
    with pytest.raises(DomainError):
        ChainParams(count=3, osc=OSC, coupling=-0.1)


def test_assignment_validation():
    with pytest.raises(DomainError):
        ChainAssignment(())
    with pytest.raises(DomainError):
        ChainAssignment((0, -1))


def test_assignment_length_must_match_chain():
    ch = ChainParams(count=3, osc=OSC, coupling=0.2)
    with pytest.raises(DomainError):
        chain_energy(ChainAssignment((0, 0)), ch)


def test_level_groups():
    a = ChainAssignment((1, 0, 1, 3))
    assert a.level_groups() == {0: (2,), 1: (1, 3), 3: (4,)}


def test_chain_energy_zero_point():
    ch = ChainParams(count=4, osc=OSC, coupling=0.25)
    expected = 0.5 * sum(chain_frequencies(ch))
    assert chain_energy(ChainAssignment((0, 0, 0, 0)), ch) == pytest.approx(expected)


def test_chain_energy_against_mode_sum_oracle():
    ch = ChainParams(count=4, osc=OscillatorParams(hbar=0.5, omega=1.5), coupling=0.3)
    a = ChainAssignment((2, 0, 1, 4))
    freqs = chain_frequencies(ch)
    oracle = math.fsum(0.5 * w * (q + 0.5) for w, q in zip(freqs, a.levels))
    assert chain_energy(a, ch) == pytest.approx(oracle, rel=1e-14)


def test_chain_effective_energy_subtracts_mu_per_mode():
    ch = ChainParams(count=3, osc=OSC, coupling=0.4)
    a = ChainAssignment((0, 2, 1))
    mu = 0.7
    assert chain_effective_energy(a, mu, ch) == pytest.approx(
        chain_energy(a, ch) - mu * 3, rel=1e-12
    )


def test_decoupled_chain_matches_single_ladder():
    """With c = 0 every mode is the bare oscillator, so the chain collapses."""
    rng = random.Random(20260823)
    for n in (1, 2, 5):
        ch = ChainParams(count=n, osc=OSC, coupling=0.0)
        for _ in range(5):
            levels = tuple(rng.randrange(0, 6) for _ in range(n))
            a = ChainAssignment(levels)
            for mu in (0.0, 0.2, 1.3):
                chain = chain_effective_energy(a, mu, ch)
                ladder = effective_energy_vibrational(a.occupation_state(), mu, OSC)
                assert chain == pytest.approx(ladder, rel=1e-14, abs=1e-14)


def test_grouped_form_shared_index_example():
    # Both modes on q = 0 at mu = 0.2: canonical (0.5 + 0.5) - 0.4 = 0.6,
    # while the literal grouped form doubles the bracket to 2.0 - 0.4 = 1.6.
    ch = ChainParams(count=2, osc=OSC, coupling=0.0)
    result = grouped_form_energy(ChainAssignment((0, 0)), 0.2, ch)
    assert result.canonical == pytest.approx(0.6)
    assert result.value == pytest.approx(1.6)
    assert result.discrepancy
    assert result.difference == pytest.approx(1.0)


def test_grouped_form_distinct_indices_agree():
    ch = ChainParams(count=2, osc=OSC, coupling=0.0)
    result = grouped_form_energy(ChainAssignment((0, 1)), 0.2, ch)
    assert result.value == pytest.approx(result.canonical)
    assert not result.discrepancy
    assert result.difference == pytest.approx(0.0, abs=1e-14)


@given(
    levels=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    coupling=st.sampled_from([0.0, 0.25, 0.8]),
    mu=st.integers(-8, 8).map(lambda m: m / 4.0),
)
@settings(max_examples=100)
def test_grouped_flag_iff_some_index_shared(levels, coupling, mu):
    ch = ChainParams(count=len(levels), osc=OSC, coupling=coupling)
    result = grouped_form_energy(ChainAssignment(tuple(levels)), mu, ch)
    shared = len(set(levels)) < len(levels)
    assert result.discrepancy == shared
    if shared:
        # Every extra copy of a group adds a strictly positive bracket.
        assert result.difference > 0.0
    else:
        assert result.difference == pytest.approx(0.0, abs=1e-12)


@given(
    levels=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    mu=st.integers(-8, 8).map(lambda m: m / 4.0),
)
@settings(max_examples=60)
def test_grouped_difference_equals_overcount_oracle(levels, mu):
    """difference must equal sum over groups of (|S_q| - 1) * bracket."""
    ch = ChainParams(count=len(levels), osc=OSC, coupling=0.5)
    a = ChainAssignment(tuple(levels))
    freqs = chain_frequencies(ch)
    overcount = 0.0
    for q, members in a.level_groups().items():
        bracket = sum(freqs[s - 1] * (q + 0.5) for s in members)
        overcount += bracket * (len(members) - 1)
    result = grouped_form_energy(a, mu, ch)
    assert result.difference == pytest.approx(overcount, rel=1e-12, abs=1e-12)


def test_q_min_chain_shared_group_halves_threshold():
    # Group {s=1, s=2} at c = 0 has frequency sum 2, so the threshold is
    # mu/2 - 1/2 instead of mu - 1/2.
    ch = ChainParams(count=2, osc=OSC, coupling=0.0)
    a = ChainAssignment((0, 0))
    assert q_min_chain(3.0, 0, a, ch) == pytest.approx(1.0)


def test_q_min_chain_singleton_group_matches_ladder():
    ch = ChainParams(count=3, osc=OSC, coupling=0.0)
    a = ChainAssignment((0, 1, 2))
    for q in (0, 1, 2):
        assert q_min_chain(0.8, q, a, ch) == pytest.approx(
            q_min_vibrational(0.8, OSC), rel=1e-15
        )


def test_q_min_chain_unused_index_rejected():
    ch = ChainParams(count=2, osc=OSC, coupling=0.1)
    with pytest.raises(DomainError):
        q_min_chain(1.0, 5, ChainAssignment((0, 0)), ch)


def test_q_min_chain_decreases_with_group_size():
    mu = 2.0
    for n in (2, 3, 4):
        ch = ChainParams(count=n, osc=OSC, coupling=0.0)
        a = ChainAssignment((0,) * n)
        assert q_min_chain(mu, 0, a, ch) == pytest.approx(mu / n - 0.5)


def test_chain_sums_refuse_an_overflowing_total():
    # Each term is finite, but four terms of -1e308 (or 1e308) add up past the
    # float range, where math.fsum raises OverflowError.
    ch = ChainParams(4, OscillatorParams(), 0.0)
    a = ChainAssignment((0, 0, 0, 0))
    with pytest.raises(DomainError, match="overflows"):
        chain_effective_energy(a, 1e308, ch)
    with pytest.raises(DomainError, match="overflows"):
        grouped_form_energy(a, 1e308, ch)
    huge = ChainParams(4, OscillatorParams(hbar=1e154, omega=1e154), 0.0)
    with pytest.raises(DomainError, match="overflows"):
        chain_energy(ChainAssignment((1, 1, 1, 1)), huge)
    with pytest.raises(DomainError, match="overflows"):
        q_min_chain(0.0, 1, ChainAssignment((1, 1, 1, 1)), huge)


@pytest.mark.parametrize("osc, coupling", [
    (OscillatorParams(), 1e308),
    (OscillatorParams(hbar=10.0, omega=1e307), 1.0),
], ids=["coupling", "hbar-times-omega-s"])
def test_chain_params_refuse_an_overflowing_top_mode(osc, coupling):
    # Such chains once reported omega_s = inf; in the second, hbar*omega = 1e308
    # is finite but the top mode's hbar*omega_s is not.
    with pytest.raises(DomainError, match=r"hbar\*omega_s must be finite and positive, got inf"):
        ChainParams(3, osc, coupling)


def test_chain_sums_refuse_an_overflowing_level():
    # 10*(10^308 + 1/2) is inf, where mode_energy refuses the same level; the
    # chain sums once returned inf.
    ch = ChainParams(1, OscillatorParams(omega=10.0))
    a = ChainAssignment((10**308,))
    message = rf"level \(s, q\) = \(1, {10**308}\) overflows"
    with pytest.raises(DomainError, match=message):
        chain_energy(a, ch)
    with pytest.raises(DomainError, match=message):
        chain_effective_energy(a, 0.0, ch)
    with pytest.raises(DomainError, match=message):
        grouped_form_energy(a, 0.0, ch)
