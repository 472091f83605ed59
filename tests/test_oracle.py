"""Tests for the exhaustive Fock-space oracle.

The closed forms under test are the elementary single-level results
n = 1/(e^x + 1) and n = x-geometric means, evaluated directly here so the
enumeration has an external standard to meet.

The reference weights and ground-state search below are the package's as
first written: one ``Configuration`` per enumerated state and an O(modes)
exponent sum each.  The package walks the exponents in blocks instead.  The
equivalence tests pin that the ground state is exactly the same, that a
space of one block gets exactly ``fsum(n_i*w)/fsum(w)`` over the reference
weights, and that a larger space stays within a rounding bound derived from
its block count and the association of its exponents.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openosc import (
    ChemicalPotentialError,
    Configuration,
    DomainError,
    EnumerationLimitError,
    FermionClass,
    ModeSet,
    OscillatorParams,
    StatisticsKind,
    Thermo,
    classify_fermion_state,
    enumerate_configurations,
    gc_average_occupation,
    ground_state_search,
    occupation_number,
    per_mode_limit,
)
from openosc.oracle import _BLOCK, _GROUP

BOSE = StatisticsKind.BOSE
FERMI = StatisticsKind.FERMI
REDUCED = OscillatorParams()


def ladder(q_max):
    return ModeSet.from_oscillator(REDUCED, q_max)


def _plain_sum(terms):
    """Builtin ``sum`` of floats before Python 3.12: plain adds from int 0."""
    total = 0
    for x in terms:
        total = total + x
    return total


def reference_weights(modes, t, kind, cutoff=1):
    """``(counts, sum_i |x_i|, w)`` per configuration, ``x_i = (e_i - mu)*n_i``,
    and the largest exponent ``a_max``; ``w`` is ``exp(a - a_max)`` with the
    exponent ``a = -beta*x`` added left to right."""
    if kind is BOSE:
        bad = [i for i, e in enumerate(modes.energies) if not e - t.mu > 0.0]
        if bad:
            raise ChemicalPotentialError(f"energy <= mu at mode index {bad}")
    limit = per_mode_limit(kind, cutoff)
    a_max = -t.beta * _plain_sum(
        min(0.0, (e - t.mu) * limit) for e in modes.energies
    )
    weights = []
    for cfg in enumerate_configurations(modes, kind, cutoff):
        xs = [(e - t.mu) * n for e, n in zip(modes.energies, cfg.counts)]
        a = -t.beta * _plain_sum(xs)
        weights.append((cfg.counts, math.fsum(map(abs, xs)), math.exp(a - a_max)))
    return weights, a_max


def reference_gc_average_occupation(modes, t, kind, cutoff=1):
    """``fsum(n_i*w) / fsum(w)`` over the reference weights."""
    weights, _ = reference_weights(modes, t, kind, cutoff)
    norm = math.fsum(w for _, _, w in weights)
    return tuple(
        math.fsum(counts[i] * w for counts, _, w in weights) / norm
        for i in range(len(modes))
    )


def reference_ground_state_search(modes, mu, kind, cutoff=1):
    if kind is BOSE and any(e - mu < 0.0 for e in modes.energies):
        return None, None
    best = None
    best_cfg = None
    for cfg in enumerate_configurations(modes, kind, cutoff):
        value = _plain_sum((e - mu) * n for e, n in zip(modes.energies, cfg.counts))
        if best is None or value < best:
            best = value
            best_cfg = cfg
    return best, best_cfg.counts


def test_mode_set_from_oscillator():
    modes = ladder(4)
    assert modes.energies == (0.5, 1.5, 2.5, 3.5, 4.5)
    assert len(modes) == 5


def test_mode_set_validation():
    with pytest.raises(DomainError):
        ModeSet(())
    with pytest.raises(DomainError):
        ModeSet((1.0, math.inf))
    with pytest.raises(DomainError):
        ModeSet.from_oscillator(REDUCED, -1)


def test_mode_set_rejects_fractional_q_max():
    with pytest.raises(DomainError):
        ModeSet.from_oscillator(REDUCED, 2.5)
    assert ModeSet.from_oscillator(REDUCED, 2.0) == ladder(2)


def test_configuration_energy():
    cfg = Configuration((2, 0, 1))
    assert cfg.total == 3
    assert cfg.energy(ModeSet((0.5, 1.5, 2.5))) == pytest.approx(3.5)


def test_enumeration_counts():
    assert len(list(enumerate_configurations(ladder(1), BOSE, cutoff=2))) == 9
    assert len(list(enumerate_configurations(ladder(1), FERMI))) == 4
    assert len(list(enumerate_configurations(ladder(0), BOSE, cutoff=0))) == 1


def test_enumeration_is_lexicographic():
    configs = [c.counts for c in enumerate_configurations(ladder(1), BOSE, cutoff=2)]
    assert configs[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert configs == sorted(configs)


def test_fermi_cutoff_is_ignored():
    # Exclusion wins over any requested per-mode ceiling.
    configs = list(enumerate_configurations(ladder(1), FERMI, cutoff=9))
    assert max(max(c.counts) for c in configs) == 1


def test_enumeration_cap_refused_up_front():
    gen = enumerate_configurations(ladder(23), FERMI)
    with pytest.raises(EnumerationLimitError):
        next(gen)


def test_average_cap_refused_up_front():
    with pytest.raises(EnumerationLimitError):
        gc_average_occupation(ladder(23), Thermo(1.0, 0.0), FERMI)
    with pytest.raises(EnumerationLimitError):
        ground_state_search(ladder(23), 0.0, FERMI)


def test_enumeration_cutoff_validation():
    with pytest.raises(DomainError):
        list(enumerate_configurations(ladder(1), BOSE, cutoff=-1))


@pytest.mark.parametrize("mu", [-1.0, 0.0, 1.6])
def test_fermi_averages_match_the_logistic_form(mu):
    t = Thermo(1.0, mu)
    modes = ladder(4)
    means = gc_average_occupation(modes, t, FERMI)
    for e, n in zip(modes.energies, means):
        assert abs(n - occupation_number(e, t, FERMI)) < 1e-12


def test_fermi_average_half_filling_at_mu():
    means = gc_average_occupation(ModeSet((0.7,)), Thermo(1.0, 0.7), FERMI)
    assert means[0] == pytest.approx(0.5, abs=1e-15)


def test_fermi_average_cold_limit():
    # At beta = 600 the closest gap beta*|e - mu| is 60, so the two bound
    # modes saturate and the rest empty out to machine precision.
    t = Thermo(600.0, 1.6)
    means = gc_average_occupation(ladder(4), t, FERMI)
    assert means[0] == pytest.approx(1.0, abs=1e-12)
    assert means[1] == pytest.approx(1.0, abs=1e-12)
    assert means[2] < 1e-12


@pytest.mark.parametrize("x", [0.5, math.exp(-0.5), math.exp(-2.0)])
def test_bose_single_mode_truncated_average(x):
    # One mode with Boltzmann ratio x, truncated at 60 particles, against
    # the closed geometric mean x/(1 - x).
    energy = -math.log(x)
    t = Thermo(1.0, 0.0)
    means = gc_average_occupation(ModeSet((energy,)), t, BOSE, cutoff=60)
    closed = 1.0 / math.expm1(energy)
    assert abs(means[0] - closed) < 1e-10


def test_bose_truncation_error_shrinks_with_cutoff():
    energy = 0.5
    t = Thermo(1.0, 0.0)
    closed = 1.0 / math.expm1(energy)
    errors = []
    for cutoff in (5, 10, 20, 40, 60):
        mean = gc_average_occupation(ModeSet((energy,)), t, BOSE, cutoff=cutoff)[0]
        errors.append(abs(mean - closed))
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_bose_truncation_error_scale():
    # The finite cap at M removes a geometric tail; the observed error must
    # sit below (M+2) x^(M+1) / (1-x)^2 which dominates that tail.
    t = Thermo(1.0, 0.0)
    for energy, cutoff in ((0.5, 12), (0.5, 25), (2.0, 8)):
        x = math.exp(-energy)
        mean = gc_average_occupation(ModeSet((energy,)), t, BOSE, cutoff=cutoff)[0]
        closed = 1.0 / math.expm1(energy)
        scale = (cutoff + 2) * x ** (cutoff + 1) / (1.0 - x) ** 2
        assert abs(mean - closed) <= scale


def test_bose_multi_mode_average():
    # Independent modes factorise, so each per-mode mean carries only its
    # own single-mode truncation error (about 3e-12 at cutoff 60).
    t = Thermo(1.0, 0.0)
    modes = ModeSet((0.5, 1.5, 2.5))
    means = gc_average_occupation(modes, t, BOSE, cutoff=60)
    for e, n in zip(modes.energies, means):
        assert n == pytest.approx(1.0 / math.expm1(e), abs=1e-10)


def test_bose_average_rejects_mode_at_or_below_mu():
    with pytest.raises(ChemicalPotentialError) as err:
        gc_average_occupation(ladder(2), Thermo(1.0, 0.5), BOSE, cutoff=10)
    assert "[0]" in str(err.value)


@pytest.mark.parametrize("q_max, scale", [(3, 1.0), (3, 1e200), (11, 1.0), (11, 1e200)])
def test_average_handles_deeply_negative_exponents(q_max, scale):
    # mu far above every level: weights span e^{+large}; the factored
    # offsets must keep the sums finite, in one block and in many, even
    # where one rounding of an exponent is far larger than 1.
    modes = ModeSet(tuple(scale * e for e in ladder(q_max).energies))
    means = gc_average_occupation(modes, Thermo(10.0, 50.0 * scale), FERMI)
    assert all(n == pytest.approx(1.0, abs=1e-12) for n in means)


def test_ground_state_fermi_fills_bound_levels():
    result = ground_state_search(ladder(4), 1.6, FERMI)
    assert result.bounded
    assert result.configuration.counts == (1, 1, 0, 0, 0)
    assert result.energy == pytest.approx(-1.2, abs=1e-12)


def test_ground_state_bose_unbounded_below():
    result = ground_state_search(ladder(4), 1.6, BOSE, cutoff=6)
    assert not result.bounded
    assert result.energy is None
    assert result.configuration is None


def test_ground_state_bose_vacuum():
    result = ground_state_search(ladder(4), 0.3, BOSE, cutoff=6)
    assert result.bounded
    assert result.energy == 0.0
    assert result.configuration.counts == (0, 0, 0, 0, 0)


def test_ground_state_boundary_mode_stays_empty():
    # e - mu = 0 on the first mode: occupying it is free but not better,
    # and the first minimiser in enumeration order is the vacuum.
    result = ground_state_search(ModeSet((0.5, 1.5)), 0.5, BOSE, cutoff=4)
    assert result.bounded
    assert result.energy == 0.0
    assert result.configuration.counts == (0, 0)


@given(
    q_max=st.integers(1, 6),
    mu_times_20=st.integers(-40, 130),
)
@settings(max_examples=80)
def test_fermi_ground_state_is_the_bound_set(q_max, mu_times_20):
    """Exhaustive search must occupy exactly the levels classified BOUND."""
    mu = mu_times_20 / 20.0 + 0.01  # offset keeps mu off every level edge
    result = ground_state_search(ladder(q_max), mu, FERMI)
    assert result.bounded
    for q, n in enumerate(result.configuration.counts):
        bound = classify_fermion_state(q, mu, REDUCED) is FermionClass.BOUND
        assert (n == 1) == bound


@pytest.mark.parametrize("mu, beta", [
    (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf), (1e308, 1e10),
], ids=["mu-inf", "mu-minus-inf", "beta-inf", "beta-mu-overflow"])
def test_average_refuses_non_finite_exponents(mu, beta):
    # inf*0 in an unoccupied count, or beta*(e - mu) past the float range,
    # would make every weight NaN.
    with pytest.raises(DomainError, match="not finite"):
        gc_average_occupation(ladder(3), Thermo(beta, mu), FERMI)


def test_average_refuses_an_overflowing_largest_exponent():
    # Each entry is finite, but the deepest configuration's exponent sum
    # -2e308 is not, so the factored offset would be inf.
    with pytest.raises(DomainError, match="overflows"):
        gc_average_occupation(ModeSet((-1e308, -1e308)), Thermo(1.0, 0.0), FERMI)


@pytest.mark.parametrize("mu, kind", [
    (math.inf, FERMI), (-math.inf, FERMI), (-math.inf, BOSE),
])
def test_ground_state_refuses_non_finite_exponents(mu, kind):
    with pytest.raises(DomainError, match="not finite"):
        ground_state_search(ladder(3), mu, kind, cutoff=2)


def test_ground_state_refuses_an_overflowing_lowest_energy():
    # Each entry is finite, but the deepest configuration's sum -2e308 is
    # not: the search once returned bounded=True with energy -inf.
    with pytest.raises(DomainError, match="overflows"):
        ground_state_search(ModeSet((-1e308, -1e308)), 0.0, FERMI)


# Ten Fermi modes: the first two form the head, the last eight the tail.
@pytest.mark.parametrize("energies, beta", [
    ((-1e308, -1e308) + (1.0,) * 8, 1.0),
    ((1.0,) * 8 + (-1e308, -1e308), 1.0),
    ((-1e308,) + (1.0,) * 8 + (-1e308,), 0.5),
], ids=["head", "tail", "across-halves-beta-half"])
def test_both_walks_refuse_an_overflowing_deepest_exponent(energies, beta):
    # At beta = 0.5 the scaled entries add up to a finite -1e308; the check
    # scales the unscaled total -inf, as the weight walk's refusal always did.
    modes = ModeSet(energies)
    with pytest.raises(DomainError, match="overflows"):
        gc_average_occupation(modes, Thermo(beta, 0.0), FERMI)
    with pytest.raises(DomainError, match="overflows"):
        ground_state_search(modes, 0.0, FERMI)


# The most modes whose space fits in one block of the walk: Fermi, and Bose
# at cutoff 3 (four counts per mode).  One mode more spills into the head.
_FERMI_EDGE = _BLOCK.bit_length() - 1
_BOSE_EDGE = _FERMI_EDGE // 2

energies = st.floats(-5.0, 5.0, allow_nan=False)
betas = st.floats(-6.0, math.log10(50.0)).map(lambda x: 10.0 ** x)


@st.composite
def oracle_cases(draw):
    """(energies, kind, cutoff, beta, mu); Bose cases keep every e - mu > 0."""
    if draw(st.booleans()):
        kind, cutoff, n = FERMI, 1, draw(st.integers(1, 12))
    else:
        kind, n, cutoff = BOSE, draw(st.integers(1, 4)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        es = [q + 0.5 for q in range(n)]
    else:
        es = draw(st.lists(energies, min_size=n, max_size=n))
    if kind is FERMI:
        mu = draw(st.floats(-6.0, 6.0))
    else:
        gap = draw(st.one_of(st.floats(1e-12, 1e-9), st.floats(1e-9, 3.0)))
        mu = min(es) - gap
        if not all(e - mu > 0.0 for e in es):
            mu = min(es) - 2e-9
    return es, kind, cutoff, draw(betas), mu


U = 2.0 ** -53


def _gamma(n):
    return n * U / (1.0 - n * U)


def _block_count(sizes):
    """Blocks of the oracle's walk over modes with ``sizes`` counts each: the
    trailing modes that span at most ``_BLOCK`` configurations (at least the
    last mode) are the tail, and a longer last mode is cut into slices."""
    k, tail = len(sizes) - 1, sizes[-1]
    while k and tail * sizes[k - 1] <= _BLOCK:
        k -= 1
        tail *= sizes[k]
    return math.prod(sizes[:k]) * -(-tail // _BLOCK)


def _rounding_bound(weights, a_max, i, m, beta, blocks):
    """Largest ``|mean - target|`` for mode ``i`` of ``m`` modes, where
    ``target = fl(fsum(n_i*w) / fsum(w))`` over the reference weights.

    Exponents.  Both sides add the same table entries ``x_i``; only the
    association differs.  Let ``E = beta * sum_i |x_i| + |a_max|``.  The
    reference rounds ``m - 1`` adds of ``sum x_i``, the product by ``-beta``
    and the subtraction of ``a_max``: with ``|fl(z) - z| <= U*|z|`` it lies
    within ``gamma(m + 2) * E`` of the exact ``-beta*sum x_i - a_max``.  The
    oracle rounds ``k - 1`` head adds and ``m - k - 1`` tail adds, two
    products, two subtractions and one more add, and it subtracts the head's
    and the tail's largest exponent, which are rounded sums of the same
    entries as ``a_max`` and together differ from it by at most
    ``gamma(m) * 2|a_max|``; so it lies within ``gamma(2m + 3) * E``.  The
    two exponents then differ by at most ``d = 3 * gamma(m + 2) * E``.
    ``exp`` errs by at most one ulp (``2*U`` relative), so the weights
    differ by a factor within ``eps = exp(d) * (1 + 2U) / (1 - 2U) - 1``,
    plus a few least subnormals once they underflow.  The numerator and the
    normalisation take those factors weighted by ``n_i * w`` and ``w``.

    Sums.  All terms are positive.  Each block's ``fsum`` rounds once; the
    normalisation then adds ``blocks`` totals, a head mode ``blocks``
    products ``n * total``, a column entry one weight per block before its
    product and ``fsum``; a sliced last mode adds ``a * total`` per slice
    and the ``fsum`` of its column.  The column is folded in groups of
    blocks with built-in ``sum``: before Python 3.12 those are the same
    plain adds, one weight per block, and from 3.12 on ``sum`` compensates
    them, so one rounding per block is still an upper bound.  So the
    oracle's numerator is within ``gamma(blocks + 2)`` and its
    normalisation within ``gamma(blocks)``; the target's numerator
    (products and ``fsum``) within ``gamma(2)``, its normalisation within
    ``U``.  Each division rounds once more.
    """
    num = math.fsum(c[i] * w for c, _, w in weights)
    den = math.fsum(w for _, _, w in weights)

    def eps(s):
        d = 3.0 * _gamma(m + 2) * (beta * s + abs(a_max))
        return math.exp(d) * (1.0 + 2.0 * U) / (1.0 - 2.0 * U) - 1.0

    eps_num = math.fsum(c[i] * w * eps(s) for c, s, w in weights) / num if num else 0.0
    eps_den = math.fsum(w * eps(s) for _, s, w in weights) / den
    up = (1.0 + eps_num) * (1.0 + _gamma(blocks + 2)) * (1.0 + U) ** 2
    down = (1.0 - eps_den) * (1.0 - _gamma(blocks)) * (1.0 - _gamma(2)) * (1.0 - U)
    rel = up / down - 1.0
    target = num / den
    # Subnormal weights and products round by absolute steps, not relatively.
    tiny = len(weights) * (max(map(max, (c for c, _, _ in weights))) + 2) * 2.0 ** -1070
    return rel * target + tiny


def _check_same_as_reference(es, kind, cutoff, beta, mu):
    modes = ModeSet(tuple(es))
    t = Thermo(beta, mu)
    means = gc_average_occupation(modes, t, kind, cutoff)
    target = reference_gc_average_occupation(modes, t, kind, cutoff)
    sizes = [per_mode_limit(kind, cutoff) + 1] * len(es)
    blocks = _block_count(sizes)
    if blocks == 1:
        assert means == target
    else:
        weights, a_max = reference_weights(modes, t, kind, cutoff)
        for i, (mean, ref) in enumerate(zip(means, target)):
            bound = _rounding_bound(weights, a_max, i, len(es), beta, blocks)
            assert abs(mean - ref) <= bound, (i, mean, ref, bound)
    result = ground_state_search(modes, mu, kind, cutoff)
    energy, counts = reference_ground_state_search(modes, mu, kind, cutoff)
    assert result.energy == energy
    assert (result.configuration and result.configuration.counts) == counts


@given(oracle_cases())
@example(([q + 0.5 for q in range(_FERMI_EDGE)], FERMI, 1, 1.0, 3.1))
@example(([q + 0.5 for q in range(_FERMI_EDGE + 1)], FERMI, 1, 1.0, 3.1))
@example(([q + 0.5 for q in range(_BOSE_EDGE)], BOSE, 3, 0.7, 0.5 - 1e-9))
@example(([q + 0.5 for q in range(_BOSE_EDGE + 1)], BOSE, 3, 0.7, 0.5 - 1e-9))
@example(([-3.0, 0.25, -0.5, 4.0, 1.0, -2.0, 0.0, 2.5, -1.5], FERMI, 1, 50.0, 0.0))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_walk_matches_reference_bit_for_bit(case):
    # Bit for bit: the ground state, and the means of a space of one block.
    _check_same_as_reference(*case)


@pytest.mark.parametrize("n, cutoff", [(1, _BLOCK - 1), (1, _BLOCK), (1, 2 * _BLOCK + 7), (2, _BLOCK + 3)])
def test_walk_slices_a_long_last_mode_bit_for_bit(n, cutoff):
    # A mode with more counts than one block holds is walked in slices.
    _check_same_as_reference([0.02 * (q + 1) for q in range(n)], BOSE, cutoff, 0.9, 0.01)


@pytest.mark.parametrize("es, kind, cutoff, beta, mu, blocks, bits", [
    ([q + 0.5 for q in range(4)], BOSE, 8, 0.7, 0.3, 81, [
        "0x1.8b9df90ac89e3p+1", "0x1.828c3f965850cp-1", "0x1.176c121982248p-2",
        "0x1.e801a3fc04476p-4"]),
    ([q + 0.5 for q in range(15)], FERMI, 1, 1.0, 3.1, 2 * _GROUP, [
        "0x1.dc99e39374d9ep-1", "0x1.a9fe5053a451fp-1", "0x1.4a93769f6453ep-1",
        "0x1.9af19f3d3169bp-2", "0x1.95209d0a1a2e0p-3", "0x1.54ace4b5c8d41p-4",
        "0x1.08907f960c057p-5", "0x1.8d6cafcdf7a5dp-7", "0x1.26aaf22e1caa8p-8",
        "0x1.b2d8418f46d35p-10", "0x1.4046d6f6ee8c5p-11", "0x1.d779959fb29d7p-13",
        "0x1.5af0f115ef8c4p-14", "0x1.fe8e8aa9db0aap-16", "0x1.77a767e7f0391p-17"]),
    ([0.02, 0.04], BOSE, 300, 0.9, 0.01, 2 * 301, [
        "0x1.6488f02224ab9p+6", "0x1.239a464006c58p+5"]),
], ids=["bose-81-blocks", "fermi-two-groups", "sliced-short-last-slice"])
def test_grouped_column_fold_keeps_the_block_by_block_bits(es, kind, cutoff, beta, mu, blocks, bits):
    # The walk folds the weights of up to _GROUP blocks into the column at once
    # with built-in sum.  Before Python 3.12 that is the plain adds of one block
    # at a time, so the bits frozen from the block-by-block walk stay; from 3.12
    # on sum compensates, and the rounding bound of a larger space still holds.
    assert _block_count([per_mode_limit(kind, cutoff) + 1] * len(es)) == blocks
    means = gc_average_occupation(ModeSet(tuple(es)), Thermo(beta, mu), kind, cutoff)
    if sys.version_info < (3, 12):
        assert [m.hex() for m in means] == bits
    _check_same_as_reference(es, kind, cutoff, beta, mu)


@pytest.mark.parametrize("es, kind, cutoff", [
    ([0.5, 1.5, 2.5], FERMI, 1),
    ([q + 0.5 for q in range(_FERMI_EDGE + 3)], FERMI, 1),
    ([q + 0.5 for q in range(_BOSE_EDGE + 1)], BOSE, 3),
    ([0.02, 0.04], BOSE, _BLOCK + 3),
], ids=["one-block", "fermi-heads", "bose-heads", "sliced"])
def test_each_configuration_costs_one_exponential(monkeypatch, es, kind, cutoff):
    # A brute-force check must weigh every configuration itself: an oracle
    # that factorised its weights over modes would be the closed form it checks.
    modes, t = ModeSet(tuple(es)), Thermo(0.9, 0.01)
    calls = []
    real = math.exp
    monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or real(x))
    gc_average_occupation(modes, t, kind, cutoff)
    assert len(calls) == (per_mode_limit(kind, cutoff) + 1) ** len(es)
