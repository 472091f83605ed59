"""Block-evaluated certified sums against the step-at-a-time originals.

The reference bodies below are ``certified_sum``, the three step sources
(ladder levels, reduced-series shells, gas shells) and the geometric tail
formulas as first written: one ``(term, count, tail)`` step per generator resume, one
``occupation_number`` call per level and one test of the stopping rule per
step.  ``occupation_number`` and the package's sums share one kernel,
``stats.occupation_numbers``, so the kernel is pinned on its own against
both occupation formulas written out here.  The package evaluates whole
blocks of steps instead; these tests pin that every ladder and reduced-series
``SeriesResult`` and every handed-back occupation keeps its exact bits,
wherever the blocks start and end, and so does a ladder mean without
occupations while it stops before its closing.  The mean and every gas
column are one ladder walker, ``stats._ladder_blocks``: past its first level
with ``x >= closing_start(y)`` it closes the ladder by the fugacity expansion,
and before that every level has a geometric tail, so a gas sum may stop inside
a column.  Closed sums must agree with the step references within both
certified tail bounds and the rounding of both sums.
"""

import itertools
import math
import tracemalloc
import warnings
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openosc import (
    ChemicalPotentialError,
    DomainError,
    GasParams,
    OscillatorParams,
    SeriesResult,
    StatisticsKind,
    Thermo,
    TruncationPolicy,
    equilibrium_particle_number,
    mean_particle_number,
    occupation_number,
    reduced_series,
)
from openosc import series, stats, summation
from openosc.series import _column_steps, _safe_exp
from openosc.stats import _LARGE_X, _TINY_X, _ladder_blocks, closing_start
from openosc.summation import _FIRST_BLOCK, _MAX_BLOCK, block_sizes
from references import WEIGHTS, check_close, gas_sum, weight_of

BOSE = StatisticsKind.BOSE
FERMI = StatisticsKind.FERMI
REDUCED = OscillatorParams()
RG = GasParams.reduced()


def geom_tail0(m, x):
    return x**m / (1.0 - x)


def geom_tail1(m, x):
    return x**m * (m - (m - 1) * x) / (1.0 - x) ** 2


def geom_tail2(m, x):
    num = m * m - (2 * m * m - 2 * m - 1) * x + (m - 1) * (m - 1) * x * x
    return x**m * num / (1.0 - x) ** 3


def reference_certified_sum(steps, policy):
    value = 0.0
    terms = 0
    for term, count, tail in steps:
        value += term
        terms += count
        if tail <= max(policy.rel_tol * abs(value), policy.abs_tol):
            return SeriesResult(value, terms, tail, True)
        if terms >= policy.max_terms:
            return SeriesResult(value, terms, tail, False)
    raise ValueError("step source ended before the policy or the term cap stopped the sum")


def reference_ladder_steps(t, p, kind, occupations):
    quantum = p.quantum
    one_minus_ratio = -math.expm1(-t.beta * quantum)
    energy = quantum * 0.5
    for q in itertools.count(1):
        term = occupation_number(energy, t, kind)
        if occupations is not None:
            occupations.append(term)
        energy = quantum * (q + 0.5)
        x_next = t.beta * (energy - t.mu)
        head = math.exp(-x_next) if x_next > -700.0 else math.inf
        if kind is BOSE:
            head /= -math.expm1(-x_next)
        yield term, 1, head / one_minus_ratio


def reference_reduced_steps(mu, c, kind):
    t = Thermo(1.0, mu)
    x = math.exp(-1.0)
    bose = kind is BOSE
    for r in itertools.count():
        mult = 2 * math.isqrt(r) + 1
        d = 1.0 - math.exp(-(r + 1.0)) / c if bose else 1.0
        term = mult * r * occupation_number(r + 0.5, t, kind)
        yield term, mult, 3.0 * geom_tail2(r + 1, x) / (c * d)


def reference_shell_steps(t, g, kind, alpha, gamma):
    b = g.osc.quantum
    a = g.translational_prefactor
    beta = t.beta
    x = math.exp(-beta * b)
    s = math.sqrt(b / a)
    boltz = _safe_exp(beta * t.mu)
    half = math.exp(-0.5 * beta * b)
    w0 = alpha * 1.5 * b + abs(gamma)
    aa = alpha * s * b
    bb = s * w0 + alpha * (2.0 * s + 1.0) * b
    cc = (2.0 * s + 1.0) * w0
    floors = [0]
    for m in itertools.count():
        while True:
            k = len(floors)
            fu = math.floor(a * k * k / b)
            if fu <= m:
                floors.append(fu)
            else:
                break
        subtotal = 0.0
        count = 0
        for k, fu in enumerate(floors):
            q = m - fu
            if q < 0:
                continue
            energy = a * k * k + b * (q + 0.5)
            mult = 1 if k == 0 else 2
            subtotal += mult * (alpha * energy + gamma) * occupation_number(energy, t, kind)
            count += mult
        if x == 1.0:
            yield subtotal, count, math.inf
            continue
        if kind is FERMI:
            cstat = boltz
        else:
            gap = b * (m + 1.5) - t.mu
            cstat = boltz / (1.0 - math.exp(-beta * gap))
        tail = (cstat * half) * (
            aa * geom_tail2(m + 1, x)
            + bb * geom_tail1(m + 1, x)
            + cc * geom_tail0(m + 1, x)
        )
        yield subtotal, count, tail


def reference_mean(t, p, kind, policy, occupations=None):
    return reference_certified_sum(reference_ladder_steps(t, p, kind, occupations), policy)


def reference_reduced(mu, kind, policy):
    return reference_certified_sum(reference_reduced_steps(mu, math.exp(0.5 - mu), kind), policy)


def reference_shells(t, g, kind, weight, policy):
    alpha, gamma = weight_of(weight, t.mu)
    return reference_certified_sum(reference_shell_steps(t, g, kind, alpha, gamma), policy)


def check_shells(t, g, kind, weight, policy):
    """The column sum against the shell steps."""
    result = gas_sum(t, g, kind, weight, policy)
    check_close(result, reference_shells(t, g, kind, weight, policy))
    return result


def check_ladder(beta, mu, kind, policy, omega=1.0):
    """Both ladder paths against the steps: with occupations bit for bit, closed as far
    as the closing allows."""
    p = OscillatorParams(omega=omega)
    t = Thermo(beta, mu)
    expected_rows = []
    expected = reference_mean(t, p, kind, policy, expected_rows)
    rows = ["kept"]
    assert mean_particle_number(t, p, kind, policy, occupations=rows) == expected
    assert rows == ["kept"] + expected_rows
    closed = mean_particle_number(t, p, kind, policy)
    # the last level the steps added, stopped by the policy or the cap
    x_last = beta * (p.quantum * (expected.terms_used - 0.5) - mu)
    if x_last < closing_start(beta * p.quantum):
        assert closed == expected
    else:
        check_close(closed, expected)
    return expected


# --- the occupation kernel ----------------------------------------------------


def written_out_occupation(x, kind):
    """``1/(exp(x) -+ 1)`` in the ``exp(-x)`` form above ``_LARGE_X`` (Bose) or from 0 (Fermi)."""
    if kind is FERMI:
        if x >= 0.0:
            z = math.exp(-x)
            return z / (1.0 + z)
        return 1.0 / (math.exp(x) + 1.0)
    if x > _LARGE_X:
        z = math.exp(-x)
        return z / (1.0 - z)
    return 1.0 / math.expm1(x)


def around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


KERNEL_XS = [
    0.0, -0.0, *around(_TINY_X), *around(-_TINY_X), *around(_LARGE_X),
    700.0, -700.0, 800.0, -800.0, math.inf, -math.inf, math.nan,
]
TINY_WARNING = (
    "Bose occupation at beta*(energy - mu) < 1e-12 exceeds ~1e12; "
    "the value is dominated by rounding of the exponent"
)


@pytest.mark.parametrize("kind", [BOSE, FERMI])
def test_occupation_kernel_is_both_formulas_bit_for_bit(kind):
    xs = [x for x in KERNEL_XS if kind is FERMI or not x <= 0.0]  # NaN stays
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # x just below _TINY_X
        block = stats.occupation_numbers(xs, kind)
        numbers = [x for x in xs if not math.isnan(x)]  # occupation_number refuses a NaN energy
        levels = [occupation_number(x, Thermo(1.0), kind) for x in numbers]  # beta*(x - 0.0) == x
    assert [repr(n) for n in block] == [repr(written_out_occupation(x, kind)) for x in xs]
    assert [repr(n) for n in levels] == [repr(written_out_occupation(x, kind)) for x in numbers]


def test_occupation_kernel_refuses_the_first_bose_exponent_at_or_below_zero():
    for x in (0.0, -0.0, math.nextafter(0.0, -1.0), -_TINY_X, -800.0, -math.inf):
        message = f"Bose occupation undefined: beta*(energy - mu) = {x!r} <= 0"
        with pytest.raises(ChemicalPotentialError) as err:
            stats.occupation_numbers([1.0, _TINY_X / 2, x, -1.0], BOSE)
        assert str(err.value) == message
        with pytest.raises(ChemicalPotentialError) as err:
            occupation_number(x, Thermo(1.0), BOSE)
        assert str(err.value) == message


def test_occupation_kernel_warns_once_per_call_below_tiny_x():
    tiny = [math.nextafter(_TINY_X, 0.0), 5e-324, 1e-300]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        stats.occupation_numbers(tiny + [1.0], BOSE)
        stats.occupation_numbers([_TINY_X, 1.0], BOSE)
        stats.occupation_numbers(tiny, FERMI)
        occupation_number(tiny[0], Thermo(1.0), BOSE)
    assert [(w.category, str(w.message)) for w in seen] == [(RuntimeWarning, TINY_WARNING)] * 2
    assert seen[1].filename == __file__  # the line that called occupation_number
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        mean_particle_number(Thermo(1e-17), REDUCED, BOSE, TruncationPolicy(max_terms=40))
    # one per block of 32 and 64 levels, at the line of certified_sum that pulls it
    assert [w.filename for w in seen] == [summation.__file__] * 2


# --- the ladder ---------------------------------------------------------------


@st.composite
def ladder_cases(draw):
    kind = draw(st.sampled_from([BOSE, FERMI]))
    beta = 10.0 ** draw(st.floats(-3.0, math.log10(50.0)))
    if kind is BOSE:
        # mu from deep below the ground level to within 1e-9 of it
        mu = 0.5 - 10.0 ** draw(st.floats(-9.0, 1.0))
    else:
        mu = draw(st.floats(-10.0, 60.0))
    rel_tol = 10.0 ** draw(st.floats(-16.0, -2.0))
    abs_tol = draw(st.sampled_from([0.0, 1e-14, 1e-6]))
    max_terms = draw(st.sampled_from([1, 37, 1000, _MAX_BLOCK, _MAX_BLOCK + 1, 10**7]))
    return beta, mu, kind, TruncationPolicy(rel_tol, abs_tol, max_terms)


@given(ladder_cases())
@settings(max_examples=150, deadline=None)
@example((1e-4, 0.0, FERMI, TruncationPolicy()))
@example((1e-4, 0.4, BOSE, TruncationPolicy()))
@example((1e-4, -1.0, BOSE, TruncationPolicy(rel_tol=1e-16)))
@example((1e-4, 0.5 - 1e-9, BOSE, TruncationPolicy()))
@example((1e-4, 3.0, FERMI, TruncationPolicy(rel_tol=1e-13, max_terms=10**6)))
def test_ladder_blocks_match_the_steps_bit_for_bit(case):
    beta, mu, kind, policy = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # Bose mu within 1e-9 of the edge
        check_ladder(beta, mu, kind, policy)


@pytest.mark.parametrize("kind, mu", [(FERMI, 40.0), (FERMI, 1500.5), (BOSE, 0.3)])
def test_ladder_blocks_straddling_the_exponent_switches(kind, mu):
    # beta = 0.02: x crosses 0 (Fermi, mu = 40 and 1500.5) or _LARGE_X
    # (both kinds) inside a block, not at its edge.
    for max_terms in (10**7, 700):
        check_ladder(0.02, mu, kind, TruncationPolicy(rel_tol=1e-14, max_terms=max_terms))


@pytest.mark.parametrize(
    "max_terms", [5, _MAX_BLOCK - 1, _MAX_BLOCK, _MAX_BLOCK + 1, 3 * _MAX_BLOCK]
)
@pytest.mark.parametrize("kind", [BOSE, FERMI])
def test_ladder_blocks_stop_at_the_cap_like_the_steps(kind, max_terms):
    # beta = 1e-5 needs ~3e6 levels, so every run here stops at its cap:
    # inside the first block, one short of, on, and one past its boundary.
    policy = TruncationPolicy(max_terms=max_terms)
    result = check_ladder(1e-5, 0.25, kind, policy)
    assert not result.converged
    assert result.terms_used == max_terms


@pytest.mark.parametrize("beta, omega", [(1e-17, 1.0), (1.0, 1e-320), (1e-13, 1.0)])
def test_ladder_blocks_in_the_bose_blowup_window(beta, omega):
    # Every level (beta = 1e-17, omega = 1e-320) or the first few thousand
    # (beta = 1e-13) have 0 < x < _TINY_X, where occupation_numbers warns.
    policy = TruncationPolicy(max_terms=3 * _MAX_BLOCK)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        check_ladder(beta, 0.0, BOSE, policy, omega=omega)
        check_ladder(beta, 0.0, FERMI, policy, omega=omega)


def outcome(call):
    """repr of the result, so NaNs compare equal, or the exception's type."""
    try:
        return repr(call())
    except Exception as exc:  # the error must match as well
        return type(exc).__name__


def thermo_or_refused(beta, mu):
    """``Thermo(beta, mu)``, or ``None`` once it has refused ``beta = inf`` as not finite."""
    if beta < math.inf:
        return Thermo(beta, mu)
    with pytest.raises(DomainError, match="not finite"):
        Thermo(beta, mu)
    return None


@pytest.mark.parametrize(
    "beta, mu",
    [(1.0, -math.inf), (1.0, math.inf), (math.inf, -5.0), (math.inf, 3.0), (1e300, 3.0),
     (1e-300, -5.0)],
)
@pytest.mark.parametrize("kind", [BOSE, FERMI])
def test_ladder_blocks_at_extreme_inputs(kind, beta, mu):
    # Infinite or overflowing exponents: the same values, NaNs or errors.
    t = thermo_or_refused(beta, mu)
    if t is None:
        return
    policies = [
        TruncationPolicy(max_terms=3000),
        TruncationPolicy(abs_tol=1e300, max_terms=3000),
        TruncationPolicy(rel_tol=1.0, abs_tol=0.0, max_terms=50),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for policy in policies:
            rows, expected_rows = [], []
            assert outcome(lambda: mean_particle_number(t, REDUCED, kind, policy, rows)) == outcome(
                lambda: reference_mean(t, REDUCED, kind, policy, expected_rows)
            )
            assert repr(rows) == repr(expected_rows)


@pytest.mark.parametrize(
    "beta, mu",
    [(1.0, -math.inf), (1.0, math.inf), (math.inf, -5.0), (math.inf, 3.0), (1e300, 3.0),
     (1e-300, -5.0), (math.inf, 0.5), (1e-300, -1e300), (1e-100, -1e90)],
)
@pytest.mark.parametrize("kind", [BOSE, FERMI])
def test_closed_ladder_at_extreme_inputs(kind, beta, mu):
    # Without occupations: the error of the occupations path, or a result within
    # its certificate.  At beta = 1e-300, mu = -1e300 the ground level has x = 1
    # but y = 1e-300 is too small to close; at beta = 1e-100, mu = -1e90 it has
    # x = 1e-10, past x_c ~ 7e-50, but the closing's ~7e11 terms exceed the cap.
    t = thermo_or_refused(beta, mu)
    if t is None:
        return
    policies = [
        TruncationPolicy(max_terms=3000),
        TruncationPolicy(abs_tol=1e300, max_terms=3000),
        TruncationPolicy(rel_tol=1.0, abs_tol=0.0, max_terms=50),
        TruncationPolicy(rel_tol=1e-300, abs_tol=0.0, max_terms=3000),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for policy in policies:
            expected = outcome(lambda: mean_particle_number(t, REDUCED, kind, policy, []))
            if outcome(lambda: mean_particle_number(t, REDUCED, kind, policy)) != expected:
                # a different result, never a different error: both calls must return
                check_close(
                    mean_particle_number(t, REDUCED, kind, policy),
                    reference_mean(t, REDUCED, kind, policy),
                )


def test_ladder_tiny_exponent_warning_fires_once_per_sum():
    # Under the default filter one call site reports once per sum, also when the
    # levels that warn are followed by a closing.
    for beta, mu, closes in ((1e-17, 0.0, False), (1e-4, 0.5 - 1e-9, True)):
        policy = TruncationPolicy(max_terms=3 * _MAX_BLOCK if not closes else 10**4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            result = mean_particle_number(Thermo(beta, mu), REDUCED, BOSE, policy)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert result.converged is closes


def test_closed_ladder_builds_no_list_longer_than_a_block(monkeypatch):
    # beta = 1e-8: ~68k head levels, then a closing of ~77k fugacity terms.
    evaluated = 0
    closings = []

    def counted(*args, _terms=stats._fugacity_terms):
        nonlocal evaluated
        for term in _terms(*args):
            evaluated += 1
            yield term

    def recorded(*args, _closing=stats.ladder_closing):
        closings.append(args)
        return _closing(*args)

    monkeypatch.setattr(stats, "_fugacity_terms", counted)
    monkeypatch.setattr(stats, "ladder_closing", recorded)
    for kind in (BOSE, FERMI):
        policy = TruncationPolicy()
        ladder = _ladder_blocks(Thermo(1e-8, 0.0), REDUCED.quantum, 0.0, 0.0, 1.0, 1, kind, policy)
        blocks = list(ladder)
        assert all(len(terms) == len(counts) == len(tails) <= _MAX_BLOCK
                   for terms, counts, tails in blocks)
        closing = blocks[-1][1][-1]
        assert closing > 50_000
        assert evaluated == closing  # the kept terms; T_{J+1} is worked out directly
        evaluated = 0
    monkeypatch.undo()
    assert len(closings) == 2
    for args in closings:  # a closing holds no list of its terms, whatever its length
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            stats.ladder_closing(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048, (args, peak)


# --- the reduced series -------------------------------------------------------


@given(
    kind=st.sampled_from([BOSE, FERMI]),
    mu=st.floats(-30.0, 40.0),
    rel_tol=st.floats(-16.0, -2.0).map(lambda e: 10.0**e),
    max_terms=st.sampled_from([1, 5, 64, 231, 10**7]),
)
@settings(max_examples=150, deadline=None)
@example(kind=FERMI, mu=30.0, rel_tol=1e-16, max_terms=10**7)
@example(kind=BOSE, mu=0.5 - 1e-13, rel_tol=1e-10, max_terms=10**7)
def test_reduced_blocks_match_the_steps_bit_for_bit(kind, mu, rel_tol, max_terms):
    if kind is BOSE:
        mu = min(mu, 0.5 - 1e-13)
    policy = TruncationPolicy(rel_tol=rel_tol, max_terms=max_terms)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # Bose mu within 1e-12 of 1/2
        assert reduced_series(mu, kind, policy) == reference_reduced(mu, kind, policy)


# --- the gas shells -----------------------------------------------------------


@given(
    kind=st.sampled_from([BOSE, FERMI]),
    weight=st.sampled_from(sorted(WEIGHTS)),
    beta=st.floats(math.log10(0.01), math.log10(3.0)).map(lambda e: 10.0**e),
    mu=st.floats(-3.0, 0.49),
    rel_tol=st.floats(-14.0, -4.0).map(lambda e: 10.0**e),
    max_terms=st.sampled_from([1, 40, 1000, 10**7]),
)
@settings(max_examples=60, deadline=None)
@example(kind=FERMI, weight="effective", beta=0.01, mu=0.49, rel_tol=1e-10, max_terms=10**7)
@example(kind=BOSE, weight="energy", beta=0.01, mu=0.49, rel_tol=1e-10, max_terms=10**7)
def test_shell_blocks_match_the_steps_within_their_bounds(
    kind, weight, beta, mu, rel_tol, max_terms
):
    t = Thermo(beta, mu)
    check_shells(t, RG, kind, weight, TruncationPolicy(rel_tol=rel_tol, max_terms=max_terms))


@pytest.mark.parametrize(
    "g",
    [
        GasParams(OscillatorParams(omega=3.0), box_length=4.0),
        GasParams(OscillatorParams(mass=20.0), box_length=2.0),
    ],
)
@pytest.mark.parametrize("kind, mu", [(FERMI, 4.0), (FERMI, -1.0), (BOSE, 0.2)])
def test_shell_blocks_in_other_units(g, kind, mu):
    # Fermi mu = 4 puts the first shells at x < 0, inside a block.
    t = Thermo(0.3, mu if kind is FERMI else min(mu, 0.45 * g.osc.quantum))
    for weight in sorted(WEIGHTS):
        for max_terms in (10**7, 200):
            check_shells(t, g, kind, weight, TruncationPolicy(max_terms=max_terms))


def test_shell_blocks_stop_at_the_cap_like_the_steps():
    # Column 0 has 68 head levels here, those with x = 0.01*(q + 1/2) below
    # closing_start(0.01) ~ 0.678, so a cap of 68 stops on its last head level.
    # A closing of ~70 terms would pass a cap of 69, so the column goes on level
    # by level and stops on level 69; the sum converges after ~1,800 terms.
    beta = 0.01
    head = math.ceil(closing_start(beta) / beta - 0.5)
    assert head == 68
    t = Thermo(beta, 0.0)
    for max_terms in (1, 2, 3, head, head + 1, 1000):
        result = check_shells(t, RG, BOSE, "count", TruncationPolicy(max_terms=max_terms))
        assert not result.converged
        assert result.terms_used >= max_terms
        assert 0.0 < result.tail_bound < math.inf
        if max_terms <= head + 1:
            assert result.terms_used == max_terms


@pytest.mark.parametrize("beta", [1e-6, 0.01, 1.0])
def test_column_blocks_stay_within_the_block_size(beta):
    # At beta = 1e-6 column 0 alone holds ~6.8k levels below closing_start(1e-6).
    for kind in (BOSE, FERMI):
        blocks = _column_steps(Thermo(beta, 0.0), RG, kind, 1.0, 0.0, TruncationPolicy())
        for terms, counts, tails in itertools.islice(blocks, 40):
            assert len(terms) == len(counts) == len(tails) <= _MAX_BLOCK


# --- the block schedule -------------------------------------------------------


def test_block_sizes_is_one_fixed_schedule():
    assert list(itertools.islice(block_sizes(), 6)) == [32, 64, 128, 256, 256, 256]
    assert _FIRST_BLOCK == 32 and _MAX_BLOCK == 256


def evaluated_and_used(monkeypatch, module, call):
    """Levels or shells the kernel evaluated in ``call()``, and the steps its sum used.

    ``module`` is the one whose ``certified_sum`` runs the sum; every ladder
    evaluates its levels in ``stats``, the reduced series its shells in ``series``.
    """
    evaluated = []
    used = []

    def counted(xs, kind, _kernel=stats.occupation_numbers):
        evaluated.append(len(xs))
        return _kernel(xs, kind)

    def recorded(blocks, policy, _sum=summation.certified_sum):
        counts = []

        def seen():
            for block in blocks:
                counts.extend(block[1])
                yield block

        result = _sum(seen(), policy)
        # the stopping step is the first whose summed counts reach terms_used
        used.append(bisect_left(list(itertools.accumulate(counts)), result.terms_used) + 1)
        return result

    monkeypatch.setattr(stats, "occupation_numbers", counted)
    monkeypatch.setattr(series, "occupation_numbers", counted)
    monkeypatch.setattr(module, "certified_sum", recorded)
    call()
    (steps,) = used
    return sum(evaluated), steps


def check_waste(evaluated, used):
    wasted = evaluated - used
    assert wasted < _MAX_BLOCK, (evaluated, used)
    assert wasted < 2 * used + _FIRST_BLOCK, (evaluated, used)


@pytest.mark.parametrize("occupations", [[], None], ids=["occupations", "closed"])
@pytest.mark.parametrize("beta", [3.0, 1.0, 0.3, 0.1, 0.03, 0.01, 1e-3])
def test_ladder_evaluates_at_most_one_block_past_its_stop(monkeypatch, beta, occupations):
    # Every level goes through occupation_numbers; the stops lie from level 8
    # (first block) to level 25,449.
    policy = TruncationPolicy(rel_tol=1e-12)
    evaluated, used = evaluated_and_used(
        monkeypatch, stats,
        lambda: mean_particle_number(Thermo(beta, 0.0), REDUCED, BOSE, policy, occupations),
    )
    assert evaluated >= used - (occupations is None)  # a closing step evaluates no level
    check_waste(evaluated, used)


@pytest.mark.parametrize("kind, mu", [
    (BOSE, -5.0), (BOSE, 0.0), (BOSE, 0.49), (FERMI, -5.0), (FERMI, 1.6), (FERMI, 30.0),
    (FERMI, 300.0),
])
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-16])
def test_reduced_series_evaluates_at_most_one_block_past_its_stop(monkeypatch, kind, mu, rel_tol):
    policy = TruncationPolicy(rel_tol=rel_tol)
    evaluated, used = evaluated_and_used(
        monkeypatch, series, lambda: reduced_series(mu, kind, policy)
    )
    assert evaluated >= used
    check_waste(evaluated, used)
    if rel_tol == 1e-10 and mu < 2.0:  # one block: at most 31 shells
        assert evaluated == _FIRST_BLOCK


@pytest.mark.parametrize("kind", [BOSE, FERMI])
def test_gas_column_evaluates_no_level_past_its_stop(monkeypatch, kind):
    # beta = 1e-3: column 0 alone has ~214 head levels, in blocks of 32 to 128.
    evaluated, used = evaluated_and_used(
        monkeypatch, series,
        lambda: equilibrium_particle_number(Thermo(1e-3, 0.0), RG, kind, TruncationPolicy()),
    )
    assert evaluated > 1000
    check_waste(evaluated, used)


# --- the closing rule ---------------------------------------------------------


def closings_seen(monkeypatch, call):
    """``(x, y)`` of every ``ladder_closing`` call made in ``call()``, in call order."""
    seen = []

    def recorded(x, w, slope, y, kind, count, _close=stats.ladder_closing):
        seen.append((x, y))
        return _close(x, w, slope, y, kind, count)

    monkeypatch.setattr(stats, "ladder_closing", recorded)
    call()
    return seen


@pytest.mark.parametrize("kind", [BOSE, FERMI])
@pytest.mark.parametrize("beta", [1e-3, 0.01, 0.03, 0.3, 1.0])
def test_every_ladder_closes_at_its_first_level_past_closing_start(monkeypatch, beta, kind):
    # The ladder mean and each gas column k (the k-th closing of a gas sum) close
    # at their first level q with x = beta*(a*k^2 + hbar*omega*(q + 1/2) - mu)
    # >= closing_start(beta*hbar*omega), where a = 0 for the mean.
    t = Thermo(beta, 0.0)
    b = RG.osc.quantum
    x_c = closing_start(beta * b)
    sums = {"mean": (0.0, lambda: mean_particle_number(t, RG.osc, kind))}
    for weight in WEIGHTS:
        sums[weight] = (RG.translational_prefactor,
                        lambda weight=weight: gas_sum(t, RG, kind, weight, TruncationPolicy()))
    for name, (a, call) in sums.items():
        seen = closings_seen(monkeypatch, call)
        if name == "mean":
            assert len(seen) <= 1
        else:
            assert seen, name
        for k, (x, y) in enumerate(seen):
            assert y == beta * b

            def level(q):
                return beta * (a * k * k + b * (q + 0.5) - t.mu)

            first = next(q for q in itertools.count() if level(q) >= x_c)
            assert x == level(first), (name, k, x, first)


@pytest.mark.parametrize("kind", [BOSE, FERMI])
@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_each_closing_works_out_its_depth_once(monkeypatch, kind, weight):
    # The walker's fit test and the closing share one closing_terms call.
    depths = []

    def recorded(x, rel_tol, _terms=stats.closing_terms):
        depths.append(x)
        return _terms(x, rel_tol)

    monkeypatch.setattr(stats, "closing_terms", recorded)
    t = Thermo(0.01, 0.0)
    seen = closings_seen(monkeypatch, lambda: gas_sum(t, RG, kind, weight, TruncationPolicy()))
    assert len(seen) > 5
    assert depths == [x for x, _ in seen]
