"""Decimal references for the package's sums, shared by the test modules.

Each reference sums the same series as a package function, term by term in
``decimal`` at a chosen precision, so that tests compare float results against
an independent value rather than against a second float evaluation.  One
reference per certified sum, and the public sum it serves:

- ``decimal_ladder``: one weighted ladder, the sum of ``mean_particle_number``,
  of each gas column and of a ladder ``stats.ladder_closing`` closes;
- ``decimal_fugacity_terms``: the closing of a ladder, ``stats.ladder_closing``;
- ``decimal_reduced_series``: ``reduced_series``;
- ``decimal_columns`` and ``decimal_gas``: the gas sums of ``gas_sum``.

``gas_sum`` calls the public gas sum of each weight in ``WEIGHTS``.
``check_close`` compares two certificates of one sum within
``plain_add_allowance``, the test-side copy of the bound on the rounding of the
driver's plain adds that ``series.py``'s module docstring states.  A library
``rounding_bound`` replaces it once ``certified_sum`` bounds that rounding itself.
"""

import decimal
import functools
import math

from openosc import StatisticsKind, equilibrium_effective_energy, equilibrium_particle_number

WEIGHTS = {"count": (0.0, 1.0), "energy": (1.0, 0.0), "effective": (1.0, None)}


def weight_of(weight, mu):
    """``(alpha, gamma)`` of a gas sum's level weight ``alpha*E + gamma``."""
    alpha, gamma = WEIGHTS[weight]
    return alpha, -mu if gamma is None else gamma


def gas_sum(t, g, kind, weight, policy):
    """The public gas sum of ``weight``: particle number, energy or ``E - mu``."""
    if weight == "count":
        return equilibrium_particle_number(t, g, kind, policy)
    return equilibrium_effective_energy(t, g, kind, policy, mu_shifted=weight == "effective")


def plain_add_allowance(terms, value):
    """The rounding of ``terms`` plain adds to ``value``: ``(terms + 16) * 2**-53 * |value|``."""
    return (terms + 16) * 2.0**-53 * abs(value)


def check_close(result, expected):
    """Within both tails plus the rounding of both sums, the rule of bench/checks.py."""
    terms = result.terms_used + expected.terms_used
    slack = result.tail_bound + expected.tail_bound + plain_add_allowance(terms, expected.value)
    assert abs(result.value - expected.value) <= slack, (result, expected)


def decimal_ladder(x, w, slope, y, kind, span=60, digits=40):
    """(sum, bound on the rest) of sum_i (w + slope*i) * n(x + i*y) over x + i*y < x + span.

    Level by level in `digits`-digit decimal, exp(-x) stepped by exp(-y).  Past
    the last level every n is at most p_i/(1 - p) (p its first exp(-x_i)), so
    the rest is at most that times a weighted geometric sum in closed form.
    """
    sign = 1 if kind is StatisticsKind.BOSE else -1
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


def decimal_fugacity_terms(x, w, slope, y, kind, first, last=None, digits=60):
    """``sum_{j=first..last} s^(j+1) T_j`` of ``ladder_closing``, in ``digits``-digit decimal.

    ``T_j = exp(-j*x) * (w/(1 - z) + slope*z/(1 - z)**2)`` with ``z = exp(-j*y)``,
    and ``s`` is -1 for fermions.  Without ``last`` the terms, which fall by at
    least ``exp(-x)`` each, are summed until one is below ``10**-(digits + 2)``
    of the first.
    """
    sign = 1 if kind is StatisticsKind.BOSE else -1
    d = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ex, ey = (-d(x)).exp(), (-d(y)).exp()
        j = first
        e, z = ex**j, ey**j
        total, lead = d(0), None
        while last is None or j <= last:
            t = e * (d(w) / (1 - z) + d(slope) * z / (1 - z) ** 2)
            lead = t if lead is None else lead
            total += sign ** (j + 1) * t
            if last is None and t <= lead.scaleb(-digits - 2):
                break
            j, e, z = j + 1, e * ex, z * ey
        return total


def decimal_reduced_series(mu, kind, shells=400, digits=50):
    """S(mu) over shells 0..shells-1 in `digits`-digit decimal arithmetic."""
    sign = -1 if kind is StatisticsKind.BOSE else 1
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        c = (decimal.Decimal(0.5) - decimal.Decimal(mu)).exp()
        total = decimal.Decimal(0)
        for r in range(shells):
            total += (2 * math.isqrt(r) + 1) * r / (c * decimal.Decimal(r).exp() + sign)
        return total


# On the reduced gas (eps_k = k^2, hbar*omega = 1) level q of column k has
# x = beta*(k^2 + q + 1/2 - mu).  The references add each level's weight times
# exp(-x)/(1 -+ exp(-x)) in 40-digit decimal, with exp(-x) stepped along the
# column by the factor exp(-beta).  A column stops _X_STOP past its first
# level and the gas after the first column to start beyond _X_STOP, where
# what is left is below 1e-40 of every sum the tests take.

_X_STOP = 100


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
            w = d(alpha) * bottom + d(gamma)
            columns.append(decimal_ladder(x, w, alpha, beta, kind, span=_X_STOP)[0])
    return columns


def decimal_gas(beta, mu, kind, weight):
    columns = decimal_columns(beta, mu, kind, weight)
    return columns[0] + 2 * sum(columns[1:])
