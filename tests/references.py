"""Decimal references for the package's sums, shared by the test modules.

Each reference sums the same series as a package function, term by term in
``decimal`` at a chosen precision, so that tests compare float results against
an independent value rather than against a second float evaluation.
"""

import decimal

from openosc import StatisticsKind


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
