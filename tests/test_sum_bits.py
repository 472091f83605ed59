"""Every bit of the closed ladder mean and of the gas sums on a fixed grid.

``test_blocks`` holds these paths to the step references only within their
tail bounds, so a change made for speed could move their bits unseen.  The
table ``data/sum_bits.csv`` pins each result's value and tail bound as float
hex, its ``terms_used`` and ``converged``, at the default policy: both
statistics, five values of ``beta``, two of ``mu`` each, the ladder mean and
the three gas weights.  After a change that is meant to move bits, rewrite it
with ``PYTHONPATH=src python tests/test_sum_bits.py > tests/data/sum_bits.csv``.
"""

import csv
import itertools
import pathlib
import sys

import pytest

from openosc import (
    GasParams,
    OscillatorParams,
    StatisticsKind,
    Thermo,
    TruncationPolicy,
    mean_particle_number,
    reduced_series,
)
from openosc.summation import _DEFAULT_POLICY
from references import gas_sum

TABLE = pathlib.Path(__file__).parent / "data" / "sum_bits.csv"
FIELDS = ["sum", "stat", "beta", "mu", "value", "tail_bound", "terms_used", "converged"]
BETAS = (1e-3, 0.05, 0.5, 1.0, 5.0)
MUS = {"bose": (-1.0, 0.3), "fermi": (0.0, 2.0)}
SUMS = ("mean", "count", "energy", "effective")


def total(name, t, kind, policy=None):
    if name == "mean":
        return mean_particle_number(t, OscillatorParams(), kind, policy)
    return gas_sum(t, GasParams.reduced(), kind, name, policy)


def row(name, stat, beta, mu):
    result = total(name, Thermo(beta, mu), StatisticsKind(stat))
    return {
        "sum": name, "stat": stat, "beta": repr(beta), "mu": repr(mu),
        "value": result.value.hex(), "tail_bound": result.tail_bound.hex(),
        "terms_used": str(result.terms_used), "converged": str(result.converged),
    }


def grid():
    for name, stat, beta in itertools.product(SUMS, MUS, BETAS):
        for mu in MUS[stat]:
            yield name, stat, beta, mu


def pinned():
    with TABLE.open(newline="") as f:
        return list(csv.DictReader(f))


def point(pin):
    return pin["sum"], pin["stat"], float(pin["beta"]), float(pin["mu"])


def test_the_table_covers_the_grid():
    assert [point(pin) for pin in pinned()] == list(grid())


@pytest.mark.parametrize("pin", pinned(), ids=lambda pin: "-".join(map(str, point(pin))))
def test_sum_keeps_its_bits(pin):
    assert row(*point(pin)) == pin


@pytest.mark.parametrize("kind", list(StatisticsKind))
def test_policy_none_is_the_plain_policy(kind):
    # Every sum called with policy=None shares one module-level default.
    assert _DEFAULT_POLICY == TruncationPolicy()
    t = Thermo(0.05, 0.3)
    for name in SUMS:
        assert total(name, t, kind) == total(name, t, kind, TruncationPolicy()), name
    assert reduced_series(0.3, kind) == reduced_series(0.3, kind, TruncationPolicy())


if __name__ == "__main__":
    writer = csv.DictWriter(sys.stdout, FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(row(*point) for point in grid())
