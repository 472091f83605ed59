"""Seeded job lists of the three workloads.

Every job is a plain dict: ``kind`` names the CLI subcommand (CLI
workloads) or the library operation (``lib_kernels``), ``fmt`` the report
format of a CLI job, and the remaining keys are the drawn parameters, which
the checks reuse.

Parameters come from Kronecker sequences ``frac(u0 + i*alpha)``, one
irrational ``alpha`` per parameter, so any prefix of a job list covers
every range evenly.  Parameters that set a job's cost (sizes, and beta
where the number of summed terms grows like 1/beta) start from ``u0 = 0``
and the seed only jitters each point by up to 1% of the range: every seed
then has the same mix of job sizes, and p50/p90 land on the same job class
whatever the seed.  The other parameters (chemical potentials, coupling,
levels, grid phases) start from a seeded ``u0`` and vary freely.
Categorical choices (job kind, statistics, format, weight) cycle in a
fixed order.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

# frac(sqrt(p)) for the first primes: 1 and these numbers are linearly
# independent over the rationals, so the parameters of one job class are
# jointly equidistributed rather than locked to each other.
_ALPHAS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)]

# Chemical-potential ranges.  Bose jobs need mu below the ladder ground
# energy hbar*omega/2 = 0.5 (and bounds jobs below 1/2); shell sums keep
# mu < 0.5 so every effective weight E - mu is positive.
_MU = {"bose": (-1.0, 0.4), "fermi": (-1.0, 3.0)}
_BOUNDS_MU = {"bose": (-1.0, 0.45), "fermi": (-1.0, 2.0)}
_STATS = ("bose", "fermi")
_FORMATS = ("csv", "json")
_WEIGHTS = ("count", "energy", "effective")
SCAN_POINTS = 12
_SIZE_JITTER = 0.01  # largest seeded shift of a cost-setting parameter, as a share of its range


class _Stream:
    """Low-discrepancy draws for one job class."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._u: dict[str, float] = {}
        self.count = 0  # instances drawn so far

    def _next(self, name: str, size: bool) -> float:
        if name not in self._u:
            self._u[name] = 0.0 if size else self._rng.random()
        alpha = _ALPHAS[list(self._u).index(name)]
        self._u[name] = (self._u[name] + alpha) % 1.0
        if not size:
            return self._u[name]
        jittered = self._u[name] + self._rng.uniform(-_SIZE_JITTER, _SIZE_JITTER)
        return min(max(jittered, 0.0), math.nextafter(1.0, 0.0))

    def uniform(self, name: str, lo: float, hi: float, size: bool = False) -> float:
        return lo + (hi - lo) * self._next(name, size)

    def log_uniform(self, name: str, lo: float, hi: float, size: bool = False) -> float:
        return math.exp(self.uniform(name, math.log(lo), math.log(hi), size))

    def integer(self, name: str, lo: int, hi: int, size: bool = True) -> int:
        return lo + min(int(self._next(name, size) * (hi - lo + 1)), hi - lo)

    def cycle(self, choices: tuple[str, ...], period: int = 1) -> str:
        return choices[(self.count // period) % len(choices)]


def _rounds(seed: int, workload: str, slots, anchor=()) -> Iterator[dict]:
    rng = random.Random(f"{workload}:{seed}")
    streams: dict[str, _Stream] = {}
    yield from anchor
    for slot in itertools.cycle(slots):
        s = streams.setdefault(slot.__name__, _Stream(rng))
        job = slot(s)
        s.count += 1
        yield job


# --- cli_startup: the seven c10 job kinds at c10-like sizes ------------------


def _spectrum(s: _Stream) -> dict:
    return dict(kind="spectrum", fmt=s.cycle(_FORMATS),
                mu=s.uniform("mu", -1.0, 3.0), qmax=s.integer("qmax", 1, 10))


def _gas_small(s: _Stream) -> dict:
    return dict(kind="gas", fmt=s.cycle(_FORMATS), mu=s.uniform("mu", -1.0, 1.0),
                kmax=s.integer("kmax", 1, 5), qmax=s.integer("qmax", 1, 10))


def _chain(s: _Stream) -> dict:
    count = s.integer("count", 1, 8)
    return dict(kind="chain", fmt=s.cycle(_FORMATS), count=count,
                coupling=s.uniform("coupling", 0.0, 0.25), mu=s.uniform("mu", -1.0, 1.0),
                levels=[s.integer(f"level{i}", 0, 5, size=False) for i in range(count)])


def _stats_small(s: _Stream) -> dict:
    stat = s.cycle(_STATS)
    return dict(kind="stats", fmt=s.cycle(_FORMATS, 2), stat=stat,
                beta=s.uniform("beta", 0.5, 2.0, size=True),
                mu=s.uniform("mu_" + stat, *_MU[stat]))


def _bounds(s: _Stream) -> dict:
    stat = s.cycle(_STATS)
    return dict(kind="bounds", fmt=s.cycle(_FORMATS, 2), stat=stat,
                mu=s.uniform("mu_" + stat, *_BOUNDS_MU[stat]))


def _oracle_small(s: _Stream) -> dict:
    return dict(kind="oracle", fmt=s.cycle(_FORMATS), stat="fermi",
                qmax=s.integer("qmax", 2, 6), beta=s.uniform("beta", 0.5, 2.0),
                mu=s.uniform("mu", -1.0, 3.0))


def _sweep_spectrum(s: _Stream) -> dict:
    return dict(kind="sweep", fmt=s.cycle(_FORMATS), param="mu", inner="spectrum",
                start=s.uniform("start", -1.0, 1.0), stop=s.uniform("stop", 1.0, 3.0),
                steps=s.integer("steps", 2, 10), qmax=s.integer("qmax", 1, 10))


# --- cli_reports: reports of up to ~2e5 rows ----------------------------------


def _stats_large(s: _Stream) -> dict:
    stat = s.cycle(_STATS)
    return dict(kind="stats", fmt=s.cycle(_FORMATS, 2), stat=stat,
                beta=s.log_uniform("beta", 1e-4, 1e-2, size=True),
                mu=s.uniform("mu_" + stat, *_MU[stat]))


def _sweep_stats(s: _Stream) -> dict:
    stat = s.cycle(_STATS, 2)
    start = s.log_uniform("start", 1e-3, 1e-2, size=True)
    return dict(kind="sweep", fmt=s.cycle(_FORMATS), param="beta", inner="stats",
                stat=stat, start=start, stop=start * s.uniform("ratio", 2.0, 4.0, size=True),
                steps=s.integer("steps", 3, 5), mu=s.uniform("mu_" + stat, *_MU[stat]))


def _gas_large(s: _Stream) -> dict:
    return dict(kind="gas", fmt=s.cycle(_FORMATS), mu=s.uniform("mu", -1.0, 1.0),
                kmax=s.integer("kmax", 30, 50), qmax=s.integer("qmax", 50, 100))


# The largest report the ranges admit (about 2.3e5 rows, 13 MB of JSON) opens
# every cli_reports run, so peak_rss_mb measures the same worst case for
# every seed instead of whichever beta came closest to 1e-4.
_LARGEST_REPORT = dict(kind="stats", fmt="json", stat="fermi", beta=1e-4, mu=0.0)


# --- lib_kernels: in-process library tasks ------------------------------------


def _grid(s: _Stream, lo: float, hi: float) -> list[float]:
    """SCAN_POINTS evenly spaced points of [lo, hi) at a drawn phase."""
    phase = s.uniform("phase", 0.0, 1.0)
    return [lo + (hi - lo) * (j + phase) / SCAN_POINTS for j in range(SCAN_POINTS)]


def _scan_mean(s: _Stream) -> dict:
    stat = s.cycle(_STATS)
    log_betas = _grid(s, math.log(0.5), math.log(5.0))
    return dict(kind="scan_mean", stat=stat, mu=s.uniform("mu_" + stat, *_MU[stat]),
                betas=[math.exp(b) for b in log_betas])


def _scan_reduced(s: _Stream) -> dict:
    stat = s.cycle(_STATS)
    return dict(kind="scan_reduced", stat=stat, mus=_grid(s, *_BOUNDS_MU[stat]))


def _deep_mean(s: _Stream) -> dict:
    stat = s.cycle(_STATS)
    return dict(kind="mean", stat=stat, beta=s.log_uniform("beta", 1e-4, 1e-2, size=True),
                mu=s.uniform("mu_" + stat, *_MU[stat]))


def _shell(s: _Stream) -> dict:
    return dict(kind="shell", weight=s.cycle(_WEIGHTS), stat=s.cycle(_STATS, 3),
                beta=s.log_uniform("beta", 0.01, 0.3, size=True), mu=s.uniform("mu", -1.0, 0.4))


def _fermi_oracle(s: _Stream) -> dict:
    return dict(kind="oracle", stat="fermi", modes=s.integer("modes", 12, 16), cutoff=1,
                beta=s.uniform("beta", 0.5, 2.0), mu=s.uniform("mu", -1.0, 3.0))


def _bose_oracle(s: _Stream) -> dict:
    return dict(kind="oracle", stat="bose", modes=s.integer("modes", 4, 5),
                cutoff=s.integer("cutoff", 6, 8), beta=s.uniform("beta", 0.5, 2.0),
                mu=s.uniform("mu", -1.0, 0.4))


def jobs(workload: str, seed: int) -> Iterator[dict]:
    """Endless, seed-determined job sequence of one workload."""
    if workload == "cli_startup":
        slots = (_spectrum, _gas_small, _chain, _stats_small, _bounds, _oracle_small,
                 _sweep_spectrum)
        return _rounds(seed, workload, slots)
    if workload == "cli_reports":
        slots = (_stats_large, _stats_large, _sweep_stats, _gas_large)
        return _rounds(seed, workload, slots, anchor=[dict(_LARGEST_REPORT)])
    if workload == "lib_kernels":
        # two thirds short scans (p50), one third deep sums and oracles (p90)
        slots = (_scan_mean, _scan_reduced, _deep_mean, _scan_mean, _scan_reduced, _shell,
                 _scan_mean, _scan_reduced, _fermi_oracle, _scan_mean, _scan_reduced,
                 _bose_oracle)
        return _rounds(seed, workload, slots)
    raise ValueError(f"unknown workload {workload!r}")


def cli_argv(job: dict, output: str) -> list[str]:
    """Argument vector of a CLI job writing its report to ``output``."""
    kind = job["kind"]
    head = [kind, "-o", output, "--format", job["fmt"]]
    if kind == "spectrum":
        return head + ["--mu", repr(job["mu"]), "--qmax", str(job["qmax"])]
    if kind == "gas":
        return head + ["--mu", repr(job["mu"]), "--kmax", str(job["kmax"]),
                       "--qmax", str(job["qmax"])]
    if kind == "chain":
        return head + ["--count", str(job["count"]), "--coupling", repr(job["coupling"]),
                       "--mu", repr(job["mu"]), "--levels", ",".join(map(str, job["levels"]))]
    if kind == "stats":
        return head + ["--stat", job["stat"], "--beta", repr(job["beta"]),
                       "--mu", repr(job["mu"])]
    if kind == "bounds":
        return head + ["--stat", job["stat"], "--mu", repr(job["mu"])]
    if kind == "oracle":
        return head + ["--stat", job["stat"], "--beta", repr(job["beta"]),
                       "--mu", repr(job["mu"]), "--qmax", str(job["qmax"])]
    if kind == "sweep":
        sweep = head + ["--param", job["param"], "--start", repr(job["start"]),
                        "--stop", repr(job["stop"]), "--steps", str(job["steps"])]
        if job["inner"] == "spectrum":
            return sweep + ["spectrum", "--qmax", str(job["qmax"])]
        return sweep + ["stats", "--stat", job["stat"], "--mu", repr(job["mu"])]
    raise ValueError(f"not a CLI job: {kind!r}")
