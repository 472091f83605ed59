"""Library tasks of the ``lib_kernels`` workload, and the worker that runs them.

``run_task`` takes a job dict from ``jobs.py`` and a table of the library
functions to call.  The untimed and timed runs pass the plain functions;
the traced run passes wrappers that record a span around each call.

Importing this module imports ``openosc``, so the checkout's ``src`` must
be on the path first.  Run as a script, this file is the worker process of
an untraced run.  It prints the resolved module path,
then reads one JSON task per line on stdin and answers each with one JSON
line holding the results and the task's wall time, measured around
``run_task`` only.  It exits when stdin closes.
"""

from __future__ import annotations

import json
import sys
import time

import openosc
from openosc import (
    GasParams,
    ModeSet,
    OscillatorParams,
    StatisticsKind,
    Thermo,
    equilibrium_effective_energy,
    equilibrium_particle_number,
    gc_average_occupation,
    mean_particle_number,
    reduced_series,
)


def library_api() -> dict:
    """The public functions a task calls, keyed by their layer name."""

    def shell_sum(t, g, kind, weight):
        if weight == "count":
            return equilibrium_particle_number(t, g, kind)
        return equilibrium_effective_energy(t, g, kind, mu_shifted=weight == "effective")

    return {
        "stats.mean_particle_number": mean_particle_number,
        "series.reduced_series": reduced_series,
        "series.shell_sum": shell_sum,
        "oracle.gc_average_occupation": gc_average_occupation,
    }


def run_task(job: dict, api: dict) -> dict:
    """Run one library task; sums come back as [value, terms, tail, converged]."""
    kind = StatisticsKind(job["stat"])
    osc = OscillatorParams()
    op = job["kind"]
    if op == "scan_mean":
        results = [api["stats.mean_particle_number"](Thermo(b, job["mu"]), osc, kind)
                   for b in job["betas"]]
    elif op == "scan_reduced":
        results = [api["series.reduced_series"](mu, kind) for mu in job["mus"]]
    elif op == "mean":
        results = [api["stats.mean_particle_number"](Thermo(job["beta"], job["mu"]), osc, kind)]
    elif op == "shell":
        t = Thermo(job["beta"], job["mu"])
        results = [api["series.shell_sum"](t, GasParams.reduced(), kind, job["weight"])]
    elif op == "oracle":
        modes = ModeSet.from_oscillator(osc, job["modes"] - 1)
        t = Thermo(job["beta"], job["mu"])
        means = api["oracle.gc_average_occupation"](modes, t, kind, job["cutoff"])
        return {"means": list(means)}
    else:
        raise ValueError(f"unknown task {op!r}")
    return {"sums": [[r.value, r.terms_used, r.tail_bound, r.converged] for r in results]}


def _serve() -> None:
    api = library_api()
    print(json.dumps({"openosc": openosc.__file__}), flush=True)
    for line in sys.stdin:
        job = json.loads(line)
        start = time.perf_counter()
        try:
            out = run_task(job, api)
        except Exception as exc:  # a failed task is reported, the worker goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        out["seconds"] = time.perf_counter() - start
        print(json.dumps(out), flush=True)


if __name__ == "__main__":
    _serve()
