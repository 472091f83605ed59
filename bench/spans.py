"""Traced in-process replay of a workload's jobs.

The spans are recorded from the benchmark's side of each layer boundary:
around ``cli.parse_job``, ``cli.run_job``, ``cli.render_csv`` /
``cli.render_json`` and the report write, and around every call into the
library's adaptive sums and oracle.  Inside a CLI job those calls are
reached by rebinding the names ``openosc.cli`` looked up, only for the
duration of a traced pass.  Spans stay in memory and are written out as
JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    """Span recorder: name, start, end, parent span and job id per span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job: tuple[int, int] | None = None  # (pass, job index)
        self._open: list[int] = []
        self._ids = 0

    @contextlib.contextmanager
    def span(self, layer: str):
        record = {
            "id": self._ids,
            "layer": layer,
            "pass": self.job[0],
            "job": self.job[1],
            "parent": self._open[-1] if self._open else None,
            "terms_used": 0,
            "configurations": 0,
        }
        self._ids += 1
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["seconds"] = record["end"] - record["start"]
            self._open.pop()
            self.spans.append(record)

    def wrap(self, layer: str, fn, counts):
        """``fn`` with a span around each call; ``counts(args, result)`` fills it."""

        def traced(*args, **kwargs):
            with self.span(layer) as record:
                result = fn(*args, **kwargs)
                record.update(counts(args, result))
            return result

        return traced


@contextlib.contextmanager
def _no_span(layer: str):
    yield {}


def sum_counts(args, result) -> dict:
    return {"terms_used": result.terms_used, "converged": result.converged}


def oracle_counts(args, result) -> dict:
    modes, _, kind, cutoff = args
    limit = 1 if kind.value == "fermi" else cutoff
    return {"configurations": (limit + 1) ** len(modes)}


_CLI_LIBRARY_CALLS = {
    "mean_particle_number": ("stats.mean_particle_number", sum_counts),
    "reduced_series": ("series.reduced_series", sum_counts),
    "gc_average_occupation": ("oracle.gc_average_occupation", oracle_counts),
}


@contextlib.contextmanager
def traced_cli(cli, tracer: Tracer):
    """Rebind the library calls ``openosc.cli`` makes to traced wrappers."""
    originals = {name: getattr(cli, name) for name in _CLI_LIBRARY_CALLS}
    try:
        for name, (layer, counts) in _CLI_LIBRARY_CALLS.items():
            setattr(cli, name, tracer.wrap(layer, originals[name], counts))
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def cli_pass(cli, jobs: list[dict], argvs: list[list[str]], tracer: Tracer | None,
             pass_no: int, on_output) -> float:
    """Replay CLI jobs in process; returns the summed wall time of the jobs.

    ``on_output(index, text_or_exception)`` runs between jobs, outside the
    timed intervals.
    """
    span = tracer.span if tracer else _no_span
    total = 0.0
    for i, (job, argv) in enumerate(zip(jobs, argvs)):
        if tracer:
            tracer.job = (pass_no, i)
        start = time.perf_counter()
        try:
            with span("cli.parse_job"):
                parsed = cli.parse_job(argv)
            with span("cli.run_job." + parsed.kind):
                report = cli.run_job(parsed)
            render = cli.render_csv if parsed.fmt == "csv" else cli.render_json
            with span("cli.render_" + parsed.fmt) as record:
                text = render(report)
                record["rows"] = len(report.rows)
            with span("cli.write") as record:
                parsed.output.write_text(text, encoding="utf-8")
                record["bytes"] = len(text.encode("utf-8"))
        except Exception as exc:  # a failing job is reported, the replay goes on
            text = exc
        total += time.perf_counter() - start
        on_output(i, text)
    return total


def lib_pass(run_task, api: dict, jobs: list[dict], tracer: Tracer | None, pass_no: int,
             on_output) -> float:
    """Replay library tasks in process; returns their summed wall time."""
    total = 0.0
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = (pass_no, i)
        start = time.perf_counter()
        try:
            out = run_task(job, api)
        except Exception as exc:  # reported as a failed task by the caller
            out = {"error": f"{type(exc).__name__}: {exc}"}
        total += time.perf_counter() - start
        on_output(i, out)
    return total


def traced_api(api: dict, tracer: Tracer) -> dict:
    counts = {"oracle.gc_average_occupation": oracle_counts}
    return {layer: tracer.wrap(layer, fn, counts.get(layer, sum_counts))
            for layer, fn in api.items()}


def pass_totals(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per traced pass: seconds per layer and the exact counts of its work."""
    totals: dict[int, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s["pass"], {})
        layer = s["layer"]
        t[layer + ":s"] = t.get(layer + ":s", 0.0) + s["seconds"]
        for key in ("terms_used", "configurations", "rows", "bytes"):
            if s.get(key):
                t[layer + ":" + key] = t.get(layer + ":" + key, 0) + s[key]
        if "converged" in s:
            t["sums"] = t.get("sums", 0) + 1
            t["converged"] = t.get("converged", 0) + bool(s["converged"])
    return totals
