"""Benchmark of the openosc checkout it sits in.

    python3 bench/run.py --workload cli_startup --seed 1 --seconds 25 --trace 0

Every workload is a closed loop with one client and one job in flight: the
next job starts when the previous one has ended.  ``--seed`` fixes the job
list (see ``jobs.py``) and ``--seconds`` its length: an untraced run
takes ``--seconds / (PASSES * NOMINAL_JOB_S)`` jobs from it and runs each
of them PASSES times (see ``untraced``).

cli_startup
    The seven c10 job kinds (spectrum, gas, chain, stats, bounds, oracle,
    sweep) at c10-like sizes, alternating CSV and JSON: qmax <= 10,
    kmax <= 5, count <= 8, stats at beta in [0.5, 2], Fermi oracle
    qmax <= 6, sweeps of <= 10 points.  Import and argument parsing take
    most of each job.
cli_reports
    Large reports: stats (Bose/Fermi, half CSV, half JSON) at beta
    log-uniform in [1e-4, 1e-2], sweeps of 3-5 betas in [1e-3, 4e-2] over
    stats, and gas at kmax 30-50, qmax 50-100.  Stats reports hold one
    row per summed term, so the number of terms drives compute, rendering
    and memory.  Every run opens with the largest report (Fermi, JSON,
    beta = 1e-4).
lib_kernels
    In-process library tasks in one worker process, imported and warmed up
    before timing.  Two thirds are scans of 12 short certified sums
    (``mean_particle_number`` at beta in [0.5, 5], ``reduced_series`` over
    a mu grid); one third are deep tasks: ``mean_particle_number`` at beta
    in [1e-4, 1e-2], shell sums of all three weights at beta in
    [0.01, 0.3], a Fermi oracle over 12-16 modes, a Bose oracle over 4-5
    modes with cutoff 6-8.

A CLI job runs ``python -m openosc.cli`` from this checkout's ``src`` in a
fresh process; a library task is one ``run_task`` call in the worker.
Every job is checked outside the timed region (``checks.py``), and each
re-run must reproduce the first run's report bytes or library results.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it replays a fixed prefix of the same job list in process,
alternating untraced and traced passes, and reports per-layer metrics from
spans recorded around the calls into each layer (``spans.py``); the spans
are written to ``.bench_out/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  A checkout without ``src/openosc`` exits with
status 2 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import jobs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_startup", "cli_reports", "lib_kernels")
# Runs of every job in an untraced run.  The short library tasks get more:
# a task's time is its fastest run, and more runs spread over the whole run
# make it likelier that one of them misses the host's slow phases.
PASSES = {"cli_startup": 5, "cli_reports": 5, "lib_kernels": 10}
SETUP_SAMPLES = 15  # fresh-interpreter imports per untraced run, in groups of SETUP_GROUP
SETUP_GROUP = 3
JOB_TIMEOUT_S = 120.0
WORKER_TIMEOUT_S = 160.0
# Typical wall time of one job on a 2-core x86-64 VM.  It only sizes the job
# list, so that every run with the same --seconds measures the same jobs
# whatever the speed of the host or of the code.
NOMINAL_JOB_S = {"cli_startup": 0.17, "cli_reports": 0.4, "lib_kernels": 0.02}
TRACE_JOBS = {"cli_startup": 35, "cli_reports": 9, "lib_kernels": 24}
SETUP_IMPORT = {"cli_startup": "openosc.cli", "cli_reports": "openosc.cli",
                "lib_kernels": "openosc"}
_PROBE = ("import json, sys, numpy, openosc, openosc.cli; print(json.dumps({"
          "'openosc': openosc.__file__, 'numpy': numpy.__version__, "
          "'python': sys.version.split()[0]}))")


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # this checkout's package, never an installed copy
    env["PYTHONNOUSERSITE"] = "1"
    return env


def _inside_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(ROOT)


def _probe(env: dict[str, str]) -> dict:
    """Import the package once (which also fills the bytecode cache)."""
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import openosc from {SRC}: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    if not _inside_checkout(info["openosc"]):
        raise BenchError(f"openosc resolved to {Path(info['openosc']).resolve()}, outside {ROOT}")
    return info


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A mean of all order statistics weighted by ``Beta((n+1)q, (n+1)(1-q))``
    (Harrell and Davis, Biometrika 69, 1982).  With tens to hundreds of jobs
    of unequal size a plain order statistic is a single job's time and jumps
    with that job's noise; where job sizes climb steeply, as around p90 of
    ``lib_kernels``, that is most of its spread.  This estimate moves
    smoothly with the jobs around the quantile.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule on each interval ((i-1)/n, i/n)
    h = 1.0 / (n * steps)
    weights = [
        sum(math.exp((a - 1.0) * math.log(u) + (b - 1.0) * math.log1p(-u) - log_norm)
            for u in ((i * steps + k + 0.5) * h for k in range(steps))) * h
        for i in range(n)
    ]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def _fresh_seconds(args: list[str], env: dict[str, str], repeats: int) -> list[float]:
    """Wall times of fresh interpreters running ``python <args>``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return times


# --- untraced runs ----------------------------------------------------------


def _cli_job(argv: list[str], env: dict[str, str]) -> tuple[float, float, int, str]:
    """(wall seconds, max RSS in MB, exit code, stderr) of one CLI process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "openosc.cli", *argv], env=env, cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stderr.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err.decode(errors="replace")


def _inspect_report(job: dict, data: bytes) -> dict:
    """Problems and exact counts of one report."""
    try:
        meta, rows = checks.parse_report(data, job["fmt"])
        problems = checks.report_problems(job, meta, rows)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return {"problems": [f"malformed report: {type(exc).__name__}: {exc}"]}
    terms = meta.get("terms_used", 0)
    if job["kind"] == "sweep" and job["inner"] == "stats":
        terms = len(rows)  # each row of a stats sweep is one summed term
    return {
        "problems": problems,
        "digest": hashlib.sha256(data).digest(),
        "terms_used": terms,
        "configurations": 2 ** (job["qmax"] + 1) if job["kind"] == "oracle" else 0,
        "report_rows": len(rows),
        "report_bytes": len(data),
    }


class _CliRunner:
    """Runs each job as a fresh ``python -m openosc.cli`` process."""

    def __init__(self, env: dict[str, str], work: Path) -> None:
        self.env = env
        self.work = work
        self.peak_rss_mb = 0.0

    def _run(self, argv: list[str]) -> tuple[float, bytes | None, list[str]]:
        seconds, rss, code, err = _cli_job(argv, self.env)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        out = Path(argv[2])
        if code != 0:
            return seconds, None, [f"exit {code}: {err.strip()}"]
        data = out.read_bytes()
        out.unlink()
        return seconds, data, []

    def first(self, index: int, job: dict) -> dict:
        argv = jobs.cli_argv(job, str(self.work / f"job{index}.{job['fmt']}"))
        seconds, data, problems = self._run(argv)
        record = {"argv": argv, "times": [seconds], "problems": problems}
        if data is not None:
            record.update(_inspect_report(job, data))
        return record

    def again(self, record: dict) -> None:
        seconds, data, problems = self._run(record["argv"])
        record["times"].append(seconds)
        record["problems"] += problems
        if data is not None and hashlib.sha256(data).digest() != record.get("digest"):
            record["problems"].append("report bytes differ between runs")  # c10 under load

    def close(self) -> None:
        pass


class _LibRunner:
    """Sends each task to one worker process that imported the library once."""

    def __init__(self, env: dict[str, str], warmup: list[dict]) -> None:
        self.worker = subprocess.Popen(
            [sys.executable, str(BENCH / "tasks.py")], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(WORKER_TIMEOUT_S, self.worker.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        self.peak_rss_mb = 0.0
        try:
            hello = json.loads(self.worker.stdout.readline() or "{}")
            if not _inside_checkout(hello.get("openosc", "/")):
                raise BenchError(f"worker imported openosc from {hello.get('openosc')}")
            for job in warmup:
                self._ask(job)
        except BaseException:
            self.worker.kill()
            self.worker.wait()
            self.watchdog.cancel()
            self.worker.stdout.close()
            raise

    def _ask(self, job: dict) -> tuple[float, dict]:
        self.worker.stdin.write(json.dumps(job) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            raise BenchError("library worker exited early")
        out = json.loads(line)
        return out.pop("seconds"), out

    def first(self, index: int, job: dict) -> dict:
        seconds, out = self._ask(job)
        sums = out.get("sums", [])
        return {
            "job": job,
            "result": out,
            "times": [seconds],
            "problems": checks.task_problems(job, out),
            "terms_used": sum(s[1] for s in sums),
            "configurations": (job["cutoff"] + 1) ** job["modes"] if job["kind"] == "oracle" else 0,
        }

    def again(self, record: dict) -> None:
        seconds, out = self._ask(record["job"])
        record["times"].append(seconds)
        if out != record["result"]:
            record["problems"].append("result differs between runs")

    def close(self) -> None:
        """End the worker and take its peak RSS."""
        if self.worker.returncode is None:
            try:
                self.worker.stdin.close()
            except BrokenPipeError:
                pass  # the worker died; wait4 below reports how
            _, status, usage = os.wait4(self.worker.pid, 0)
            self.worker.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.watchdog.cancel()
        self.worker.stdout.close()
        if self.worker.returncode != 0:
            raise BenchError(f"library worker exited with {self.worker.returncode}")


def untraced(args, env: dict[str, str], work: Path):
    """End-to-end metrics of one closed-loop run.

    Every job of the list runs once per pass, PASSES passes in a row.  A
    job's time is its fastest run: repeats lie seconds apart,
    so the minimum drops the bursts in which other tenants of a shared host
    slow every process, while a change in the program moves every run.
    Fresh-interpreter imports for ``setup_s`` are spread evenly over the
    run; ``setup_s`` is the median over groups of three consecutive imports
    of each group's fastest.
    """
    setup_args = ["-c", f"import {SETUP_IMPORT[args.workload]}"]
    if args.workload == "lib_kernels":
        warmup = list(itertools.islice(jobs.jobs(args.workload, args.seed + 1_000_003), 12))
        runner = _LibRunner(env, warmup)
    else:
        runner = _CliRunner(env, work)
    setup: list[float] = []
    records: list[dict] = []

    def sample_setup(busy: float) -> None:
        # one import each time another 1/SETUP_SAMPLES of --seconds has been run
        if len(setup) < SETUP_SAMPLES and busy >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.extend(_fresh_seconds(setup_args, env, 1))

    passes = PASSES[args.workload]
    count = max(2, round(args.seconds / (passes * NOMINAL_JOB_S[args.workload])))
    try:
        busy = 0.0
        for job in itertools.islice(jobs.jobs(args.workload, args.seed), count):
            sample_setup(busy)
            records.append(runner.first(len(records), job))
            busy += records[-1]["times"][0]
        for _ in range(passes - 1):
            for record in records:
                sample_setup(busy)
                runner.again(record)
                busy += record["times"][-1]
    finally:
        runner.close()
    setup += _fresh_seconds(setup_args, env, SETUP_SAMPLES - len(setup))
    setup_best = [min(setup[i:i + SETUP_GROUP]) for i in range(0, SETUP_SAMPLES, SETUP_GROUP)]
    best = [min(r["times"]) for r in records]
    n = len(records)
    failed = sum(bool(r["problems"]) for r in records)
    metrics = {
        "job_p50_s": (_quantile(best, 0.5), "s", f"median over {n} jobs of the fastest of "
                      f"{passes} runs (Harrell-Davis)"),
        "job_p90_s": (_quantile(best, 0.9), "s",
                      f"90th percentile of the same {n} times (Harrell-Davis)"),
        "jobs_per_s": (n / sum(best), "1/s", f"{n} jobs / {sum(best):.3f} s summed fastest "
                       f"times ({n * passes} runs in all)"),
        "setup_s": (statistics.median(setup_best), "s",
                    f"median of {len(setup_best)} fastest-of-{SETUP_GROUP} fresh interpreters "
                    f"importing {SETUP_IMPORT[args.workload]}"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB", "highest max RSS of " + (
            "the worker process" if args.workload == "lib_kernels"
            else f"{n * passes} job processes")),
        "success_rate": ((n - failed) / n, "ratio", f"{n - failed} of {n} jobs passed"),
    }
    counts = {key: sum(r.get(key, 0) for r in records)
              for key in ("terms_used", "configurations", "report_rows", "report_bytes")}
    lines = [f"{name:<13} {value:<12.6g} {unit:<6} {note}"
             for name, (value, unit, note) in metrics.items()]
    lines.append(f"{'error_rate':<13} {failed / n:<12.6g} {'ratio':<6} "
                 f"{failed} of {n} jobs failed (= 1 - success_rate)")
    lines.append("counts of one pass: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    problems = [f"job {i}: {p}" for i, r in enumerate(records) for p in r["problems"]]
    return lines, problems, n, failed, {k: (v, u) for k, (v, u, _) in metrics.items()}


# --- traced replay -----------------------------------------------------------


def _import_layers(env: dict[str, str]) -> dict[str, float]:
    """Interpreter start and cumulative import times of numpy and openosc.cli."""
    interpreter = statistics.median(_fresh_seconds(["-c", "pass"], env, 5))
    found: dict[str, list[float]] = {"numpy": [], "openosc.cli": []}
    for _ in range(5):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import openosc.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=60)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {
        "import.interpreter_s": interpreter,
        "import.numpy_s": statistics.median(found["numpy"]),
        "import.openosc_cli_s": statistics.median(found["openosc.cli"]),
    }


def traced(args, env: dict[str, str], work: Path):
    sys.path.insert(0, str(SRC))
    import openosc
    import openosc.cli as cli

    if not _inside_checkout(openosc.__file__):
        raise BenchError(f"openosc resolved to {openosc.__file__}, outside {ROOT}")
    layers = _import_layers(env)
    job_list = list(itertools.islice(jobs.jobs(args.workload, args.seed),
                                     TRACE_JOBS[args.workload]))
    tracer = spans.Tracer()
    problems: dict[int, list[str]] = {i: [] for i in range(len(job_list))}
    firsts: dict[int, object] = {}

    if args.workload == "lib_kernels":
        import tasks

        plain = tasks.library_api()
        apis = (plain, spans.traced_api(plain, tracer))

        def replay(tracer_or_none, pass_no, on_output):
            api = apis[tracer_or_none is not None]
            return spans.lib_pass(tasks.run_task, api, job_list, tracer_or_none, pass_no,
                                  on_output)

        def check(i, out):
            firsts[i] = out
            problems[i] += checks.task_problems(job_list[i], out)
    else:
        argvs = [jobs.cli_argv(job, str(work / f"trace{i}.{job['fmt']}"))
                 for i, job in enumerate(job_list)]

        def replay(tracer_or_none, pass_no, on_output):
            if tracer_or_none is None:
                return spans.cli_pass(cli, job_list, argvs, None, pass_no, on_output)
            with spans.traced_cli(cli, tracer_or_none):
                return spans.cli_pass(cli, job_list, argvs, tracer_or_none, pass_no, on_output)

        def check(i, text):
            if isinstance(text, Exception):
                problems[i].append(f"{type(text).__name__}: {text}")
                return
            data = text.encode("utf-8")
            firsts[i] = hashlib.sha256(data).digest()
            problems[i] += _inspect_report(job_list[i], data)["problems"]

    def compare(i, out):
        if isinstance(out, str):
            out = hashlib.sha256(out.encode("utf-8")).digest()
        if out != firsts.get(i):
            problems[i].append("output differs between passes")

    replay(None, 0, check)  # untimed pass: warm-up and correctness checks
    walls: dict[bool, list[float]] = {False: [], True: []}
    busy = 0.0
    for pass_no in itertools.count(1):
        is_traced = pass_no % 2 == 1
        if busy >= args.seconds and min(len(walls[False]), len(walls[True])) >= 2:
            break
        wall = replay(tracer if is_traced else None, pass_no, compare)
        walls[is_traced].append(wall)
        busy += wall

    totals = spans.pass_totals(tracer.spans)
    reference_counts = None
    for pass_no, t in sorted(totals.items()):
        counts = {k: v for k, v in t.items() if not k.endswith(":s")}
        if reference_counts is None:
            reference_counts = counts
        elif counts != reference_counts:
            problems[0].append(f"traced pass {pass_no} counts differ from the first")

    def seconds(layer):
        return statistics.median(t.get(layer + ":s", 0.0) for t in totals.values())

    def count(layer, key):
        return reference_counts.get(f"{layer}:{key}", 0)

    def per_unit(layer, key):
        n = count(layer, key)
        return seconds(layer) * 1e9 / n if n else 0.0

    metrics = {k: (v, "s") for k, v in layers.items()}
    metrics["cli.parse_job_s"] = (seconds("cli.parse_job"), "s")
    for kind in ("spectrum", "gas", "chain", "stats", "bounds", "oracle", "sweep"):
        metrics[f"cli.run_job_s.{kind}"] = (seconds(f"cli.run_job.{kind}"), "s")
    metrics["cli.report_rows"] = (count("cli.render_csv", "rows")
                                  + count("cli.render_json", "rows"), "count")
    metrics["cli.report_bytes"] = (count("cli.write", "bytes"), "B")
    metrics["cli.render_csv_s"] = (seconds("cli.render_csv"), "s")
    metrics["cli.render_json_s"] = (seconds("cli.render_json"), "s")
    metrics["cli.write_s"] = (seconds("cli.write"), "s")
    metrics["stats.mean_particle_number_s"] = (seconds("stats.mean_particle_number"), "s")
    metrics["stats.mean_particle_number_terms"] = (
        count("stats.mean_particle_number", "terms_used"), "count")
    metrics["stats.ns_per_term"] = (per_unit("stats.mean_particle_number", "terms_used"), "ns")
    metrics["series.reduced_series_s"] = (seconds("series.reduced_series"), "s")
    metrics["series.reduced_series_terms"] = (
        count("series.reduced_series", "terms_used"), "count")
    metrics["series.shell_sum_s"] = (seconds("series.shell_sum"), "s")
    metrics["series.shell_sum_terms"] = (count("series.shell_sum", "terms_used"), "count")
    metrics["series.ns_per_term"] = (per_unit("series.shell_sum", "terms_used"), "ns")
    sums = reference_counts.get("sums", 0)
    metrics["summation.converged_share"] = (
        reference_counts.get("converged", 0) / sums if sums else 0.0, "ratio")
    metrics["summation.terms_total"] = (sum(
        count(layer, "terms_used") for layer in
        ("stats.mean_particle_number", "series.reduced_series", "series.shell_sum")), "count")
    metrics["oracle.gc_average_occupation_s"] = (seconds("oracle.gc_average_occupation"), "s")
    metrics["oracle.configurations"] = (count("oracle.gc_average_occupation", "configurations"),
                                        "count")
    metrics["oracle.ns_per_configuration"] = (
        per_unit("oracle.gc_average_occupation", "configurations"), "ns")
    metrics["trace.overhead_share"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0, "ratio")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with trace_file.open("w", encoding="utf-8") as f:
        for layer, value in layers.items():
            f.write(json.dumps({"layer": layer, "seconds": value}) + "\n")
        for record in tracer.spans:
            f.write(json.dumps(record) + "\n")

    n = len(job_list)
    failed = sum(bool(p) for p in problems.values())
    lines = [f"{name:<34} {value:<14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"layer seconds: median over {len(walls[True])} traced passes of {n} jobs; "
                 f"counts from one pass, identical in every traced pass")
    lines.append(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    flat = [f"job {i}: {p}" for i, ps in problems.items() for p in ps]
    return lines, flat, n, failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "openosc" / "__init__.py").is_file():
        print(f"bench: no openosc package under {SRC}", file=sys.stderr)
        return 2
    env = _child_env()
    try:
        info = _probe(env)
        with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
            run = traced if args.trace else untraced
            lines, problems, attempted, failed, metrics = run(args, env, Path(tmp))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(f"# openosc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; closed loop, 1 client, 1 job in flight")
    print(f"# environment: python {info['python']}, numpy {info['numpy']}, "
          f"nproc {os.cpu_count()}, commit {_commit()}, "
          f"openosc from {Path(info['openosc']).resolve().relative_to(ROOT)}")
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print("FAILED", problem, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
