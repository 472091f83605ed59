"""Command line front end: batch jobs rendered as CSV or JSON reports.

One executable, one subcommand per job kind.  Parameters come from flags
or from a JSON config file (flags win key by key); every parameter that
has a value, defaults included, is echoed in the output metadata and
reports contain nothing volatile, so re-running a job reproduces its
output byte for byte.

Exit codes: 0 success, 2 usage or config error, 3 domain/precondition
error, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from .chain import (
    ChainAssignment,
    ChainParams,
    chain_effective_energy,
    chain_energy,
    chain_frequencies,
    grouped_form_energy,
)
from .errors import ConvergenceError, DomainError
from .gas import GasParams, joint_energy, q_min_gas
from .open_system import effective_frequency, is_accessible, q_min_vibrational
from .oracle import ModeSet, gc_average_occupation, per_mode_limit
from .series import reduced_series, reduced_series_bound
from .spectra import OscillatorParams, check_integer, mode_energy
from .stats import StatisticsKind, Thermo, mean_particle_number, occupation_number
from .summation import SeriesResult, TruncationPolicy

__all__ = ["Job", "UsageError", "parse_job", "run_job", "execute_job", "main"]


class UsageError(Exception):
    """Malformed invocation or config; maps to exit code 2."""


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict[str, Any]
    output: Path | None = None
    fmt: str = "csv"
    inner: "Job | None" = None


# --- parameter schema --------------------------------------------------------


@dataclass(frozen=True)
class _Param:
    type: str  # float | int | stat | str | int_list | float_list
    default: Any = None
    required: bool = False
    help: str = ""
    least: int | None = None  # parse-time floor of a CLI loop bound; else the library checks


# A sweep repeats an inner job of any kind in _KINDS over a grid of one of its
# float parameters.
_SWEEP_PARAMS = {
    "param": _Param("str", "mu", help="numeric parameter of the inner job to sweep"),
    "start": _Param("float", required=True),
    "stop": _Param("float", required=True),
    "steps": _Param("int", 7, least=1),
}


def _convert(name: str, spec: _Param, raw: Any, source: str) -> Any:
    def fail(expected: str) -> UsageError:
        return UsageError(f"{source} value for {name!r} must be {expected}, got {raw!r}")

    if spec.type == "float":
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise fail("a number")
        try:
            return float(raw)
        except ValueError:
            raise fail("a number") from None
    if spec.type == "int":
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise fail("an integer")
        try:
            value = int(raw)
        except ValueError:
            raise fail("an integer") from None
        return value if spec.least is None else check_integer(name, value, spec.least)
    if spec.type == "stat":
        if not isinstance(raw, str):
            raise fail("'bose' or 'fermi'")
        try:
            return StatisticsKind.from_name(raw).value
        except DomainError:
            raise fail("bose or fermi") from None
    if spec.type == "str":
        if not isinstance(raw, str):
            raise fail("a string")
        return raw
    if spec.type in ("int_list", "float_list"):
        cast = int if spec.type == "int_list" else float
        if isinstance(raw, str):
            parts = [p for p in raw.split(",") if p.strip() != ""]
        elif isinstance(raw, (list, tuple)):
            parts = list(raw)
        else:
            raise fail("a comma-separated list")
        # Elements follow the scalar rules: booleans are not numbers, ints are integral.
        if any(isinstance(p, bool) or cast is int and isinstance(p, float) and not p.is_integer()
               for p in parts):
            raise fail(f"a list of {cast.__name__}s")
        try:
            return [cast(p) for p in parts]
        except (ValueError, TypeError):
            raise fail(f"a list of {cast.__name__}s") from None
    raise AssertionError(f"unhandled parameter type {spec.type}")


# --- parsing -----------------------------------------------------------------


def _add_kind_args(parser: argparse.ArgumentParser, params: dict[str, _Param]) -> None:
    for name, spec in params.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, default=None, help=spec.help or None)


def _add_io_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON file with job parameters")
    parser.add_argument("-o", "--output", default=None, help="report path (stdout if absent)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openosc",
        description="Effective spectra and occupation statistics of open oscillator systems.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, spec in _KINDS.items():
        p = sub.add_parser(kind, help=spec.help)
        _add_kind_args(p, spec.params)
        _add_io_args(p)
    sweep = sub.add_parser("sweep", help="repeat an inner job over a parameter grid")
    _add_kind_args(sweep, _SWEEP_PARAMS)
    _add_io_args(sweep)
    inner = sweep.add_subparsers(dest="inner_kind")
    for kind, spec in _KINDS.items():
        _add_kind_args(inner.add_parser(kind), spec.params)
    return parser


def _load_config(path: str) -> dict[str, Any]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    return data


def _merge_params(
    kind: str,
    flags: dict[str, Any],
    config: dict[str, Any],
    config_label: str,
) -> dict[str, Any]:
    spec = _SWEEP_PARAMS if kind == "sweep" else _KINDS[kind].params
    known = set(spec) | {"kind", "output", "format"}
    if kind == "sweep":
        known.add("job")
    for key in config:
        if key not in known:
            raise UsageError(f"unknown config key {key!r} for job kind {kind!r}")
    if "kind" in config and config["kind"] != kind:
        raise UsageError(
            f"config kind {config['kind']!r} does not match subcommand {kind!r}"
        )
    merged: dict[str, Any] = {}
    for name, p in spec.items():
        if flags.get(name) is not None:
            merged[name] = _convert(name, p, flags[name], "flag")
        elif name in config:
            merged[name] = _convert(name, p, config[name], config_label)
        elif p.required:
            raise UsageError(f"missing required parameter {name!r} for {kind!r}")
        else:
            merged[name] = p.default
    return merged


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Join ``--flag -1e-5`` into ``--flag=-1e-5``.

    argparse reads ``-1e-5`` or ``-inf`` as an unknown option.  Every flag
    except ``--help`` takes one value, so a negative token that ``float()``
    accepts is that flag's value.
    """
    args: list[str] = []
    for token in argv:
        prev = args[-1] if args else ""
        if token.startswith("-") and prev.startswith("--") and prev != "--help":
            try:
                float(token)
                args[-1] = f"{prev}={token}"
                continue
            except ValueError:
                pass
        args.append(token)
    return args


def parse_job(argv: Sequence[str]) -> Job:
    """Turn an argument vector into a validated Job.

    Raises UsageError for malformed input (unknown keys included) and
    DomainError for a bound of the CLI's own loops (qmax, kmax, sweep steps)
    out of range.  Every other precondition, count, max_terms and cutoff
    included, is the library's to check; it surfaces from run_job.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        if exc.code == 0:
            raise
        raise UsageError("invalid arguments") from None
    kind = ns.kind
    config = _load_config(ns.config) if ns.config else {}
    flags = vars(ns)
    params = _merge_params(kind, flags, config, f"config[{kind}]")

    inner = None
    if kind == "sweep":
        inner_kind = getattr(ns, "inner_kind", None)
        inner_cfg = config.get("job", {})
        if not isinstance(inner_cfg, dict):
            raise UsageError("config key 'job' must hold a JSON object")
        if inner_kind is None:
            inner_kind = inner_cfg.get("kind")
            if inner_kind is None:
                raise UsageError("sweep needs an inner job (subcommand or config 'job')")
            if not isinstance(inner_kind, str) or inner_kind not in _KINDS:
                raise UsageError(f"unknown inner job kind {inner_kind!r}")
        inner_params = _merge_params(
            inner_kind, flags, inner_cfg, "config[job]"
        )
        swept = params["param"]
        ispec = _KINDS[inner_kind].params
        if swept not in ispec or ispec[swept].type != "float":
            raise UsageError(
                f"sweep parameter {swept!r} is not a numeric parameter of {inner_kind!r}"
            )
        inner = Job(inner_kind, inner_params)

    output = Path(ns.output) if ns.output else None
    if output is None and "output" in config:
        output = Path(str(config["output"]))
    fmt = ns.fmt or config.get("format")
    if fmt is None:
        fmt = "json" if output is not None and output.suffix == ".json" else "csv"
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    return Job(kind, params, output, fmt, inner)


# --- execution ---------------------------------------------------------------

Rows = list[tuple[Any, ...]]


@dataclass
class Report:
    metadata: dict[str, Any]
    columns: tuple[str, ...]
    rows: Rows


# A runner returns only what is specific to its kind: extra metadata and the
# report rows.  run_job builds every report from them.


def _run_spectrum(params: dict[str, Any]) -> tuple[dict[str, Any], Rows]:
    p = OscillatorParams(hbar=params["hbar"], omega=params["omega"])
    mu = params["mu"]
    extra = {"q_min": q_min_vibrational(mu, p)}
    rows = [
        (q, mode_energy(q, p), effective_frequency(q, mu, p), is_accessible(q, mu, p))
        for q in range(params["qmax"] + 1)
    ]
    return extra, rows


def _run_gas(params: dict[str, Any]) -> tuple[dict[str, Any], Rows]:
    p = OscillatorParams(hbar=params["hbar"], mass=params["mass"], omega=params["omega"])
    g = GasParams(p, params["box_length"])
    mu = params["mu"]
    rows = []
    for k in range(-params["kmax"], params["kmax"] + 1):
        threshold = q_min_gas(mu, k, g)
        for q in range(params["qmax"] + 1):
            energy = joint_energy(k, q, g)
            rows.append((k, q, energy, energy - mu, threshold))
    return {}, rows


def _run_chain(params: dict[str, Any]) -> tuple[dict[str, Any], Rows]:
    ch = ChainParams(
        params["count"],
        OscillatorParams(hbar=params["hbar"], omega=params["omega"]),
        params["coupling"],
    )
    freqs = chain_frequencies(ch)
    extra = {}
    if params["levels"] is not None:
        a = ChainAssignment(tuple(params["levels"]))
        grouped = grouped_form_energy(a, params["mu"], ch)
        extra = {
            "chain_energy": chain_energy(a, ch),
            "chain_effective_energy": chain_effective_energy(a, params["mu"], ch),
            "grouped_energy": grouped.value,
            "grouped_discrepancy": grouped.discrepancy,
        }
    return extra, list(enumerate(freqs, start=1))


def _converged(result: SeriesResult, what: str, policy: TruncationPolicy) -> SeriesResult:
    """Pass a converged sum through; one that hit the term cap fails the job (exit 4)."""
    if not result.converged:
        raise ConvergenceError(f"{what} did not converge within {policy.max_terms} terms")
    return result


def _run_stats(params: dict[str, Any]) -> tuple[dict[str, Any], Rows]:
    kind = StatisticsKind.from_name(params["stat"])
    t = Thermo(params["beta"], params["mu"])
    p = OscillatorParams(hbar=params["hbar"], omega=params["omega"])
    policy = TruncationPolicy(rel_tol=params["rel_tol"], max_terms=params["max_terms"])
    occupations: list[float] = []
    result = _converged(
        mean_particle_number(t, p, kind, policy, occupations=occupations),
        "mean particle number",
        policy,
    )
    extra = {
        "mean": result.value,
        "tail_bound": result.tail_bound,
        "terms_used": result.terms_used,
        "converged": result.converged,
    }
    return extra, list(enumerate(occupations))


def _run_bounds(params: dict[str, Any]) -> tuple[dict[str, Any], Rows]:
    kind = StatisticsKind.from_name(params["stat"])
    policy = TruncationPolicy(rel_tol=params["rel_tol"], max_terms=params["max_terms"])
    result = _converged(reduced_series(params["mu"], kind, policy), "reduced series", policy)
    ceiling = reduced_series_bound(params["mu"])
    ok = result.value + result.tail_bound <= ceiling
    return {}, [(params["mu"], result.value, result.tail_bound, ceiling, ok)]


def _run_oracle(params: dict[str, Any]) -> tuple[dict[str, Any], Rows]:
    kind = StatisticsKind.from_name(params["stat"])
    t = Thermo(params["beta"], params["mu"])
    # Built even when explicit energies make it unused, so bad --omega or --hbar still fail.
    p = OscillatorParams(hbar=params["hbar"], omega=params["omega"])
    if params["energies"] is not None:
        modes = ModeSet(tuple(params["energies"]))
    else:
        modes = ModeSet.from_oscillator(p, params["qmax"])
    cutoff = per_mode_limit(kind, params["cutoff"])
    means = gc_average_occupation(modes, t, kind, cutoff)
    rows = []
    for i, (e, mean) in enumerate(zip(modes.energies, means)):
        closed = occupation_number(e, t, kind)
        rows.append((i, closed, mean, abs(closed - mean)))
    return {"cutoff": cutoff, "energies": list(modes.energies)}, rows


@dataclass(frozen=True)
class _Kind:
    """The one declaration of a job kind; parser, config merge and run_job read it."""

    help: str
    params: dict[str, _Param]
    columns: tuple[str, ...]
    run: Callable[[dict[str, Any]], tuple[dict[str, Any], Rows]]


_KINDS: dict[str, _Kind] = {
    "spectrum": _Kind("ladder energies, effective frequencies and accessibility", {
        "omega": _Param("float", 1.0, help="oscillator frequency"),
        "hbar": _Param("float", 1.0, help="reduced Planck constant"),
        "mu": _Param("float", 0.0, help="chemical potential"),
        "qmax": _Param("int", 10, help="highest ladder level reported", least=0),
    }, columns=("q", "energy", "omega_eff", "accessible"), run=_run_spectrum),
    "gas": _Kind("joint translational-vibrational levels and thresholds", {
        "omega": _Param("float", 1.0),
        "hbar": _Param("float", 1.0),
        "mass": _Param("float", 1.0),
        "box_length": _Param("float", 1.0, help="periodic box length"),
        "mu": _Param("float", 0.0),
        "kmax": _Param("int", 5, help="half-width of the k range", least=0),
        "qmax": _Param("int", 10, least=0),
    }, columns=("k", "q", "energy", "effective_term", "q_min_k"), run=_run_gas),
    "chain": _Kind("normal-mode frequencies and assignment energies", {
        "omega": _Param("float", 1.0),
        "hbar": _Param("float", 1.0),
        "count": _Param("int", required=True, help="number of chain sites"),
        "coupling": _Param("float", 0.0, help="nearest-neighbour coupling"),
        "mu": _Param("float", 0.0),
        "levels": _Param("int_list", None, help="ladder index per mode, e.g. 0,0,1"),
    }, columns=("s", "omega_s"), run=_run_chain),
    "stats": _Kind("mean occupations of one ladder", {
        "stat": _Param("stat", required=True, help="bose or fermi"),
        "beta": _Param("float", 1.0, help="inverse temperature"),
        "mu": _Param("float", 0.0),
        "omega": _Param("float", 1.0),
        "hbar": _Param("float", 1.0),
        "rel_tol": _Param("float", 1e-10, help="relative truncation tolerance"),
        "max_terms": _Param("int", 10_000_000, help="term cap for the adaptive sum"),
    }, columns=("level", "occupation"), run=_run_stats),
    "bounds": _Kind("reduced series against its analytic ceiling", {
        "stat": _Param("stat", required=True),
        "mu": _Param("float", 0.0),
        "rel_tol": _Param("float", 1e-10),
        "max_terms": _Param("int", 10_000_000),
    }, columns=("mu", "S_numeric", "tail_bound", "lemma_bound", "pass"), run=_run_bounds),
    "oracle": _Kind("closed-form occupations against brute-force enumeration", {
        "stat": _Param("stat", required=True),
        "beta": _Param("float", 1.0),
        "mu": _Param("float", 0.0),
        "omega": _Param("float", 1.0),
        "hbar": _Param("float", 1.0),
        "qmax": _Param("int", 4, help="ladder modes 0..qmax when no energies given", least=0),
        "cutoff": _Param("int", 8, help="per-mode count cap for Bose enumeration"),
        "energies": _Param("float_list", None, help="explicit mode energies, e.g. 0.5,1.5"),
    }, columns=("mode", "closed_form", "oracle_value", "abs_error"), run=_run_oracle),
}


def run_job(job: Job) -> Report:
    """Execute a parsed job and return its report structure.

    The metadata echoes every parameter whose value is not ``None``, then
    adds the runner's own fields and ``job``.  A sweep echoes its inner
    job's parameters too, the swept one as ``swept``, and names the inner
    job in ``inner_job``; it raises ``DomainError`` before any inner run
    when a point of its grid is not finite.
    """
    params = job.params
    if job.inner is None:
        columns = _KINDS[job.kind].columns
        extra, rows = _KINDS[job.kind].run(params)
    else:
        inner = _KINDS[job.inner.kind]
        swept, steps, start = params["param"], params["steps"], params["start"]
        span = params["stop"] - start
        grid = [start + i * span / (steps - 1) if steps > 1 else start for i in range(steps)]
        if not all(map(math.isfinite, grid)):  # 0*inf, inf - inf or an overflowing i*span
            raise DomainError(
                f"sweep grid from {start!r} to {params['stop']!r} in {steps} steps "
                "is not finite"
            )
        columns = (swept,) + inner.columns
        extra, rows = {"inner_job": job.inner.kind}, []
        for value in grid:
            _, block = inner.run({**job.inner.params, swept: value})
            rows.extend((value,) + row for row in block)
        params = {**params, **job.inner.params, swept: "swept"}
    metadata = {name: value for name, value in params.items() if value is not None}
    metadata.update(extra, job=job.kind)
    return Report(metadata, columns, rows)


# --- rendering ---------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _render_rows(report: Report, template: str, sep: str) -> str:
    """Every row through ``template`` (one ``%r`` per column), joined by ``sep``.

    The rows are formatted in one pass: ``template`` repeated once per row
    and joined by ``sep`` takes the flattened cells in one ``%``, so no
    per-row string is ever built.  That needs every row to be as wide as
    ``columns``, with at least one column: a row of the wrong width would
    shift cells into the next row instead of raising, and each row of a
    zero-column report would render as the bare template.  ``run_job``
    builds no other rows (``test_cli.py`` checks that).

    A runner's cells are exact ints, floats and bools.  ``%r`` spells ints
    and floats the way both formats need; bools are then respelled
    ``true``/``false``, which no numeric repr contains.
    """
    cells = tuple(itertools.chain.from_iterable(report.rows))
    text = sep.join([template] * len(report.rows)) % cells
    return text.replace("True", "true").replace("False", "false")


def render_csv(report: Report) -> str:
    lines = [f"# {key} = {_fmt(value)}" for key, value in sorted(report.metadata.items())]
    lines.append(",".join(report.columns))
    template = ",".join(["%r"] * len(report.columns)) + "\n"
    return "\n".join(lines) + "\n" + _render_rows(report, template, "")


def render_json(report: Report) -> str:
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=2)``.

    Only ``columns`` and ``metadata`` go through ``json.dumps``: with
    ``indent`` set it runs its pure-Python encoder, several chunks per row.
    The rows are formatted in one pass over their flattened cells
    (``_render_rows``), so every row must be as wide as ``columns``, with
    at least one column; a zero-column report with rows would write each
    row as ``[`` and ``]`` around a blank line where ``json.dumps`` writes
    ``[]``.
    """
    head = json.dumps(
        {"columns": list(report.columns), "metadata": report.metadata},
        sort_keys=True,
        indent=2,
    )
    cell = "\n      "  # a row cell sits three levels (2 spaces each) deep
    template = "    [" + cell + ("," + cell).join(["%r"] * len(report.columns)) + "\n    ]"
    # Only a non-finite float spells "nan" or "inf"; json.dumps writes NaN and (-)Infinity.
    rows = _render_rows(report, template, ",\n").replace("nan", "NaN").replace("inf", "Infinity")
    body = ("[\n", rows, "\n  ]") if report.rows else ("[]",)
    # head ends in "\n}", which closes the payload after "rows" instead.  One
    # join copies the rows text once; chained + would copy it at every step.
    return "".join([head[:-2], ',\n  "rows": ', *body, "\n}\n"])


def execute_job(job: Job) -> str:
    """Run the job, render its report, and write it to the target."""
    report = run_job(job)
    text = render_csv(report) if job.fmt == "csv" else render_json(report)
    if job.output is not None:
        job.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return text


def _emit_error(code: int, exc: BaseException, kind: str | None) -> int:
    payload = {
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": str(exc),
            "job": kind,
        }
    }
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    kind = args[0] if args and not args[0].startswith("-") else None
    try:
        job = parse_job(args)
        kind = job.kind
        execute_job(job)
    except UsageError as exc:
        return _emit_error(2, exc, kind)
    except DomainError as exc:
        return _emit_error(3, exc, kind)
    except ConvergenceError as exc:
        return _emit_error(4, exc, kind)
    except OSError as exc:
        return _emit_error(1, exc, kind)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
