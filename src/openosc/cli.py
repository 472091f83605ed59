"""Command line front end: batch jobs rendered as CSV or JSON reports.

One executable, one subcommand per job kind.  Parameters come from flags,
each spelled exactly and taking one value, or from a JSON config file
(flags win key by key); every parameter that has a value, defaults
included, is echoed in the output metadata and reports contain nothing
volatile, so re-running a job reproduces its output byte for byte.

Exit codes: 0 success, 2 usage or config error, 3 domain/precondition
error, 4 numerical non-convergence.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

from .chain import (
    ChainAssignment,
    ChainParams,
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


class Job(NamedTuple):
    """A validated job: its kind and parameters, where and how to write it, and a
    sweep's inner job."""

    kind: str
    params: dict[str, Any]
    output: Path | None = None
    fmt: str = "csv"
    inner: "Job | None" = None


# --- parameter schema --------------------------------------------------------


class _Param(NamedTuple):
    """Schema of one job parameter: its type, default and flag help."""

    type: str  # float | int | stat | str | int_list | float_list
    default: Any = None
    required: bool = False
    help: str = ""
    least: int | None = None  # parse-time floor of a CLI loop bound; else the library checks


# A sweep repeats an inner job of any kind in _KINDS over a grid of one of its
# float parameters.
_SWEEP_PARAMS = {
    "param": _Param("str", "mu", help="numeric parameter of the inner job to sweep"),
    "start": _Param("float", required=True, help="first grid value"),
    "stop": _Param("float", required=True, help="last grid value"),
    "steps": _Param("int", 7, help="number of grid values, ends included", least=1),
}


def _convert(name: str, spec: _Param, raw: Any, source: str) -> Any:
    def fail(expected: str) -> UsageError:
        return UsageError(f"{source} value for {name!r} must be {expected}, got {raw!r}")

    if spec.type == "float":
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise fail("a number")
        try:
            return float(raw)
        except (ValueError, OverflowError):  # OverflowError: an int beyond the float range
            raise fail("a number") from None
    if spec.type == "int":
        if isinstance(raw, float) and raw.is_integer():
            raw = int(raw)
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
        if isinstance(raw, str):
            parts = [p for p in raw.split(",") if p.strip() != ""]
        elif isinstance(raw, (list, tuple)):
            parts = list(raw)
        else:
            raise fail("a comma-separated list")
        element = _Param(spec.type.removesuffix("_list"))  # elements follow the scalar rules
        try:
            return [_convert(name, element, p, source) for p in parts]
        except UsageError:
            raise fail(f"a list of {element.type}s") from None
    raise AssertionError(f"unhandled parameter type {spec.type}")


# --- parsing -----------------------------------------------------------------


_IO_PARAMS = {
    "config": _Param("str", help="JSON file with job parameters"),
    "output": _Param("str", help="report path (stdout if absent)"),
    "format": _Param("str", help="csv or json (json for a .json output, else csv)"),
}


def _print_help(usage: str, title: str, entries: dict[str, str]) -> NoReturn:
    lines = [f"usage: {usage}", "", f"{title}:", *(f"  {k:14}{v}" for k, v in entries.items())]
    # One write: on unbuffered stdout a reader that stops early (| head) breaks later writes.
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _read_flags(args: list[str], where: str, params: dict[str, _Param]) -> dict[str, str]:
    """Pop the leading ``--flag value`` and ``--flag=value`` pairs of ``args``.

    Only the exact flags of ``params`` count, plus ``-o`` for ``--output``
    where ``params`` has ``output``: the outer word of argv passes its own
    parameters with ``_IO_PARAMS``, a sweep's inner job its kind's less the
    swept one.  A flag's value is the next token unless that starts with
    ``--``, so ``--mu -1e-5`` reads as written.  ``-h`` or ``--help`` prints
    the flags of ``where`` and exits 0; a sweep's inner page is only reached
    once the sweep's own flags are read and merged.
    """
    names = {"--" + name.replace("_", "-"): name for name in params}
    if "output" in params:
        names["-o"] = "output"
    flags: dict[str, str] = {}
    while args and args[0].startswith("-"):
        flag, eq, value = args.pop(0).partition("=")
        if flag in ("-h", "--help"):
            usage = f"openosc {where} [--flag VALUE ...]"
            if where == "sweep":  # its inner job follows its own flags
                usage += (" KIND [--flag VALUE ...]\n\ninner job KIND: "
                          + ", ".join(_KINDS) + " (each takes --help)")
            entries = {f: params[n].help for f, n in names.items()}
            _print_help(usage, "flags", entries)
        if flag not in names:
            raise UsageError(f"unknown flag {flag!r} for {where!r}")
        if not eq:
            if not args or args[0].startswith("--"):
                raise UsageError(f"flag {flag!r} needs a value")
            value = args.pop(0)
        flags[names[flag]] = value
    return flags


def _load_config(path: str) -> dict[str, Any]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from None
    except RecursionError:
        raise UsageError(f"config {path!r} nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    return data


def _merge_params(
    kind: str,
    spec: dict[str, _Param],
    flags: dict[str, Any],
    config: dict[str, Any],
    config_label: str,
) -> dict[str, Any]:
    """Each parameter of ``spec`` from its flag, else ``config``, else its default.

    ``config`` may hold only ``spec``'s keys and ``kind``, which must be
    ``kind``; the caller takes out the keys of the outer word of argv
    (``output``, ``format`` and a sweep's ``job``) first.  Flags outside
    ``spec`` are ignored.
    """
    for key in config:
        if key not in spec and key != "kind":
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


def parse_job(argv: Sequence[str]) -> Job:
    """Turn an argument vector into a validated Job.

    A sweep's own flags and config are read and merged before its inner job,
    whose kind comes from argv or the config's ``job``.  The grid alone sets
    the swept parameter, so the inner job takes every flag and config key of
    its kind but that one, and an inner ``--help`` needs the sweep's flags.

    Raises UsageError for malformed input (unknown keys included) and
    DomainError for a bound of the CLI's own loops (qmax, kmax, sweep steps)
    out of range.  Every other precondition, count, max_terms and cutoff
    included, is the library's to check; it surfaces from run_job.
    """
    args = list(argv)
    if args[:1] in (["-h"], ["--help"]):
        kinds = {kind: spec.help for kind, spec in _KINDS.items()}
        kinds["sweep"] = "repeat an inner job over a parameter grid"
        _print_help("openosc [sweep [--flag VALUE ...]] KIND [--flag VALUE ...]\n\n"
                    "Effective spectra and occupation statistics of open oscillator systems.",
                    "kinds (each takes --help)", kinds)
    if not args:
        raise UsageError("missing job kind: one of " + ", ".join(_WORDS))
    kind = args.pop(0)
    if kind not in _WORDS:
        raise UsageError(f"unknown job kind {kind!r}")
    flags = _read_flags(args, kind, {**_WORDS[kind], **_IO_PARAMS})
    if args and kind != "sweep":  # a sweep reads the rest as its inner job below
        raise UsageError(f"unexpected argument {args[0]!r}")
    config = _load_config(flags["config"]) if flags.get("config") else {}
    # The outer word's own keys come out; what is left are its parameters.
    own = {key: config.pop(key) for key in ("output", "format") if key in config}
    inner_cfg = config.pop("job", {}) if kind == "sweep" else {}

    path = flags.get("output")
    if path is None and "output" in own:  # even an empty -o beats the config
        path = _convert("output", _Param("str"), own["output"], f"config[{kind}]")
    # An empty path, from the flag or the config, writes to stdout like no path.
    output = Path(path) if path else None
    fmt = flags.get("format", own.get("format"))
    if fmt is None:
        fmt = "json" if output is not None and output.suffix == ".json" else "csv"
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")

    params = _merge_params(kind, _WORDS[kind], flags, config, f"config[{kind}]")
    inner = None
    if kind == "sweep":
        if not isinstance(inner_cfg, dict):
            raise UsageError("config key 'job' must hold a JSON object")
        inner_kind = args.pop(0) if args else inner_cfg.get("kind")
        if inner_kind is None:
            raise UsageError("sweep needs an inner job (subcommand or config 'job')")
        if not isinstance(inner_kind, str) or inner_kind not in _KINDS:
            raise UsageError(f"unknown inner job kind {inner_kind!r}")
        swept, ispec = params["param"], _KINDS[inner_kind].params
        if swept not in ispec or ispec[swept].type != "float":
            raise UsageError(
                f"sweep parameter {swept!r} is not a numeric parameter of {inner_kind!r}"
            )
        ispec = {name: p for name, p in ispec.items() if name != swept}
        inner_flags = _read_flags(args, f"sweep {inner_kind}", ispec)
        if args:
            raise UsageError(f"unexpected argument {args[0]!r}")
        inner = Job(inner_kind, _merge_params(inner_kind, ispec, inner_flags, inner_cfg,
                                              "config[job]"))
    return Job(kind, params, output, fmt, inner)


# --- execution ---------------------------------------------------------------

Rows = list[tuple[Any, ...]]


class Report(NamedTuple):
    """A job's metadata, column names and rows, ready to render."""

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
            "chain_effective_energy": grouped.canonical,
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


class _Kind(NamedTuple):
    """The one declaration of a job kind; flag reader, config merge and run_job read it."""

    help: str
    params: dict[str, _Param]
    columns: tuple[str, ...]
    run: Callable[[dict[str, Any]], tuple[dict[str, Any], Rows]]


# Every parameter of the job kinds, declared once; each kind takes its names from here.
_PARAMS = {
    "omega": _Param("float", 1.0, help="oscillator frequency"),
    "hbar": _Param("float", 1.0, help="reduced Planck constant"),
    "mass": _Param("float", 1.0, help="particle mass"),
    "box_length": _Param("float", 1.0, help="periodic box length"),
    "mu": _Param("float", 0.0, help="chemical potential"),
    "beta": _Param("float", 1.0, help="inverse temperature"),
    "stat": _Param("stat", required=True, help="bose or fermi"),
    "qmax": _Param("int", 10, help="highest ladder level reported", least=0),
    "kmax": _Param("int", 5, help="half-width of the k range", least=0),
    "count": _Param("int", required=True, help="number of chain sites"),
    "coupling": _Param("float", 0.0, help="nearest-neighbour coupling"),
    "levels": _Param("int_list", None, help="ladder index per mode, e.g. 0,0,1"),
    "rel_tol": _Param("float", 1e-10, help="relative truncation tolerance"),
    "max_terms": _Param("int", 10_000_000, help="term cap for the adaptive sum"),
    "cutoff": _Param("int", 8, help="per-mode count cap for Bose enumeration"),
    "energies": _Param("float_list", None, help="explicit mode energies, e.g. 0.5,1.5"),
}


def _take(names: str) -> dict[str, _Param]:
    """The ``_PARAMS`` entries of the space-separated ``names``, in that order."""
    return {name: _PARAMS[name] for name in names.split()}


_KINDS: dict[str, _Kind] = {
    "spectrum": _Kind("ladder energies, effective frequencies and accessibility",
                      _take("omega hbar mu qmax"),
                      columns=("q", "energy", "omega_eff", "accessible"), run=_run_spectrum),
    "gas": _Kind("joint translational-vibrational levels and thresholds",
                 _take("omega hbar mass box_length mu kmax qmax"),
                 columns=("k", "q", "energy", "effective_term", "q_min_k"), run=_run_gas),
    "chain": _Kind("normal-mode frequencies and assignment energies",
                   _take("omega hbar count coupling mu levels"),
                   columns=("s", "omega_s"), run=_run_chain),
    "stats": _Kind("mean occupations of one ladder",
                   _take("stat beta mu omega hbar rel_tol max_terms"),
                   columns=("level", "occupation"), run=_run_stats),
    "bounds": _Kind("reduced series against its analytic ceiling",
                    _take("stat mu rel_tol max_terms"),
                    columns=("mu", "S_numeric", "tail_bound", "lemma_bound", "pass"),
                    run=_run_bounds),
    # The oracle's own qmax replaces the shared entry in place, so its flag order holds.
    "oracle": _Kind("closed-form occupations against brute-force enumeration", {
        **_take("stat beta mu omega hbar qmax cutoff energies"),
        "qmax": _Param("int", 4, help="ladder modes 0..qmax when no energies given", least=0),
    }, columns=("mode", "closed_form", "oracle_value", "abs_error"), run=_run_oracle),
}

# The parameters of each word that can open argv or a config: a job kind, or sweep.
_WORDS = {**{kind: spec.params for kind, spec in _KINDS.items()}, "sweep": _SWEEP_PARAMS}


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


def _render_rows(report: Report, template: str, sep: str, for_json: bool = False) -> str:
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
    ``true``/``false``, which no numeric repr contains.  ``for_json`` also
    respells non-finite floats as ``json.dumps`` writes them: ``NaN`` and
    ``(-)Infinity``, where ``%r`` writes ``nan`` and ``(-)inf``.

    Each respelling scans the whole text, so it runs only when some cell
    needs it: one pass over the cell types finds a bool, and a NaN or an
    infinity makes the plain ``sum`` of the cells non-finite.  A sum that
    overflows on finite cells only costs needless scans, and the int cells
    (loop indices) lie far inside the float range that ``sum`` needs.
    """
    cells = tuple(itertools.chain.from_iterable(report.rows))
    text = sep.join([template] * len(report.rows)) % cells
    if bool in set(map(type, cells)):
        text = text.replace("True", "true").replace("False", "false")
    if for_json and not math.isfinite(sum(cells)):
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


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
    rows = _render_rows(report, template, ",\n", for_json=True)
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
