"""End-to-end tests of the command line interface."""

import builtins
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from openosc import cli
from openosc.cli import UsageError, main, parse_job, run_job
from openosc.errors import DomainError

JOB_ARGS = {
    "spectrum": ["spectrum", "--mu", "2.5", "--qmax", "5"],
    "gas": ["gas", "--mu", "0.3", "--kmax", "3", "--qmax", "4"],
    "chain": [
        "chain", "--count", "4", "--coupling", "0.25",
        "--mu", "0.2", "--levels", "0,0,1,2",
    ],
    "stats": ["stats", "--stat", "fermi", "--mu", "1.6"],
    "bounds": ["bounds", "--stat", "bose", "--mu", "0.4"],
    "oracle": ["oracle", "--stat", "fermi", "--mu", "1.6", "--qmax", "4"],
    "sweep": [
        "sweep", "--param", "mu", "--start", "0", "--stop", "3",
        "--steps", "5", "spectrum", "--qmax", "3",
    ],
}


def run_to_file(args, tmp_path, name="out.csv"):
    # Io flags sit on the outer parser, so for sweep they must come before
    # the inner subcommand; right after the kind works for every job.
    target = tmp_path / name
    code = main(args[:1] + ["-o", str(target)] + args[1:])
    return code, target


def parse_csv(text):
    meta = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_parse_job_defaults():
    job = parse_job(["spectrum"])
    assert job.kind == "spectrum"
    assert job.params["omega"] == 1.0
    assert job.params["mu"] == 0.0
    assert job.params["qmax"] == 10
    assert job.fmt == "csv"
    assert job.output is None


def test_parse_job_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_job(["spectrum", "--bogus", "1"])


def test_parse_job_rejects_bad_value():
    with pytest.raises(UsageError) as err:
        parse_job(["spectrum", "--qmax", "many"])
    assert "qmax" in str(err.value)


def test_main_unknown_flag_exits_2(capsys):
    assert main(["spectrum", "--bogus", "1"]) == 2
    err = capsys.readouterr().err
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"]["code"] == 2


def test_spectrum_accessibility_pattern(tmp_path, capsys):
    code, target = run_to_file(JOB_ARGS["spectrum"], tmp_path)
    assert code == 0
    meta, header, rows = parse_csv(target.read_text())
    assert header == ["q", "energy", "omega_eff", "accessible"]
    assert meta["q_min"] == "2.0"
    assert [r[3] for r in rows] == ["false", "false", "false", "true", "true", "true"]
    assert [r[0] for r in rows] == [str(q) for q in range(6)]


def test_metadata_lines_are_sorted(tmp_path):
    _, target = run_to_file(JOB_ARGS["spectrum"], tmp_path)
    keys = [
        line[2:].split(" = ")[0]
        for line in target.read_text().splitlines()
        if line.startswith("# ")
    ]
    assert keys == sorted(keys)


def test_stdout_when_no_output_given(capsys):
    assert main(["spectrum", "--qmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "q,energy,omega_eff,accessible" in out
    assert out.endswith("\n")


@pytest.mark.parametrize("kind", sorted(JOB_ARGS))
def test_reruns_are_byte_identical(kind, tmp_path, capsys):
    code_a, first = run_to_file(JOB_ARGS[kind], tmp_path, "a.csv")
    code_b, second = run_to_file(JOB_ARGS[kind], tmp_path, "b.csv")
    assert code_a == code_b == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes()  # not trivially empty


@pytest.mark.parametrize(
    "args",
    [JOB_ARGS[kind] for kind in sorted(cli._KINDS)]
    + [["sweep", "--param", "mu", "--start", "0", "--stop", "0.4", "--steps", "2"] + JOB_ARGS[kind]
       for kind in sorted(cli._KINDS)],
    ids=sorted(cli._KINDS) + [f"sweep-{kind}" for kind in sorted(cli._KINDS)],
)
def test_report_rows_are_tuples_of_ints_floats_and_bools(args):
    # The renderers format all rows in one pass: the %r template of
    # len(columns) cells, repeated once per row, takes the flattened cells,
    # and only bools are respelled.  A row of the wrong width would shift
    # cells into the next row instead of raising, so this test is the guard
    # of the domain they rely on.
    report = run_job(parse_job(args))
    assert report.rows
    for row in report.rows:
        assert type(row) is tuple and len(row) == len(report.columns)
        assert {type(cell) for cell in row} <= {int, float, bool}


@pytest.mark.parametrize(
    "args, key, value",
    [
        (["spectrum", "--mu", "-1e-5", "--qmax", "1"], "mu", -1e-5),
        (["spectrum", "--mu", "-inf", "--qmax", "1"], "mu", -math.inf),
        (["sweep", "--start", "-1e-3", "--stop", "0", "--steps", "2", "spectrum"], "start", -1e-3),
        (["sweep", "--param", "beta", "--start", "0.5", "--stop", "1",
          "stats", "--stat", "fermi", "--mu", "-2E+1"], "mu", -20.0),
    ],
    ids=["top-level", "top-level-inf", "sweep-flag", "inner-job-flag"],
)
def test_negative_values_with_an_exponent_are_flag_values(args, key, value, capsys):
    # argparse alone reads "-1e-5" as an unknown option and exits 2.
    job = parse_job(args)
    assert {**job.params, **(job.inner.params if job.inner else {})}[key] == value
    assert main(args) == 0
    assert f"# {key} = {value!r}\n" in capsys.readouterr().out


def test_json_format_mirrors_csv(tmp_path):
    _, csv_target = run_to_file(JOB_ARGS["spectrum"], tmp_path, "r.csv")
    code = main(JOB_ARGS["spectrum"] + ["-o", str(tmp_path / "r.json")])
    assert code == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert set(payload) == {"metadata", "columns", "rows"}
    assert payload["columns"] == ["q", "energy", "omega_eff", "accessible"]
    _, _, csv_rows = parse_csv(csv_target.read_text())
    assert len(payload["rows"]) == len(csv_rows) == 6
    assert payload["rows"][3][3] is True
    assert payload["metadata"]["q_min"] == 2.0


def test_format_inferred_from_suffix(tmp_path):
    _, target = run_to_file(JOB_ARGS["gas"], tmp_path, "x.json")
    json.loads(target.read_text())


def test_explicit_format_beats_suffix(tmp_path):
    code = main(JOB_ARGS["gas"] + ["--format", "csv", "-o", str(tmp_path / "x.json")])
    assert code == 0
    text = (tmp_path / "x.json").read_text()
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)
    assert text.startswith("# ")


def test_gas_report_columns(tmp_path):
    _, target = run_to_file(JOB_ARGS["gas"], tmp_path)
    _, header, rows = parse_csv(target.read_text())
    assert header == ["k", "q", "energy", "effective_term", "q_min_k"]
    ks = sorted({int(r[0]) for r in rows})
    assert ks == list(range(-3, 4))


def test_chain_report_summary_metadata(tmp_path):
    _, target = run_to_file(JOB_ARGS["chain"], tmp_path)
    meta, header, rows = parse_csv(target.read_text())
    assert header == ["s", "omega_s"]
    assert len(rows) == 4
    assert meta["grouped_discrepancy"] == "true"
    assert float(meta["chain_effective_energy"]) < float(meta["grouped_energy"])


def test_chain_without_levels_has_no_summary(tmp_path):
    _, target = run_to_file(
        ["chain", "--count", "3", "--coupling", "0.1"], tmp_path
    )
    meta, _, rows = parse_csv(target.read_text())
    assert len(rows) == 3
    assert "levels" not in meta
    assert "chain_energy" not in meta


def test_chain_levels_length_mismatch_exits_3(capsys):
    code = main(["chain", "--count", "3", "--levels", "0,0"])
    assert code == 3
    payload = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert payload["error"]["code"] == 3


def test_stats_report_contents(tmp_path):
    _, target = run_to_file(JOB_ARGS["stats"], tmp_path)
    meta, header, rows = parse_csv(target.read_text())
    assert header == ["level", "occupation"]
    assert meta["converged"] == "true"
    assert len(rows) == int(meta["terms_used"])
    assert float(meta["mean"]) == pytest.approx(1.7781087552865196, rel=1e-9)
    # Row occupations never exceed 1 for fermions.
    assert all(0.0 < float(r[1]) <= 1.0 for r in rows)


def test_stats_bose_domain_exits_3_before_compute(capsys):
    code = main(["stats", "--stat", "bose", "--mu", "0.6"])
    assert code == 3
    payload = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert payload["error"]["type"] == "ChemicalPotentialError"
    assert payload["error"]["job"] == "stats"


def test_stats_term_cap_exits_4(capsys):
    # In the last three jobs exp(-beta*hbar*omega) rounds to 1.0; the ladder
    # tail bound must not divide by zero there.
    jobs = [
        ["--stat", "fermi", "--mu", "0", "--max-terms", "5"],
        ["--stat", "fermi", "--beta", "1e-17", "--max-terms", "1000"],
        ["--stat", "fermi", "--omega", "1e-320", "--max-terms", "1000"],
        ["--stat", "bose", "--beta", "1e-17", "--max-terms", "1000"],
    ]
    for args in jobs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # Bose near x = 0
            code = main(["stats"] + args)
        assert code == 4, args
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["error"]["type"] == "ConvergenceError"


def test_bose_tiny_exponent_warns_once_per_job():
    # Every summed level is in the blow-up window; one constant message lets
    # the default warning filter report it once instead of once per term.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "openosc.cli", "stats", "--stat", "bose", "--beta", "1e-17",
         "--max-terms", "1000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stderr.count("RuntimeWarning") == 1
    assert json.loads(proc.stderr.splitlines()[-1])["error"]["type"] == "ConvergenceError"


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", sorted(JOB_ARGS))
def test_reports_match_the_frozen_golden_bytes(kind, fmt, tmp_path):
    # A change to any report byte must update these files and say so.
    target = tmp_path / f"{kind}.{fmt}"
    args = JOB_ARGS[kind]
    assert main(args[:1] + ["-o", str(target), "--format", fmt] + args[1:]) == 0
    assert target.read_bytes() == (GOLDEN / f"{kind}.{fmt}").read_bytes()


_PLAIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 and later add floats: Neumaier-compensated (CPython gh-100425).

    A float after a float is added with compensation, anything else plainly,
    and the compensation is added at the end if it is finite and non-zero.
    """
    total, compensation = start, 0.0
    for item in iterable:
        if isinstance(total, float) and isinstance(item, float):
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
        else:
            total = total + item
    if isinstance(total, float) and compensation and math.isfinite(compensation):
        total += compensation
    return total


def chain_corpus(count=40, seed=7):
    """Chain jobs with assignments; the first changed its bytes under ``compensated_sum``."""
    rng = random.Random(seed)
    jobs = [["chain", "--count", "6", "--coupling", "0.45", "--mu", "0.2",
             "--levels", "3,5,4,0,4,0"]]
    for _ in range(count - 1):
        n = rng.randint(2, 8)
        levels = ",".join(str(rng.randint(0, 6)) for _ in range(n))
        jobs.append(["chain", "--count", str(n), "--coupling", repr(rng.uniform(0.0, 2.0)),
                     "--mu", repr(rng.uniform(-1.0, 3.0)), "--levels", levels])
    return jobs


def test_compensated_sum_emulation_matches_the_plain_sum_on_exact_cases():
    assert compensated_sum([1, 2, 3]) == 6
    assert compensated_sum([0.1] * 10) == 1.0  # the plain sum gives 0.9999999999999999
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([], 2.5) == 2.5


def test_reports_keep_their_bytes_under_a_compensated_sum(monkeypatch, tmp_path):
    # From Python 3.12 the builtin sum compensates float adds, so a report that
    # adds floats with it changes its bits with the Python version.
    golden = [(kind, fmt) for kind in sorted(JOB_ARGS) for fmt in ("csv", "json")]
    jobs = [JOB_ARGS[kind][:1] + ["--format", fmt] + JOB_ARGS[kind][1:] for kind, fmt in golden]
    jobs += chain_corpus()

    def reports():
        texts = []
        for i, args in enumerate(jobs):
            target = tmp_path / f"{i}.out"
            assert main(args[:1] + ["-o", str(target)] + args[1:]) == 0
            texts.append(target.read_bytes())
        return texts

    plain = reports()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    compensated = reports()
    monkeypatch.undo()
    assert compensated == plain
    frozen = [(GOLDEN / f"{kind}.{fmt}").read_bytes() for kind, fmt in golden]
    assert plain[: len(golden)] == frozen


def test_bounds_report_passes(tmp_path):
    _, target = run_to_file(JOB_ARGS["bounds"], tmp_path)
    meta, header, rows = parse_csv(target.read_text())
    assert header == ["mu", "S_numeric", "tail_bound", "lemma_bound", "pass"]
    assert len(rows) == 1
    mu, s, tail, ceiling, ok = rows[0]
    assert ok == "true"
    assert float(s) + float(tail) <= float(ceiling)


def test_bounds_bose_domain_exits_3():
    assert main(["bounds", "--stat", "bose", "--mu", "0.5"]) == 3


def test_bounds_term_cap_exits_4():
    assert main(["bounds", "--stat", "bose", "--mu", "0.4", "--max-terms", "3"]) == 4


def test_oracle_report(tmp_path):
    _, target = run_to_file(JOB_ARGS["oracle"], tmp_path)
    meta, header, rows = parse_csv(target.read_text())
    assert header == ["mode", "closed_form", "oracle_value", "abs_error"]
    # Exclusion caps the enumeration at one particle per mode.
    assert meta["cutoff"] == "1"
    assert len(rows) == 5
    assert all(float(r[3]) < 1e-12 for r in rows)


def test_oracle_explicit_energies(tmp_path):
    _, target = run_to_file(
        ["oracle", "--stat", "bose", "--mu", "0.0", "--cutoff", "60",
         "--energies", "0.5,1.5"],
        tmp_path,
    )
    meta, _, rows = parse_csv(target.read_text())
    assert meta["energies"] == "0.5,1.5"
    assert len(rows) == 2
    assert all(float(r[3]) < 1e-10 for r in rows)


def test_oracle_bose_mu_above_band_exits_3():
    code = main(["oracle", "--stat", "bose", "--mu", "0.5", "--qmax", "2"])
    assert code == 3


def test_oracle_cap_exits_3():
    code = main(["oracle", "--stat", "bose", "--mu", "0", "--cutoff", "100",
                 "--qmax", "7"])
    assert code == 3


@pytest.mark.parametrize("flags", [
    ["--mu=inf"], ["--mu=-inf"], ["--beta=inf"], ["--mu=1e308", "--beta=1e10"],
], ids=["mu-inf", "mu-minus-inf", "beta-inf", "beta-mu-overflow"])
def test_oracle_non_finite_weights_exit_3(flags, tmp_path, capsys):
    # The closed form is finite (0 or 1) here, but inf*0 in the unoccupied
    # counts would make every enumerated weight NaN.
    code, target = run_to_file(["oracle", "--stat", "fermi", "--qmax", "3"] + flags, tmp_path)
    assert code == 3
    assert not target.exists()
    payload = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert payload["error"]["type"] == "DomainError"


@pytest.mark.parametrize("args", [
    ["stats", "--stat", "fermi"], ["stats", "--stat", "bose"], ["oracle", "--stat", "fermi"],
    ["spectrum"], ["gas"],
], ids=["stats-fermi", "stats-bose", "oracle", "spectrum", "gas"])
def test_nan_mu_exits_3(args, tmp_path, capsys):
    # Before Thermo refused a NaN mu, stats summed all 10^7 terms and exited 4;
    # before the thresholds refused it, spectrum and gas wrote nan cells.
    code, target = run_to_file(args + ["--mu", "nan"], tmp_path)
    assert code == 3
    assert not target.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "DomainError"
    assert "mu" in error["message"]


@pytest.mark.parametrize("args, message", [
    (["stats", "--stat", "bose", "--beta", "1e-300", "--omega", "1e-30"], "underflows to 0.0"),
    (["stats", "--stat", "fermi", "--beta", "inf", "--mu", "0.5"], "not finite"),
    (["sweep", "--start", "0", "--stop", "inf", "--steps", "2", "chain", "--count", "1"],
     "is not finite"),
    (["sweep", "--start", "1e-17", "--stop", "1e308", "--steps", "3", "spectrum"],
     "is not finite"),
    (["chain", "--count", "4", "--mu", "1e308", "--levels", "0,0,0,0"], "overflows"),
    (["spectrum", "--hbar", "1e308", "--mu", "inf"], "overflows"),
    (["gas", "--kmax", str(10**300), "--qmax", "0"], f"level k = {-(10**300)} overflows"),
], ids=["stats-bose-underflow", "stats-beta-inf", "sweep-infinite-span", "sweep-overflow",
        "chain-overflow", "spectrum-overflow", "gas-kmax-overflow"])
def test_unrepresentable_inputs_exit_3_at_once(args, message, tmp_path, capsys):
    # The underflowing Bose ground exponent once blamed mu; beta = inf once ran
    # the ladder to its 10^7-term cap (~11 s) and exited 4; the sweeps wrote a
    # nan grid point (0 + 0*inf) or an inf one (2*1e308/2); the chain died of
    # fsum's OverflowError (exit 1); the spectrum wrote omega_eff = inf - inf;
    # the gas died of an OverflowError converting k*k of its first k (exit 1).
    start = time.perf_counter()
    code, target = run_to_file(args, tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert not target.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "DomainError"
    assert message in error["message"]


@pytest.mark.parametrize("args, message", [
    (["stats", "--stat", "fermi", "--omega", "1e-9", "--hbar", "5e-324"],
     "hbar*omega must be positive, got 0.0"),
    (["spectrum", "--omega", "1e-17", "--hbar", "5e-324", "--mu", "709.9"],
     "hbar*omega must be positive, got 0.0"),
    (["gas", "--omega", "5e-324", "--hbar", "0.5"], "hbar*omega must be positive, got 0.0"),
    (["gas", "--omega", "inf", "--kmax", "1", "--qmax", "1"],
     "omega must be finite and positive, got inf"),
    (["chain", "--count", "2", "--coupling", "nan"], "coupling must be non-negative, got nan"),
    (["chain", "--count", "2", "--coupling", "inf"],
     "coupling must be finite and non-negative, got inf"),
    (["stats", "--stat", "bose", "--hbar", "1e200", "--omega", "1e200"],
     "hbar*omega must be finite and positive, got inf"),
], ids=["stats-quantum-underflow", "spectrum-quantum-underflow", "gas-quantum-underflow",
        "gas-omega-inf", "chain-coupling-nan", "chain-coupling-inf", "stats-quantum-overflow"])
def test_non_finite_or_vanishing_scales_exit_3(args, message, tmp_path, capsys):
    # hbar*omega underflowing to 0 died with a ZeroDivisionError traceback
    # (exit 1); an infinite omega or a NaN coupling wrote inf or nan cells.
    code, target = run_to_file(args, tmp_path)
    assert code == 3
    assert not target.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "DomainError"
    assert error["message"] == message


NONNEG = "must be a non-negative integer, got -1"
POSINT = "must be a positive integer, got 0"


@pytest.mark.parametrize("args, message", [
    (["spectrum", "--qmax", "-1"], "qmax " + NONNEG),
    (["gas", "--kmax", "-1"], "kmax " + NONNEG),
    (["oracle", "--stat", "bose", "--energies", "0.5", "--qmax", "-1"], "qmax " + NONNEG),
    (["sweep", "--start", "0", "--stop", "1", "--steps", "0", "spectrum"], "steps " + POSINT),
    (["chain", "--count", "0"], "count " + POSINT),
    (["sweep", "--start", "0", "--stop", "1", "chain", "--count", "0"], "count " + POSINT),
    (["stats", "--stat", "fermi", "--max-terms", "0"], "max_terms " + POSINT),
    (["bounds", "--stat", "bose", "--max-terms", "0"], "max_terms " + POSINT),
    (["oracle", "--stat", "fermi", "--cutoff", "-1"], "cutoff " + NONNEG),
], ids=["spectrum-qmax", "gas-kmax", "oracle-qmax", "sweep-steps", "chain-count",
        "sweep-chain-count", "stats-max-terms", "bounds-max-terms", "oracle-cutoff"])
def test_an_integer_out_of_range_exits_3_in_the_library_wording(args, message, tmp_path, capsys):
    # The CLI worded its own copies of these checks "qmax must be non-negative".
    code, target = run_to_file(args, tmp_path)
    assert code == 3
    assert not target.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["message"] == message


def test_parse_job_leaves_the_library_sizes_to_the_library():
    # Only the bounds of the CLI's own loops are checked at parse time.
    job = parse_job(["oracle", "--stat", "fermi", "--cutoff", "-1"])
    assert job.params["cutoff"] == -1
    with pytest.raises(DomainError, match="qmax " + NONNEG):
        parse_job(["oracle", "--stat", "fermi", "--qmax", "-1"])


def test_sweep_report_shape(tmp_path):
    _, target = run_to_file(JOB_ARGS["sweep"], tmp_path)
    meta, header, rows = parse_csv(target.read_text())
    assert header == ["mu", "q", "energy", "omega_eff", "accessible"]
    assert meta["mu"] == "swept"
    assert len(rows) == 5 * 4
    grid = sorted({float(r[0]) for r in rows})
    assert grid == [0.0, 0.75, 1.5, 2.25, 3.0]


def test_sweep_threshold_moves_with_mu(tmp_path):
    _, target = run_to_file(JOB_ARGS["sweep"], tmp_path)
    _, _, rows = parse_csv(target.read_text())
    open_counts = {}
    for r in rows:
        open_counts.setdefault(float(r[0]), 0)
        open_counts[float(r[0])] += r[4] == "true"
    ordered = [open_counts[mu] for mu in sorted(open_counts)]
    assert ordered == sorted(ordered, reverse=True)


def test_sweep_failing_mid_grid_writes_no_report(tmp_path, capsys):
    # mu = 0 is valid for Bose stats; mu = 0.5 reaches hbar*omega/2 and fails.
    code, target = run_to_file(
        ["sweep", "--param", "mu", "--start", "0", "--stop", "1", "--steps", "3",
         "stats", "--stat", "bose"],
        tmp_path,
    )
    assert code == 3
    assert not target.exists()
    payload = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert payload["error"]["type"] == "ChemicalPotentialError"
    assert payload["error"]["job"] == "sweep"


@pytest.mark.parametrize(
    "args, message",
    [
        (["stats", "--stat", "fermi", "--beta", "0"], "beta must be positive, got 0.0"),
        (["gas", "--box-length", "0"], "box_length must be positive, got 0.0"),
        (["bounds", "--stat", "fermi", "--rel-tol", "-1"], "rel_tol must be positive, got -1.0"),
        (
            ["oracle", "--stat", "fermi", "--energies", "0.5,1.5", "--omega", "-1"],
            "omega must be positive, got -1.0",
        ),
        (
            ["sweep", "--param", "mu", "--start", "0", "--stop", "1", "--steps", "2",
             "stats", "--stat", "fermi", "--beta", "-1"],
            "beta must be positive, got -1.0",
        ),
        (
            ["gas", "--box-length", "1e-170"],
            "translational prefactor must be finite and positive, got inf",
        ),
        (
            ["bounds", "--stat", "fermi", "--mu", "705"],
            "reduced-series ceiling is not finite for mu = 705.0",
        ),
        (
            ["bounds", "--stat", "fermi", "--mu", "720"],
            "reduced-series ceiling is not finite for mu = 720.0",
        ),
        (
            ["bounds", "--stat", "fermi", "--mu", "1e300"],
            "exp(1/2 - mu) must be finite and positive, got 0.0 for mu = 1e+300",
        ),
    ],
    ids=["stats-beta", "gas-box-length", "bounds-rel-tol", "oracle-omega",
         "sweep-inner-beta", "gas-prefactor", "bounds-mu-705", "bounds-mu-720",
         "bounds-mu-1e300"],
)
def test_physical_range_errors_exit_3_without_report(args, message, tmp_path, capsys):
    # The CLI leaves these range checks to the library; each must still
    # exit 3 with the library's message and write nothing.
    code, target = run_to_file(args, tmp_path)
    assert code == 3
    assert not target.exists()
    error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert error["type"] == "DomainError"
    assert error["message"] == message


def test_library_calls_are_looked_up_at_call_time(monkeypatch, capsys):
    # The benchmark's traced replay wraps these openosc.cli globals for the
    # duration of a pass, so each job must reach the library through them.
    jobs = [
        JOB_ARGS["stats"], JOB_ARGS["bounds"], JOB_ARGS["oracle"],
        ["sweep", "--param", "beta", "--start", "0.5", "--stop", "2", "--steps", "3",
         "stats", "--stat", "fermi"],
    ]

    def reports():
        texts = []
        for args in jobs:
            assert main(args) == 0
            texts.append(capsys.readouterr().out)
        return texts

    plain = reports()
    calls = {}
    for name in ("mean_particle_number", "reduced_series", "gc_average_occupation"):
        def counting(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    assert reports() == plain
    assert calls == {"mean_particle_number": 4, "reduced_series": 1, "gc_average_occupation": 1}


def test_sweep_needs_numeric_parameter():
    with pytest.raises(UsageError):
        parse_job(["sweep", "--param", "stat", "--start", "0", "--stop", "1",
                   "stats", "--stat", "fermi"])


def test_sweep_rejects_nested_sweep():
    assert main(["sweep", "--param", "mu", "--start", "0", "--stop", "1",
                 "sweep"]) == 2


def test_sweep_requires_an_inner_job():
    with pytest.raises(UsageError):
        parse_job(["sweep", "--param", "mu", "--start", "0", "--stop", "1"])


@pytest.mark.parametrize(
    "inner, message",
    [
        ([], "config key 'job' must hold a JSON object"),
        (0, "config key 'job' must hold a JSON object"),
        ({"kind": [1]}, "unknown inner job kind [1]"),
    ],
    ids=["empty-list", "zero", "list-kind"],
)
def test_sweep_config_rejects_malformed_inner_job(inner, message, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"param": "mu", "start": 0.0, "stop": 1.0, "job": inner}))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "-o", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert payload["error"]["type"] == "UsageError"
    assert payload["error"]["message"] == message
    assert not out.exists()


def test_config_file_supplies_parameters(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"kind": "spectrum", "mu": 2.5, "qmax": 5}))
    job = parse_job(["spectrum", "--config", str(cfg)])
    assert job.params["mu"] == 2.5
    assert job.params["qmax"] == 5


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"mu": 1.0}))
    job = parse_job(["spectrum", "--config", str(cfg), "--mu", "2.0"])
    assert job.params["mu"] == 2.0


def test_config_unknown_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"omeg": 1.0}))
    code = main(["spectrum", "--config", str(cfg)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert "omeg" in payload["error"]["message"]


@pytest.mark.parametrize(
    "args, config, code, expected",
    [
        (["chain", "--count", "2"], {"levels": [1.0, 0]}, 0, "# levels = 1,0"),
        (["chain", "--count", "2"], {"levels": [0.5, 1.7]}, 2,
         "config[chain] value for 'levels' must be a list of ints, got [0.5, 1.7]"),
        (["chain", "--count", "2"], {"levels": [True, 0]}, 2,
         "config[chain] value for 'levels' must be a list of ints, got [True, 0]"),
        (["oracle", "--stat", "fermi"], {"energies": [0.5, True]}, 2,
         "config[oracle] value for 'energies' must be a list of floats, got [0.5, True]"),
    ],
    ids=["integral-float", "fractional", "bool-int", "bool-float"],
)
def test_config_list_elements_follow_scalar_rules(args, config, code, expected, tmp_path,
                                                  capsys):
    # As with --levels 0.5, a list element is not truncated or read as a number
    # when it is a boolean, or a fractional number where ints are expected.
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    assert main(args + ["--config", str(cfg)]) == code
    out, err = capsys.readouterr()
    assert expected in (out if code == 0 else json.loads(err)["error"]["message"])


@pytest.mark.parametrize(
    "config, expected",
    [
        (None, "flag value for 'stat' must be bose or fermi, got 'boson'"),
        ({"stat": "boson"}, "config[stats] value for 'stat' must be bose or fermi, got 'boson'"),
        ({"stat": 1}, "config[stats] value for 'stat' must be 'bose' or 'fermi', got 1"),
    ],
    ids=["flag", "config", "config-not-a-string"],
)
def test_unknown_statistics_is_a_usage_error(config, expected, tmp_path, capsys):
    args = ["stats", "--stat", "boson"]
    if config is not None:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        args = ["stats", "--config", str(cfg)]
    assert main(args) == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == expected
    # the names StatisticsKind reads, spaces and case aside
    assert parse_job(["stats", "--stat", " FERMI "]).params["stat"] == "fermi"


@pytest.mark.parametrize(
    "args, config",
    [
        (["stats"], {"stat": "fermi", "job": {"kind": "spectrum"}}),
        # The unknown key is reported before the mismatched kind.
        (["stats"], {"kind": "gas", "stat": "fermi", "job": {}}),
        (["sweep", "--param", "beta", "--start", "1", "--stop", "2"],
         {"job": {"kind": "stats", "stat": "fermi", "job": {}}}),
    ],
    ids=["top-level", "kind-mismatch", "inner-job"],
)
def test_config_job_key_belongs_to_sweep_only(args, config, tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    assert main(args + ["--config", str(cfg)]) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == "unknown config key 'job' for job kind 'stats'"


def test_config_format_must_be_csv_or_json(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    assert main(["spectrum", "--qmax", "1", "--config", str(cfg)]) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == "format must be csv or json, got 'xml'"


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps([1, 2]))
    assert main(["spectrum", "--config", str(cfg)]) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == f"config {str(cfg)!r} must hold a JSON object"


def test_config_kind_mismatch(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"kind": "gas"}))
    with pytest.raises(UsageError):
        parse_job(["spectrum", "--config", str(cfg)])


def test_config_output_and_format(tmp_path):
    out = tmp_path / "report.txt"
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"output": str(out), "format": "json"}))
    assert main(["spectrum", "--qmax", "1", "--config", str(cfg)]) == 0
    json.loads(out.read_text())


def test_config_missing_file():
    with pytest.raises(UsageError):
        parse_job(["spectrum", "--config", "/nonexistent/path.json"])


def test_config_invalid_json(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text("{not json")
    with pytest.raises(UsageError):
        parse_job(["spectrum", "--config", str(cfg)])


def test_sweep_inner_job_from_config(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "param": "mu", "start": 0.0, "stop": 1.0, "steps": 3,
        "job": {"kind": "spectrum", "qmax": 2},
    }))
    job = parse_job(["sweep", "--config", str(cfg)])
    assert job.inner is not None
    assert job.inner.kind == "spectrum"
    assert job.inner.params["qmax"] == 2
    assert job.params["steps"] == 3


def test_missing_required_parameter():
    with pytest.raises(UsageError) as err:
        parse_job(["stats"])
    assert "stat" in str(err.value)


def test_unwritable_output_exits_1():
    code = main(["spectrum", "--qmax", "1", "-o", "/nonexistent/dir/out.csv"])
    assert code == 1
