"""Fuzz of the command line: every job kind, sweeps included, at extreme inputs.

``cli.main`` runs in process on argv whose numeric flags come from an edge
set (signed zeros and subnormals, 1e-300, 1e308, infinities, NaN, and the
exponents where ``exp`` overflows, near 709.8, or underflows, near 745).
Whatever the input, a job must end with a documented exit code; a failed
job must say why in exactly one JSON line on stderr; and a report it writes
must hold no NaN cell and be reproduced byte for byte by a second run.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from openosc import cli

EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, 1e308, -1e308,
    math.inf, -math.inf, math.nan,
    709.78, 709.79, -709.78, -709.79, 745.13, 745.14, -745.13, -745.14,
    0.5, 1.0,  # ordinary values, so that some jobs run to a report
]

# Integer flags stay small so that every job is quick; max_terms too, since
# a sum at an extreme beta may run to its cap.
INTS = {
    "qmax": st.integers(0, 3),
    "kmax": st.integers(0, 2),
    "count": st.integers(1, 4),
    "cutoff": st.integers(0, 3),
    "max_terms": st.integers(1, 300),
    "steps": st.integers(1, 3),
}


def run(argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            # the documented blow-up warning goes to the warning channel
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def flags(draw, kind):
    """``--name=value`` flags for the parameters of job ``kind``, each present or not."""
    argv = []
    for name, spec in cli._KINDS[kind].params.items():
        if name != "max_terms" and not spec.required and not draw(st.booleans()):
            continue
        if spec.type == "float":
            value = repr(draw(st.sampled_from(EDGES)))
        elif spec.type == "stat":
            value = draw(st.sampled_from(["bose", "fermi"]))
        elif spec.type == "int_list":
            value = ",".join(map(str, draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))))
        elif spec.type == "float_list":
            value = ",".join(map(repr, draw(st.lists(st.sampled_from(EDGES), min_size=1,
                                                      max_size=3))))
        else:
            value = str(draw(INTS[name]))
        argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


@st.composite
def jobs(draw):
    kind = draw(st.sampled_from(sorted(cli._KINDS) + ["sweep"]))
    fmt = [f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    if kind != "sweep":
        return [kind] + fmt + draw(flags(kind))
    inner = draw(st.sampled_from(sorted(cli._KINDS)))
    numeric = [n for n, spec in cli._KINDS[inner].params.items() if spec.type == "float"]
    swept = draw(st.sampled_from(numeric))
    sweep = [
        f"--param={swept}",
        f"--start={draw(st.sampled_from(EDGES))!r}",
        f"--stop={draw(st.sampled_from(EDGES))!r}",
        f"--steps={draw(INTS['steps'])}",
    ]
    # The grid alone sets the swept parameter; its inner flag is a usage error.
    swept_flag = f"--{swept.replace('_', '-')}="
    inner_flags = [f for f in draw(flags(inner)) if not f.startswith(swept_flag)]
    return ["sweep"] + sweep + fmt + [inner] + inner_flags


def cells(report, fmt):
    """Every row cell of a report, as the strings or values it spells."""
    if fmt == "json":
        return [cell for row in json.loads(report)["rows"] for cell in row]
    lines = [line for line in report.splitlines() if not line.startswith("# ")]
    return [cell for line in lines[1:] for cell in line.split(",")]


@given(jobs())
# Derandomized, so that every run checks the same examples; a longer hunt runs
# the same test under other seeds and more examples.
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(["stats", "--format=csv", "--stat=bose", "--beta=1e-300", "--omega=1e-30",
          "--max-terms=5"])
@example(["stats", "--format=json", "--stat=fermi", "--beta=inf", "--mu=0.5",
          "--max-terms=5"])
@example(["sweep", "--param=mu", "--start=0.0", "--stop=inf", "--steps=2", "--format=csv",
          "chain", "--count=1"])
@example(["chain", "--format=csv", "--count=4", "--mu=1e+308", "--levels=0,0,0,0"])
@example(["spectrum", "--format=json", "--hbar=1e+308", "--mu=inf"])
@example(["sweep", "--param=mu", "--start=1e-17", "--stop=1e+308", "--steps=3", "--format=csv",
          "spectrum", "--omega=1e+308", "--qmax=3"])
@example(["sweep", "--param=beta", "--start=1e-300", "--stop=1.0", "--steps=3",
          "--format=csv", "stats", "--stat=bose", "--max-terms=300"])
def test_every_job_ends_with_a_documented_outcome(argv):
    code, out, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        error = json.loads(lines[0])["error"]
        assert error["code"] == code
        assert out == ""
        return
    assert err == "", (argv, err)
    fmt = "json" if "--format=json" in argv else "csv"
    found = [cell for cell in cells(out, fmt) if cell == "nan" or cell != cell]
    assert not found, (argv, out)
    assert run(argv) == (0, out, "")
