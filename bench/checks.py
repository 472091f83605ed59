"""Correctness checks of every job, run outside the timed region.

References are computed here with ``math.fsum`` from the defining formulas,
never through the function under test, and summed far past the point
where the library stops (each term below 1e-22 of the running total).  A
reference is a bracket ``(lo, hi)``: ``lo`` is the correctly rounded
partial sum and ``hi`` adds a bound on what the reference itself dropped.

A certified library sum ``value`` with ``tail_bound`` passes when

    value <= hi + allowance   and   lo <= value + tail_bound + allowance,

with the rounding allowance ``(terms + 16) * 2**-53 * |reference|``: the
recursive-summation bound ``gamma_(n-1) * sum |x_i|`` (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., section 4.2) for ``n``
positive terms plus a few units of roundoff for evaluating each term.
No check compares report bytes with another commit: fewer summed terms
legitimately shortens ``stats`` reports.
"""

from __future__ import annotations

import json
import math

U = 2.0**-53
_STOP = 1e-22  # reference terms are summed until each is below this share
_X_DECAY = 40.0  # exponent beyond which occupations decay geometrically
_GAS_PREFACTOR = 4.0 * math.pi**2 / 2.0  # CLI gas defaults: hbar = mass = box = 1
_ORACLE_TOL = 1e-12  # acceptance criterion c03


def _occupation(x: float, stat: str) -> float:
    # No cancellation in either form; exp cannot overflow because every
    # reference stops near x = 50 + log(total).
    return 1.0 / math.expm1(x) if stat == "bose" else 1.0 / (1.0 + math.exp(x))


def _ratio_bound(step: float, x: float) -> float:
    """Bound on n(x + step) / n(x) for either statistics, given x >= 0."""
    return math.exp(-step) * (1.0 + math.exp(-x))


def ladder_reference(beta: float, mu: float, stat: str) -> tuple[float, float]:
    """sum_q n(beta * (q + 1/2 - mu)) on the hbar = omega = 1 ladder."""
    terms = []
    running = 0.0
    q = 0
    while True:
        x = beta * (q + 0.5 - mu)
        term = _occupation(x, stat)
        terms.append(term)
        running += term
        q += 1
        if x > _X_DECAY and term <= _STOP * running:
            rho = _ratio_bound(beta, x)
            lo = math.fsum(terms)
            return lo, lo + term * rho / (1.0 - rho)


def reduced_reference(mu: float, stat: str) -> tuple[float, float]:
    """S(mu) = sum_r (2 floor(sqrt r) + 1) r n(r + 1/2 - mu), shell by shell."""
    terms = []
    running = 0.0
    r = 0
    while True:
        x = r + 0.5 - mu
        term = (2 * math.isqrt(r) + 1) * r * _occupation(x, stat)
        terms.append(term)
        running += term
        r += 1
        if r > 1 and x > _X_DECAY and term <= _STOP * running:
            # from shell R on, r grows by a factor <= 1 + 1/R per shell and the
            # multiplicity 2 floor(sqrt r) + 1 by one <= 1 + 2/(2 floor(sqrt R) + 1)
            last = r - 1
            rho = (_ratio_bound(1.0, x) * (1.0 + 1.0 / last)
                   * (1.0 + 2.0 / (2 * math.isqrt(last) + 1)))
            lo = math.fsum(terms)
            return lo, lo + term * rho / (1.0 - rho)


def shell_reference(beta: float, mu: float, stat: str, weight: str) -> tuple[float, float]:
    """Double sum over k in Z and q >= 0 on the reduced gas (eps_k = k^2, hbar*omega = 1).

    Summed row by row in k, unlike the library's diagonal shells.  Once
    every exponent left is above _X_DECAY, each step in q or k shrinks a
    term by at least ``rho = exp(-beta/2)`` (the weight grows by less than
    the occupation falls), which bounds every dropped row tail and the
    dropped rows.
    """
    rho = math.exp(-0.5 * beta)
    terms = []
    running = 0.0
    dropped = 0.0
    k = 0
    while True:
        mult = 1 if k == 0 else 2
        q = 0
        while True:
            energy = k * k + q + 0.5
            x = beta * (energy - mu)
            w = 1.0 if weight == "count" else energy - mu if weight == "effective" else energy
            term = mult * w * _occupation(x, stat)
            terms.append(term)
            running += term
            if q == 0:
                first, x_first = term, x
            q += 1
            if x > _X_DECAY and term <= _STOP * running:
                dropped += term * rho / (1.0 - rho)
                break
        k += 1
        if x_first > _X_DECAY and first <= _STOP * running:
            dropped += 2.0 * first / (1.0 - rho) ** 2
            lo = math.fsum(terms)
            return lo, lo + dropped


def _allowance(terms: int, reference: float) -> float:
    return (terms + 16) * U * abs(reference)


def bracket_problem(value: float, tail: float, terms: int, ref: tuple[float, float]) -> str | None:
    """None when the certified sum brackets the reference, else why not."""
    lo, hi = ref
    allow = _allowance(terms, hi)
    if value > hi + allow:
        return f"value {value!r} exceeds reference {hi!r}"
    if lo > value + tail + allow:
        return f"value {value!r} + tail {tail!r} falls short of reference {lo!r}"
    return None


def _sum_problems(sums: list, refs: list[tuple[float, float]]) -> list[str]:
    problems = []
    for (value, terms, tail, converged), ref in zip(sums, refs):
        if not converged:
            problems.append(f"sum not converged after {terms} terms")
        elif (p := bracket_problem(value, tail, terms, ref)) is not None:
            problems.append(p)
    return problems


def oracle_reference(energy: float, beta: float, mu: float, stat: str, cutoff: int) -> float:
    """Mean count of one mode; the oracle's weights factorise over modes."""
    x = beta * (energy - mu)
    if stat == "fermi":
        return _occupation(x, "fermi")
    weights = [math.exp(-n * x) for n in range(cutoff + 1)]
    return math.fsum(n * w for n, w in enumerate(weights)) / math.fsum(weights)


def task_problems(job: dict, out: dict) -> list[str]:
    """Check one library task's result against independent references."""
    if "error" in out:
        return [out["error"]]
    kind, stat = job["kind"], job["stat"]
    if kind == "scan_mean":
        return _sum_problems(out["sums"], [ladder_reference(b, job["mu"], stat) for b in job["betas"]])
    if kind == "scan_reduced":
        return _sum_problems(out["sums"], [reduced_reference(mu, stat) for mu in job["mus"]])
    if kind == "mean":
        return _sum_problems(out["sums"], [ladder_reference(job["beta"], job["mu"], stat)])
    if kind == "shell":
        ref = shell_reference(job["beta"], job["mu"], stat, job["weight"])
        return _sum_problems(out["sums"], [ref])
    if kind == "oracle":
        # rounding of sums over (cutoff+1)^modes weights, never below c03's 1e-12
        size = (job["cutoff"] + 1) ** job["modes"]
        problems = []
        for q, mean in enumerate(out["means"]):
            ref = oracle_reference(q + 0.5, job["beta"], job["mu"], stat, job["cutoff"])
            if abs(mean - ref) > max(_ORACLE_TOL, 4 * size * U * (1.0 + ref)):
                problems.append(f"mode {q}: oracle {mean!r} vs reference {ref!r}")
        return problems
    raise ValueError(f"unknown task {kind!r}")


# --- CLI reports ------------------------------------------------------------


def _csv_value(text: str):
    if text in ("true", "false"):
        return text == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_report(data: bytes, fmt: str) -> tuple[dict, list]:
    """(metadata, rows) of a CSV or JSON report."""
    text = data.decode("utf-8")
    if fmt == "json":
        payload = json.loads(text)
        return payload["metadata"], payload["rows"]
    lines = text.splitlines()
    meta = {}
    i = 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" = ")
        meta[key] = _csv_value(value)
        i += 1
    rows = [[_csv_value(cell) for cell in line.split(",")] for line in lines[i + 1:]]
    return meta, rows


def _close(a: float, b: float, ulps: float = 8.0) -> bool:
    return abs(a - b) <= ulps * U * max(abs(a), abs(b), 1.0)


def _spectrum_rows(rows: list, mu: float, qmax: int) -> list[str]:
    if [r[0] for r in rows] != list(range(qmax + 1)):
        return [f"levels {[r[0] for r in rows]} are not 0..{qmax}"]
    problems = []
    for q, energy, eff, accessible in rows:
        if not (_close(energy, q + 0.5) and _close(eff, q + 0.5 - mu)
                and accessible == (q > mu - 0.5)):
            problems.append(f"spectrum row {q} wrong at mu={mu!r}")
    return problems


def _stats_problems(meta: dict, nrows: int, job: dict) -> list[str]:
    if meta.get("converged") is not True:
        return ["stats report not converged"]
    if nrows != meta["terms_used"]:
        return [f"{nrows} rows for {meta['terms_used']} terms"]
    ref = ladder_reference(job["beta"], job["mu"], job["stat"])
    p = bracket_problem(meta["mean"], meta["tail_bound"], meta["terms_used"], ref)
    return [] if p is None else [p]


def report_problems(job: dict, meta: dict, rows: list) -> list[str]:
    """Check one parsed CLI report against the job's parameters and references."""
    kind = job["kind"]
    if kind == "spectrum":
        return _spectrum_rows(rows, job["mu"], job["qmax"])
    if kind == "gas":
        if len(rows) != (2 * job["kmax"] + 1) * (job["qmax"] + 1):
            return [f"gas report has {len(rows)} rows"]
        mu = job["mu"]
        return [
            f"gas row k={k} q={q} wrong"
            for k, q, energy, eff, qmin in rows
            if not (_close(energy, _GAS_PREFACTOR * k * k + q + 0.5, 16)
                    and _close(eff, energy - mu)
                    and _close(qmin, mu - _GAS_PREFACTOR * k * k - 0.5, 16))
        ]
    if kind == "chain":
        n, c = job["count"], job["coupling"]
        expected = [math.sqrt(1.0 + 4.0 * c * math.sin(math.pi * s / n) ** 2) for s in range(1, n + 1)]
        if [r[0] for r in rows] != list(range(1, n + 1)) or not all(
            _close(r[1], w) for r, w in zip(rows, expected)
        ):
            return ["chain frequencies wrong"]
        return []
    if kind == "stats":
        return _stats_problems(meta, len(rows), job)
    if kind == "bounds":
        (mu, value, tail, ceiling, ok), = rows
        problems = [] if ok is True else [f"bounds check failed at mu={mu!r}"]
        # the library adds one term per shell, under 100 shells at rel_tol 1e-10
        p = bracket_problem(value, tail, 100, reduced_reference(job["mu"], job["stat"]))
        return problems + ([] if p is None else [p])
    if kind == "oracle":
        problems = []
        for q, closed, oracle, err in rows:
            ref = oracle_reference(q + 0.5, job["beta"], job["mu"], "fermi", 1)
            if abs(oracle - ref) > _ORACLE_TOL or err > _ORACLE_TOL:
                problems.append(f"oracle mode {q}: {oracle!r} vs {ref!r}")
        return problems if len(rows) == job["qmax"] + 1 else problems + ["oracle row count"]
    if kind == "sweep":
        return _sweep_problems(job, rows)
    raise ValueError(f"unknown job kind {kind!r}")


def _sweep_problems(job: dict, rows: list) -> list[str]:
    blocks: dict[float, list] = {}
    for row in rows:
        blocks.setdefault(row[0], []).append(row[1:])
    steps = job["steps"]
    if len(blocks) != steps:
        return [f"sweep has {len(blocks)} grid points, expected {steps}"]
    problems = []
    for value, block in blocks.items():
        if job["inner"] == "spectrum":
            problems += _spectrum_rows(block, value, job["qmax"])
            continue
        # A converged stats point's rows are its summed terms: their sum is
        # the certified value, whose tail is at most rel_tol (1e-10) of it.
        levels = [r[0] for r in block]
        if levels != list(range(len(block))):
            problems.append(f"sweep point beta={value!r}: levels not consecutive")
            continue
        total = math.fsum(r[1] for r in block)
        ref = ladder_reference(value, job["mu"], job["stat"])
        p = bracket_problem(total, max(1e-10 * total, 1e-14), len(block), ref)
        if p is not None:
            problems.append(f"sweep point beta={value!r}: {p}")
    return problems
