"""CSV and JSON rendering against the straightforward reference renderers.

The reference bodies below are the renderers as first written: one
``isinstance`` chain per CSV cell and one ``json.dumps(..., indent=2)`` of
the whole payload.  The package formats all rows in one ``%`` over a
repeated ``%r`` row template instead; these tests pin that the bytes really
are the same.

Rows are drawn from the domain ``run_job`` produces (``test_cli.py`` checks
that domain): tuples as wide as ``columns`` whose cells are exact ints,
floats or bools.  Metadata stays arbitrary.
"""

import json
import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from openosc.cli import Report, render_csv, render_json


def _reference_fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_reference_fmt(v) for v in value)
    return str(value)


def reference_render_csv(report):
    lines = [f"# {key} = {_reference_fmt(value)}" for key, value in sorted(report.metadata.items())]
    lines.append(",".join(report.columns))
    lines.extend(",".join(_reference_fmt(cell) for cell in row) for row in report.rows)
    return "\n".join(lines) + "\n"


def reference_render_json(report):
    payload = {
        "metadata": report.metadata,
        "columns": list(report.columns),
        "rows": [list(row) for row in report.rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300,
                math.nan, math.inf, -math.inf, 0.1, 1.778108755220517]
_EDGE_TEXT = ['say "hi"', "back\\slash", "naïve μ", "two\nlines", "", ","]

scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(_EDGE_TEXT),
)
cells = st.one_of(scalars, st.lists(scalars, max_size=3))
row_cells = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.booleans(),
)
reports = st.lists(st.text(max_size=8), min_size=1, max_size=5).map(tuple).flatmap(
    lambda columns: st.builds(
        Report,
        metadata=st.dictionaries(st.text(max_size=8), cells, max_size=6),
        columns=st.just(columns),
        rows=st.lists(st.tuples(*[row_cells] * len(columns)), max_size=8),
    )
)


@settings(max_examples=300, deadline=None)
@given(reports)
def test_renderers_match_the_reference_bytes(report):
    assert render_csv(report) == reference_render_csv(report)
    assert render_json(report) == reference_render_json(report)


def test_renderers_match_the_reference_on_edge_rows():
    report = Report(
        {"energies": [0.5, 1.5], "swept": "mu", "levels": [], "count": 2**70,
         "note": 'say "hi"', "flags": [True, None], "pass": False},
        ("a", "b", "c"),
        [(0, 2**100, -(2**64)), (True, False, True), (1, 0.5, False)]
        + [(i, f, -f) for i, f in enumerate(_EDGE_FLOATS)],
    )
    assert render_csv(report) == reference_render_csv(report)
    assert render_json(report) == reference_render_json(report)
    two = [(0, math.nan), (1, -math.inf), (2, 1e-05), (2**70, math.inf), (5, True)]
    for rows in (two, two[:1], []):
        report = Report({}, ("q", "x"), rows)
        assert render_csv(report) == reference_render_csv(report)
        assert render_json(report) == reference_render_json(report)
    empty = Report({}, (), [])
    assert render_csv(empty) == reference_render_csv(empty)
    assert render_json(empty) == reference_render_json(empty)


def test_rendering_holds_the_text_about_twice_not_once_per_row():
    """The traced peak of a render stays within 2.5 times the text it returns.

    A 20,000-row ``(level, occupation)`` report, as ``stats`` writes, runs
    ~27 bytes of CSV and ~53 bytes of JSON text per row.  The rows are
    formatted in one ``%`` call, so the peak is the larger of two phases:

    - formatting: the text as it is written, the cells tuple (16 bytes a
      row) and the row template repeated once per row (6 bytes a row in
      CSV, 32 in JSON with its separator), together under twice the text;
    - assembly: the rows text and the one copy of it that the header and
      tail are joined around, twice the text.

    The remaining half text covers the string writer's over-allocation and
    the header.  A renderer that keeps one string object per row (~49
    bytes of object header each, plus a list slot) next to the joined text
    peaks at 3-4 times the text.
    """
    rows = [(q, 1.0 / (math.exp(1e-3 * q + 0.5) + 1.0)) for q in range(20_000)]
    report = Report({"beta": 0.001, "job": "stats"}, ("level", "occupation"), rows)
    for render in (render_csv, render_json):
        render(report)  # first-call allocations are not the render's
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            text = render(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), (render.__name__, peak / len(text))
