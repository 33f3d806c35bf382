"""Bounded fuzzing of the command line: whatever the input file holds, every
run ends in one of the documented exit codes, never in a traceback."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gluecop.cli import main

EXIT_CODES = {0, 1, 2, 3}

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(-1.0, 1.0),
    st.integers(-3, 3),
)
cells = st.one_of(
    numbers.map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", " ", "abc", "1e309", "0x10",
                     "1,5", '"2"', "x"]),
)
junk_rows = st.lists(cells, min_size=0, max_size=3)


@st.composite
def csv_texts(draw):
    """A header or not, a block of numeric rows (ties likely), and junk rows
    (short, blank, non-numeric, non-finite) spliced in at random places."""
    n = draw(st.integers(0, 90))
    xs = draw(st.lists(draw(st.sampled_from([st.floats(0.0, 1.0), numbers])),
                       min_size=n, max_size=n))
    ys = draw(st.lists(numbers, min_size=n, max_size=n))
    rows = [[repr(x), repr(y)] for x, y in zip(xs, ys)]
    for row in draw(st.lists(junk_rows, max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    if draw(st.booleans()):
        rows.insert(0, ["x", "y"])
    return "".join(",".join(row) + "\n" for row in rows)


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    return code


@FUZZ
@given(text=csv_texts(),
       command=st.sampled_from([["analyze"], ["measures"],
                                ["fit", "--out-model", "{dir}/m.json"],
                                ["fit", "--breakpoints", "0.5",
                                 "--out-model", "{dir}/m.json"]]))
def test_csv_commands_exit_cleanly(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text)
        argv = [command[0], str(path)] + [a.format(dir=tmp) for a in command[1:]]
        run(argv)


VALID_MODEL = {
    "schema_version": 1,
    "break_points": [0.5],
    "segment_copulas": [{"family": "clayton", "theta": 2.0},
                        {"family": "glued", "gluing_points": [0.4],
                         "pieces": [{"family": "frechet-upper"},
                                    {"family": "frechet-lower"}]}],
    "marginal_x": {"type": "empirical", "knots": [0.0, 0.25, 0.5, 0.75, 1.0]},
    "marginal_y": {"type": "uniform", "a": 0.0, "b": 1.0},
}

special_numbers = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0, 2.0, 1e-300, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
    st.floats(-3.0, 3.0), st.integers(-3, 3),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=8), special_numbers),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every key path into ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


ALL_PATHS = list(_paths(VALID_MODEL))


@st.composite
def model_documents(draw):
    """The valid document with a few values replaced, deleted or re-typed."""
    doc = json.loads(json.dumps(VALID_MODEL))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(ALL_PATHS))
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            action = draw(st.sampled_from(["number", "number", "any", "drop"]))
            if action == "drop" and isinstance(parent, dict):
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = draw(special_numbers if action == "number"
                                        else json_values)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or re-typed the path
    return doc


@FUZZ
@given(doc=model_documents(), statistic=st.sampled_from(["median", "mean"]))
def test_predict_on_mutated_models_exits_cleanly(doc, statistic):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(doc))
        run(["predict", str(path), "--num", "7", "--statistic", statistic])
