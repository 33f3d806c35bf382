"""The comparison half of tools/same_outputs.py, on hand-made records."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

NAN_CURVE = np.array([0.25, np.nan, 0.75]).tobytes()


def test_compare_lists_a_differing_and_a_missing_item():
    ref = {("tent", 3, "model document"): b"{\n\"a\": 1\n}",
           ("tent", 3, "median curve"): NAN_CURVE,
           ("fixed curves", 0, "glued three quantile curve"): NAN_CURVE}
    new = {("tent", 3, "model document"): b"{\n\"a\": 2\n}",
           ("tent", 3, "median curve"): NAN_CURVE}
    assert same_outputs.compare(ref, new) == [
        "fixed curves / 0 / glued three quantile curve: only in ref",
        "tent / 3 / model document: first difference at line 2: "
        "b'\"a\": 1' vs b'\"a\": 2'",
    ]
    assert same_outputs.compare(new, ref) == [
        "fixed curves / 0 / glued three quantile curve: only in new",
        "tent / 3 / model document: first difference at line 2: "
        "b'\"a\": 2' vs b'\"a\": 1'",
    ]


def test_describe_counts_curve_values_and_takes_nan_as_equal():
    other = np.array([0.5, np.nan, 0.75]).tobytes()
    assert (same_outputs._describe("median curve", NAN_CURVE, other)
            == "1 of 3 values differ, max |diff| 0.25")
    # a NaN with another sign bit differs in bytes but not in value
    negated = np.array([0.25, -np.nan, 0.75]).tobytes()
    assert negated != NAN_CURVE
    assert (same_outputs._describe("median curve", NAN_CURVE, negated)
            == "0 of 3 values differ, max |diff| 0")


def test_describe_compares_other_items_line_by_line():
    assert (same_outputs._describe("gluecop fit", b"exit 0\nok", b"exit 2\nok")
            == "first difference at line 1: b'exit 0' vs b'exit 2'")
    assert same_outputs._describe("gluecop fit", b"a\nb", b"a\nb\nc") == "2 vs 3 lines"
