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
    assert same_outputs.differences(ref, new) == {
        "fixed curves / 0 / glued three quantile curve": "only in ref",
        "tent / 3 / model document": "first difference at line 2: "
                                     "b'\"a\": 1' vs b'\"a\": 2'",
    }
    assert same_outputs.differences(new, ref) == {
        "fixed curves / 0 / glued three quantile curve": "only in new",
        "tent / 3 / model document": "first difference at line 2: "
                                     "b'\"a\": 2' vs b'\"a\": 1'",
    }


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


def test_describe_shows_the_first_difference_of_a_long_line():
    a = b'{"a":' + b"1" * 200 + b',"rho_hat":0.5}'
    b = b'{"a":' + b"1" * 200 + b',"rho_hat":0.25}'
    # the lines agree on 218 bytes; the window opens 40 bytes before that
    assert (same_outputs._describe("gluecop analyze", a, b)
            == f"first difference at line 1: {a[178:]!r} vs {b[178:]!r}")
    assert b"rho_hat" in a[178:]


# hand-made records: one item differs, one is the same, one is only in new
REF = {("tent", 3, "gluecop analyze"): b"rho 0.5",
       ("tent", 3, "model document"): b"{}"}
NEW = {("tent", 3, "gluecop analyze"): b"rho 0.25",
       ("tent", 3, "model document"): b"{}",
       ("fixed commands", 0, "gluecop measures frank 1e-200"): b"rho 0.0"}


def test_declared_differences_are_expected():
    diffs = same_outputs.differences(REF, NEW)
    assert same_outputs.unexpected(diffs, set(diffs)) == []


def test_an_undeclared_difference_is_unexpected():
    diffs = same_outputs.differences(REF, NEW)
    assert same_outputs.unexpected(diffs, {"tent / 3 / gluecop analyze"}) == [
        "undeclared: fixed commands / 0 / gluecop measures frank 1e-200"]
    assert same_outputs.unexpected(diffs, set()) == [
        "undeclared: fixed commands / 0 / gluecop measures frank 1e-200",
        "undeclared: tent / 3 / gluecop analyze"]


def test_a_declared_item_that_does_not_differ_is_unexpected():
    diffs = same_outputs.differences(REF, NEW)
    declared = set(diffs) | {"tent / 3 / model document", "tent / 3 / no such item"}
    assert same_outputs.unexpected(diffs, declared) == [
        "declared but the same: tent / 3 / model document",
        "declared but the same: tent / 3 / no such item"]


def test_read_expect_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "expect.txt"
    path.write_text("# analyze moves\n\n  tent / 3 / gluecop analyze  \n"
                    "#tent / 3 / model document\n")
    assert same_outputs.read_expect(path) == {"tent / 3 / gluecop analyze"}

