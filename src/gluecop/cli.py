"""Command-line interface.

Subcommands: ``simulate`` (reference models to CSV), ``analyze`` (break-point
candidates from data, JSON report), ``fit`` (piecewise copula model, JSON
document), ``predict`` (regression curve CSV from a model document) and
``measures`` (dependence report for a family or a dataset).

Exit codes are a stable contract for scripting: 0 success, 1 usage error,
2 data error, 3 numerical failure (running out of memory included).  The
commands raise the package's typed errors and warnings and write nothing to
stderr themselves: ``main`` alone prints each warning as a warning line, then
turns an error into an error line and an exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import model_io
from .copulas import make_copula
from .dependence import (GRID_N_DEFAULT, dependence_report, schweizer_wolff_sigma,
                         spearman_rho)
from .empirical import (DEFAULT_FIT_FAMILIES, DETECTION_PERSISTENCE,
                        EmpiricalCopula, crossing_report, crossing_breakpoints,
                        fit_piecewise, pseudo_observations,
                        sample_dependence_report, small_sample_note)
from .errors import (DataError, DomainError, NumericalError, ParameterError,
                     check_array_size)
from .reference import Sample, simulate_example1, simulate_example4
from .regression import mean_regression, median_regression

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

REPORT_SCHEMA_VERSION = 1
NAMED_BAD_LINES = 5  # the unparseable CSV lines an error names; it counts the rest


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts like a number ("-0.5,0.3", "-inf") is an
        # argument, not an unknown option; argparse's own pattern takes
        # plain negative numbers such as "-0.5" only
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def read_xy_csv(path: str) -> Sample:
    """Read (x, y) from the first two columns of a CSV file.

    Line 1 is a header when its first two cells are not both numbers; a
    UTF-8 byte-order mark is accepted and columns after the second are
    ignored.  Blank rows are skipped.  Rows whose first two cells are not
    finite numbers (``nan`` and ``inf`` included) are reported by line number
    (the first ``NAMED_BAD_LINES``, then a count) in a ``DataError``, as are
    files that cannot be parsed and files with fewer than 2 rows.

    numpy parses the file when it can (see ``_read_xy_numpy``); every file
    it declines, the rejected ones included, goes to the row reader
    ``_read_xy_rows``, which decides and words every error.  Both give the
    same ``Sample``, bit for bit."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    sample = _read_xy_numpy(data)
    return _read_xy_rows(data, path) if sample is None else sample


def _read_xy_rows(data: bytes, path: str) -> Sample:
    """The row reader: ``csv.reader`` over the decoded file, one row at a
    time.  ``path`` only names the file in error messages."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    xs, ys, bad_lines = [], [], []
    try:
        for lineno, row in enumerate(csv.reader(text), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                bad_lines.append(lineno)
                continue
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                x = y = math.nan
            if not (math.isfinite(x) and math.isfinite(y)):
                bad_lines.append(lineno)
                continue
            xs.append(x)
            ys.append(y)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"cannot parse {path}: {exc}") from exc
    if bad_lines:
        rest = len(bad_lines) - NAMED_BAD_LINES
        raise DataError("unparseable CSV rows at lines: "
                        + ", ".join(map(str, bad_lines[:NAMED_BAD_LINES]))
                        + (f" and {rest} more" if rest > 0 else ""))
    if len(xs) < 2:
        raise DataError("need at least 2 numeric (x, y) rows")
    return Sample(x=np.array(xs), y=np.array(ys))


# Lines after the first may hold only these bytes.  On them numpy's parser and
# float() agree bit for bit; other bytes are where they part or where csv
# reads what numpy does not: a quote opens a field that can span lines, float()
# takes underscores and numpy does not, numpy strips \x1c-\x1f and float()
# does not, and csv on Python 3.10 rejects NUL.
_NUMERIC_BYTES = b"0123456789+-.eE, \t\r\n"
_LINE_END = re.compile(rb"\r\n?|\n")


def _read_xy_numpy(data: bytes) -> Sample | None:
    """The row reader's ``Sample``, parsed by ``np.loadtxt``, or None to
    leave the file to the row reader.

    Line 1 is parsed by ``csv.reader`` under the row reader's header rule and
    must be one whole record: a header or two finite numbers.  The rest is
    declined when it holds a byte outside ``_NUMERIC_BYTES`` or a line longer
    than ``csv.field_size_limit()``, when numpy cannot parse it, or when a
    value is not finite.  Files with fewer than 2 rows are declined too."""
    end = _LINE_END.search(data)
    if end is None:
        return None  # one line holds fewer than 2 rows
    # a "line" here runs from one \n to the next, so it is never shorter
    # than any line csv sees
    codes = np.frombuffer(data, dtype=np.uint8, offset=end.end())
    line_ends = np.flatnonzero(codes == ord("\n"))
    line_lengths = np.diff(line_ends, prepend=-1, append=codes.size) - 1
    if line_lengths.max() > csv.field_size_limit():
        return None
    head, rest = data[:end.start()], data[end.end():]
    if rest.translate(None, _NUMERIC_BYTES):
        return None
    try:
        reader = csv.reader([head.decode("utf-8-sig"), ""])
        row = next(reader)
    except (csv.Error, UnicodeDecodeError):
        return None
    if reader.line_num != 1 or len(row) < 2:
        return None  # a quoted cell runs on past line 1, or a short row
    try:
        first = [float(row[0]), float(row[1])]
    except ValueError:
        first = []  # a header, or blank cells the row reader skips
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns on an input with no rows
        try:
            xy = np.loadtxt(io.BytesIO(rest), delimiter=",", comments=None,
                            usecols=(0, 1), ndmin=2, encoding="ascii")
        except ValueError:
            return None
    if first:
        xy = np.concatenate(([first], xy))
    if len(xy) < 2 or not np.isfinite(xy).all():
        return None
    return Sample(x=xy[:, 0], y=xy[:, 1])


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        model_io.write_text(path, text)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    _write(path, buf.getvalue())


def _emit_json(doc: dict, path: str | None) -> None:
    _write(path, model_io.dumps_canonical(doc))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _reject_unused(flag: str, value, source: str) -> None:
    """A flag that the chosen source ignores is a usage error, not dropped."""
    if value is not None:
        raise DomainError(f"{flag} does not apply to {source}")


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    if args.model == "example1":
        _reject_unused("--k", args.k, "example1")
        theta = 0.5 if args.theta is None else args.theta
        sample = simulate_example1(args.n, theta, args.seed)
    else:
        _reject_unused("--theta", args.theta, "example4")
        k = 0.1 if args.k is None else args.k
        sample = simulate_example4(args.n, k, args.seed)
    _write_csv(args.out, ["x", "y"], zip(sample.x, sample.y))
    return EXIT_OK


def cmd_analyze(args) -> int:
    sample = read_xy_csv(args.input)
    ps = pseudo_observations(sample)
    report = crossing_report(ps, args.grid_n, args.tol, args.persistence)
    # sample_dependence_report's rho and sigma, without its two classes
    copula = EmpiricalCopula(ps)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "n": sample.n,
        "rho_hat": spearman_rho(copula),
        "sigma_hat": schweizer_wolff_sigma(copula),
        "mixed_dependence": report.mixed_dependence,
        "crossings": [asdict(c) for c in report.crossings],
        "candidates": crossing_breakpoints(sample.x, report),
    }
    note = small_sample_note(sample.n, "detection")
    if note is not None:
        doc["warning"] = note
    _emit_json(doc, args.out)
    return EXIT_OK


def _parse_breakpoints(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"invalid break-point list: {text!r}") from None
    if not all(math.isfinite(b) for b in values):
        raise DomainError(f"break-points must be finite: {text!r}")
    return values


def cmd_fit(args) -> int:
    sample = read_xy_csv(args.input)
    candidates = None
    if args.breakpoints is not None:
        candidates = _parse_breakpoints(args.breakpoints)
    families = DEFAULT_FIT_FAMILIES
    if args.families is not None:
        families = tuple(tok.strip() for tok in args.families.split(",") if tok.strip())
        if not families:
            raise DomainError(f"--families list is empty: {args.families!r}")
    result = fit_piecewise(sample, candidates=candidates, families=families)
    model_io.save_model(result.model, args.out_model)
    print(f"{'segment':>8} {'interval':>24} {'family':>14} {'theta':>10} "
          f"{'rho_hat':>8} {'gof':>10}")
    for i, fit in enumerate(result.segments):
        lo, hi = fit.interval
        theta = "-" if fit.theta is None else f"{fit.theta:.4g}"
        print(f"{i:>8} {f'({lo:.4g}, {hi:.4g}]':>24} {fit.family:>14} "
              f"{theta:>10} {fit.rho_hat:>8.3f} {fit.gof_distance:>10.3e}")
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.num < 1:
        raise DomainError("--num must be >= 1")
    for flag, value in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value!r}")
    pm = model_io.load_model(args.model)
    lo, hi = pm.marginal_x.support
    x_min = lo if args.x_min is None else args.x_min
    x_max = hi if args.x_max is None else args.x_max
    if not x_max > x_min:
        raise DomainError("--x-max must exceed --x-min")
    check_array_size("--num", args.num)
    if math.isfinite(x_max - x_min):
        xs = np.linspace(x_min, x_max, args.num)
    else:  # the span overflows; halving and doubling are exact
        xs = 2.0 * np.linspace(x_min / 2.0, x_max / 2.0, args.num)
    inside = (xs >= lo) & (xs <= hi)
    if not np.all(inside):
        if args.strict:
            raise DataError("x grid extends outside the model support "
                            f"[{lo:g}, {hi:g}]")
        warnings.warn(f"{int(np.sum(~inside))} grid points outside model "
                      "support emitted as NaN")
    curve = median_regression if args.statistic == "median" else mean_regression
    mu = np.full(xs.shape, np.nan)
    if np.any(inside):
        mu[inside] = curve(pm, xs[inside])
    _write_csv(args.out, ["x", "mu"], zip(xs, mu))
    return EXIT_OK


def cmd_measures(args) -> int:
    if (args.input is None) == (args.family is None):
        raise DomainError("provide either a dataset or --family, not both")
    if args.family is not None:
        report = dependence_report(make_copula(args.family, args.theta), 64)
    else:
        _reject_unused("--theta", args.theta, "a dataset")
        report = sample_dependence_report(pseudo_observations(read_xy_csv(args.input)))
    _emit_json({"schema_version": REPORT_SCHEMA_VERSION, **report.to_dict()},
               args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="gluecop",
                     description="Copula gluing, dependence diagnostics and "
                                 "piecewise-monotone copula regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a reference model to CSV")
    p.add_argument("model", choices=["example1", "example4"])
    p.add_argument("--theta", type=float, default=None,
                   help="tent-model gluing point (example1; default 0.5)")
    p.add_argument("--k", type=float, default=None,
                   help="noise scale (example4; default 0.1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="break-point candidate report from data")
    p.add_argument("input", help="two-column CSV")
    p.add_argument("--grid-n", type=int, default=GRID_N_DEFAULT)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--persistence", type=int, default=DETECTION_PERSISTENCE)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit a piecewise copula regression model")
    p.add_argument("input", help="two-column CSV")
    p.add_argument("--breakpoints", default=None,
                   help="comma-separated break-points in x-space "
                        "(default: auto-detect)")
    p.add_argument("--families", default=None,
                   help="comma-separated candidate family names")
    p.add_argument("--out-model", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="evaluate a fitted regression curve")
    p.add_argument("model", help="model JSON document")
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--num", type=int, default=101)
    p.add_argument("--statistic", choices=["median", "mean"], default="median")
    p.add_argument("--strict", action="store_true",
                   help="fail instead of emitting NaN outside the support")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("measures", help="dependence report for a family or data")
    p.add_argument("input", nargs="?", default=None, help="two-column CSV")
    p.add_argument("--family", default=None,
                   help="built-in copula family tag")
    p.add_argument("--theta", type=float, default=None,
                   help="family parameter, where required")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_measures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every UserWarning is recorded, repeats included; other categories keep
    # the filters in force, so one that a filter makes an error still raises
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code, error = args.func(args), None
        except DataError as exc:
            code, error = EXIT_DATA, f"data error: {exc}"
        except NumericalError as exc:
            code, error = EXIT_NUMERICAL, f"numerical error: {exc}"
        except MemoryError as exc:
            code, error = EXIT_NUMERICAL, f"numerical error: out of memory: {exc}"
        except (ParameterError, DomainError) as exc:
            code, error = EXIT_USAGE, f"error: {exc}"
        finally:  # also before an unexpected exception's traceback
            for w in caught:
                print(f"gluecop: warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"gluecop: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
