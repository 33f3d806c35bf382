"""Check that two source trees give the same outputs, byte for byte.

    python tools/same_outputs.py REF_SRC NEW_SRC [--expect FILE]

REF_SRC and NEW_SRC are ``src`` directories, each holding a ``gluecop``
package (for example the ``src`` of a checkout of the base commit and this
tree's ``src``).  Each tree runs in its own Python process on the same fixed
cases: the benchmark's tent, parabola and glued-three generators at seeds 3,
11 and 12 (round 0, so data seeds 3000, 11000 and 12000), at a size where
every break is found.  For each case the script compares

- the input CSV text and the model document of ``fit_piecewise``;
- the ``repr`` of the data's ``crossing_report``: its crossings, touches,
  grid, tolerance, persistence and mixed-dependence flag (``analyze``'s
  JSON leaves out the touches);
- the ``tobytes()`` of the median and mean curves (``median_regression``
  and ``mean_regression``) on a 1001-point grid over the x support plus the
  break-points;
- stdout, stderr and exit code of ``gluecop fit``, ``gluecop predict``,
  ``gluecop predict --statistic mean``, ``gluecop analyze``, ``gluecop
  measures`` on the data and ``gluecop measures --family clayton --theta 2``,
  and the model file ``fit`` writes.

Two more sets of curves are fixed rather than fitted: the median and mean
of a single-family model (Frank(-8) with an empirical response) on a
1001-point grid, and those of the benchmark's glued Clayton/Frank/Gumbel
copula, as a glued model and as a piecewise one, on a grid that leaves its
last slab empty (x in [0, 0.25] plus both gluing points).  So is that glued
copula's conditional quantile at p in {0, 0.25, 0.5, 1} on a u grid that
holds 0, both gluing points and 1, which no seeded case draws exactly.
So is the v that ``simulate_copula`` draws from that glued copula (2000
draws, seed 5), one array bisection per slab on the unchecked ``du`` of
each piece.  The Fréchet bounds invert their ``du`` in closed form instead,
so the conditional quantile of the tent copula (``example1`` at 0.6) and of
W is compared on ``EDGE_U`` (u at the ends, around the bisection's grid
step 2**-34, next to 1/2 and 1, and at the gluing point) at the same four p,
and so are 2000 draws of ``simulate_copula`` from that tent copula (seed 5).
A glue nested inside a glue (Clayton(3), Frank(-8) and Gumbel(3) glued to M
at 0.5, glued at 0.25 and 0.625) gives its conditional quantile at the same
four p on a 41-point u grid plus 0.25, 0.625 and 0.8125, where its M
begins, and its median curve with the empirical response on 1001 points.

The band decisions are pinned at fixed tolerances (``_decisions``): the
``diagonal_crossings`` report of the tent copula at 0.3 and 0.6, of that
glued copula and of the parabola's copula (256 points), each at its omitted
default and at tol 0, the ``dependence_report`` of the glued copula at tol
1e-6 and 0, and that of the parabola's copula and of each of its pieces
(rho, sigma and both classes on the 64-point grid) at the default tolerance.

Each parametric fitting family is also fitted alone by ``fit_segment`` to a
fixed Clayton(0.4) sample (positive sample rho) and a fixed Frank(-1.5) sample
(negative), and the ``repr`` of its theta, rho_hat and goodness of fit (or
the error text, where the family cannot attain the rho) is compared.  A
model document holds only the winning family's theta, so this is where a
last-bit change in another family's rho inversion shows.

After the cases, a fixed set of usage errors (a bad ``--families``,
``--theta``, ``--num``, ``--x-min`` or ``--breakpoints``) runs on the last
case's files, and their stdout, stderr and exit code are compared too.  So
are those of a few commands that read no file: ``gluecop simulate`` of both
reference models, and ``gluecop measures --family`` for every family: Clayton,
Gumbel, Frank, Plackett and FGM at the ends of the parameter ranges that
fitting searches (Plackett also at 1e16 and 1e300, where its closed form
cancels and falls back to M), the product copula, both Fréchet bounds and
the tent copula (``example1``, a glued one), so that each family's cdf and
du grids are compared.  Clayton, Frank and Plackett also run at the ends of
their ranges towards independence and past them (``NEAR_INDEPENDENCE``),
where each takes its near-independence form.  Last,
``gluecop analyze`` and ``gluecop measures`` run on each small CSV file of
``CSV_EDGE_FILES`` (quotes, comments, blank lines, line ends, a byte-order
mark, ragged rows, non-finite and over-long cells, stray bytes), so that a
change to the CSV reader, either its numpy parse or its row reader, is checked
file by file against the base tree.

A fixed set of library calls at the edges of the copula and marginal
argument checks (``_bad_calls``: NaN, infinities, -5e-324, 1 + 2**-52 and
-0.0, on 0-d, 2-D, strided and empty arrays) compares the exception type and
message each raises, or the bytes it returns.

Two library calls at one point compare the evaluation shapes:
``conditional_quantile`` of Clayton(6.0540158930013295) at u = 0.01 and
p = 1 - 6e-11, once with a scalar u and once with the 1-element array
``[0.01]``, whose ``repr`` must agree.  The bytes of the public ``cdf`` and
``du`` on a column and a row are compared too, for the tent copula at 0.6,
the glued three and an empirical copula of tied data (64-point axes holding
0, 1 and the gluing points; the empirical one also repeats 40 data values),
and for the parabola's copula on 16 points.

Three model documents at the edges of ``gluecop predict`` run with ``--num
5`` (``EDGE_MODELS``): one whose empirical x knots span -1.7e308 to 1.7e308,
so that the span of the default grid overflows, one whose x knots are all
equal, and one whose uniform x marginal spans -1e308 to 1e308, so that
``b - a`` overflows.

Tied and discrete data run last, where fitting ranks each segment from the
two global sort orders: the tent (theta 0.4, n 3000) with y on 5 levels, with
x on 3 levels (a segment of constant x, so ``fit`` exits 2) and with x on 100
levels.  Each compares the ``repr`` of its ``crossing_report``, as the
seeded cases do, and runs ``gluecop analyze``, ``gluecop fit`` and
``gluecop fit --breakpoints`` at a tie group of x, and ``gluecop fit
--breakpoints`` once more with ``--families frechet-upper,frechet-lower``;
the model files the fits write (or their absence) are compared too.  Each model file written is
run through ``gluecop predict --statistic mean``, where the mean of a Fréchet
segment counts the nodes before the jump of its 0/1 ``du``: the Fréchet-only
fits put M and W on a response with tied knots, and on x with 100 levels the
break-point fit chooses M and W itself.

Every difference is listed; the exit code is 1 on any difference, else 0.
With ``--expect FILE``, a change declares the items it means to change: FILE
holds their names as the differences print them ("case / seed / item"), one
a line, and lines starting with # are comments.  The exit code is then 1 when
an undeclared item differs or a declared item does not, else 0.
Both trees run at once, so two CPUs halve the wall time.  Each runs with
``-W error::RuntimeWarning``, as the test suite does, so a numpy
floating-point warning in either tree fails the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 11, 12)
# small enough to keep a run short, large enough that every workload's breaks
# are detected at every seed (glued_three misses one at 4000); each run
# checks it again and notes a miss
CASE_N = 8000
CLI_RUNS = {
    "fit": ["fit", "data.csv", "--out-model", "cli_model.json"],
    "predict-median": ["predict", "cli_model.json"],
    "predict-mean": ["predict", "cli_model.json", "--statistic", "mean"],
    "analyze": ["analyze", "data.csv"],
    "measures": ["measures", "data.csv"],
    "measures-family": ["measures", "--family", "clayton", "--theta", "2"],
}
USAGE_ERRORS = {
    "fit --families gaussian": ["fit", "data.csv", "--families", "gaussian",
                                "--out-model", "bad_model.json"],
    "measures --theta -2": ["measures", "--family", "clayton", "--theta", "-2"],
    "predict --num 0": ["predict", "cli_model.json", "--num", "0"],
    "predict --x-min nan": ["predict", "cli_model.json", "--x-min", "nan"],
    "fit --breakpoints abc": ["fit", "data.csv", "--breakpoints", "abc",
                              "--out-model", "bad_model.json"],
}

# small files at the edges of the CSV reader, where the numpy parse must give
# the row reader's sample or leave the file to it
CSV_EDGE_FILES = {
    "quoted header": b'"x","y"\n0.1,0.2\n0.3,0.4\n',
    "quoted cells": b'x,y\n"0.1","0.2"\n0.3,0.4\n0.5,0.6,"a\nb"\n',
    "quoted first data row": b'"1","2"\n3,4\n5,6\n',
    "quoted comma cell": b'x,y\n"1,5",2\n3,4\n',
    "quote spanning lines": b'x,y\n1,2,"\n3,4,"\n5,6\n',
    "header quote open to the end": b'x,"y\n1,2\n3,4\n',
    "hash header": b"# x,y\n1,2\n3,4\n",
    "hash line": b"x,y\n# note\n1,2\n3,4\n",
    "blank lines": b"x,y\n\n1,2\n\n3,4\n\n",
    "whitespace-only cells": b"x,y\n1,2\n  ,\t\n3,4\n",
    "crlf line ends": b"x,y\r\n1,2\r\n3,4\r\n",
    "cr line ends": b"x,y\r1,2\r3,4\r",
    "bom and header": b"\xef\xbb\xbfx,y\n1,2\n3,4\n",
    "bom without header": b"\xef\xbb\xbf1,2\n3,4\n5,6\n",
    "ragged extra columns": b"x,y,z\n1,2,3\n3,4\n5,6,7,8\n",
    "spaces and tabs": b"x,y\n 1 ,\t2\t\n3 , 4\n",
    "underscore digits": b"x,y\n1_0,2\n3,4\n",
    "Infinity": b"x,y\nInfinity,2\n3,4\n",
    "1e400": b"x,y\n1e400,2\n3,4\n",
    "file separator byte": b"x,y\n1\x1c,2\n3,4\n",
    "nul byte": b"x,y\n1\x00,2\n3,4\n",
    "single data row": b"x,y\n1,2\n",
    "one-cell header": b"x\n1,2\n3,4\n",
    "cell over field limit": b"x,y\n0.1,0.2\n0.3,0." + b"1" * 140_000 + b"\n",
    "non-utf8 byte": b"x,y\n0.1,0.2\n0.3,0.\xff4\n",
    "non-utf8 header": b"x\xff,y\n1,2\n3,4\n",
}

# the x marginal of a one-segment Frank(-8) model document: a support whose
# span overflows, a support of one point, and a uniform whose b - a overflows
EDGE_MODELS = {
    "huge x span": {"type": "empirical", "knots": [-1.7e308, 0.0, 1.7e308]},
    "equal x knots": {"type": "empirical", "knots": [0.5, 0.5]},
    "huge uniform x span": {"type": "uniform", "a": -1e308, "b": 1e308},
}

# tied inputs and a ``fit --breakpoints`` value at a tie group of each x
TIE_BREAKPOINTS = {
    "tent y on 5 levels": "0.4",
    "tent x on 3 levels": "2",
    "tent x on 100 levels": "0.4",
}

TIE_MODELS = ("tie_model.json", "tie_bp_model.json", "tie_frechet_model.json")

FIXED_RUNS = {
    "simulate example1": ["simulate", "example1", "--theta", "0.6", "--n", "500",
                          "--seed", "3"],
    "simulate example4": ["simulate", "example4", "--n", "500", "--seed", "3"],
    "measures clayton 50": ["measures", "--family", "clayton", "--theta", "50"],
    "measures gumbel 50": ["measures", "--family", "gumbel", "--theta", "50"],
    "measures frank -30": ["measures", "--family", "frank", "--theta", "-30"],
    "measures plackett 1e4": ["measures", "--family", "plackett", "--theta", "1e4"],
    "measures plackett 1e-4": ["measures", "--family", "plackett", "--theta",
                               "1e-4"],
    "measures plackett 1e16": ["measures", "--family", "plackett", "--theta",
                               "1e16"],
    "measures plackett 1e300": ["measures", "--family", "plackett", "--theta",
                                "1e300"],
    "measures fgm 1": ["measures", "--family", "fgm", "--theta", "1"],
    "measures fgm -1": ["measures", "--family", "fgm", "--theta", "-1"],
    "measures product": ["measures", "--family", "product"],
    "measures frechet-upper": ["measures", "--family", "frechet-upper"],
    "measures frechet-lower": ["measures", "--family", "frechet-lower"],
    "measures example1 0.4": ["measures", "--family", "example1", "--theta", "0.4"],
}
# near independence: the ends of the fitting ranges, where the closed forms
# hold, and theta past them, where each family takes its near form
NEAR_INDEPENDENCE = {
    "clayton": ("1e-3", "1e-9", "1e-200"),
    "frank": ("1e-6", "-1e-6", "1e-200", "-1e-200"),
    "plackett": ("1.000001", "0.999999", "1.0000000000001"),
}
FIXED_RUNS.update({
    f"measures {family} {theta}": ["measures", "--family", family, "--theta", theta]
    for family, thetas in NEAR_INDEPENDENCE.items() for theta in thetas})


def _cli(argv) -> bytes:
    """stdout, stderr and exit code of one in-process ``gluecop`` call."""
    from gluecop.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


def _case(wl, seed: int) -> dict[str, bytes]:
    import numpy as np

    from bench.workloads import csv_text, data_seed
    from gluecop import (cli, fit_piecewise, mean_regression, median_regression,
                         model_io, pseudo_observations)
    from gluecop.empirical import crossing_report

    rec = {}
    text = csv_text(wl.simulate(CASE_N, data_seed(seed, 0)))
    Path("data.csv").write_text(text)
    rec["input csv"] = text.encode()
    sample = cli.read_xy_csv("data.csv")
    rec["crossing report"] = repr(crossing_report(pseudo_observations(sample))).encode()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = fit_piecewise(sample).model
    rec["breaks found"] = str(wl.breaks_ok(model.break_points)).encode()
    rec["model document"] = model_io.dumps_canonical(
        model_io.model_to_dict(model)).encode()
    xs = np.concatenate((np.linspace(*model.marginal_x.support, 1001),
                         model.break_points))
    rec["median curve"] = median_regression(model, xs).tobytes()
    rec["mean curve"] = mean_regression(model, xs).tobytes()
    for name, argv in CLI_RUNS.items():
        rec[f"gluecop {name}"] = _cli(argv)
    rec["gluecop fit model file"] = Path("cli_model.json").read_bytes()
    return rec


#: u where the Fréchet bounds' closed-form quantile meets its bisection's
#: grid and rounding edges; 0.6 is the tent copula's gluing point
EDGE_U = (0.0, 5e-324, 2.0 ** -35, 2.0 ** -34 - 2.0 ** -87, 2.0 ** -34,
          2.0 ** -34 + 2.0 ** -86, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53,
          1.0 - 2.0 ** -53, 1.0, 0.6)


def _fixed_curves() -> dict[str, bytes]:
    import numpy as np

    from bench.workloads import GLUED_POINTS, glued_truth
    from gluecop import (ClaytonCopula, EmpiricalMarginal, FrankCopula,
                         FrechetLowerCopula, FrechetUpperCopula, GumbelCopula,
                         PiecewiseRegressionModel, RegressionModel,
                         UniformMarginal, conditional_quantile, glue, make_copula,
                         mean_regression, median_regression, piecewise_regression,
                         simulate_copula)

    unit = UniformMarginal()
    my = EmpiricalMarginal(np.random.default_rng(7).normal(0.2, 1.0, 2000))
    frank = RegressionModel(FrankCopula(-8.0), unit, my)
    glued = RegressionModel(glued_truth(), unit, my)
    pm = PiecewiseRegressionModel(GLUED_POINTS, glued.copula.pieces, unit, my)
    grid = np.linspace(0.0, 1.0, 1001)
    empty_slab = np.r_[np.linspace(0.0, 0.25, 101), GLUED_POINTS]
    u, p = np.meshgrid(np.r_[np.linspace(0.0, 1.0, 41), GLUED_POINTS],
                       [0.0, 0.25, 0.5, 1.0], indexing="ij")
    edge_u, edge_p = np.meshgrid(EDGE_U, [0.0, 0.25, 0.5, 1.0], indexing="ij")
    tent = make_copula("example1", 0.6)
    nested = glue([ClaytonCopula(3.0), FrankCopula(-8.0),
                   glue([GumbelCopula(3.0), FrechetUpperCopula()], [0.5])],
                  [0.25, 0.625])
    # u also at both gluing points and at 0.8125, where the M inside begins
    nested_u, nested_p = np.meshgrid(
        np.r_[np.linspace(0.0, 1.0, 41), 0.25, 0.625, 0.8125],
        [0.0, 0.25, 0.5, 1.0], indexing="ij")
    curves = {
        "frank -8 median curve": median_regression(frank, grid),
        "frank -8 mean curve": mean_regression(frank, grid),
        "glued three median curve": median_regression(glued, empty_slab),
        "glued three mean curve": mean_regression(glued, empty_slab),
        "glued three piecewise median curve": piecewise_regression(pm, empty_slab),
        "glued three piecewise mean curve": piecewise_regression(
            pm, empty_slab, statistic="mean"),
        "glued three quantile curve": conditional_quantile(glued.copula, u, p),
        "glued three simulated v curve": simulate_copula(glued.copula, 2000, 5).v,
        "tent quantile curve": conditional_quantile(tent, edge_u, edge_p),
        "frechet-lower quantile curve": conditional_quantile(
            FrechetLowerCopula(), edge_u, edge_p),
        "tent simulated v curve": simulate_copula(tent, 2000, 5).v,
        "nested glue quantile curve": conditional_quantile(nested, nested_u,
                                                           nested_p),
        "nested glue median curve": median_regression(
            RegressionModel(nested, unit, my), grid),
    }
    return {item: np.asarray(mu).tobytes() for item, mu in curves.items()}


def _bad_calls() -> dict[str, bytes]:
    """Library calls at the edges of the copula and marginal argument checks:
    the type and message of what each raises, or the bytes it returns."""
    import numpy as np

    from bench.workloads import glued_truth
    from gluecop import ClaytonCopula, EmpiricalMarginal, Marginal, conditional_quantile

    c, g = ClaytonCopula(2.0), glued_truth()
    m = EmpiricalMarginal(np.linspace(-1.0, 2.0, 7))
    grid = np.full((3, 4), 0.5)
    grid[1, 2] = np.nan
    calls = {
        "cdf u nan": lambda: c.cdf(np.nan, 0.5),
        "cdf v 1 + 2**-52": lambda: c.cdf(0.5, 1.0 + 2.0 ** -52),
        "cdf u -0.0": lambda: c.cdf(-0.0, 1.0),
        "du u -5e-324": lambda: c.du(-5e-324, 0.5),
        "du glued v inf": lambda: g.du(0.5, np.inf),
        "du glued 2-D nan": lambda: g.du(grid, 0.5),
        "cdf column nan last": lambda: c.cdf(np.c_[[0.0, 0.5, np.nan]], [[0.5]]),
        "cdf row -inf first": lambda: c.cdf([[0.5]], [[-np.inf, 0.5]]),
        "du shapes 3 and 4": lambda: c.du(np.full(3, 0.5), np.full(4, 0.5)),
        "conditional_quantile p -inf": lambda: conditional_quantile(g, 0.5, -np.inf),
        "conditional_quantile u strided": lambda: conditional_quantile(
            c, np.linspace(-0.5, 1.0, 7)[1::2], 0.5),
        "conditional_quantile empty": lambda: conditional_quantile(g, [], []),
        "quantile 1.5": lambda: m.quantile(1.5),
        "quantile nan middle": lambda: m.quantile([0.0, np.nan, 1.0]),
        "quantile -0.0 and 1": lambda: m.quantile([-0.0, 1.0]),
        "require_in_support above": lambda: m.require_in_support(2.5),
        "require_in_support nan": lambda: m.require_in_support(np.array([0.0, np.nan])),
        "require_in_support edges": lambda: m.require_in_support([-1.0, 2.0]),
        "require_in_support infinite nan": lambda: Marginal().require_in_support(np.nan),
        "require_in_support infinite inf": lambda: Marginal().require_in_support(np.inf),
    }
    rec = {}
    for name, call in calls.items():
        try:
            value = call()
        except Exception as exc:  # the type and text are what is compared
            text = f"{type(exc).__name__}: {exc}"
        else:
            text = (f"returned {value.tobytes().hex()}"
                    if isinstance(value, np.ndarray) else f"returned {value!r}")
        rec[name] = text.encode()
    return rec


def _shape_calls() -> dict[str, bytes]:
    """``conditional_quantile`` where a scalar u and the 1-element array
    holding it once gave different bits: the ``repr`` of each result.  And
    the bytes of the public ``cdf`` and ``du`` on a column and a row."""
    import numpy as np

    from bench.workloads import GLUED_POINTS, PARABOLA_K, glued_truth
    from gluecop import (ClaytonCopula, EmpiricalCopula, Example4Model, Sample,
                         conditional_quantile, make_copula, pseudo_observations,
                         simulate_example1)

    c, p = ClaytonCopula(6.0540158930013295), 1.0 - 6e-11  # du(0.01, 1/2)
    rec = {
        "conditional_quantile scalar u": repr(
            conditional_quantile(c, 0.01, p)).encode(),
        "conditional_quantile 1-element u": repr(
            conditional_quantile(c, [0.01], p).tolist()).encode(),
    }
    tent = simulate_example1(500, 0.4, seed=3)
    ties = pseudo_observations(Sample(x=np.round(tent.x * 4),
                                      y=np.round(tent.y * 4)))
    axis = np.r_[np.linspace(0.0, 1.0, 61), GLUED_POINTS, 0.6]
    grids = {"tent": (make_copula("example1", 0.6), axis),
             "glued three": (glued_truth(), axis),
             "parabola": (Example4Model(PARABOLA_K).copula(),
                          np.linspace(0.0, 1.0, 16)),
             "empirical with ties": (EmpiricalCopula(ties),
                                     np.r_[axis, ties.u[:40]])}
    for name, (cop, t) in grids.items():
        for call in ("cdf", "du"):
            rec[f"{call} column by row {name}"] = getattr(cop, call)(
                t[:, None], t[None, :]).tobytes()
    return rec


def _decisions() -> dict[str, bytes]:
    """The band decisions at a fixed tolerance: the ``repr`` of the
    crossings, touches, mixed flag and tolerance of ``diagonal_crossings``
    (at its omitted default and at 0) and of ``dependence_report`` (at 1e-6
    and 0 for the glued three, at the default for the parabola)."""
    from bench.workloads import PARABOLA_K, glued_truth
    from gluecop import (Example4Model, dependence_report, diagonal_crossings,
                         make_copula)

    parabola = Example4Model(PARABOLA_K)
    crossings = {"tent 0.3": (make_copula("example1", 0.3), {}),
                 "tent 0.6": (make_copula("example1", 0.6), {}),
                 "glued three": (glued_truth(), {}),
                 "parabola": (parabola.copula(), {"grid_n": 256})}
    rec = {}
    for name, (c, kw) in crossings.items():
        for tol, tol_kw in (("default", {}), ("0", {"tol": 0.0})):
            r = diagonal_crossings(c, **kw, **tol_kw)
            rec[f"diagonal crossings {name} tol {tol}"] = repr(
                (r.crossings, r.touches, r.mixed_dependence, r.tolerance)).encode()
    for tol in (1e-6, 0.0):
        rec[f"dependence report glued three tol {tol!r}"] = repr(
            dependence_report(glued_truth(), tol=tol)).encode()
    left, right = parabola.pieces()
    for name, c in (("copula", parabola.copula()), ("left piece", left),
                    ("right piece", right)):
        rec[f"dependence report parabola {name}"] = repr(
            dependence_report(c)).encode()
    return rec


def _family_fits() -> dict[str, bytes]:
    """``fit_segment`` restricted to each parametric fitting family, on one
    sample with positive and one with negative sample rho: the ``repr`` of
    theta, rho_hat and the goodness of fit, or the error text."""
    from gluecop import ClaytonCopula, DataError, FrankCopula, fit_segment, simulate_copula
    from gluecop.copulas import PARAMETRIC_FAMILIES
    from gluecop.empirical import DEFAULT_FIT_FAMILIES

    samples = {"positive rho": simulate_copula(ClaytonCopula(0.4), 2000, seed=8),
               "negative rho": simulate_copula(FrankCopula(-1.5), 2000, seed=9)}
    rec = {}
    for name, ps in samples.items():
        for family in DEFAULT_FIT_FAMILIES:
            if family not in PARAMETRIC_FAMILIES:
                continue
            try:
                fit = fit_segment(ps.u, ps.v, families=(family,))
                text = repr((fit.theta, fit.rho_hat, fit.gof_distance))
            except DataError as exc:
                text = f"DataError: {exc}"
            rec[f"{family} {name}"] = text.encode()
    return rec


def _tie_cases() -> dict[str, bytes]:
    import numpy as np

    from bench.workloads import csv_text
    from gluecop import Sample, pseudo_observations, simulate_example1
    from gluecop.empirical import crossing_report

    tent = simulate_example1(3000, 0.4, seed=5)
    samples = {
        "tent y on 5 levels": Sample(x=tent.x, y=np.round(tent.y * 4) / 4),
        "tent x on 3 levels": Sample(x=np.floor(tent.x * 3) + 1, y=tent.y),
        "tent x on 100 levels": Sample(x=np.round(tent.x, 2), y=tent.y),
    }
    rec = {}
    for name, sample in samples.items():
        rec[f"crossing report {name}"] = repr(
            crossing_report(pseudo_observations(sample))).encode()
        Path("tie.csv").write_text(csv_text(sample))
        runs = {
            "analyze": ["analyze", "tie.csv"],
            "fit": ["fit", "tie.csv", "--out-model", "tie_model.json"],
            "fit --breakpoints": ["fit", "tie.csv", "--breakpoints",
                                  TIE_BREAKPOINTS[name], "--out-model",
                                  "tie_bp_model.json"],
            "fit --breakpoints --families frechet": [
                "fit", "tie.csv", "--breakpoints", TIE_BREAKPOINTS[name],
                "--families", "frechet-upper,frechet-lower", "--out-model",
                "tie_frechet_model.json"],
        }
        for model in TIE_MODELS:
            Path(model).unlink(missing_ok=True)
        for run, argv in runs.items():
            rec[f"gluecop {run} {name}"] = _cli(argv)
        for model in TIE_MODELS:
            path = Path(model)
            rec[f"{model} {name}"] = path.read_bytes() if path.exists() else b"not written"
            if path.exists():
                rec[f"gluecop predict {model} --statistic mean {name}"] = _cli(
                    ["predict", model, "--statistic", "mean"])
    return rec


def collect() -> None:
    """Child side: run every case with the ``gluecop`` on sys.path and
    pickle ``{(workload, seed, item): bytes}`` to stdout."""
    from bench.workloads import WORKLOADS

    records = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative file names keep paths out of the outputs
        for wl in WORKLOADS.values():
            for seed in SEEDS:
                for item, value in _case(wl, seed).items():
                    records[(wl.name, seed, item)] = value
        for item, value in _fixed_curves().items():
            records[("fixed curves", 0, item)] = value
        for item, value in _bad_calls().items():
            records[("bad arguments", 0, item)] = value
        for item, value in _shape_calls().items():
            records[("shape calls", 0, item)] = value
        for name, argv in USAGE_ERRORS.items():
            records[("usage errors", 0, f"gluecop {name}")] = _cli(argv)
        for name, argv in FIXED_RUNS.items():
            records[("fixed commands", 0, f"gluecop {name}")] = _cli(argv)
        for name, content in CSV_EDGE_FILES.items():
            Path("edge.csv").write_bytes(content)
            for command in ("analyze", "measures"):
                records[("csv edge files", 0, f"gluecop {command} {name}")] = (
                    _cli([command, "edge.csv"]))
        for name, marginal_x in EDGE_MODELS.items():
            Path("edge_model.json").write_text(json.dumps({
                "schema_version": 1, "break_points": [],
                "segment_copulas": [{"family": "frank", "theta": -8.0}],
                "marginal_x": marginal_x,
                "marginal_y": {"type": "uniform", "a": 0.0, "b": 1.0}}))
            records[("edge models", 0, f"gluecop predict {name}")] = _cli(
                ["predict", "edge_model.json", "--num", "5"])
        for item, value in _decisions().items():
            records[("decisions", 0, item)] = value
        for item, value in _family_fits().items():
            records[("family fits", 0, item)] = value
        for item, value in _tie_cases().items():
            records[("tie cases", 0, item)] = value
    sys.stdout.buffer.write(pickle.dumps(records))


def _start(src: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            "import same_outputs; same_outputs.collect()")
    # a numpy floating-point warning is an error in the children, as in
    # the test suite
    return subprocess.Popen([sys.executable, "-W", "error::RuntimeWarning",
                             "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _describe(item: str, a: bytes, b: bytes) -> str:
    if item.endswith("curve") and len(a) == len(b):
        import numpy as np

        x, y = np.frombuffer(a), np.frombuffer(b)
        diff = ~((x == y) | (np.isnan(x) & np.isnan(y)))
        return (f"{int(diff.sum())} of {x.size} values differ, "
                f"max |diff| {float(np.nanmax(np.abs(x - y))):.3g}")
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if la != lb:
            # 80 bytes from up to 40 before the first differing byte
            at = slice(max(0, len(os.path.commonprefix([la, lb])) - 40), None)
            return (f"first difference at line {i}: {la[at][:80]!r} vs "
                    f"{lb[at][:80]!r}")
    return f"{len(a.splitlines())} vs {len(b.splitlines())} lines"


def differences(ref: dict, new: dict) -> dict[str, str]:
    """Each item that is missing from a side or differs, by its name
    ("case / seed / item"), with what differs."""
    diffs = {}
    for key in sorted(set(ref) | set(new), key=str):
        name = " / ".join(map(str, key))
        if key not in ref or key not in new:
            diffs[name] = f"only in {'new' if key in new else 'ref'}"
        elif ref[key] != new[key]:
            diffs[name] = _describe(key[2], ref[key], new[key])
    return diffs


def read_expect(path) -> set[str]:
    """The item names an ``--expect`` file declares: one per line, as the
    differences are printed before their colon; blank lines and lines that
    start with # are skipped."""
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def unexpected(diffs: dict[str, str], expected: set[str]) -> list[str]:
    """One line per difference that ``expected`` does not declare, and one
    per declared item that does not differ."""
    return ([f"undeclared: {name}" for name in diffs if name not in expected]
            + [f"declared but the same: {name}"
               for name in sorted(expected - diffs.keys())])


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/same_outputs.py",
        description="Compare the outputs of two gluecop source trees.")
    parser.add_argument("ref_src")
    parser.add_argument("new_src")
    parser.add_argument("--expect", metavar="FILE", default=None,
                        help="the item names this change intends to change, one "
                             "a line; without it every difference fails")
    args = parser.parse_args(argv)
    expected = None if args.expect is None else read_expect(args.expect)
    srcs = [Path(a).resolve() for a in (args.ref_src, args.new_src)]
    runs = [_start(src) for src in srcs]
    outputs = [proc.communicate() for proc in runs]  # wait for both children
    for src, proc, (_, err) in zip(srcs, runs, outputs):
        if proc.returncode != 0:
            print(f"{src}: child failed with exit {proc.returncode}\n"
                  f"{err.decode(errors='replace')}", file=sys.stderr)
            return 1
    ref, new = (pickle.loads(out) for out, _ in outputs)
    missed = [k for k, v in new.items() if k[2] == "breaks found" and v != b"True"]
    for key in missed:
        print(f"note: {key[0]} seed {key[1]}: not every break found", file=sys.stderr)
    diffs = differences(ref, new)
    for name, what in diffs.items():
        print(f"{name}: {what}")
    summary = (f"{len(new)} items in {len({k[:2] for k in new})} cases; "
               f"{len(diffs)} differ")
    if expected is None:
        print(summary)
        return 1 if diffs else 0
    failures = unexpected(diffs, expected)
    for line in failures:
        print(line)
    print(f"{summary}; {len(expected)} declared; {len(failures)} unexpected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
