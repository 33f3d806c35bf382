"""One round of a workload, and the fresh processes the benchmark starts.

A library round writes a new seeded input as CSV, then times the pass:
``cli.read_xy_csv`` -> ``fit_piecewise`` (auto-detection) -> ``save_model``
-> ``load_model`` -> median and mean curves on a 1001-point grid. The traced
round replays the same pass through the public functions of each module,
with a span around every call, and then calls the layers the pass does not
reach by itself. ``cli_steps`` runs the ``gluecop`` subcommands on one input,
each in a fresh process. Every step checks its outputs and records what is
wrong instead of raising.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from gluecop import (EmpiricalCopula, EmpiricalMarginal,
                     PiecewiseRegressionModel, RegressionModel, Sample,
                     conditional_quantile, dependence_report,
                     diagonal_crossings, empirical_crossing_report,
                     empirical_tolerance, fit_piecewise, fit_segment, glue,
                     median_regression, piecewise_regression,
                     pseudo_observations, spearman_rho)
from gluecop import cli, model_io

from spans import Tracer
from speed import Speed
from workloads import GRID_POINTS, RMSE_LIMIT, Workload, csv_text

#: every PROBE-th grid point is predicted again to check that a model
#: predicts identically after its round trip
PROBE = 50
CHILD_TIMEOUT_S = 120.0
CLI_MAIN = "import sys; from gluecop.cli import main; sys.exit(main())"
SETUP_MAIN = "import sys, workloads; workloads.write_input(*sys.argv[1:])"


@dataclass
class RoundResult:
    times: dict[str, float] = field(default_factory=dict)
    wall: dict[str, float] = field(default_factory=dict)
    rmse: float | None = None
    hit: bool = False
    errors: list[str] = field(default_factory=list)
    doc: bytes = b""


def grid(model) -> np.ndarray:
    lo, hi = model.marginal_x.support
    return np.linspace(lo, hi, GRID_POINTS)


def measures_report(s: Sample):
    """The dependence report ``gluecop measures data.csv`` computes."""
    return dependence_report(EmpiricalCopula(pseudo_observations(s)), grid_n=16,
                             tol=2.0 * empirical_tolerance(s.n))


def check_breaks(wl: Workload, res: RoundResult, break_points) -> None:
    res.hit = wl.breaks_ok(break_points)
    if not res.hit:
        res.errors.append(f"break-points {list(break_points)} miss {wl.windows}")


def check_rmse(wl: Workload, res: RoundResult, xs, median) -> None:
    res.rmse = float(np.sqrt(np.mean((median - wl.truth(xs)) ** 2)))
    if not res.rmse <= RMSE_LIMIT:
        res.errors.append(f"curve_rmse {res.rmse:.4g} > {RMSE_LIMIT}")


def check_mean(res: RoundResult, mean) -> None:
    if not np.all(np.isfinite(mean)):
        res.errors.append("mean curve is not finite")


def check_model(res: RoundResult, doc: bytes, loaded, xs, median,
                predictor=None) -> None:
    """The model loaded from ``doc`` writes ``doc`` again byte for byte, and
    ``predictor`` (the model before saving, when there is one) gives the
    ``median`` the loaded model gave."""
    if model_io.dumps_canonical(model_io.model_to_dict(loaded)).encode() != doc:
        res.errors.append("model document is not byte-identical after a round trip")
    again = piecewise_regression(predictor or loaded, xs[::PROBE])
    if not np.array_equal(again, median[::PROBE]):
        res.errors.append("loaded model does not predict identically")


def check_dependence(res: RoundResult, rho: float, sigma: float) -> None:
    if not (np.isfinite(rho) and abs(rho) <= sigma + 1e-12):
        res.errors.append(f"dependence report violates |rho| <= sigma: {rho}, {sigma}")


# ---------------------------------------------------------------------------
# library rounds
# ---------------------------------------------------------------------------

def _round_trip(model, path: str):
    model_io.save_model(model, path)
    return model_io.load_model(path)


def library_round(wl: Workload, seed: int, n: int, data: Path, work: Path,
                  speed: Speed) -> RoundResult:
    """One timed pass on the CSV at ``data``, written first if missing.
    ``times`` holds adjusted times (see ``speed.py``), ``wall`` wall times."""
    res = RoundResult()
    csv_path, model_path = str(data), str(work / "model.json")
    try:
        sample = wl.simulate(n, seed)
        if not data.exists():
            data.write_text(csv_text(sample))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            read, *t_read = speed.run(cli.read_xy_csv, csv_path)
            fit, *t_fit = speed.run(fit_piecewise, read)
            model, *t_io = speed.run(_round_trip, fit.model, model_path)
            xs = grid(model)
            median, *t_median = speed.run(piecewise_regression, model, xs)
            mean, *t_mean = speed.run(piecewise_regression, model, xs,
                                      statistic="mean")
        stages = (t_read, t_fit, t_io, t_median, t_mean)
        res.wall = {"pipeline_s": sum(t[0] for t in stages), "fit_s": t_fit[0],
                    "predict_s": t_median[0], "predict_mean_s": t_mean[0]}
        res.times = {"pipeline_s": sum(t[1] for t in stages), "fit_s": t_fit[1],
                     "predict_s": t_median[1], "predict_mean_s": t_mean[1]}
        if not (np.array_equal(read.x, sample.x) and np.array_equal(read.y, sample.y)):
            res.errors.append("CSV does not read back the generated sample")
        res.doc = Path(model_path).read_bytes()
        check_breaks(wl, res, fit.break_points)
        check_model(res, res.doc, model, xs, median, fit.model)
        check_rmse(wl, res, xs, median)
        check_mean(res, mean)
    except Exception as exc:  # a failed pass is counted, never retried
        res.errors.append(f"{type(exc).__name__}: {exc}")
    return res


def _replay_fit(s: Sample, tr: Tracer) -> PiecewiseRegressionModel:
    """``fit_piecewise`` with auto-detection, call by public call."""
    with tr.span("empirical.crossing_report"):
        report = empirical_crossing_report(s)
    tr.count("empirical.crossings", len(report.crossings))
    bps = sorted(float(np.quantile(s.x, c.t)) for c in report.crossings)
    # the ranks fit_piecewise takes: y globally, x within each segment
    with tr.span("empirical.pseudo_observations"):
        v_global = rankdata(s.y, method="average") / (s.n + 1)
    edges = [-np.inf] + bps + [np.inf]
    copulas = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (s.x > lo) & (s.x <= hi)
        xs = s.x[mask]
        with tr.span("empirical.pseudo_observations"):
            useg = rankdata(xs, method="average") / (xs.size + 1)
        interval = (float(max(lo, s.x.min())), float(min(hi, s.x.max())))
        with tr.span("empirical.fit_segment"):
            copulas.append(fit_segment(useg, v_global[mask], interval=interval).copula)
    tr.count("empirical.segments", len(copulas))
    return PiecewiseRegressionModel(
        break_points=tuple(bps), segment_copulas=tuple(copulas),
        marginal_x=EmpiricalMarginal(s.x), marginal_y=EmpiricalMarginal(s.y))


def traced_round(wl: Workload, seed: int, n: int, work: Path, tr: Tracer,
                 speed: Speed) -> RoundResult:
    """The library round replayed with spans, plus the layers the pass does
    not reach by itself: per-call rho, analytic detection, vectorised
    conditional quantiles and regression through the glued copula.
    ``times['pass_s']`` is the adjusted time of the pass alone."""
    res = RoundResult()
    csv_path, model_path = str(work / "data.csv"), str(work / "model.json")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with tr.span("input.simulate"):
                sample = wl.simulate(n, seed)
            text = csv_text(sample)
            with open(csv_path, "w") as fh:
                fh.write(text)
            tr.count("cli.csv_bytes", len(text))

            def replay_pass():
                with tr.span("pass"):
                    with tr.span("cli.read_xy_csv"):
                        read = cli.read_xy_csv(csv_path)
                    with tr.span("empirical.fit_piecewise"):
                        fitted = _replay_fit(read, tr)
                    with tr.span("model_io.save_model"):
                        model_io.save_model(fitted, model_path)
                    with tr.span("model_io.load_model"):
                        model = model_io.load_model(model_path)
                    xs = grid(model)
                    with tr.span("regression.piecewise_median"):
                        median = piecewise_regression(model, xs)
                    with tr.span("regression.piecewise_mean"):
                        mean = piecewise_regression(model, xs, statistic="mean")
                return read, fitted, model, xs, median, mean

            (read, fitted, model, xs, median, mean), _, res.times["pass_s"] = \
                speed.run(replay_pass)
            res.doc = Path(model_path).read_bytes()
            tr.count("model_io.doc_bytes", len(res.doc))
            tr.count("regression.points", xs.size)

            with tr.span("dependence.dependence_report"):
                dep = measures_report(read)
            for c in model.segment_copulas:
                with tr.span("dependence.spearman_rho"):
                    spearman_rho(c)
            glued = glue(model.segment_copulas, model.gluing_points)
            with tr.span("changepoint.diagonal_crossings"):
                diagonal_crossings(glued)
            # piecewise_regression's segment assignment (x <= b_i goes to
            # segment i), one vectorised conditional quantile per segment
            segment = np.searchsorted(model.break_points, xs, side="left")
            u = model.marginal_x.cdf(xs)
            bounds = (0.0,) + model.gluing_points + (1.0,)
            for i, c in enumerate(model.segment_copulas):
                lo, hi = bounds[i], bounds[i + 1]
                useg = np.clip((u[segment == i] - lo) / (hi - lo), 0.0, 1.0)
                with tr.span("copulas.conditional_quantile"):
                    conditional_quantile(c, useg, 0.5)
            with tr.span("gluing.glued_median"):
                glued_median = median_regression(
                    RegressionModel(glued, model.marginal_x, model.marginal_y), xs)
            tr.count("gluing.glued_vs_piecewise_maxdiff",
                     float(np.max(np.abs(glued_median - median))))
        check_breaks(wl, res, model.break_points)
        check_model(res, res.doc, model, xs, median, fitted)
        check_rmse(wl, res, xs, median)
        check_mean(res, mean)
        tr.count("curve_rmse", res.rmse)
        check_dependence(res, dep.rho, dep.sigma)
    except Exception as exc:  # a failed pass is counted, never retried
        res.errors.append(f"{type(exc).__name__}: {exc}")
    return res


# ---------------------------------------------------------------------------
# fresh processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    seconds: float
    returncode: int
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and "Traceback" not in self.stderr


def run_child(argv: list[str], env: dict, work: Path) -> Child:
    """Run one process to completion and time it; kill it after
    ``CHILD_TIMEOUT_S``. ``wait4`` returns the moment the child exits, where
    ``Popen.wait`` with a timeout polls."""
    with open(work / "child.out", "w") as out, open(work / "child.err", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(seconds, proc.returncode, err.read())


def python_child(code: str, *args: str) -> list[str]:
    return [sys.executable, "-c", code, *args]


def _read_curve(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1]


def setup_argv(wl: Workload, seed: int, n: int, path: Path) -> list[str]:
    """One set-up: import gluecop, generate one input, write its CSV."""
    return python_child(SETUP_MAIN, wl.name, str(seed), str(n), str(path))


def cli_steps(wl: Workload, data: Path, work: Path):
    """Every data-driven ``gluecop`` subcommand on one CSV, as (metric, argv
    tail, check) triples. A check reads the command's output and records what
    is wrong in the round result."""
    model_path = work / "cli_model.json"

    def check_analyze(res):
        check_breaks(wl, res, json.loads((work / "analyze.json").read_text())["candidates"])

    def check_fit(res):
        res.doc = model_path.read_bytes()
        check_breaks(wl, res, json.loads(res.doc)["break_points"])

    def check_predict(res):
        xs, median = _read_curve(work / "median.csv")
        check_model(res, res.doc, model_io.load_model(str(model_path)), xs, median)
        check_rmse(wl, res, xs, median)

    def check_predict_mean(res):
        check_mean(res, _read_curve(work / "mean.csv")[1])

    def check_measures(res):
        doc = json.loads((work / "measures.json").read_text())
        check_dependence(res, doc["rho"], doc["sigma"])

    grid_n = str(GRID_POINTS)
    return [
        ("cli.analyze_s", ["analyze", str(data), "--out", "analyze.json"], check_analyze),
        ("cli.fit_s", ["fit", str(data), "--out-model", str(model_path)], check_fit),
        ("cli.predict_s", ["predict", str(model_path), "--num", grid_n,
                           "--out", "median.csv"], check_predict),
        ("cli.predict_mean_s", ["predict", str(model_path), "--num", grid_n,
                                "--statistic", "mean", "--out", "mean.csv"],
         check_predict_mean),
        ("cli.measures_s", ["measures", str(data), "--out", "measures.json"],
         check_measures),
    ]
