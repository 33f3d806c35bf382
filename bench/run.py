"""gluecop benchmark: the library pipeline at fixed seeds, plus its layers.

Run from the root of a checkout:

    python3 bench/run.py --workload tent_large --seed 1 --seconds 30 --trace 0

The workloads, metrics and units are declared in ``BENCHMARK.json``; the
workloads are defined in ``workloads.py``. With ``--trace 0`` the run sets
up five times in fresh processes (import, input generation, CSV writing),
then runs library rounds in a closed loop for ``--seconds`` and prints every
end-to-end metric, timed as adjusted times (``speed.py``). With ``--trace 1``
it times the import floors and each ``gluecop`` subcommand as fresh
processes, then pairs each untraced round with a traced replay of the same
input and prints every per-layer metric. Every step checks its outputs; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A run report and, when traced, the spans are
written to ``bench/out/``. ``bench/NOTES.md`` explains every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3


def _median(values):
    return statistics.median(values) if values else None


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine() -> dict:
    import numpy
    import scipy
    return {"nproc": _nproc(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha()}


class Ops:
    """Attempted and failed operations, with the first errors kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])


def _room(deadline: float, last: float) -> bool:
    """Start another round only if half of it, judged by the last one, fits
    before the deadline, so that runs end near ``--seconds`` on average."""
    return time.perf_counter() + 0.5 * last < deadline


def _inputs(work: Path, r: int) -> Path:
    return work / f"input-{r}.csv"


def run_library(wl, seed, n, work, deadline, ops, speed):
    from rounds import library_round
    from workloads import data_seed
    results, last, r = [], 0.0, 0
    while r == 0 or _room(deadline, last):
        t0 = time.perf_counter()
        res = library_round(wl, data_seed(seed, r), n, _inputs(work, r), work, speed)
        _inputs(work, r).unlink(missing_ok=True)
        last = time.perf_counter() - t0
        ops.add(res.errors)
        results.append(res)
        r += 1
    stages = ("pipeline_s", "fit_s", "predict_s", "predict_mean_s")
    samples = {k: [res.times[k] for res in results if k in res.times] for k in stages}
    metrics = {k: _median(v) for k, v in samples.items()}
    samples.update({f"wall.{k}": [res.wall[k] for res in results if k in res.wall]
                    for k in stages})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, samples, results


def run_commands(steps, res, env, work, ops, samples) -> None:
    """Run ``(metric, argv tail, check)`` steps as fresh ``gluecop``
    processes, in order, up to the first command that fails."""
    from rounds import CLI_MAIN, python_child, run_child
    for metric, _, _ in steps:  # a command that never runs still reports
        samples.setdefault(metric, [])
    for metric, tail, check in steps:
        child = run_child(python_child(CLI_MAIN, *tail), env, work)
        before = len(res.errors)
        if child.ok:
            samples[metric].append(child.seconds)
            try:
                check(res)
            except (OSError, ValueError, KeyError) as exc:  # unreadable output
                res.errors.append(f"{metric}: {type(exc).__name__}: {exc}")
        else:
            last_line = (child.stderr.strip().splitlines() or [""])[-1]
            res.errors.append(f"{metric}: exit {child.returncode}: {last_line}")
        ops.add(res.errors[before:])
        if not child.ok:
            return  # later commands read this one's output


def run_trace(wl, seed, n, work, deadline, env, ops, speed):
    from rounds import (RoundResult, cli_steps, library_round, python_child,
                        run_child, traced_round)
    from spans import Tracer
    from workloads import csv_text, data_seed
    samples: dict[str, list[float]] = {"import.numpy_s": [], "import.gluecop_s": []}
    for _ in range(IMPORT_REPEATS):
        for name in samples:
            module = name.split(".")[1][:-2]
            child = run_child(python_child(f"import {module}"), env, work)
            ops.add([] if child.ok else [f"import {module}: exit {child.returncode}"])
            samples[name].append(child.seconds)
    data = work / "layers.csv"
    data.write_text(csv_text(wl.simulate(n, data_seed(seed, 0))))
    run_commands(cli_steps(wl, data, work), RoundResult(), env, work, ops, samples)

    # one untimed round first, so that no pair pays for first calls
    ops.add(library_round(wl, data_seed(seed, 0), n, _inputs(work, 0), work,
                          speed).errors)
    tracer = Tracer()
    plain_pass, traced_pass, last, r = [], [], 0.0, 0
    while r == 0 or _room(deadline, last):
        t0 = time.perf_counter()
        plain = library_round(wl, data_seed(seed, r), n, _inputs(work, r), work, speed)
        _inputs(work, r).unlink(missing_ok=True)
        tracer.pass_id = r
        traced = traced_round(wl, data_seed(seed, r), n, work, tracer, speed)
        if traced.doc != plain.doc:
            traced.errors.append("replayed fit differs from fit_piecewise")
        ops.add(plain.errors)
        ops.add(traced.errors)
        if "pipeline_s" in plain.times and "pass_s" in traced.times:
            plain_pass.append(plain.times["pipeline_s"])
            traced_pass.append(traced.times["pass_s"])
        last = time.perf_counter() - t0
        r += 1

    self_times = tracer.self_times()
    metrics = {k: _median(v) for k, v in samples.items()}
    for name in ("cli.read_xy_csv", "input.simulate",
                 "empirical.pseudo_observations", "empirical.crossing_report",
                 "empirical.fit_segment", "changepoint.diagonal_crossings",
                 "dependence.dependence_report", "model_io.save_model",
                 "model_io.load_model", "regression.piecewise_median",
                 "regression.piecewise_mean", "copulas.conditional_quantile",
                 "gluing.glued_median"):
        metrics[f"{name}_s"] = _median([t[name] for t in self_times.values() if name in t])
    metrics["dependence.spearman_rho_s"] = _median(tracer.durations("dependence.spearman_rho"))
    for name in ("cli.csv_bytes", "empirical.crossings", "empirical.segments",
                 "model_io.doc_bytes", "regression.points",
                 "gluing.glued_vs_piecewise_maxdiff", "curve_rmse"):
        metrics[name] = _median([c[name] for c in tracer.counts.values() if name in c])
    metrics["trace.overhead_s"] = (_median(traced_pass) - _median(plain_pass)
                                   if traced_pass else None)
    samples.update(traced_pass=traced_pass, untraced_pass=plain_pass)
    return metrics, samples, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="override the workload's sample size (smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "gluecop" / "__init__.py").is_file():
        print(f"benchmark: no gluecop sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    threads = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    import gluecop
    if SRC not in Path(gluecop.__file__).resolve().parents:
        print(f"benchmark: imported gluecop from {gluecop.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from rounds import python_child, run_child, setup_argv
    from speed import COLD_KERNEL, Speed, cold_adjusted
    from workloads import WORKLOADS, data_seed
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    n = args.n or wl.n

    ops = Ops()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    speed = Speed()
    try:
        setup, setup_wall = [], []
        cold = python_child(COLD_KERNEL)
        before = None if args.trace else run_child(cold, env, work)
        for r in range(0 if args.trace else SETUP_REPEATS):
            seed = data_seed(args.seed, r)
            child = run_child(setup_argv(wl, seed, n, _inputs(work, r)), env, work)
            after = run_child(cold, env, work)
            ops.add([f"{what}: exit {c.returncode}" for what, c in
                     (("set-up", child), ("cold-start kernel", after)) if not c.ok])
            setup.append(cold_adjusted(child.seconds, before.seconds, after.seconds))
            setup_wall.append(child.seconds)
            before = after
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics, samples, tracer = run_trace(wl, args.seed, n, work,
                                                 deadline, env, ops, speed)
        else:
            metrics, samples, results = run_library(wl, args.seed, n, work,
                                                    deadline, ops, speed)
            metrics.update(
                setup_s=_median(setup),
                break_hit_rate=sum(res.hit for res in results) / len(results),
                ok_ops_share=1.0 - ops.failed / ops.attempted)
            samples.update({"setup_s": setup, "wall.setup_s": setup_wall})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match the "
                           f"declared {sorted(units)}")
    correct = ops.failed == 0 and all(v is not None for v in metrics.values())
    report = {"workload": wl.name, "seed": args.seed, "n": n,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(), "correct": correct,
              "attempted": ops.attempted, "failed": ops.failed,
              "errors": ops.errors[:20], "metrics": metrics,
              "samples": samples}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.json")

    for name, unit in units.items():
        count = len(samples.get(name, ()))
        note = f"  (median of {count})" if count else ""
        print(f"{name:36} {metrics[name]!r:>24} {unit}{note}")
    for err in ops.errors[:5]:
        print(f"error: {err}")
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "machine": report["machine"],
                      "samples": {k: len(v) for k, v in samples.items()}}))
    print(json.dumps({
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
