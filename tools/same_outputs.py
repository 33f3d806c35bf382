"""Check that two source trees give the same outputs, byte for byte.

    python tools/same_outputs.py REF_SRC NEW_SRC

REF_SRC and NEW_SRC are ``src`` directories, each holding a ``gluecop``
package (for example the ``src`` of a checkout of the base commit and this
tree's ``src``).  Each tree runs in its own Python process on the same fixed
cases: the benchmark's tent, parabola and glued-three generators at seeds 3,
11 and 12 (round 0, so data seeds 3000, 11000 and 12000), at a size where
every break is found.  For each case the script compares

- the input CSV text and the model document of ``fit_piecewise``;
- the ``tobytes()`` of the median and mean curves on a 1001-point grid over
  the x support plus the break-points;
- stdout, stderr and exit code of ``gluecop fit``, ``gluecop predict``,
  ``gluecop predict --statistic mean``, ``gluecop analyze``, ``gluecop
  measures`` on the data and ``gluecop measures --family clayton --theta 2``,
  and the model file ``fit`` writes.

After the cases, a fixed set of usage errors (a bad ``--families``,
``--theta``, ``--num``, ``--x-min`` or ``--breakpoints``) runs on the last
case's files, and their stdout, stderr and exit code are compared too.  So
are those of a few commands that read no file: ``gluecop simulate`` of both
reference models, and ``gluecop measures --family`` for Clayton, Gumbel and
Frank at the ends of the parameter ranges that fitting searches.

Every difference is listed; the exit code is 1 on any difference, else 0.
Both trees run at once, so two CPUs halve the wall time.
"""

from __future__ import annotations

import contextlib
import io
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

FIXED_RUNS = {
    "simulate example1": ["simulate", "example1", "--theta", "0.6", "--n", "500",
                          "--seed", "3"],
    "simulate example4": ["simulate", "example4", "--n", "500", "--seed", "3"],
    "measures clayton 50": ["measures", "--family", "clayton", "--theta", "50"],
    "measures gumbel 50": ["measures", "--family", "gumbel", "--theta", "50"],
    "measures frank -30": ["measures", "--family", "frank", "--theta", "-30"],
}


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
    from gluecop import cli, fit_piecewise, model_io, piecewise_regression

    rec = {}
    text = csv_text(wl.simulate(CASE_N, data_seed(seed, 0)))
    Path("data.csv").write_text(text)
    rec["input csv"] = text.encode()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_piecewise(cli.read_xy_csv("data.csv")).model
    rec["breaks found"] = str(wl.breaks_ok(model.break_points)).encode()
    rec["model document"] = model_io.dumps_canonical(
        model_io.model_to_dict(model)).encode()
    xs = np.concatenate((np.linspace(*model.marginal_x.support, 1001),
                         model.break_points))
    for statistic in ("median", "mean"):
        rec[f"{statistic} curve"] = np.asarray(
            piecewise_regression(model, xs, statistic=statistic)).tobytes()
    for name, argv in CLI_RUNS.items():
        rec[f"gluecop {name}"] = _cli(argv)
    rec["gluecop fit model file"] = Path("cli_model.json").read_bytes()
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
        for name, argv in USAGE_ERRORS.items():
            records[("usage errors", 0, f"gluecop {name}")] = _cli(argv)
        for name, argv in FIXED_RUNS.items():
            records[("fixed commands", 0, f"gluecop {name}")] = _cli(argv)
    sys.stdout.buffer.write(pickle.dumps(records))


def _start(src: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            "import same_outputs; same_outputs.collect()")
    return subprocess.Popen([sys.executable, "-c", code], env=env,
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
            return f"first difference at line {i}: {la[:80]!r} vs {lb[:80]!r}"
    return f"{len(a.splitlines())} vs {len(b.splitlines())} lines"


def compare(ref: dict, new: dict) -> list[str]:
    """One line per item that is missing from a side or differs."""
    lines = []
    for key in sorted(set(ref) | set(new), key=str):
        name = " / ".join(map(str, key))
        if key not in ref or key not in new:
            lines.append(f"{name}: only in {'new' if key in new else 'ref'}")
        elif ref[key] != new[key]:
            lines.append(f"{name}: {_describe(key[2], ref[key], new[key])}")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py REF_SRC NEW_SRC", file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
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
    diffs = compare(ref, new)
    for line in diffs:
        print(line)
    print(f"{len(new)} items in {len({k[:2] for k in new})} cases; "
          f"{len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
