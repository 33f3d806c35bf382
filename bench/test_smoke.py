"""Smoke tests of the benchmark harness at small n, so that it cannot rot.

They live beside the benchmark, outside the tier-1 suite (``testpaths``
names ``tests`` only). Run them from the root of the repository with

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: glued_three needs its full n: at n=5000 one of three seeds misses a break
SMOKE_N = {"tent_large": 3000, "parabola_smooth": 3000, "glued_three": 20000}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    for metric in out["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return out


def names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(SMOKE_N))
def test_end_to_end_metrics_and_gate(workload):
    out = result(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", "0", "--n", str(SMOKE_N[workload])))
    assert set(out["metrics"]) == names("end_to_end")
    assert out["correct"] and out["failed"] == 0
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_per_layer_metrics():
    out = result(run_bench("--workload", "parabola_smooth", "--seed", "3",
                           "--seconds", "1", "--trace", "1", "--n", "3000"))
    assert set(out["metrics"]) == names("per_layer")
    assert out["correct"]
    assert out["metrics"]["regression.points"]["value"] == 1001
    assert out["metrics"]["gluing.glued_vs_piecewise_maxdiff"]["value"] < 1e-9


def test_missed_break_is_counted_not_hidden():
    # The parabola's break is not found at n=1e3; the gate must report it.
    out = result(run_bench("--workload", "parabola_smooth", "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--n", "1000"))
    assert not out["correct"] and out["failed"] >= 1
    assert out["metrics"]["break_hit_rate"]["value"] == 0.0
    assert out["metrics"]["ok_ops_share"]["value"] < 1.0


def test_failed_command_is_reported_not_raised(tmp_path):
    # A subcommand that exits non-zero stops the later ones; every step
    # still has a sample list, so the run reports correct: false.
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run
    from rounds import RoundResult
    ops, samples, res = run.Ops(), {}, RoundResult()
    steps = [("cli.analyze_s", ["no-such-command"], lambda r: None),
             ("cli.fit_s", ["--help"], lambda r: None)]
    run.run_commands(steps, res, dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                     tmp_path, ops, samples)
    assert samples == {"cli.analyze_s": [], "cli.fit_s": []}
    assert (ops.attempted, ops.failed) == (1, 1)
    assert res.errors and res.errors[0].startswith("cli.analyze_s: exit ")


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "tent_large", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
