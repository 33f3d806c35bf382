"""Benchmark workloads: seeded inputs, true curves and correctness windows.

The library only ever sees what these generators produce, either as a
``Sample`` or as the CSV text ``csv_text`` renders (the same format that
``gluecop simulate`` writes). Round ``r`` of a run with seed ``s`` draws its
data with seed ``s * 1000 + r``, so a seed fixes every input of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gluecop import (ClaytonCopula, FrankCopula, GumbelCopula, RegressionModel,
                     Sample, UniformMarginal, glue, median_regression,
                     simulate_copula, simulate_example1, simulate_example4,
                     tent)

GRID_POINTS = 1001
RMSE_LIMIT = 0.05
TENT_THETA = 0.6
PARABOLA_K = 0.1
GLUED_POINTS = (0.3, 0.65)
GLUED_BREAK_SLACK = 0.03


def glued_truth():
    return glue([ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)],
                GLUED_POINTS)


def _tent_sample(n: int, seed: int) -> Sample:
    return simulate_example1(n, TENT_THETA, seed)


def _parabola_sample(n: int, seed: int) -> Sample:
    return simulate_example4(n, PARABOLA_K, seed)


def _glued_sample(n: int, seed: int) -> Sample:
    ps = simulate_copula(glued_truth(), n, seed)
    return Sample(x=ps.u, y=ps.v)


def _glued_curve(x):
    model = RegressionModel(glued_truth(), UniformMarginal(), UniformMarginal())
    return median_regression(model, x)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    simulate: Callable[[int, int], Sample]
    truth: Callable[[np.ndarray], np.ndarray]
    windows: tuple[tuple[float, float], ...]

    def breaks_ok(self, break_points) -> bool:
        bps = sorted(float(b) for b in break_points)
        return len(bps) == len(self.windows) and all(
            lo <= b <= hi for b, (lo, hi) in zip(bps, self.windows))


WORKLOADS = {w.name: w for w in (
    Workload("tent_large", 100_000, _tent_sample,
             lambda x: tent(x, TENT_THETA), ((0.55, 0.65),)),
    Workload("parabola_smooth", 20_000, _parabola_sample,
             lambda x: (x - 0.5) ** 2, ((0.45, 0.55),)),
    Workload("glued_three", 20_000, _glued_sample, _glued_curve,
             tuple((t - GLUED_BREAK_SLACK, t + GLUED_BREAK_SLACK)
                   for t in GLUED_POINTS)),
)}


def data_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def csv_text(s: Sample) -> str:
    rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(s.x.tolist(), s.y.tolist()))
    return "x,y\n" + rows


def write_input(name: str, seed: str, n: str, path: str) -> None:
    """Set-up step run in a fresh process: generate one input, write its CSV."""
    sample = WORKLOADS[name].simulate(int(n), int(seed))
    with open(path, "w") as fh:
        fh.write(csv_text(sample))
