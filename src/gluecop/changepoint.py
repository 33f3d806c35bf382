"""Break-point candidate detection from diagonal-section crossings.

A PQD copula has diagonal above t^2 and an NQD one below, so a sign change
of g(t) = delta(t) - t^2 flags mixed dependence and the crossing location is
a gluing-point candidate.  Detection classifies grid points into +/0/- bands
with a tolerance, keeps only sign runs long enough to survive noise
(persistence), and refines each surviving sign change by bisection.
Tangential touches (g reaches the zero band without changing sign) are
reported separately, not as crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copulas import Copula
from .dependence import _tolerance
from .errors import DomainError
from .marginals import Marginal

GRID_N_DEFAULT = 512
TOL_DEFAULT = 1e-4
PERSISTENCE_DEFAULT = 5
REFINE_WIDTH = 1e-9  # bisection bracket width; locates crossings to < 1e-6


@dataclass(frozen=True)
class Crossing:
    t: float
    direction: str  # "up": g goes - to +; "down": g goes + to -


@dataclass(frozen=True)
class CrossingReport:
    crossings: list[Crossing]
    touches: list[float] = field(default_factory=list)
    grid_n: int = GRID_N_DEFAULT
    tolerance: float = TOL_DEFAULT
    persistence: int = PERSISTENCE_DEFAULT

    def to_dict(self) -> dict:
        return {
            "crossings": [{"t": c.t, "direction": c.direction} for c in self.crossings],
            "touches": list(self.touches),
            "grid_n": self.grid_n,
            "tolerance": self.tolerance,
            "persistence": self.persistence,
        }


def _sign_runs(codes):
    """Maximal runs of identical nonzero codes as (sign, start, end) triples."""
    runs = []
    start = None
    for i, s in enumerate(codes):
        if s == 0:
            if start is not None:
                runs.append((codes[start], start, i - 1))
                start = None
        elif start is None:
            start = i
        elif codes[i] != codes[start]:
            runs.append((codes[start], start, i - 1))
            start = i
    if start is not None:
        runs.append((codes[start], start, len(codes) - 1))
    return runs


def _bisect_zero(g, lo: float, hi: float) -> float:
    """Locate a sign change of g inside [lo, hi] by bisection."""
    glo = g(lo)
    while hi - lo > REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def diagonal_crossings(c: Copula, grid_n: int = GRID_N_DEFAULT,
                       tol: float = TOL_DEFAULT,
                       persistence: int = PERSISTENCE_DEFAULT) -> CrossingReport:
    """Crossings between the diagonal section of ``c`` and t^2.

    g(t) = delta(t) - t^2 is sampled on ``grid_n`` equispaced points; a
    crossing requires a run of at least ``persistence`` points beyond +tol
    followed (after an optional near-zero band) by an equally long run beyond
    -tol, or vice versa.
    """
    if grid_n < 64:
        raise DomainError("grid_n must be >= 64")
    if persistence < 1:
        raise DomainError("persistence must be >= 1")
    tol = _tolerance(c, tol)
    grid = np.linspace(0.0, 1.0, grid_n)
    g = lambda tt: c.diagonal(tt) - tt * tt
    values = g(grid)
    codes = np.where(values > tol, 1, np.where(values < -tol, -1, 0))
    runs = [r for r in _sign_runs(codes) if r[2] - r[1] + 1 >= persistence]

    # merge consecutive same-sign runs; a gap between them is a tangential touch
    merged: list[list] = []
    touches: list[float] = []
    for sign, start, end in runs:
        if merged and merged[-1][0] == sign:
            gap_lo, gap_hi = merged[-1][2], start
            if gap_hi > gap_lo + 1:
                touches.append(float(0.5 * (grid[gap_lo] + grid[gap_hi])))
            merged[-1][2] = end
        else:
            merged.append([sign, start, end])

    crossings = []
    for left, right in zip(merged, merged[1:]):
        lo = float(grid[left[2]])
        hi = float(grid[right[1]])
        t_star = _bisect_zero(g, lo, hi)
        direction = "down" if left[0] > 0 else "up"
        crossings.append(Crossing(t=t_star, direction=direction))
    return CrossingReport(crossings=crossings, touches=touches, grid_n=grid_n,
                          tolerance=tol, persistence=persistence)


def pqd_nqd_prescreen(c: Copula, grid_n: int = GRID_N_DEFAULT,
                      tol: float | None = None) -> bool:
    """True iff the diagonal lies strictly above t^2 somewhere and strictly
    below somewhere else — the necessary condition for mixed dependence that
    motivates break-point analysis."""
    if grid_n < 64:
        raise DomainError("grid_n must be >= 64")
    tol = _tolerance(c, tol)
    t = np.linspace(0.0, 1.0, grid_n)
    g = c.diagonal(t) - t * t
    return bool(np.any(g > tol) and np.any(g < -tol))


def breakpoint_from_gluing_point(theta: float, mx: Marginal) -> float:
    """Map a gluing point in u-space to a break-point in x-space."""
    if not 0.0 < theta < 1.0:
        raise DomainError("gluing point must lie in (0, 1)")
    return float(mx.quantile(theta))
