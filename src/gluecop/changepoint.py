"""Break-point candidate detection from diagonal-section crossings.

A PQD copula has diagonal above t^2 and an NQD one below, so a sign change
of g(t) = delta(t) - t^2 flags mixed dependence and the crossing location is
a gluing-point candidate.  Detection classifies grid points into +/0/- bands
with a tolerance (``dependence._band``), keeps only sign runs long enough to
survive noise (persistence), and bisects each surviving sign change.
Tangential touches (g reaches the zero band without changing sign) are
reported separately, not as crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copulas import Copula
from .dependence import _band, _tolerance
from .errors import DomainError, check_array_size

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
    mixed_dependence: bool = False  # g beyond +tol and beyond -tol somewhere


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
                       tol: float | None = TOL_DEFAULT,
                       persistence: int = PERSISTENCE_DEFAULT) -> CrossingReport:
    """Crossings between the diagonal section of ``c`` and t^2.

    g(t) = delta(t) - t^2 is sampled on ``grid_n`` equispaced points and
    coded +1 beyond +tol, -1 beyond -tol and 0 in between.  Sign runs shorter
    than ``persistence`` points are dropped; between two adjacent surviving
    runs of opposite sign lies a crossing, refined by bisection, and between
    two of the same sign a tangential touch, reported at the gap's midpoint.
    ``tol=None`` is ``TOL_DEFAULT``.  ``mixed_dependence``
    (g beyond +tol somewhere and beyond -tol elsewhere, filtered runs too) is
    the necessary condition for mixed dependence that motivates break points.
    """
    if grid_n < 64:
        raise DomainError("grid_n must be >= 64")
    if persistence < 1:
        raise DomainError("persistence must be >= 1")
    tol = _tolerance(tol, TOL_DEFAULT)
    check_array_size("grid_n", grid_n)
    grid = np.linspace(0.0, 1.0, grid_n)
    g = lambda tt: c.diagonal(tt) - tt * tt
    values = g(grid)
    # beyond +tol minus beyond -tol: 1, -1, or 0 (a NaN is on both sides)
    codes = np.subtract(*_band(values, tol), dtype=int)

    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    ends = np.r_[starts[1:], grid_n] - 1
    runs = [(codes[a], a, b) for a, b in zip(starts, ends)
            if codes[a] != 0 and b - a + 1 >= persistence]
    crossings: list[Crossing] = []
    touches: list[float] = []
    # maximal runs of one sign are never adjacent, so a gap separates them
    for (sign, _, end), (next_sign, start, _) in zip(runs, runs[1:]):
        if sign == next_sign:
            touches.append(float(0.5 * (grid[end] + grid[start])))
        else:
            t_star = _bisect_zero(g, float(grid[end]), float(grid[start]))
            crossings.append(Crossing(t=t_star,
                                      direction="down" if sign > 0 else "up"))
    return CrossingReport(crossings=crossings, touches=touches, grid_n=grid_n,
                          tolerance=tol, persistence=persistence,
                          mixed_dependence=bool(np.any(codes == 1)
                                                and np.any(codes == -1)))
