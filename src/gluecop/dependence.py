"""Dependence measures, quadrant/regression-dependence classification and
the crossings of the diagonal section with t^2.

Spearman's rho is 12 * double-integral of C minus 3; the Schweizer–Wolff
sigma is 12 times the L1 distance between C and the product copula.  Both
are computed by deterministic tensor-product quadrature: Gauss–Legendre for
smooth copulas, composite midpoint for copulas with kinks or singular parts
(Gauss nodes straddling a kink degrade accuracy, and sigma's absolute value
makes the integrand non-smooth anyway).  The nodes and weights of each rule
are built once and shared, read-only, by every call, so a rho inversion
that evaluates the same rule many times pays for it once.
The nodes lie in [0, 1] by construction (a test checks both rules), and
each grid is the hook ``_cdf`` (or ``_du``) on them as a column and a row,
unchecked: the bits of the public ``cdf`` of that column and row.

Break-point candidates come from the diagonal section: a PQD copula has
delta(t) above t^2 and an NQD one below, so a sign change of
g(t) = delta(t) - t^2 flags mixed dependence, and where g crosses zero is
a gluing-point candidate (``diagonal_crossings``, on the hook ``_diagonal``).

One band rule, ``_band``, has three readers: the crossings read g, the
quadrant class reads C − Π and the regression class reads the steps of
∂C/∂u, each against [-tol, tol].  A NaN, which compares false with
everything, lies beyond both sides of the band.  ``tol=None`` is the
default each check states.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .copulas import Copula
from .errors import DomainError, check_array_size, on_arrays

GAUSS_NODES = 64      # per axis, smooth integrands
MIDPOINT_NODES = 512  # per axis, kinked integrands
CLASS_TOL = 1e-6      # both dependence classes, on any copula
# diagonal crossings: grid points, band half-width, shortest sign run kept
GRID_N_DEFAULT = 512
TOL_DEFAULT = 1e-4
PERSISTENCE_DEFAULT = 5
REFINE_WIDTH = 1e-9   # bisection bracket width; locates crossings to < 1e-6


class QuadrantClass(str, Enum):
    PQD = "PQD"
    NQD = "NQD"
    NEITHER = "NEITHER"
    INDEPENDENT_LIKE = "INDEPENDENT-LIKE"


class RegressionClass(str, Enum):
    PRD = "PRD"
    NRD = "NRD"
    NEITHER = "NEITHER"
    CONSTANT = "CONSTANT"


def _tolerance(tol: float | None, default: float) -> float:
    """``tol`` checked to be >= 0 and finite, or ``default`` if None."""
    if tol is not None and not 0.0 <= tol < np.inf:
        raise DomainError("tol must be >= 0 and finite")
    return default if tol is None else tol


def _band(values: np.ndarray, tol: float):
    """(beyond +tol, beyond -tol), elementwise: the band rule of the module
    docstring."""
    return ~(values <= tol), ~(values >= -tol)


def _band_class(values: np.ndarray, tol: float, classes):
    """Where ``values`` lie against the band [-tol, tol], as the member of
    ``classes`` declared (positive, negative, neither, inside the band)."""
    positive, negative, neither, inside = classes
    above, below = (bool(side.any()) for side in _band(values, tol))
    return (neither if above and below else positive if above
            else negative if below else inside)


def _interior_grid(grid_n: int) -> np.ndarray:
    """``grid_n`` >= 8 equispaced points strictly inside (0, 1), checked
    first to be an integer (a float is a ``TypeError``) and to span a
    grid_n × grid_n grid that ``check_array_size`` allows."""
    grid_n = operator.index(grid_n)
    if grid_n < 8:
        raise DomainError("grid_n must be >= 8")
    check_array_size("grid_n ** 2", grid_n ** 2)
    return np.arange(1, grid_n + 1) / (grid_n + 1)


@lru_cache(maxsize=2)
def _rule(smooth: bool):
    """Read-only (nodes, weights) on [0, 1] for a copula's ``smooth``:
    GAUSS_NODES-point Gauss–Legendre when smooth, else the MIDPOINT_NODES-
    point composite midpoint rule.  Built once per rule, its nodes in [0, 1]
    by construction (a test checks both); every caller shares the arrays."""
    if smooth:
        x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
        t, w = 0.5 * (x + 1.0), 0.5 * w
    else:
        n = MIDPOINT_NODES
        t, w = (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def spearman_rho(c: Copula) -> float:
    """Spearman's concordance measure 12 ∬ C du dv − 3, clamped to [-1, 1]:
    on a ``decompose`` piece that fails ``check_copula_axioms`` the clamped
    value means nothing."""
    t, w = _rule(c.smooth)
    rho = 12.0 * float(w @ c._cdf(t[:, None], t[None, :]) @ w) - 3.0
    # comparisons cost less than np.clip on a float; a NaN rho stays NaN
    return 1.0 if rho > 1.0 else -1.0 if rho < -1.0 else rho


def schweizer_wolff_sigma(c: Copula) -> float:
    """Schweizer–Wolff dependence measure 12 ∬ |C − uv| du dv, clamped to
    [0, 1]: on a ``decompose`` piece that fails ``check_copula_axioms`` the
    clamped value means nothing."""
    t, w = _rule(c.smooth)
    diff = np.abs(c._cdf(t[:, None], t[None, :]) - np.outer(t, t))
    sigma = 12.0 * float(w @ diff @ w)
    return 1.0 if sigma > 1.0 else 0.0 if sigma < 0.0 else sigma


def classify_quadrant(c: Copula, grid_n: int = 64, tol: float | None = None) -> QuadrantClass:
    """Classify PQD/NQD by the sign of C − Π on an interior grid."""
    t, tol = _interior_grid(grid_n), _tolerance(tol, CLASS_TOL)
    return _band_class(c._cdf(t[:, None], t[None, :]) - np.outer(t, t), tol, QuadrantClass)


def classify_regression_dependence(c: Copula, grid_n: int = 64,
                                   tol: float | None = None) -> RegressionClass:
    """Classify PRD/NRD by monotonicity of u -> ∂C/∂u (u, v) per grid column.

    PRD corresponds to the derivative non-increasing in u for every v (the
    conditional CDF shifting right as u grows); the criterion holds for
    almost all u, so isolated grid artifacts below tol are ignored.
    """
    t, tol = _interior_grid(grid_n), _tolerance(tol, CLASS_TOL)
    du = c._du_clamped(t[:, None], t[None, :])
    # PRD: the steps of ∂C/∂u between adjacent u are all <= tol
    return _band_class(-np.diff(du, axis=0), tol, RegressionClass)


@dataclass(frozen=True)
class DependenceReport:
    rho: float
    sigma: float
    quadrant_class: QuadrantClass
    regression_class: RegressionClass
    grid_n: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "sigma": self.sigma,
            "quadrant_class": self.quadrant_class.value,
            "regression_class": self.regression_class.value,
        }


def dependence_report(c: Copula, grid_n: int = 64,
                      tol: float | None = None) -> DependenceReport:
    """Compute rho, sigma and both dependence classifications in one pass."""
    tol = _tolerance(tol, CLASS_TOL)
    _interior_grid(grid_n)  # grid_n checked before the quadratures
    return DependenceReport(
        rho=spearman_rho(c),
        sigma=schweizer_wolff_sigma(c),
        quadrant_class=classify_quadrant(c, grid_n, tol),
        regression_class=classify_regression_dependence(c, grid_n, tol),
        grid_n=grid_n,
        tolerance=tol,
    )


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
                       tol: float | None = None,
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
    grid_n, persistence = operator.index(grid_n), operator.index(persistence)
    if grid_n < 64:
        raise DomainError("grid_n must be >= 64")
    if persistence < 1:
        raise DomainError("persistence must be >= 1")
    tol = _tolerance(tol, TOL_DEFAULT)
    check_array_size("grid_n", grid_n)
    grid = np.linspace(0.0, 1.0, grid_n)
    g = lambda tt: on_arrays(c._diagonal, tt) - tt * tt
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
