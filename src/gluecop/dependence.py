"""Dependence measures and quadrant/regression-dependence classification.

Spearman's rho is 12 * double-integral of C minus 3; the Schweizer–Wolff
sigma is 12 times the L1 distance between C and the product copula.  Both
are computed by deterministic tensor-product quadrature: Gauss–Legendre for
smooth copulas, composite midpoint for copulas with kinks or singular parts
(Gauss nodes straddling a kink degrade accuracy, and sigma's absolute value
makes the integrand non-smooth anyway).  The nodes and weights of each rule
are built once and shared, read-only, by every call, so a rho inversion
that evaluates the same rule many times pays for it once.
The nodes are checked to lie in [0, 1] once, when their rule is built, and
no evaluation on them checks them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .copulas import Copula, _validate_unit
from .errors import DomainError

GAUSS_NODES = 64      # per axis, smooth integrands
MIDPOINT_NODES = 512  # per axis, kinked integrands


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


def _tolerance(c: Copula, tol: float | None) -> float:
    """``tol`` checked to be >= 0 and finite, or the copula's default if None."""
    if tol is not None and not 0.0 <= tol < np.inf:
        raise DomainError("tol must be >= 0 and finite")
    return (1e-4 if c.numerical else 1e-6) if tol is None else tol


def _band_class(values: np.ndarray, tol: float, classes):
    """Where ``values`` lie against the band [-tol, tol], as the member of
    ``classes`` declared (positive, negative, neither, inside the band)."""
    positive, negative, neither, inside = classes
    lo, hi = float(np.min(values)), float(np.max(values))
    if -tol <= lo and hi <= tol:
        return inside
    if lo >= -tol:
        return positive
    if hi <= tol:
        return negative
    return neither


@lru_cache(maxsize=2)
def _rule(smooth: bool):
    """Read-only (nodes, weights) on [0, 1] for a copula's ``smooth``:
    GAUSS_NODES-point Gauss–Legendre when smooth, else the MIDPOINT_NODES-
    point composite midpoint rule.  Built once per rule, with the nodes
    checked then; every caller shares the same arrays."""
    if smooth:
        x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
        t, w = 0.5 * (x + 1.0), 0.5 * w
    else:
        n = MIDPOINT_NODES
        t, w = (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)
    _validate_unit(t)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def spearman_rho(c: Copula) -> float:
    """Spearman's concordance measure 12 ∬ C du dv − 3, clamped to [-1, 1]:
    on a ``decompose`` piece that fails ``check_copula_axioms`` the clamped
    value means nothing."""
    t, w = _rule(c.smooth)
    rho = 12.0 * float(w @ c._cdf_grid(t, t) @ w) - 3.0
    # comparisons cost less than np.clip on a float; a NaN rho stays NaN
    return 1.0 if rho > 1.0 else -1.0 if rho < -1.0 else rho


def schweizer_wolff_sigma(c: Copula) -> float:
    """Schweizer–Wolff dependence measure 12 ∬ |C − uv| du dv, clamped to
    [0, 1]: on a ``decompose`` piece that fails ``check_copula_axioms`` the
    clamped value means nothing."""
    t, w = _rule(c.smooth)
    diff = np.abs(c._cdf_grid(t, t) - np.outer(t, t))
    sigma = 12.0 * float(w @ diff @ w)
    return 1.0 if sigma > 1.0 else 0.0 if sigma < 0.0 else sigma


def classify_quadrant(c: Copula, grid_n: int = 64, tol: float | None = None) -> QuadrantClass:
    """Classify PQD/NQD by the sign of C − Π on an interior grid."""
    if grid_n < 8:
        raise DomainError("grid_n must be >= 8")
    tol = _tolerance(c, tol)
    t = np.arange(1, grid_n + 1) / (grid_n + 1)
    return _band_class(c._cdf_grid(t, t) - np.outer(t, t), tol, QuadrantClass)


def classify_regression_dependence(c: Copula, grid_n: int = 64,
                                   tol: float | None = None) -> RegressionClass:
    """Classify PRD/NRD by monotonicity of u -> ∂C/∂u (u, v) per grid column.

    PRD corresponds to the derivative non-increasing in u for every v (the
    conditional CDF shifting right as u grows); the criterion holds for
    almost all u, so isolated grid artifacts below tol are ignored.
    """
    if grid_n < 8:
        raise DomainError("grid_n must be >= 8")
    tol = _tolerance(c, tol)
    t = np.arange(1, grid_n + 1) / (grid_n + 1)
    # du's clamp, without du's check of an axis the library built
    du = np.clip(c._du(t[:, None], t[None, :]), 0.0, 1.0)
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
    tol = _tolerance(c, tol)
    return DependenceReport(
        rho=spearman_rho(c),
        sigma=schweizer_wolff_sigma(c),
        quadrant_class=classify_quadrant(c, grid_n, tol),
        regression_class=classify_regression_dependence(c, grid_n, tol),
        grid_n=grid_n,
        tolerance=tol,
    )
