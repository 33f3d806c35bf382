"""Copula-based regression: median and mean curves, single and piecewise.

The median curve composes quantile, conditional quantile and CDF:

    mu(x) = Q_Y( psi( F_X(x) ) ),   psi(u) = inf{v : dC/du(u, v) >= 1/2}

The generalized-inverse (infimum) convention makes the same code work for
singular copulas whose conditional CDF is a step function: the jump location
is the median.  The mean curve integrates the conditional CDF over the
response's effective support [Q_Y(MEAN_EPS), Q_Y(1 - MEAN_EPS)] with a
composite midpoint rule whose nodes depend on the response marginal alone,
so they are built once per curve.

On a vertical slab of a glued copula, dC/du is the active piece's dC/du at
the rescaled u*, so E[Y | X = x] is that piece's conditional mean at u*.
Both curves therefore take each x to its slab once on ``Copula.slabs``
(a copula that is not glued is a single slab) and work on the piece there:
the mean integrates it MEAN_BLOCK rows per du call, so that memory stays
bounded, and the median inverts it, as ``conditional_quantile`` does.  A
piecewise model holds the glued copula of its segments, and both curves
are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copulas import Copula, conditional_quantile
from .errors import DomainError
from .gluing import GluedCopula, glue, misplaced_gluing_point
from .marginals import Marginal

MEAN_EPS = 1e-6     # tail mass cut from each end of the response marginal
MEAN_NODES = 512    # midpoint-rule nodes on each side of 0 (clipped)
MEAN_BLOCK = 32     # x values per du call of the mean


@dataclass(frozen=True)
class RegressionModel:
    copula: Copula
    marginal_x: Marginal
    marginal_y: Marginal


def median_regression(m: RegressionModel, x):
    """Median regression curve mu(x); accepts scalars or arrays."""
    m.marginal_x.require_in_support(x)
    psi = conditional_quantile(m.copula, m.marginal_x.cdf(x), 0.5)
    return m.marginal_y.quantile(psi)


def _mean_grid(my: Marginal):
    """Midpoint grid of the mean: a = 0 clipped into [Q_Y(eps), Q_Y(1-eps)]
    and, on each side of a, the step h and F_Y at the nodes (None if empty)."""
    ylo = float(my.quantile(MEAN_EPS))
    yhi = float(my.quantile(1.0 - MEAN_EPS))
    a = min(max(0.0, ylo), yhi)
    mid = np.arange(MEAN_NODES) + 0.5

    def side(lo, hi):
        if not hi > lo:
            return None
        h = (hi - lo) / MEAN_NODES
        return h, my.cdf(lo + mid * h)

    return a, side(a, yhi), side(ylo, a)


def mean_regression(m: RegressionModel | PiecewiseRegressionModel, x):
    """Mean regression curve; requires the conditional expectation to exist."""
    m.marginal_x.require_in_support(x)
    x = np.asarray(x, dtype=float)
    a, upper, lower = _mean_grid(m.marginal_y)
    out = np.empty(x.size)
    # E[Y | U=u] = a + int_a^hi (1 - F) dy - int_lo^a F dy, F = dC/du(u, F_Y);
    # a row sum of a block is the same pairwise sum a lone x would get.  F is
    # du without its argument checks (u* is in [0, 1]), so the piece sees the
    # block and the nodes unbroadcast
    for i, rows, us in m.copula.slabs(m.marginal_x.cdf(x.ravel())):
        piece, mu = m.copula.pieces[i], np.full(us.shape, a)
        for j in range(0, us.size, MEAN_BLOCK):
            block = us[j:j + MEAN_BLOCK, None]
            if upper is not None:
                h, v = upper
                F = np.clip(piece._du(block, v), 0.0, 1.0)
                mu[j:j + MEAN_BLOCK] += h * np.sum(1.0 - F, axis=1)
            if lower is not None:
                h, v = lower
                F = np.clip(piece._du(block, v), 0.0, 1.0)
                mu[j:j + MEAN_BLOCK] -= h * np.sum(F, axis=1)
        out[rows] = mu
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


@dataclass(frozen=True)
class PiecewiseRegressionModel:
    """Break-points in x-space plus one copula per segment.

    Segment i covers (b_{i-1}, b_i] (left-closed at the first segment).  The
    model's copula is the segment copulas glued at theta_i = F_X(b_i), and
    ``GluedCopula`` checks the piece count and the gluing points; a misplaced
    gluing point is reported as its break-point first.
    """

    break_points: tuple
    segment_copulas: tuple
    marginal_x: Marginal
    marginal_y: Marginal
    gluing_points: tuple = field(init=False)
    copula: GluedCopula = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps = tuple(float(b) for b in self.break_points)
        thetas = tuple(float(self.marginal_x.cdf(b)) for b in bps)
        bad = misplaced_gluing_point(thetas)
        if bad is not None:
            raise DomainError(f"break-point {bps[bad]!r} has gluing point "
                              f"F_X(b) = {thetas[bad]!r}; gluing points must be "
                              "strictly increasing in (0, 1)")
        object.__setattr__(self, "copula", glue(self.segment_copulas, thetas))
        object.__setattr__(self, "break_points", bps)
        object.__setattr__(self, "segment_copulas", tuple(self.segment_copulas))
        object.__setattr__(self, "gluing_points", thetas)


def piecewise_regression(pm: PiecewiseRegressionModel, x,
                         statistic: str = "median"):
    """Evaluate the piecewise regression curve at x (scalar or array)."""
    if statistic not in ("median", "mean"):
        raise DomainError(f"unknown statistic {statistic!r}")
    if statistic == "mean":
        return mean_regression(pm, x)
    pm.marginal_x.require_in_support(x)
    x = np.asarray(x, dtype=float)
    psi = np.empty(x.size)
    for i, rows, us in pm.copula.slabs(pm.marginal_x.cdf(x.ravel())):
        piece = pm.copula.pieces[i]
        psi[rows] = [conditional_quantile(piece, u, 0.5) for u in us]
    out = pm.marginal_y.quantile(psi)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
