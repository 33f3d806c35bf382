"""Copula-based regression: median and mean curves, single and piecewise.

The median curve composes quantile, conditional quantile and CDF:

    mu(x) = Q_Y( psi( F_X(x) ) ),   psi(u) = inf{v : dC/du(u, v) >= 1/2}

The generalized-inverse (infimum) convention makes the same code work for
singular copulas whose conditional CDF is a step function: the jump location
is the median.  The mean curve integrates the conditional CDF over the
response's effective support [Q_Y(MEAN_EPS), Q_Y(1 - MEAN_EPS)] with a
composite midpoint rule whose nodes depend on the response marginal alone,
so they are built once per curve, and x is taken MEAN_BLOCK rows per du call
so that memory stays bounded.  A piecewise model holds the glued copula of
its segments, and both curves are read off it: the mean is ``mean_regression``
on the model, and the median takes each x to its slab of the glued copula and
the rescaled u* there, one conditional quantile per x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copulas import Copula, conditional_quantile
from .errors import DomainError
from .gluing import GluedCopula, glue
from .marginals import Marginal

MEAN_EPS = 1e-6     # tail mass cut from each end of the response marginal
MEAN_NODES = 512    # midpoint-rule nodes on each side of 0 (clipped)
MEAN_BLOCK = 32     # x values per du call of the mean


def median_psi(c: Copula, u):
    """Median of V given U=u on the copula scale."""
    return conditional_quantile(c, u, 0.5)


@dataclass(frozen=True)
class RegressionModel:
    copula: Copula
    marginal_x: Marginal
    marginal_y: Marginal


def median_regression(m: RegressionModel, x):
    """Median regression curve mu(x); accepts scalars or arrays."""
    m.marginal_x.require_in_support(x)
    return m.marginal_y.quantile(median_psi(m.copula, m.marginal_x.cdf(x)))


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
    us = m.marginal_x.cdf(x.ravel())
    a, upper, lower = _mean_grid(m.marginal_y)
    out = np.full(us.shape, a)
    # E[Y | U=u] = a + int_a^hi (1 - F) dy - int_lo^a F dy, F = dC/du(u, F_Y);
    # a row sum of a block is the same pairwise sum a lone x would get
    for j in range(0, us.size, MEAN_BLOCK):
        block = us[j:j + MEAN_BLOCK, None]
        if upper is not None:
            h, v = upper
            out[j:j + MEAN_BLOCK] += h * np.sum(1.0 - m.copula.du(block, v), axis=1)
        if lower is not None:
            h, v = lower
            out[j:j + MEAN_BLOCK] -= h * np.sum(m.copula.du(block, v), axis=1)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


@dataclass(frozen=True)
class PiecewiseRegressionModel:
    """Break-points in x-space plus one copula per segment.

    Segment i covers (b_{i-1}, b_i] (left-closed at the first segment).  The
    model's copula is the segment copulas glued at theta_i = F_X(b_i), and
    ``GluedCopula`` checks the piece count and the gluing points.
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
    for i, m, us in pm.copula.slabs(pm.marginal_x.cdf(x.ravel())):
        psi[m] = [median_psi(pm.copula.pieces[i], u) for u in us]
    out = pm.marginal_y.quantile(psi)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
