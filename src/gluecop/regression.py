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
piecewise model is a ``RegressionModel`` whose copula is the glue of its
segments, so both curves serve it as they serve any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import Copula, conditional_quantile
from .errors import DomainError, on_arrays
from .gluing import glue, misplaced_gluing_point
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
    psi = _slab_curve(m, x, lambda piece, us: conditional_quantile(piece, us, 0.5))
    return m.marginal_y.quantile(psi)


def _mean_grid(my: Marginal):
    """Midpoint grid of the mean: a = 0 clipped into [Q_Y(eps), Q_Y(1-eps)]
    and, on each side of a, the step h and F_Y at the nodes (None if empty)."""
    ylo, yhi = my.quantile(MEAN_EPS), my.quantile(1.0 - MEAN_EPS)
    a = min(max(0.0, ylo), yhi)
    mid = np.arange(MEAN_NODES) + 0.5

    def side(lo, hi):
        if not hi > lo:
            return None
        h = (hi - lo) / MEAN_NODES
        return h, my.cdf(lo + mid * h)

    return a, side(a, yhi), side(ylo, a)


def _slab_curve(m: RegressionModel, x, on_slab):
    """The curve that ``on_slab(piece, u*)`` gives on each slab of the model's
    copula at u = F_X(x), through ``on_arrays``."""
    m.marginal_x.require_in_support(x)

    def curve(x):
        out = np.empty(x.size)
        for i, rows, us in m.copula.slabs(m.marginal_x.cdf(x.ravel())):
            out[rows] = on_slab(m.copula.pieces[i], us)
        return out.reshape(x.shape)
    return on_arrays(curve, x)


def mean_regression(m: RegressionModel, x):
    """Mean regression curve; requires the conditional expectation to exist."""
    a, upper, lower = _mean_grid(m.marginal_y)

    def mean(piece, us):
        # E[Y | U=u] = a + int_a^hi (1 - F) dy - int_lo^a F dy, F = dC/du(u, F_Y);
        # a row sum of a block is the same pairwise sum a lone x would get.  F
        # is du without its argument checks (u* is in [0, 1]), so the piece
        # sees the block and the nodes unbroadcast
        mu = np.full(us.shape, a)
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
        return mu
    return _slab_curve(m, x, mean)


@dataclass(frozen=True, init=False)
class PiecewiseRegressionModel(RegressionModel):
    """A ``RegressionModel`` whose copula glues one copula per segment at
    theta_i = F_X(b_i); segment i covers (b_{i-1}, b_i] (left-closed at the
    first).  ``GluedCopula`` checks the piece count and the gluing points; a
    misplaced gluing point is reported as its break-point first."""

    break_points: tuple
    gluing_points: tuple

    def __init__(self, break_points, segment_copulas, marginal_x, marginal_y):
        bps = tuple(float(b) for b in break_points)
        thetas = tuple(float(marginal_x.cdf(b)) for b in bps)
        bad = misplaced_gluing_point(thetas)
        if bad is not None:
            raise DomainError(f"break-point {bps[bad]!r} has gluing point "
                              f"F_X(b) = {thetas[bad]!r}; gluing points must be "
                              "strictly increasing in (0, 1)")
        super().__init__(glue(segment_copulas, thetas), marginal_x, marginal_y)
        object.__setattr__(self, "break_points", bps)
        object.__setattr__(self, "gluing_points", thetas)

    @property
    def segment_copulas(self) -> tuple:
        return self.copula.pieces


def piecewise_regression(pm: PiecewiseRegressionModel, x,
                         statistic: str = "median"):
    """Evaluate the piecewise regression curve at x (scalar or array)."""
    if statistic not in ("median", "mean"):
        raise DomainError(f"unknown statistic {statistic!r}")
    if statistic == "mean":
        return mean_regression(pm, x)
    psi = _slab_curve(pm, x, lambda piece, us: [conditional_quantile(piece, u, 0.5)
                                                for u in us])
    return pm.marginal_y.quantile(psi)
