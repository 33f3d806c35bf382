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
The median is one ``conditional_quantile`` call on the whole copula, which
inverts each slab's piece itself.  The mean takes each x to its slab's leaf
piece once (``Copula._on_pieces``) and makes one pass per side of the
integral on it, MEAN_BLOCK rows per du call, so that memory stays bounded.
On a piece whose V given U = u is a point mass (the Fréchet bounds,
``Copula.point_mass``), dC/du at the nodes is 0 before one jump and 1 from
it on, as long as the nodes are in order (checked once per curve), so each
row sum is a count: the nodes before the jump, found by halving the node
index in ``MEAN_NODES.bit_length()`` du calls on u*.  A row of 0s and 1s
sums to that integer exactly, so both ways give the same bits.  A piecewise
model is a ``RegressionModel`` whose copula is the glue of its segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import Copula, conditional_quantile, glue, misplaced_gluing_point
from .errors import DomainError, on_arrays
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
    return on_arrays(m.marginal_y._quantile,
                     conditional_quantile(m.copula, m.marginal_x.cdf(x), 0.5))


def _mean_grid(my: Marginal):
    """Midpoint grid of the mean: a = 0 clipped into [Q_Y(eps), Q_Y(1-eps)]
    and, per non-empty side of a (above first), (upper, h, F_Y at the nodes)."""
    ylo, yhi = (on_arrays(my._quantile, p) for p in (MEAN_EPS, 1.0 - MEAN_EPS))
    a = min(max(0.0, ylo), yhi)
    mid = np.arange(MEAN_NODES) + 0.5
    sides = []
    for upper, lo, hi in ((True, a, yhi), (False, ylo, a)):
        if hi > lo:
            h = (hi - lo) / MEAN_NODES
            sides.append((upper, h, my.cdf(lo + mid * h)))
    return a, sides


def _piece_curve(m: RegressionModel, x, on_piece):
    """The curve that ``on_piece(piece, u*)`` gives on the 1-d u* of each
    leaf piece of the model's copula at u = F_X(x), through ``on_arrays``."""
    m.marginal_x.require_in_support(x)

    def curve(x):
        us = m.marginal_x.cdf(x.ravel())
        return m.copula._on_pieces(on_piece, us).reshape(x.shape)
    return on_arrays(curve, x)


def _nodes_before_jump(piece, us, v):
    """Per u*, the number k of the ordered nodes v before the jump of the 0/1
    du of ``piece``: du(u*, v_i) is 0 for i < k and 1 from k on.  Lower-bound
    halving of the index, one du call on u* per halving; a step past the end
    tests the last node, so it moves k to the end only where every node is 0."""
    k = np.zeros(us.shape, dtype=np.intp)
    for step in (1 << b for b in reversed(range(v.size.bit_length()))):
        j = np.minimum(k + step, v.size)
        k = np.where(piece._du_clamped(us, v[j - 1]) < 1.0, j, k)
    return k


def mean_regression(m: RegressionModel, x):
    """Mean regression curve; requires the conditional expectation to exist."""
    a, sides = _mean_grid(m.marginal_y)
    ordered = all(np.all(v[1:] >= v[:-1]) for _, _, v in sides)

    def mean(piece, us):
        # E[Y | U=u] = a + int_a^hi (1 - F) dy - int_lo^a F dy, F = dC/du(u, F_Y);
        # a row sum of a block is the same pairwise sum a lone x would get.  F
        # is du without its argument checks (u* is in [0, 1]), so the piece
        # sees the block and the nodes unbroadcast
        mu = np.full(us.shape, a)
        for upper, h, v in sides:
            if piece.point_mass and ordered:
                # k 0s, then 1s: the row sums are k and v.size - k, exactly
                k = _nodes_before_jump(piece, us, v)
                s = k if upper else v.size - k
            else:
                s = np.empty(us.shape)
                for j in range(0, us.size, MEAN_BLOCK):
                    F = piece._du_clamped(us[j:j + MEAN_BLOCK, None], v)
                    s[j:j + MEAN_BLOCK] = np.sum(1.0 - F if upper else F, axis=1)
            mu += (h if upper else -h) * s  # negation is exact: mu - h * s
        return mu
    return _piece_curve(m, x, mean)


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
    psi = _piece_curve(pm, x, lambda piece, us: np.array(
        [conditional_quantile(piece, u, 0.5) for u in us]))
    return pm.marginal_y.quantile(psi)
