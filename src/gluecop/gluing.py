"""Vertical-section gluing of copulas and its inverse decomposition.

Two copulas C1, C2 and a gluing point theta combine into

    C(u, v) = theta * C1(u/theta, v)                       on [0, theta]
    C(u, v) = (1-theta) * C2((u-theta)/(1-theta), v) + theta*v   on [theta, 1]

and the same rescaling extends to finitely many pieces on vertical slabs:
on the slab [lo, hi] with u* = (u - lo)/(hi - lo), C(u, v) = (hi - lo) *
C_i(u*, v) + lo*v.  The u-derivative of the glued copula is the active
piece's derivative at u*.  A gluing point belongs to the slab on its left,
so at u = theta the left piece is active (u* = 1).  ``decompose`` inverts
the construction at a given gluing point; the round trip
glue(decompose(C, t), t) == C holds for any copula, while the pieces
themselves are valid copulas exactly when the vertical section at t is
linear (C(t, v) = t*v for all v).
"""

from __future__ import annotations

import numpy as np

from .copulas import Copula
from .errors import DomainError


class GluedCopula(Copula):
    """Copula assembled from rescaled pieces on vertical slabs."""

    name = "glued"
    smooth = False

    def __init__(self, pieces, gluing_points):
        pieces = list(pieces)
        pts = np.asarray(list(gluing_points), dtype=float)
        if len(pieces) != pts.size + 1 or len(pieces) < 1:
            raise DomainError("need exactly one more piece than gluing points")
        # written as a positive test so that NaN points fail it
        if pts.size and not (np.all(np.diff(pts) > 0) and pts[0] > 0 and pts[-1] < 1):
            raise DomainError("gluing points must be strictly increasing in (0, 1)")
        self.pieces = pieces
        self.gluing_points = pts
        self._bounds = np.concatenate(([0.0], pts, [1.0]))
        self.numerical = any(p.numerical for p in pieces)

    def slabs(self, u):
        """(piece index, mask, u*) for each occupied slab of the flat array u,
        with u* = (u - lo)/(hi - lo) on the slab [lo, hi].  Left-closed: u
        exactly at a gluing point belongs to the left slab (u* = 1 there),
        matching the x <= b segments of PiecewiseRegressionModel."""
        idx = np.clip(np.searchsorted(self._bounds, u, side="left") - 1,
                      0, len(self.pieces) - 1)
        for i in range(len(self.pieces)):
            m = idx == i
            if np.any(m):
                lo, hi = self._bounds[i], self._bounds[i + 1]
                yield i, m, (u[m] - lo) / (hi - lo)

    def _on_slabs(self, u, v, cdf: bool):
        """C (``cdf``) or its u-derivative, one rescaled piece per slab;
        cdf is continuous at a gluing point, du is not."""
        shape = np.broadcast(u, v).shape
        u, v = (a.ravel() for a in np.broadcast_arrays(u, v))
        out = np.empty(u.shape)
        for i, m, us in self.slabs(u):
            piece, vs = self.pieces[i], v[m]
            if cdf:
                lo, hi = self._bounds[i], self._bounds[i + 1]
                out[m] = (hi - lo) * piece._cdf(us, vs) + lo * vs
            else:
                out[m] = piece._du(us, vs)
        return out.reshape(shape)

    def _cdf(self, u, v):
        return self._on_slabs(u, v, cdf=True)

    def _du(self, u, v):
        return self._on_slabs(u, v, cdf=False)

    def __repr__(self):
        pts = ", ".join(f"{t:g}" for t in self.gluing_points)
        return f"<GluedCopula [{pts}] of {len(self.pieces)} pieces>"


def glue(pieces, gluing_points) -> GluedCopula:
    """Glue copulas on vertical slabs separated by the given points."""
    return GluedCopula(pieces, gluing_points)


class _Slab(Copula):
    """The parent restricted to the slab [lo, hi] and rescaled to a copula:
    C*(u*, v) = (C(lo + (hi - lo)*u*, v) - lo*v) / (hi - lo)."""

    name = "decomposed"
    smooth = False

    def __init__(self, parent: Copula, lo: float, hi: float):
        self.parent = parent
        self.lo, self.hi = lo, hi
        self.numerical = parent.numerical

    def _cdf(self, u, v):
        lo, hi = self.lo, self.hi
        return (self.parent._cdf(lo + (hi - lo) * u, v) - lo * v) / (hi - lo)

    def _du(self, u, v):
        # chain rule: the factor hi - lo cancels the 1/(hi - lo)
        return self.parent._du(self.lo + (self.hi - self.lo) * u, v)


def decompose(c: Copula, theta: float) -> tuple[Copula, Copula]:
    """Invert the two-piece gluing construction at the given point.

    Gluing the returned pair back at ``theta`` reproduces ``c`` pointwise.
    The pieces pass the copula axioms iff the vertical section of ``c`` at
    ``theta`` is linear; validate with ``check_copula_axioms`` on demand.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError("gluing point must lie in (0, 1)")
    theta = float(theta)
    return _Slab(c, 0.0, theta), _Slab(c, theta, 1.0)
