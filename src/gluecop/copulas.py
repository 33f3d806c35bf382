"""Bivariate copulas: parametric families, gluing, partial derivatives,
conditionals.

Every copula exposes ``cdf(u, v)`` on the unit square plus ``du(u, v)``,
the partial derivative with respect to the first argument, which equals the
conditional distribution of V given U=u.  Families with a closed-form
derivative provide it; the rest fall back to central finite differences.
Inputs outside [0, 1] are rejected, never clamped — silent clamping hides
marginal-model bugs upstream; past that check all four hooks see the caller's
broadcastable shapes, which only a glued copula broadcasts, once, in its slab
walk.  A grid is a column and a row: ``cdf(us[:, None], vs[None, :])``.

``glue`` puts pieces C_i on vertical slabs: on the slab [lo, hi], with
u* = (u - lo)/(hi - lo),

    C(u, v) = (hi - lo) * C_i(u*, v) + lo*v,

so two pieces glued at theta give theta*C1(u/theta, v) on [0, theta] and
(1-theta)*C2((u-theta)/(1-theta), v) + theta*v on [theta, 1].  A gluing
point belongs to the slab on its left (u* = 1 there).  A glued copula walks
its slabs down to leaf pieces: on each, ``du`` and the conditional quantile
are its leaf's at u*.  Every other copula is its own single piece
(``Copula._on_pieces``).  ``decompose`` inverts the construction at a point
t: glue(decompose(C, t), t) == C for any copula, and the pieces are copulas
exactly when the vertical section at t is linear (C(t, v) = t*v for all v).

Singular copulas (the Fréchet bounds, and gluings of them such as the tent
copula ``make_copula("example1", theta)``, which is M glued to W at theta)
return {0, 1} indicator values from ``du``; their conditional quantiles
resolve to the jump location through the infimum convention in
``conditional_quantile``.  Each piece inverts its own ``du``
(``Copula._conditional_quantile``): by bisection, except on M and W, whose
V | U = u is a point mass at u and at 1 - u.  They compute the answer the
bisection would give, bit for bit, in three ``du`` calls instead of 35.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, ParameterError, check_array_size, on_arrays,
                     out_of_range)

FD_STEP = 1e-5          # finite-difference step for the u-derivative
# Conditional-quantile halvings of [0, 1]: 2**-34 < 1e-10.  Every midpoint is
# a multiple of 2**-BISECT_STEPS, a double while BISECT_STEPS <= 53; up to
# there the Frechet bounds' closed forms return the bisection's bits.
BISECT_STEPS = 34

# Near independence the closed forms cancel: Clayton's u^-theta + v^-theta - 1
# rounds towards 1, Frank's product of expm1's underflows and Plackett's
# s - d loses its digits, so they report a Frechet bound or the wrong sign.
# Strictly inside these distances of independence (theta = 0, or 1 for
# Plackett) each family takes a cancellation-free form instead.  The
# rho-inversion ranges (``empirical._FIT_RANGES``) end at these distances,
# so no fit reaches the near forms.
CLAYTON_NEAR = 1e-3     # 0 < theta < CLAYTON_NEAR
FRANK_NEAR = 1e-6       # |theta| < FRANK_NEAR
PLACKETT_NEAR = 1e-6    # 1 - PLACKETT_NEAR < theta < 1 + PLACKETT_NEAR


def _validate_unit(*arrays):
    for a in arrays:
        if out_of_range(a, 0.0, 1.0):
            raise DomainError("copula arguments must lie in [0, 1] and be non-NaN")


def _on_unit_square(f, *args):
    """f on the validated arguments by ``on_arrays``.  Shapes that differ
    must broadcast, and f sees each as passed, a 0-d one as one element
    (whose ``pow`` rounds as the 1-element call's)."""
    args = [np.asarray(a, dtype=float) for a in args]
    _validate_unit(*args)
    if len({a.shape for a in args}) > 1:
        np.broadcast_shapes(*(a.shape for a in args))
        args = np.atleast_1d(*args)
    return on_arrays(f, *args)


def bisect_monotone(f, p, lo, hi, steps: int):
    """Halve each bracket [lo, hi] ``steps`` times towards inf{x : f(x) >= p},
    for f non-decreasing; returns the final (lo, hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        ge = f(mid) >= p
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    return lo, hi


class Copula:
    """Abstract bivariate copula C(u, v).

    Attributes
    ----------
    name : family tag used for serialization and reporting.
    smooth : False for copulas with kinks or singular components; steers the
        quadrature rule used by the dependence measures.
    point_mass : True for a family whose V given U = u is a point mass at
        every u (the Fréchet bounds), so that ``du`` is 0 below one jump in
        v and 1 from it on, in floating point too; the mean curve then
        counts the nodes on each side of the jump instead of summing du.

    ``cdf``, ``du``, ``diagonal`` and ``conditional_quantile`` take scalars
    or broadcastable arrays: a scalar in gives a float out, with the bits
    the array call gives at the same point.  Their hooks ``_cdf``, ``_du``,
    ``_diagonal`` (``_cdf(t, t)`` by default) and ``_conditional_quantile``
    take the points the library builds, unchecked, in broadcastable shapes
    and return the broadcast shape.  A grid, the library's or a caller's, is
    a (n, 1) column and a (1, m) row, so a family computes its per-argument
    terms (powers, logs, exponentials) on each axis before it combines the
    two, the parabola's too (one response-quantile solve per v of the row).
    Only a glued copula broadcasts, once, in the slab walk that hands each
    piece its cells.
    """

    name = "copula"
    smooth = True
    point_mass = False

    # -- evaluation ---------------------------------------------------------

    def cdf(self, u, v):
        return _on_unit_square(self._cdf, u, v)

    def du(self, u, v):
        """∂C/∂u, clamped to [0, 1]; the conditional CDF of V given U=u."""
        return _on_unit_square(self._du_clamped, u, v)

    def diagonal(self, t):
        """Diagonal section δ(t) = C(t, t)."""
        return _on_unit_square(self._diagonal, t)

    # -- implementation hooks ----------------------------------------------

    def _cdf(self, u, v):  # pragma: no cover - abstract
        raise NotImplementedError

    def _du(self, u, v):
        return _finite_difference_du(self._cdf, u, v)

    def _diagonal(self, t):
        return self._cdf(t, t)

    def _du_clamped(self, u, v):
        """``du`` past its check: ``_du`` clipped to [0, 1]."""
        return self._du(u, v).clip(0.0, 1.0)

    def _conditional_quantile(self, u, p):
        """inf{v : du(u, v) >= p} on float arrays in [0, 1] of broadcastable
        shapes, unchecked, by ``BISECT_STEPS`` halvings of [0, 1]: every
        midpoint of a bracket inside [0, 1] lies in it, so each step calls
        ``_du_clamped``, the path ``du`` runs after its check, bit for bit."""
        # du(u, 0) = 0 <= p always holds for p > 0; p = 0 resolves to v = 0
        # via the shrinking upper bracket since du(u, v) >= 0 everywhere.
        lo = np.zeros(u.shape)
        at0 = self._du_clamped(u, lo) >= p
        _, hi = bisect_monotone(lambda v: self._du_clamped(u, v), p, lo,
                                np.ones(u.shape), BISECT_STEPS)
        return np.where(at0, 0.0, hi)

    def _on_pieces(self, f, u, *rows):
        """f(piece, u*, *rows) on the piece of each vertical slab of u and
        the rows broadcast together, each cut to that slab, put together in
        the broadcast shape; a glued piece walks its own slabs, so f sees
        leaf pieces only.  Any other copula is one piece: f(self, u, *rows)."""
        return f(self, u, *rows)

    def __repr__(self):
        theta = f" theta={self.theta!r}" if hasattr(self, "theta") else ""
        return f"<{type(self).__name__} {self.name}{theta}>"


def _finite_difference_du(f, u, v, h: float = FD_STEP):
    """Central difference in u, one-sided at the boundaries."""
    lo = np.maximum(u - h, 0.0)
    hi = np.minimum(u + h, 1.0)
    return (f(hi, v) - f(lo, v)) / (hi - lo)


# ---------------------------------------------------------------------------
# parameter-free copulas
# ---------------------------------------------------------------------------

class IndependenceCopula(Copula):
    """Product copula Π(u, v) = uv."""

    name = "product"

    def _cdf(self, u, v):
        return u * v

    def _du(self, u, v):
        return v + np.zeros_like(u)


class FrechetUpperCopula(Copula):
    """Fréchet–Hoeffding upper bound M(u, v) = min(u, v) (comonotone)."""

    name = "frechet-upper"
    smooth = False
    point_mass = True

    def _cdf(self, u, v):
        return np.minimum(u, v)

    def _du(self, u, v):
        # Point mass at v = u: the conditional CDF steps 0 -> 1 there.
        return np.where(v >= u, 1.0, 0.0)

    def _conditional_quantile(self, u, p):
        # the first grid point at or above u, exactly: u * 2**S is a double
        return _bisection_answer(self, u, p, np.ceil(u * 2.0 ** BISECT_STEPS))


class FrechetLowerCopula(Copula):
    """Fréchet–Hoeffding lower bound W(u, v) = max(u+v-1, 0) (countermonotone)."""

    name = "frechet-lower"
    smooth = False
    point_mass = True

    def _cdf(self, u, v):
        return np.maximum(u + v - 1.0, 0.0)

    def _du(self, u, v):
        return np.where(u + v >= 1.0, 1.0, 0.0)

    def _conditional_quantile(self, u, p):
        # 1 - u and the rounded u + v >= 1 each move the step by at most
        # 2**-54, under half a grid step, so the guess is off by at most one
        return _bisection_answer(self, u, p,
                                 np.ceil((1.0 - u) * 2.0 ** BISECT_STEPS))


def _bisection_answer(c, u, p, k):
    """What ``Copula._conditional_quantile`` returns for a copula whose
    ``_du`` is 0 or 1, without its halvings: 0 where du(u, 0) >= p, else the
    first multiple v = j * 2**-S (S = ``BISECT_STEPS``) with du(u, v) >= p,
    for k within one of j.  Three calls of ``_du_clamped``, whatever S."""
    step = 0.5 ** BISECT_STEPS
    v = k * step
    hit = c._du_clamped(u, v) >= p
    # one step back where v is hit, else one step on, which must be hit; as
    # du(u, 1) = 1, a v that is not hit lies below 1
    near = np.where(hit, np.maximum(v - step, 0.0), v + step)
    first = np.where(hit & ~(c._du_clamped(u, near) >= p), v, near)
    return np.where(c._du_clamped(u, np.zeros(u.shape)) >= p, 0.0, first)


_M, _W = FrechetUpperCopula(), FrechetLowerCopula()


def _bound_where_lost(value, held, bound, u, v):
    """``value`` where ``held``, else ``bound(u, v)``: the ``_cdf`` or ``_du``
    of the Fréchet bound a family tends to at extreme theta, for points where
    its closed form was lost.  There the family's cdf is within log(2)/|theta|
    (Plackett's: 1/(2 + 2 sqrt(t)), t = max(theta, 1/theta)) of the bound."""
    if held.all():
        return value
    return np.where(held, value, bound(u, v))


# ---------------------------------------------------------------------------
# one-parameter families
# ---------------------------------------------------------------------------

def _clayton_log_excess(th, lu, lv):
    """log(C/uv) = -log1p(-pq)/th of Clayton, p = u^th - 1 and q = v^th - 1
    (u^-th + v^-th - 1 = (1 - pq)/(uv)^th): >= 0, and free of cancellation."""
    return -np.log1p(-np.expm1(th * lu) * np.expm1(th * lv)) / th


class ClaytonCopula(Copula):
    """Clayton copula, strict positive-dependence branch (theta > 0)."""

    name = "clayton"

    def __init__(self, theta: float):
        if not (np.isfinite(theta) and theta > 0):
            raise ParameterError("Clayton requires theta > 0")
        self.theta = float(theta)

    def _cdf(self, u, v):
        th = self.theta
        if th < CLAYTON_NEAR:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = u * v * np.exp(_clayton_log_excess(th, np.log(u), np.log(v)))
        else:
            with np.errstate(divide="ignore", over="ignore"):
                s = u ** (-th) + v ** (-th) - 1.0
                out = s ** (-1.0 / th)
            out = _bound_where_lost(out, np.isfinite(s), _M._cdf, u, v)
        return np.where((u <= 0) | (v <= 0), 0.0, out)

    def _du(self, u, v):
        th = self.theta
        uu = np.maximum(u, 1e-12)  # u and v are already checked to be <= 1
        vv = np.maximum(v, 1e-300)
        if th < CLAYTON_NEAR:
            # d/du of uv e^g, with e^g = (1 - pq)^(-1/th), is v^(1 + th) e^g / (1 - pq)
            lv = np.log(vv)
            g = _clayton_log_excess(th, np.log(uu), lv)
            out = vv * np.exp(th * lv + g * (1.0 + th))
        else:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                s = uu ** (-th) + vv ** (-th) - 1.0
                out = uu ** (-th - 1.0) * s ** (-1.0 / th - 1.0)
            out = _bound_where_lost(out, np.isfinite(out), _M._du, u, v)
        return np.where(v <= 0, 0.0, np.where(v >= 1, 1.0, out))


class FrankCopula(Copula):
    """Frank copula; theta != 0, either sign of dependence."""

    name = "frank"

    def __init__(self, theta: float):
        if not (np.isfinite(theta) and theta != 0.0):
            raise ParameterError("Frank requires finite theta != 0")
        self.theta = float(theta)

    def _cdf(self, u, v):
        th = self.theta
        if -FRANK_NEAR < th < FRANK_NEAR:
            # log(C/uv) to second order in th; the next term is below
            # th^3/100, under an ulp of C here
            g = (0.5 * th * (1.0 - u) * (1.0 - v)
                 * (1.0 + th * (5.0 * u * v - u - v - 1.0) / 12.0))
            return u * v * np.exp(g)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            num = np.expm1(-th * u) * np.expm1(-th * v)
            out = -np.log1p(num / np.expm1(-th)) / th
        return _bound_where_lost(out, np.isfinite(out),
                                 _M._cdf if th > 0 else _W._cdf, u, v)

    def _du(self, u, v):
        th = self.theta
        if abs(th) <= 30.0:
            a = np.expm1(-th * v)
            return np.exp(-th * u) * a / (np.expm1(-th) + np.expm1(-th * u) * a)
        # Past the fitting range, |th| <= 30, the denominator above,
        # e^-th + e^-th(u+v) - e^-thu - e^-thv, cancels (13 of its 16 digits
        # are gone once th min(u, v) > 30) or overflows (th < -709).  Scaled
        # by e^(t min(u, v)) no exponent is positive; th < 0 goes through
        # du_th(u, v) = 1 - du_-th(u, 1 - v).
        t, w = (th, v) if th > 0 else (-th, 1.0 - v)
        lo, hi = np.minimum(u, w), np.maximum(u, w)
        du = (np.exp(-t * (u - lo)) * np.expm1(-t * w)
              / (np.exp(-t * (1.0 - lo)) + np.expm1(-t * hi)
                 - np.exp(-t * (hi - lo))))
        return du if th > 0 else 1.0 - du


class GumbelCopula(Copula):
    """Gumbel–Hougaard copula, theta >= 1."""

    name = "gumbel"

    def __init__(self, theta: float):
        if not (np.isfinite(theta) and theta >= 1.0):
            raise ParameterError("Gumbel requires theta >= 1")
        self.theta = float(theta)

    def _cdf(self, u, v):
        th = self.theta
        uu = np.clip(u, 1e-300, 1.0)
        vv = np.clip(v, 1e-300, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            a = (-np.log(uu)) ** th + (-np.log(vv)) ** th
            out = np.exp(-a ** (1.0 / th))
        # a also underflows towards (1, 1), where the closed form tends to 1
        held = (a >= np.finfo(float).tiny) & (a < np.inf)
        out = _bound_where_lost(out, held, _M._cdf, u, v)
        return np.where((u <= 0) | (v <= 0), 0.0, out)

    def _du(self, u, v):
        th = self.theta
        uu = np.clip(u, 1e-12, 1.0 - 1e-16)
        vv = np.maximum(v, 1e-300)  # v is already checked to be <= 1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lu = -np.log(uu)
            a = lu ** th + (-np.log(vv)) ** th
            c = np.exp(-a ** (1.0 / th))
            out = c * a ** (1.0 / th - 1.0) * lu ** (th - 1.0) / uu
        out = _bound_where_lost(out, np.isfinite(out), _M._du, u, v)
        return np.where(v <= 0, 0.0, np.where(v >= 1, 1.0, out))


class FGMCopula(Copula):
    """Farlie–Gumbel–Morgenstern copula, theta in [-1, 1]."""

    name = "fgm"

    def __init__(self, theta: float):
        if not (np.isfinite(theta) and -1.0 <= theta <= 1.0):
            raise ParameterError("FGM requires theta in [-1, 1]")
        self.theta = float(theta)

    def _cdf(self, u, v):
        return u * v * (1.0 + self.theta * (1.0 - u) * (1.0 - v))

    def _du(self, u, v):
        return v * (1.0 + self.theta * (1.0 - 2.0 * u) * (1.0 - v))


class PlackettCopula(Copula):
    """Plackett copula, theta > 0, theta != 1."""

    name = "plackett"

    def __init__(self, theta: float):
        if not (np.isfinite(theta) and theta > 0.0 and theta != 1.0):
            raise ParameterError("Plackett requires theta > 0, theta != 1")
        self.theta = float(theta)
        self._bound = _M if theta > 1 else _W

    def _cdf(self, u, v):
        th = self.theta
        eta = th - 1.0
        if 1.0 - PLACKETT_NEAR < th < 1.0 + PLACKETT_NEAR:
            # C = uv + D, D the small root of eta D^2 - r D + eta w = 0 (put
            # C = uv + D in the quadratic whose root (s - d)/(2 eta) is C),
            # rationalised so that nothing cancels
            w = u * v * (1.0 - u) * (1.0 - v)
            r = 1.0 + eta * (u + v - 2.0 * u * v)
            return u * v + 2.0 * eta * w / (r + np.sqrt(r * r - 4.0 * eta * eta * w))
        with np.errstate(all="ignore"):
            s = 1.0 + eta * (u + v)
            d = np.sqrt(s * s - 4.0 * th * eta * u * v)
            c = (s - d) / (2.0 * eta)
        c = _bound_where_lost(c, np.isfinite(c), self._bound._cdf, u, v)
        # at large theta the rounding of s - d can leave the Frechet bounds
        # next to the edges; clipping into them keeps the margins exact
        return np.minimum(np.maximum(c, np.maximum(u + v - 1.0, 0.0)),
                          np.minimum(u, v))

    def _du(self, u, v):
        th = self.theta
        eta = th - 1.0
        with np.errstate(all="ignore"):
            s = 1.0 + eta * (u + v)
            d = np.sqrt(s * s - 4.0 * th * eta * u * v)
            out = 0.5 * (1.0 - (s - 2.0 * th * v) / d)
        return _bound_where_lost(out, np.isfinite(out), self._bound._du, u, v)


# ---------------------------------------------------------------------------
# vertical-slab gluing and its inverse decomposition
# ---------------------------------------------------------------------------

def misplaced_gluing_point(pts) -> int | None:
    """Index of the first gluing point that is not above the one before it
    (0 for the first) and below 1, or None when they are strictly increasing
    in (0, 1); written as a positive test so that a NaN point is misplaced."""
    pts = np.asarray(pts, dtype=float)
    bad = np.flatnonzero(~((pts > np.r_[0.0, pts[:-1]]) & (pts < 1.0)))
    return int(bad[0]) if bad.size else None


class GluedCopula(Copula):
    """Copula assembled from rescaled pieces on vertical slabs."""

    name = "glued"
    smooth = False

    def __init__(self, pieces, gluing_points):
        pieces = list(pieces)
        pts = np.asarray(list(gluing_points), dtype=float)
        if len(pieces) != pts.size + 1:
            raise DomainError("need exactly one more piece than gluing points")
        for i, piece in enumerate(pieces):
            if not isinstance(piece, Copula):
                raise DomainError(f"piece {i} is not a copula: {piece!r}")
        if misplaced_gluing_point(pts) is not None:
            raise DomainError("gluing points must be strictly increasing in (0, 1)")
        self._pieces = tuple(pieces)
        self.gluing_points = pts
        self._bounds = np.concatenate(([0.0], pts, [1.0]))

    @property
    def pieces(self) -> tuple:
        return self._pieces

    def _on_slabs(self, f, u, *rows):
        """``_on_pieces`` one level down: f(piece, lo, hi, u*, *rows) on each
        occupied slab [lo, hi], left-closed as are the x <= b segments of
        PiecewiseRegressionModel; the one place a glued copula broadcasts."""
        u, *rows = np.broadcast_arrays(u, *rows)
        idx = np.clip(np.searchsorted(self._bounds, u, side="left") - 1,
                      0, len(self.pieces) - 1)
        out = np.empty(u.shape)
        for i, piece in enumerate(self.pieces):
            m = idx == i
            if np.any(m):
                lo, hi = self._bounds[i], self._bounds[i + 1]
                out[m] = f(piece, lo, hi, (u[m] - lo) / (hi - lo),
                           *(r[m] for r in rows))
        return out

    def _on_pieces(self, f, u, *rows):
        return self._on_slabs(lambda c, lo, hi, us, *rs: c._on_pieces(f, us, *rs),
                              u, *rows)

    def _cdf(self, u, v):
        # the slab rule; its lo * v keeps C continuous at a gluing point
        return self._on_slabs(
            lambda c, lo, hi, us, vs: (hi - lo) * c._cdf(us, vs) + lo * vs, u, v)

    def _du(self, u, v):
        return self._on_pieces(lambda c, u, v: c._du(u, v), u, v)

    def _conditional_quantile(self, u, p):
        return self._on_pieces(lambda c, u, p: c._conditional_quantile(u, p), u, p)

    def __repr__(self):
        pts = ", ".join(f"{t:g}" for t in self.gluing_points)
        return f"<GluedCopula [{pts}] of {len(self.pieces)} pieces>"


def glue(pieces, gluing_points) -> GluedCopula:
    """Glue copulas on vertical slabs separated by the given points."""
    return GluedCopula(pieces, gluing_points)


class _Slab(Copula):
    """The parent's piece on the slab [lo, hi]: the slab rule solved for C_i."""

    name = "decomposed"

    def __init__(self, parent: Copula, lo: float, hi: float):
        self.parent = parent
        self.lo, self.hi = lo, hi
        # the rescaling is affine, so a slab has its parent's kinks and no others
        self.smooth = parent.smooth

    def _cdf(self, u, v):
        lo, hi = self.lo, self.hi
        return (self.parent._cdf(lo + (hi - lo) * u, v) - lo * v) / (hi - lo)

    def _du(self, u, v):
        # chain rule: the factor hi - lo cancels the 1/(hi - lo)
        return self.parent._du(self.lo + (self.hi - self.lo) * u, v)


def decompose(c: Copula, theta: float) -> tuple[Copula, Copula]:
    """The pieces of ``c`` on [0, theta] and [theta, 1]; the module
    docstring says when they are copulas (``check_copula_axioms`` checks)."""
    if not 0.0 < theta < 1.0:
        raise DomainError("gluing point must lie in (0, 1)")
    theta = float(theta)
    return _Slab(c, 0.0, theta), _Slab(c, theta, 1.0)


# ---------------------------------------------------------------------------
# conditional distributions and quantiles
# ---------------------------------------------------------------------------

def conditional_quantile(c: Copula, u, p):
    """Generalized inverse v = inf{v : ∂C/∂u (u, v) >= p}, by bisection.

    Monotone in v by 2-increasingness; jump discontinuities of singular
    copulas resolve to the jump location.  A glued copula inverts each
    slab's piece at u* on its own rows: that is its ``du`` there.

    u and p are checked once, at entry, and ``c._conditional_quantile``
    does the rest: u* is an affine rescale of a checked u onto [0, 1], so no
    point built after the check needs one.  The Fréchet bounds return their
    bisection's answer in closed form, bit for bit.
    """
    return _on_unit_square(c._conditional_quantile, u, p)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    """Worst numerical violations of the copula axioms on an n×n grid."""

    grid_n: int
    grounded: float
    margins: float
    two_increasing: float
    frechet: float
    worst_location: tuple[float, float]

    @property
    def worst(self) -> float:
        return max(self.grounded, self.margins, self.two_increasing, self.frechet)

    def passed(self, tol: float) -> bool:
        return self.worst <= tol


def check_copula_axioms(c: Copula, n: int = 101) -> AxiomReport:
    """Evaluate groundedness, uniform margins, 2-increasingness and the
    Fréchet–Hoeffding bounds on an n×n grid; report worst violations."""
    n = operator.index(n)
    if n < 2:
        raise DomainError("grid size must be >= 2")
    check_array_size("n ** 2", n ** 2)
    t = np.linspace(0.0, 1.0, n)
    M = c._cdf(t[:, None], t[None, :])

    grounded = max(float(np.max(np.abs(M[0, :]))), float(np.max(np.abs(M[:, 0]))))
    margins = max(float(np.max(np.abs(M[-1, :] - t))), float(np.max(np.abs(M[:, -1] - t))))

    d2 = M[1:, 1:] - M[1:, :-1] - M[:-1, 1:] + M[:-1, :-1]
    two_inc = max(0.0, float(-np.min(d2)))
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    worst_loc = (float(t[i + 1]), float(t[j + 1]))

    low = np.maximum(t[:, None] + t[None, :] - 1.0, 0.0)
    high = np.minimum(t[:, None], t[None, :])
    frechet = max(0.0, float(np.max(low - M)), float(np.max(M - high)))

    return AxiomReport(grid_n=n, grounded=grounded, margins=margins,
                       two_increasing=two_inc, frechet=frechet,
                       worst_location=worst_loc)


def _tent(theta: float) -> Copula:
    """The tent copula of Example 1: M glued to W at theta."""
    if not (np.isfinite(theta) and 0.0 < theta < 1.0):
        raise ParameterError("tent copula requires theta in (0, 1)")
    return glue([FrechetUpperCopula(), FrechetLowerCopula()], [theta])


# family registry used by fitting and serialization -------------------------

FAMILY_CONSTRUCTORS = {
    "product": IndependenceCopula,
    "frechet-upper": FrechetUpperCopula,
    "frechet-lower": FrechetLowerCopula,
    "clayton": ClaytonCopula,
    "frank": FrankCopula,
    "gumbel": GumbelCopula,
    "fgm": FGMCopula,
    "plackett": PlackettCopula,
    "example1": _tent,
}

PARAMETRIC_FAMILIES = ("clayton", "frank", "gumbel", "fgm", "plackett", "example1")


def make_copula(family: str, theta: float | None = None) -> Copula:
    """Construct a built-in copula from its family tag."""
    if family not in FAMILY_CONSTRUCTORS:
        raise ParameterError(f"unknown copula family {family!r}")
    ctor = FAMILY_CONSTRUCTORS[family]
    if family in PARAMETRIC_FAMILIES:
        if theta is None:
            raise ParameterError(f"family {family!r} requires a parameter")
        return ctor(theta)
    if theta is not None:
        raise ParameterError(f"family {family!r} takes no parameter")
    return ctor()
