"""Bivariate copulas: parametric families, partial derivatives, conditionals.

Every copula exposes ``cdf(u, v)`` on the unit square plus ``du(u, v)``,
the partial derivative with respect to the first argument, which equals the
conditional distribution of V given U=u.  Families with a closed-form
derivative provide it; the rest fall back to central finite differences.
Inputs outside [0, 1] are rejected, never clamped — silent clamping hides
marginal-model bugs upstream.

``slabs(u)`` walks the vertical slabs (a copula that is not glued is one),
and ``conditional_quantile`` inverts each slab's piece on its own rows.

Singular copulas (the Fréchet bounds, and gluings of them such as the tent
copula ``make_copula("example1", theta)``, which is M glued to W at theta)
return {0, 1} indicator values from ``du``; their conditional quantiles
resolve to the jump location through the infimum convention in
``conditional_quantile``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, on_arrays, out_of_range

FD_STEP = 1e-5          # finite-difference step for the u-derivative
BISECT_STEPS = 34       # conditional-quantile halvings of [0, 1]: 2**-34 < 1e-10

# Near independence the closed forms cancel: Clayton's u^-theta + v^-theta - 1
# rounds towards 1, Frank's product of expm1's underflows and Plackett's
# s - d loses its digits, so they report a Frechet bound or the wrong sign.
# Strictly inside these distances of independence (theta = 0, or 1 for
# Plackett) each family takes a cancellation-free form instead.  Each
# distance is the end of the family's rho-inversion range towards
# independence (``empirical._FIT_RANGES``), ends excluded, so no fit reaches
# the near forms.
CLAYTON_NEAR = 1e-3     # 0 < theta < CLAYTON_NEAR
FRANK_NEAR = 1e-6       # |theta| < FRANK_NEAR
PLACKETT_NEAR = 1e-6    # 1 - PLACKETT_NEAR < theta < 1 + PLACKETT_NEAR


def _validate_unit(*arrays):
    for a in arrays:
        if out_of_range(a, 0.0, 1.0):
            raise DomainError("copula arguments must lie in [0, 1] and be non-NaN")


def _on_unit_square(f, u, v):
    """f on the validated u and v, broadcast to one shape, by ``on_arrays``."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    _validate_unit(u, v)
    if u.shape != v.shape:
        u, v = np.broadcast_arrays(u, v)
    return on_arrays(f, u, v)


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
    numerical : True when the evaluator itself is built on quadrature or data,
        which loosens default classification tolerances.

    ``cdf``, ``du``, ``diagonal`` and ``conditional_quantile`` take scalars
    or arrays: a scalar in gives a float out, with the bits the array call
    gives at the same point.  The hooks ``_cdf`` and ``_du`` take any two
    broadcastable arrays and return their broadcast shape.  Grids the
    library builds pass a (n, 1) column and a (1, m) row, so a family
    computes its per-argument terms (powers, logs, exponentials) on each
    axis before it combines the two.
    """

    name = "copula"
    smooth = True
    numerical = False

    # -- evaluation ---------------------------------------------------------

    def cdf(self, u, v):
        return _on_unit_square(self._cdf, u, v)

    def du(self, u, v):
        """∂C/∂u, clamped to [0, 1]; the conditional CDF of V given U=u."""
        return _on_unit_square(self._du_clamped, u, v)

    def diagonal(self, t):
        """Diagonal section δ(t) = C(t, t)."""
        return self.cdf(t, t)

    def cdf_grid(self, us, vs):
        """C evaluated on the tensor grid us × vs, shape (len(us), len(vs)).

        The axes are validated once; ``_cdf_grid`` does the evaluation."""
        us = np.asarray(us, dtype=float).ravel()
        vs = np.asarray(vs, dtype=float).ravel()
        _validate_unit(us, vs)
        return self._cdf_grid(us, vs)

    @property
    def pieces(self) -> tuple:
        """The copulas on the slabs of ``slabs``: this one alone."""
        return (self,)

    def slabs(self, u):
        """(index into ``pieces``, rows, u*) for each occupied slab of the array
        u; a copula that is not glued is one slab, all rows at u* = u."""
        yield 0, ..., u

    # -- implementation hooks ----------------------------------------------

    def _cdf(self, u, v):  # pragma: no cover - abstract
        raise NotImplementedError

    def _du(self, u, v):
        return _finite_difference_du(self._cdf, u, v)

    def _du_clamped(self, u, v):
        """``du`` on float arrays in [0, 1], unchecked: for points the
        library builds itself (bisection brackets, mean blocks, grids)."""
        return self._du(u, v).clip(0.0, 1.0)

    def _cdf_grid(self, us, vs):
        """``cdf_grid`` on 1-d float axes in [0, 1], unchecked: for grids the
        library builds itself.  ``_cdf`` sees the axes as a (len(us), 1)
        column and a (1, len(vs)) row, so each family's per-argument terms
        run once per node and only their combination runs on the grid."""
        return self._cdf(us[:, None], vs[None, :])

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

    def _cdf(self, u, v):
        return np.minimum(u, v)

    def _du(self, u, v):
        # Point mass at v = u: the conditional CDF steps 0 -> 1 there.
        return np.where(v >= u, 1.0, 0.0)


class FrechetLowerCopula(Copula):
    """Fréchet–Hoeffding lower bound W(u, v) = max(u+v-1, 0) (countermonotone)."""

    name = "frechet-lower"
    smooth = False

    def _cdf(self, u, v):
        return np.maximum(u + v - 1.0, 0.0)

    def _du(self, u, v):
        return np.where(u + v >= 1.0, 1.0, 0.0)


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
# conditional distributions and quantiles
# ---------------------------------------------------------------------------

def conditional_quantile(c: Copula, u, p):
    """Generalized inverse v = inf{v : ∂C/∂u (u, v) >= p}, by bisection.

    Monotone in v by 2-increasingness; jump discontinuities of singular
    copulas resolve to the jump location.  Each slab of ``c.slabs`` bisects
    its piece's ``du`` at u* on its own rows: that is c's ``du`` there.

    u and p are checked once, at entry.  No point built after that needs a
    check: u* is an affine rescale of a checked u onto [0, 1], and every
    midpoint of a bracket inside [0, 1] lies in it, so the bisection calls
    ``_du_clamped``, the path ``du`` runs after its check, bit for bit.
    """
    def solve(u, p):
        out = np.empty(u.shape)
        for i, rows, us in c.slabs(u):
            piece, ps, lo = c.pieces[i], p[rows], np.zeros(us.shape)
            # du(u, 0) = 0 <= p always holds for p > 0; p = 0 resolves to v = 0
            # via the shrinking upper bracket since du(u, v) >= 0 everywhere.
            at0 = piece._du_clamped(us, lo) >= ps
            _, hi = bisect_monotone(lambda v: piece._du_clamped(us, v), ps, lo,
                                    np.ones(us.shape), BISECT_STEPS)
            out[rows] = np.where(at0, 0.0, hi)
        return out
    return _on_unit_square(solve, u, p)


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
    if n < 2:
        raise DomainError("grid size must be >= 2")
    t = np.linspace(0.0, 1.0, n)
    M = c._cdf_grid(t, t)

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
    from .gluing import glue  # gluing imports this module
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
