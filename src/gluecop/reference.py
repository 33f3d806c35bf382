"""Executable reference models: tent dependence and parabola-plus-noise.

Both serve as oracles for the rest of the package.  The tent model has
uniform margins, a singular copula and a piecewise-linear regression curve
known in closed form; its copula is ``make_copula("example1", theta)``, the
upper Fréchet bound M glued to the lower bound W at theta.  The parabola model
Y = (X-0.5)^2 + k*eps has a smooth copula only available through nested
quadrature and inversion of the response marginal; its regression curve is
the parabola itself; its copula solves y_v = F_Y^{-1}(v) once per v of a
grid's row or a mean block's nodes, not once per grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import Copula, bisect_monotone
from .errors import DomainError, ParameterError, check_array_size, on_arrays
from .gluing import decompose
from .marginals import Marginal, UniformMarginal


@dataclass(frozen=True)
class Sample:
    """A bivariate sample; the common currency of the empirical machinery."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        if x.size != y.size or x.size < 2:
            raise DomainError("sample needs >= 2 (x, y) pairs of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("sample values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size


def seeded_rng(n: int, seed: int) -> np.random.Generator:
    """numpy's seeded PCG64 generator for a draw of n values: n < 1 or a
    negative seed is a ``DomainError``, an impossibly large n a
    ``MemoryError``."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    check_array_size("n", n)
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# tent model
# ---------------------------------------------------------------------------

def _check_tent_theta(theta: float) -> None:
    if not 0.0 < theta < 1.0:
        raise ParameterError("theta must lie in (0, 1)")


def tent(x, theta: float):
    """The tent regression curve x/theta rising then (1-x)/(1-theta) falling."""
    _check_tent_theta(theta)
    # x / theta can overflow only where x > theta, which takes the other branch
    with np.errstate(over="ignore"):
        return on_arrays(lambda x: np.where(x <= theta, x / theta,
                                            (1.0 - x) / (1.0 - theta)), x)


def simulate_example1(n: int, theta: float, seed: int) -> Sample:
    """Draw X uniform(0,1) and set Y = tent(X) exactly (singular model).

    Uses numpy's seeded PCG64 generator; reproducible for a fixed seed.
    """
    _check_tent_theta(theta)
    rng = seeded_rng(n, seed)
    x = rng.uniform(size=n)
    return Sample(x=x, y=tent(x, theta))


# ---------------------------------------------------------------------------
# parabola-plus-noise model
# ---------------------------------------------------------------------------

def _ndtr(z):
    """Standard normal CDF; scipy is imported on first use only."""
    from scipy.special import ndtr
    return ndtr(z)


class Example4Model:
    """Y = (X - 0.5)^2 + k*eps with X uniform(0,1), eps standard normal.

    The response marginal is F_Y(y) = int_0^1 Phi((y - (r-0.5)^2)/k) dr,
    computed by Gauss-Legendre quadrature; its inverse is served from a
    cached monotone table refined by bisection on the true F_Y.
    """

    #: half-width of the response-marginal table beyond the parabola's range,
    #: in units of k; 6.5 sigma keeps the clamped tail mass below 1e-10
    TAIL_SIGMAS = 6.5
    TABLE_SIZE = 2048
    #: Gauss-Legendre nodes of the quadrature over the explanatory variable
    QUAD_NODES = 256

    def __init__(self, k: float = 0.1):
        if not (np.isfinite(k) and k > 0):
            raise ParameterError("noise scale k must be positive")
        self.k = float(k)
        xg, wg = np.polynomial.legendre.leggauss(self.QUAD_NODES)
        self._r = 0.5 * (xg + 1.0)       # nodes on [0, 1]
        self._w = 0.5 * wg
        lo = -self.TAIL_SIGMAS * self.k
        hi = 0.25 + self.TAIL_SIGMAS * self.k
        self._ygrid = np.linspace(lo, hi, self.TABLE_SIZE)
        self._Fgrid = self.marginal_y_cdf(self._ygrid)

    # -- response marginal --------------------------------------------------

    def marginal_y_cdf(self, y):
        """F_Y(y) by quadrature over the uniform explanatory variable, summed
        along each y's row so that its bits do not depend on the batch."""
        def cdf(y):
            z = (y[..., None] - (self._r - 0.5) ** 2) / self.k
            return np.sum(_ndtr(z) * self._w, axis=-1)
        return on_arrays(cdf, y)

    def marginal_y_quantile(self, p):
        """F_Y^{-1}(p): table lookup bracket, then bisection on the true F_Y.

        Probabilities beyond the table range clamp to its endpoints (the
        excluded tail mass is below 1e-10 by construction).
        """
        def quantile(p):
            pc = np.clip(p, self._Fgrid[0], self._Fgrid[-1])
            idx = np.clip(np.searchsorted(self._Fgrid, pc), 1, self.TABLE_SIZE - 1)
            lo, hi = bisect_monotone(self.marginal_y_cdf, pc,
                                     self._ygrid[idx - 1], self._ygrid[idx], 40)
            return 0.5 * (lo + hi)
        return on_arrays(quantile, p)

    def marginal_y(self) -> Marginal:
        return _Example4YMarginal(self)

    def marginal_x(self) -> Marginal:
        return UniformMarginal(0.0, 1.0)

    # -- copula -------------------------------------------------------------

    def copula(self) -> "Example4Copula":
        return Example4Copula(self)

    def pieces(self) -> tuple[Copula, Copula]:
        """The copula decomposed at theta = 1/2 (left NQD, right PQD):

        left:  C1(u,v) = 2 C(u/2, v),            dC1/du = Phi((y_v - (1-u)^2/4)/k)
        right: C2(u,v) = 2 C((u+1)/2, v) - v,    dC2/du = Phi((y_v - u^2/4)/k)

        dC1/du is non-decreasing in u (NRD) and dC2/du non-increasing (PRD).
        """
        return decompose(self.copula(), 0.5)


class _Example4YMarginal(Marginal):
    def __init__(self, model: Example4Model):
        self.model = model
        self.support = (float(model._ygrid[0]), float(model._ygrid[-1]))

    def _cdf(self, x):
        return np.clip(self.model.marginal_y_cdf(x), 0.0, 1.0)

    def _quantile(self, p):
        return self.model.marginal_y_quantile(p)

    def __repr__(self):
        return f"Example4YMarginal(k={self.model.k})"


class Example4Copula(Copula):
    """Copula of the parabola model: C(u,v) = int_0^u Phi((y_v-(r-.5)^2)/k) dr
    with y_v = F_Y^{-1}(v); du is the integrand at r = u."""

    name = "example4"
    smooth = True

    def __init__(self, model: Example4Model):
        self.model = model

    def _cdf(self, u, v):
        m = self.model
        yv = m.marginal_y_quantile(v)
        # rescale the unit-interval nodes to [0, u] per u
        r = 0.5 * u[..., None] * (2.0 * m._r)
        z = (yv[..., None] - (r - 0.5) ** 2) / m.k
        out = u * np.sum(_ndtr(z) * m._w, axis=-1)
        # exact edges keep the uniform margins to machine precision
        return np.where(v >= 1.0, u, np.where(u >= 1.0, v, np.where(
            (u > 0) & (v > 0), out, 0.0)))

    def _du(self, u, v):
        m = self.model
        out = _ndtr((m.marginal_y_quantile(v) - (u - 0.5) ** 2) / m.k)
        return np.where(v >= 1.0, 1.0, np.where(v > 0, out, 0.0))


def simulate_example4(n: int, k: float = 0.1, seed: int = 0) -> Sample:
    """Draw the parabola model; k = 0 is allowed and gives the exact parabola."""
    if k < 0 or not np.isfinite(k):
        raise ParameterError("noise scale k must be non-negative")
    rng = seeded_rng(n, seed)
    x = rng.uniform(size=n)
    eps = rng.standard_normal(size=n)
    with np.errstate(over="ignore"):  # Sample rejects an infinite y itself
        y = (x - 0.5) ** 2 + k * eps
    return Sample(x=x, y=y)
