"""Marginal distribution models: CDF/quantile pairs with explicit support.

A marginal is anything exposing ``cdf``, ``quantile`` and ``support``.  The
quantile is always the generalized inverse ``q(p) = inf{x : cdf(x) >= p}``,
so ``cdf(quantile(p)) >= p`` and ``quantile(cdf(x)) <= x`` at continuity
points.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, DomainError, on_arrays, out_of_range


class Marginal:
    """Abstract CDF/quantile pair.

    Subclasses implement ``_cdf`` and ``_quantile`` on numpy arrays and set
    ``support = (lo, hi)`` (either endpoint may be infinite).
    """

    support: tuple[float, float] = (-np.inf, np.inf)

    def cdf(self, x):
        return on_arrays(self._cdf, x)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if out_of_range(p, 0.0, 1.0):
            raise DomainError("quantile argument must lie in [0, 1]")
        return on_arrays(self._quantile, p)

    def contains(self, x) -> bool:
        lo, hi = self.support
        return not out_of_range(np.asarray(x, dtype=float), lo, hi)

    def require_in_support(self, x):
        if not self.contains(x):
            raise DomainError(f"value {x!r} outside marginal support {self.support}")

    def _cdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def _quantile(self, p):  # pragma: no cover - abstract
        raise NotImplementedError


class UniformMarginal(Marginal):
    """Uniform distribution on [a, b]."""

    def __init__(self, a: float = 0.0, b: float = 1.0):
        if not (np.isfinite(a) and np.isfinite(b) and b > a):
            raise DataError("uniform marginal needs finite a < b")
        self.a, self.b = float(a), float(b)
        # a difference of Python floats overflows to inf without a warning
        if not np.isfinite(self.b - self.a):
            raise DataError("uniform marginal needs a finite span b - a")
        self.support = (self.a, self.b)

    def _cdf(self, x):
        return (np.clip(x, self.a, self.b) - self.a) / (self.b - self.a)

    def _quantile(self, p):
        return self.a + p * (self.b - self.a)

    def __repr__(self):
        return f"UniformMarginal({self.a}, {self.b})"


def _finite_values(values) -> np.ndarray:
    """``values`` as a flat float array of >= 2 finite values, else a
    ``DataError``."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2 or not np.all(np.isfinite(v)):
        raise DataError("empirical marginal needs >= 2 finite values")
    return v


class EmpiricalMarginal(Marginal):
    """Piecewise-linear CDF/quantile interpolating the order statistics.

    Knot probabilities are the plotting positions i/(n+1), which keep the
    mapped values strictly inside (0, 1); the CDF is extended linearly to
    0 at the sample minimum and 1 at the sample maximum.
    """

    def __init__(self, values):
        self._set_knots(np.sort(_finite_values(values)))

    @classmethod
    def _sorted_by(cls, values, order):
        """``EmpiricalMarginal(values)`` from ``order``, a permutation that
        sorts ``values`` (such as their argsort), without a second sort.
        Only -0.0 and 0.0 compare equal with different bits, and a sort and
        an argsort can place them differently inside their tie group, so
        values that hold both are sorted as ``__init__`` sorts them."""
        v = _finite_values(values)
        knots = v[order]
        zeros = knots[np.searchsorted(knots, 0.0, "left"):
                      np.searchsorted(knots, 0.0, "right")]
        negative = np.signbit(zeros)
        if negative.any() and not negative.all():
            knots = np.sort(v)
        m = cls.__new__(cls)
        m._set_knots(knots)
        return m

    def _set_knots(self, knots_x):
        if knots_x[0] == knots_x[-1]:
            raise DataError("empirical marginal needs >= 2 distinct values")
        self.knots_x = knots_x
        n = knots_x.size
        self.knots_p = np.arange(1, n + 1) / (n + 1)
        self.support = lo, hi = float(knots_x[0]), float(knots_x[-1])
        # np.interp's slope on a knot gap of width dx is dx (n + 1) for the
        # quantile, which can overflow, and 1/((n + 1) dx) for the cdf, which
        # is 0 once dx overflows.  Where (hi - lo)(n + 1) overflows (Python
        # floats: inf, no warning), both run on knots scaled by a power of
        # two that keeps it finite, exact on normal values; other knots are
        # used as they are.
        self._scale = 1.0
        self._knots = knots_x
        if math.isinf((hi - lo) * (n + 1)):
            self._scale = 2.0 ** -(2 + math.frexp(n + 1)[1])
            self._knots = knots_x * self._scale

    def _cdf(self, x):
        if self._scale != 1.0:
            x = x * self._scale
        return np.interp(x, self._knots, self.knots_p, left=0.0, right=1.0)

    def _quantile(self, p):
        # Below the first / above the last plotting position the quantile
        # clamps to the sample extremes (generalized-inverse convention).
        q = np.interp(p, self.knots_p, self._knots)
        return q if self._scale == 1.0 else q / self._scale

    def __repr__(self):
        return f"EmpiricalMarginal(n={self.knots_x.size})"

