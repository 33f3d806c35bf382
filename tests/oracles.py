"""Closed forms and reference computations the tests check the library
against, written independently of it."""

import numpy as np


def tent_cdf(theta, u, v):
    """The tent copula of Example 1 (M glued to W at theta) in closed form:
    u where u <= theta*v, u + v - 1 where u >= 1 - (1 - theta)*v, and
    theta*v between."""
    return np.select([u <= theta * v, u >= 1.0 - (1.0 - theta) * v],
                     [u, u + v - 1.0], default=theta * v)


def bisection_quantile(c, u, p, steps=34):
    """inf{v : c.du(u, v) >= p} by ``steps`` halvings of [0, 1], calling the
    whole copula's ``du`` on every point; p = 0 and jumps at v = 0 give 0."""
    u, p = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(p, dtype=float))
    lo, hi = np.zeros(u.shape), np.ones(u.shape)
    at0 = c.du(u, lo) >= p
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        ge = c.du(u, mid) >= p
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    return np.where(at0, 0.0, hi)
