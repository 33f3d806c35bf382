"""Closed forms the tests check the library against, written independently
of it."""

import numpy as np


def tent_cdf(theta, u, v):
    """The tent copula of Example 1 (M glued to W at theta) in closed form:
    u where u <= theta*v, u + v - 1 where u >= 1 - (1 - theta)*v, and
    theta*v between."""
    return np.select([u <= theta * v, u >= 1.0 - (1.0 - theta) * v],
                     [u, u + v - 1.0], default=theta * v)
