"""Assemble a copula from vertical slabs and take it apart again.

Glues the Fréchet upper and lower bounds at theta = 0.4 (the tent copula,
``make_copula("example1", 0.4)``), checks the result against the tent's
closed form, then recovers the two pieces by decomposition.
"""

import numpy as np

from gluecop import (FrechetLowerCopula, FrechetUpperCopula,
                     check_copula_axioms, decompose, glue)

theta = 0.4
M, W = FrechetUpperCopula(), FrechetLowerCopula()

# glue: comonotone behaviour on [0, theta], countermonotone on [theta, 1]
g = glue([M, W], [theta])
print(f"glued copula: {g}")

t = np.linspace(0, 1, 201)
U, V = np.meshgrid(t, t, indexing="ij")
# the tent in closed form: mass theta on v = u/theta, 1-theta on
# v = (1-u)/(1-theta)
closed = np.select([U <= theta * V, U >= 1 - (1 - theta) * V],
                   [U, U + V - 1], default=theta * V)
err = np.max(np.abs(g.cdf(U, V) - closed))
print(f"max |glued - closed form| on a 201x201 grid: {err:.2e}")

report = check_copula_axioms(g, 101)
print(f"axiom check (grounded / margins / 2-increasing): "
      f"max violation {report.worst:.2e}")

# decomposition inverts the construction: conditioning on U <= theta and
# U > theta gives back the two pieces
c1, c2 = decompose(g, theta)
for label, piece, target in (("left", c1, M), ("right", c2, W)):
    err = np.max(np.abs(piece.cdf(U, V) - target.cdf(U, V)))
    print(f"{label} piece vs original: max err {err:.2e}")

# any copula decomposes at any interior point; gluing the parts is lossless
from gluecop import ClaytonCopula

c = ClaytonCopula(2.5)
rebuilt = glue(list(decompose(c, 0.7)), [0.7])
print(f"decompose+glue round trip on Clayton(2.5): "
      f"max err {np.max(np.abs(rebuilt.cdf(U, V) - c.cdf(U, V))):.2e}")
