"""Median regression through a copula, without ever fitting a curve shape.

The regression function is mu(x) = F_Y^{-1}( psi( F_X(x) ) ), where psi
inverts the conditional distribution dC/du at level 1/2.  For the singular
tent family this reproduces the tent exactly; for the parabola-plus-noise
model it recovers the parabola from the copula and the marginals alone.
"""

import numpy as np

from gluecop import (Example4Model, RegressionModel, UniformMarginal,
                     make_copula, mean_regression, median_regression, tent)

# --- singular model: Y is an exact function of X ---------------------------
theta = 0.5
m = RegressionModel(make_copula("example1", theta), UniformMarginal(),
                    UniformMarginal())
xs = np.linspace(0, 1, 11)
mu = median_regression(m, xs)
print("tent model, median regression vs truth:")
for x, y in zip(xs, mu):
    print(f"  x = {x:.1f}  mu(x) = {y:.6f}  truth = {tent(x, theta):.6f}")

# --- smooth model: Y = (X - 0.5)^2 + 0.1 eps -------------------------------
model = Example4Model(k=0.1)
m4 = RegressionModel(model.copula(), model.marginal_x(), model.marginal_y())
xs = np.linspace(0.1, 0.9, 9)
med = median_regression(m4, xs)
avg = mean_regression(m4, xs)
truth = (xs - 0.5) ** 2
print("\nparabola model, median and mean regression vs (x - 0.5)^2:")
print(f"  max |median - truth| = {np.max(np.abs(med - truth)):.2e}")
print(f"  max |mean   - truth| = {np.max(np.abs(avg - truth)):.2e}")
