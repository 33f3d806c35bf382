"""Locate the gluing point of a mixed-dependence copula from its diagonal.

The diagonal section delta(t) = C(t,t) crosses the independence diagonal
t^2 exactly where a PQD piece hands over to an NQD piece.  Shown first on
the closed-form singular family, then on simulated data where only the
empirical diagonal is available.
"""

import numpy as np

from gluecop import (crossing_breakpoints, diagonal_crossings,
                     empirical_crossing_report, make_copula, simulate_example1,
                     simulate_example4)

theta = 0.6
c = make_copula("example1", theta)  # M glued to W at theta
report = diagonal_crossings(c)
print(f"closed-form diagonal, true gluing point {theta}:")
for crossing in report.crossings:
    print(f"  crossing at t = {crossing.t:.6f} ({crossing.direction})")

# same question asked of a finite sample
s = simulate_example1(4000, theta, seed=7)
emp = empirical_crossing_report(s)
print(f"\nempirical diagonal, n = {s.n} (tolerance {emp.tolerance:.4f}):")
for crossing in emp.crossings:
    print(f"  crossing at t = {crossing.t:.4f} ({crossing.direction})")

# break-points live in x-space: map through the empirical x-quantile
bps = crossing_breakpoints(s.x, emp)
print(f"break-point candidates in x-space: {np.round(bps, 4)}")

# a noisy, smooth model: parabola with gaussian noise, true break at 0.5
s4 = simulate_example4(4000, k=0.1, seed=7)
print(f"\nparabola-plus-noise sample, true break-point 0.5:")
bps4 = crossing_breakpoints(s4.x, empirical_crossing_report(s4))
print(f"  candidates: {np.round(bps4, 4)}")

# monotone dependence produces no crossings at all
rng = np.random.default_rng(0)
from gluecop import Sample
u = rng.uniform(size=4000)
mono = Sample(x=u, y=u + 0.1 * rng.standard_normal(4000))
mono_bps = crossing_breakpoints(mono.x, empirical_crossing_report(mono))
print(f"\nmonotone sample: candidates = {mono_bps}")
