"""Full pipeline on raw data: detect break-points, fit per-segment copulas,
predict, and round-trip the fitted model through its JSON document.

Mirrors what the command-line interface does (simulate -> analyze -> fit ->
predict), but through the library API.
"""

import tempfile

import numpy as np

from gluecop import (fit_piecewise, load_model, median_regression, save_model,
                     simulate_example4)

# data: parabola with gaussian noise; nothing downstream knows the shape
s = simulate_example4(5000, k=0.1, seed=3)
print(f"sample: n = {s.n}, x in [{s.x.min():.3f}, {s.x.max():.3f}]")

fit = fit_piecewise(s)
print(f"\ndetected break-points: {np.round(fit.break_points, 4)}")
print(f"{'segment':>8} {'family':>16} {'theta':>10} {'rho_hat':>9} {'gof':>10}")
for i, seg in enumerate(fit.segments):
    theta = "-" if seg.theta is None else f"{seg.theta:.4g}"
    print(f"{i:>8} {seg.family:>16} {theta:>10} {seg.rho_hat:>9.3f} "
          f"{seg.gof_distance:>10.3e}")

xs = np.linspace(0.05, 0.95, 181)
mu = median_regression(fit.model, xs)
rmse = np.sqrt(np.mean((mu - (xs - 0.5) ** 2) ** 2))
print(f"\nprediction RMSE vs the true curve: {rmse:.4f}")

# the model document is canonical JSON; reload and predict identically
with tempfile.NamedTemporaryFile(suffix=".json") as fh:
    save_model(fit.model, fh.name)
    back = load_model(fh.name)
    same = np.array_equal(median_regression(back, xs), mu)
print(f"serialization round trip preserves predictions: {same}")
