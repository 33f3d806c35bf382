"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with its measured error and runtime."""

import json
import time

import numpy as np
import pytest

from gluecop import (
    ClaytonCopula,
    Example4Model,
    FGMCopula,
    FrankCopula,
    FrechetLowerCopula,
    FrechetUpperCopula,
    GumbelCopula,
    IndependenceCopula,
    PlackettCopula,
    QuadrantClass,
    RegressionClass,
    RegressionModel,
    PiecewiseRegressionModel,
    UniformMarginal,
    check_copula_axioms,
    classify_quadrant,
    classify_regression_dependence,
    decompose,
    diagonal_crossings,
    glue,
    make_copula,
    median_regression,
    piecewise_regression,
    schweizer_wolff_sigma,
    simulate_example1,
    simulate_example4,
    spearman_rho,
    tent,
)
from gluecop.cli import main
from gluecop.copulas import _finite_difference_du
from oracles import tent_cdf

M = FrechetUpperCopula()
W = FrechetLowerCopula()
PI = IndependenceCopula()
UNIT = UniformMarginal()


def report(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} "
              f"[{detail}]")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_rank_correlation_oracles(capsys):
    start = time.perf_counter()
    worst = 0.0
    for theta in (0.25, 0.5, 0.75):
        c = make_copula("example1", theta)
        worst = max(worst, abs(spearman_rho(c) - (2 * theta - 1)),
                    abs(schweizer_wolff_sigma(c)
                        - (theta**2 + (theta - 1) ** 2)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 5.0
    report(capsys, 1, "rank-correlation oracles", ok,
           f"max err {worst:.2e} <= 1e-3, {elapsed:.2f}s < 5s")


def test_criterion_2_gluing_identity(capsys):
    start = time.perf_counter()
    t = np.linspace(0, 1, 101)
    U, V = np.meshgrid(t, t, indexing="ij")
    worst = 0.0
    for theta in (0.25, 0.5, 0.75):
        g = glue([M, W], [theta])
        worst = max(worst, float(np.max(np.abs(
            g.cdf(U, V) - tent_cdf(theta, U, V)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(capsys, 2, "gluing identity", ok,
           f"max err {worst:.2e} <= 1e-12, {elapsed:.2f}s < 1s")


def test_criterion_3_tent_regression(capsys):
    start = time.perf_counter()
    theta = 0.5
    xs = np.linspace(0, 1, 101)
    truth = tent(xs, theta)
    direct = RegressionModel(make_copula("example1", theta), UNIT, UNIT)
    err_direct = max(abs(median_regression(direct, x) - t_)
                     for x, t_ in zip(xs, truth))
    pw = PiecewiseRegressionModel((theta,), (M, W), UNIT, UNIT)
    err_pw = float(np.max(np.abs(piecewise_regression(pw, xs) - truth)))
    elapsed = time.perf_counter() - start
    ok = err_direct <= 1e-9 and err_pw <= 1e-8 and elapsed < 1.0
    report(capsys, 3, "tent regression", ok,
           f"direct {err_direct:.2e} <= 1e-9, piecewise {err_pw:.2e} <= 1e-8, "
           f"{elapsed:.2f}s < 1s")


def test_criterion_4_diagonal_change_point(capsys):
    start = time.perf_counter()
    worst_t = 0.0
    counts_ok = True
    for theta in (0.3, 0.6):
        r = diagonal_crossings(make_copula("example1", theta))
        counts_ok &= len(r.crossings) == 1
        if r.crossings:
            worst_t = max(worst_t, abs(r.crossings[0].t - theta))
    # diagonal branch formula: theta*t up to 1/(2-theta), then 2t-1
    t = np.linspace(0, 1, 1001)
    worst_d = 0.0
    for theta in (0.3, 0.6):
        expected = np.where(t <= 1.0 / (2.0 - theta), theta * t, 2 * t - 1)
        worst_d = max(worst_d, float(np.max(np.abs(
            make_copula("example1", theta).diagonal(t) - expected))))
    elapsed = time.perf_counter() - start
    ok = counts_ok and worst_t <= 1e-3 and worst_d <= 1e-12 and elapsed < 1.0
    report(capsys, 4, "diagonal change-point", ok,
           f"single crossing, loc err {worst_t:.2e} <= 1e-3, "
           f"diag err {worst_d:.2e} <= 1e-12, {elapsed:.2f}s < 1s")


@pytest.fixture(scope="module")
def parabola():
    return Example4Model(k=0.1)


def test_criterion_5_parabola_copula_construction(capsys, parabola):
    start = time.perf_counter()
    c = parabola.copula()
    t = np.linspace(0, 1, 41)
    margin_err = max(
        float(np.max(np.abs(c.cdf(t, np.ones_like(t)) - t))),
        float(np.max(np.abs(c.cdf(np.ones_like(t), t) - t))),
        float(np.max(np.abs(c.cdf(t, np.zeros_like(t))))),
        float(np.max(np.abs(c.cdf(np.zeros_like(t), t)))),
    )
    g = np.linspace(0.05, 0.95, 13)
    U, V = np.meshgrid(g, g, indexing="ij")
    du_err = float(np.max(np.abs(_finite_difference_du(c._cdf, U, V)
                                 - c.du(U, V))))
    r = diagonal_crossings(c, grid_n=256)
    cross_ok = len(r.crossings) == 1 and abs(r.crossings[0].t - 0.5) <= 0.02
    elapsed = time.perf_counter() - start
    ok = margin_err <= 1e-6 and du_err <= 1e-5 and cross_ok and elapsed < 60.0
    report(capsys, 5, "smooth copula construction", ok,
           f"margins {margin_err:.2e} <= 1e-6, du-vs-FD {du_err:.2e} <= 1e-5, "
           f"crossing at 0.5 +/- 0.02: {cross_ok}, {elapsed:.1f}s < 60s")


def test_criterion_6_parabola_decomposition(capsys, parabola):
    start = time.perf_counter()
    c = parabola.copula()
    p1, p2 = parabola.pieces()
    d1, d2 = decompose(c, 0.5)
    t21 = np.linspace(0.025, 0.975, 21)
    U, V = np.meshgrid(t21, t21, indexing="ij")
    piece_err = max(float(np.max(np.abs(p1.cdf(U, V) - d1.cdf(U, V)))),
                    float(np.max(np.abs(p2.cdf(U, V) - d2.cdf(U, V)))))
    t51 = np.linspace(0, 1, 51)
    U, V = np.meshgrid(t51, t51, indexing="ij")
    order_ok = bool(np.all(p1.cdf(U, V) <= U * V + 1e-12)
                    and np.all(p2.cdf(U, V) >= U * V - 1e-12))
    us = np.linspace(0.0, 1.0, 64)
    vs = np.arange(1, 17) / 17
    Us, Vs = np.meshgrid(us, vs, indexing="ij")
    mono_ok = bool(np.all(np.diff(p1.du(Us, Vs), axis=0) >= -1e-12)
                   and np.all(np.diff(p2.du(Us, Vs), axis=0) <= 1e-12))
    elapsed = time.perf_counter() - start
    ok = piece_err <= 1e-6 and order_ok and mono_ok and elapsed < 60.0
    report(capsys, 6, "decomposition into closed-form pieces", ok,
           f"piece err {piece_err:.2e} <= 1e-6, NQD/PQD ordering: {order_ok}, "
           f"du monotone per piece: {mono_ok}, {elapsed:.1f}s < 60s")


def test_criterion_7_parabola_regression_recovery(capsys, parabola):
    start = time.perf_counter()
    m = RegressionModel(parabola.copula(), parabola.marginal_x(),
                        parabola.marginal_y())
    xs = np.arange(1, 10) / 10
    err = max(abs(median_regression(m, x) - (x - 0.5) ** 2) for x in xs)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-2
    report(capsys, 7, "regression recovery", ok,
           f"max err {err:.2e} <= 1e-2, {elapsed:.1f}s")


def test_criterion_8_end_to_end_pipeline(capsys, tmp_path):
    start = time.perf_counter()
    oks, details = [], []

    def pipeline(tag, sample, truth_fn, lo, hi, x_lo, x_hi):
        data = tmp_path / f"{tag}.csv"
        data.write_text("x,y\n" + "\n".join(
            f"{float(a)!r},{float(b)!r}"
            for a, b in zip(sample.x, sample.y)) + "\n")
        out = tmp_path / f"{tag}-analyze.json"
        assert main(["analyze", str(data), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        cands = doc["candidates"]
        cand_ok = len(cands) == 1 and lo <= cands[0] <= hi
        model = tmp_path / f"{tag}-model.json"
        assert main(["fit", str(data), "--out-model", str(model)]) == 0
        pred = tmp_path / f"{tag}-pred.csv"
        assert main(["predict", str(model), "--x-min", repr(x_lo),
                     "--x-max", repr(x_hi), "--num", "181",
                     "--out", str(pred)]) == 0
        rows = pred.read_text().strip().split("\n")[1:]
        arr = np.array([[float(v) for v in r.split(",")] for r in rows])
        rmse = float(np.sqrt(np.mean((arr[:, 1] - truth_fn(arr[:, 0])) ** 2)))
        rmse_ok = rmse <= 0.05
        oks.append(cand_ok and rmse_ok)
        details.append(f"{tag}: candidate {cands} in [{lo}, {hi}]: {cand_ok}, "
                       f"RMSE {rmse:.3f} <= 0.05")
        return model

    s1 = simulate_example1(5000, 0.6, seed=42)
    pipeline("tent", s1, lambda x: tent(x, 0.6), 0.55, 0.65, 0.02, 0.98)
    # segment fit quality read back through the fitting API
    from gluecop import fit_piecewise
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        fit1 = fit_piecewise(s1)
    rho_ok = (fit1.segments[0].rho_hat > 0.95
              and fit1.segments[1].rho_hat < -0.95)
    oks.append(rho_ok)
    details.append(f"tent segment rho_hat "
                   f"{fit1.segments[0].rho_hat:.3f}/"
                   f"{fit1.segments[1].rho_hat:.3f}: {rho_ok}")

    s4 = simulate_example4(5000, 0.1, seed=42)
    pipeline("parabola", s4, lambda x: (x - 0.5) ** 2, 0.45, 0.55, 0.05, 0.95)

    elapsed = time.perf_counter() - start
    ok = all(oks) and elapsed < 120.0
    report(capsys, 8, "end-to-end pipeline", ok,
           "; ".join(details) + f"; {elapsed:.1f}s < 120s")


def test_criterion_9_property_suites(capsys):
    start = time.perf_counter()
    closed_form = [PI, M, W, ClaytonCopula(0.5), ClaytonCopula(4.0),
                   FrankCopula(-6.0), FrankCopula(6.0), GumbelCopula(1.5),
                   GumbelCopula(4.0), FGMCopula(-1.0), FGMCopula(1.0),
                   PlackettCopula(0.2), PlackettCopula(20.0),
                   make_copula("example1", 0.3), make_copula("example1", 0.7),
                   glue([M, W], [0.4])]
    axioms_ok = all(check_copula_axioms(c, 41).passed(1e-9)
                    for c in closed_form)
    quadrature_built = [Example4Model(k=0.1).copula()]
    axioms_ok &= all(check_copula_axioms(c, 21).passed(1e-6)
                     for c in quadrature_built)

    sweep = closed_form
    sigma_ok = all(abs(spearman_rho(c)) <= schweizer_wolff_sigma(c) + 2e-3
                   for c in sweep)

    consistency_ok = True
    for c in sweep:
        reg = classify_regression_dependence(c)
        quad = classify_quadrant(c)
        if reg is RegressionClass.PRD:
            consistency_ok &= quad is QuadrantClass.PQD
        if reg is RegressionClass.NRD:
            consistency_ok &= quad is QuadrantClass.NQD

    mono_ok = True
    xs = np.linspace(0.02, 0.98, 49)
    for c, sign in ((ClaytonCopula(3.0), 1), (GumbelCopula(2.5), 1),
                    (FrankCopula(-5.0), -1)):
        m = RegressionModel(c, UNIT, UNIT)
        mu = np.array([median_regression(m, x) for x in xs])
        mono_ok &= bool(np.all(sign * np.diff(mu) >= -1e-8))

    elapsed = time.perf_counter() - start
    ok = axioms_ok and sigma_ok and consistency_ok and mono_ok
    report(capsys, 9, "property suites", ok,
           f"axioms: {axioms_ok}, |rho| <= sigma: {sigma_ok}, "
           f"PRD=>PQD/NRD=>NQD: {consistency_ok}, monotone regression: "
           f"{mono_ok}, {elapsed:.1f}s")
