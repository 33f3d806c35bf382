import numpy as np
import pytest

from gluecop import (
    ClaytonCopula,
    DomainError,
    FGMCopula,
    FrankCopula,
    FrechetLowerCopula,
    FrechetUpperCopula,
    GumbelCopula,
    IndependenceCopula,
    PlackettCopula,
    QuadrantClass,
    RegressionClass,
    classify_quadrant,
    classify_regression_dependence,
    dependence_report,
    make_copula,
    schweizer_wolff_sigma,
    spearman_rho,
)
from gluecop.dependence import _quadrature_nodes, _rule

PI = IndependenceCopula()
M = FrechetUpperCopula()
W = FrechetLowerCopula()

ORDERED_SWEEP = [
    ClaytonCopula(0.5), ClaytonCopula(2.0), ClaytonCopula(8.0),
    FrankCopula(-8.0), FrankCopula(-2.0), FrankCopula(2.0), FrankCopula(8.0),
    GumbelCopula(1.5), GumbelCopula(4.0),
    FGMCopula(-1.0), FGMCopula(0.5), FGMCopula(1.0),
    PlackettCopula(0.2), PlackettCopula(5.0), PlackettCopula(50.0),
]


class TestSpearman:
    def test_product_is_zero(self):
        assert spearman_rho(PI) == pytest.approx(0.0, abs=1e-12)

    def test_frechet_upper_is_one(self):
        # closed form: double integral of min(u,v) is 1/3
        assert spearman_rho(M) == pytest.approx(1.0, abs=2e-3)

    def test_frechet_lower_is_minus_one(self):
        assert spearman_rho(W) == pytest.approx(-1.0, abs=2e-3)

    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_tent_copula_formula(self, theta):
        assert spearman_rho(make_copula("example1", theta)) == pytest.approx(
            2 * theta - 1, abs=1e-3)

    def test_fgm_is_theta_over_three(self):
        assert spearman_rho(FGMCopula(0.9)) == pytest.approx(0.3, abs=1e-6)


class TestSchweizerWolff:
    def test_product_is_zero(self):
        assert schweizer_wolff_sigma(PI) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_tent_copula_formula(self, theta):
        assert schweizer_wolff_sigma(make_copula("example1", theta)) == pytest.approx(
            theta**2 + (theta - 1) ** 2, abs=1e-3)

    def test_tent_at_half_attains_minimum(self):
        assert schweizer_wolff_sigma(make_copula("example1", 0.5)) == pytest.approx(
            0.5, abs=1e-3)

    @pytest.mark.parametrize("c", ORDERED_SWEEP + [PI, M, W,
                                                   make_copula("example1", 0.3)],
                             ids=lambda c: repr(c))
    def test_sigma_dominates_abs_rho(self, c):
        assert abs(spearman_rho(c)) <= schweizer_wolff_sigma(c) + 2e-3


class TestQuadrantClassification:
    def test_frechet_upper_pqd(self):
        assert classify_quadrant(M) is QuadrantClass.PQD

    def test_frechet_lower_nqd(self):
        assert classify_quadrant(W) is QuadrantClass.NQD

    def test_product_independent_like(self):
        assert classify_quadrant(PI) is QuadrantClass.INDEPENDENT_LIKE

    def test_tent_copula_neither(self):
        assert classify_quadrant(make_copula("example1", 0.5)) is QuadrantClass.NEITHER

    @pytest.mark.parametrize("c", ORDERED_SWEEP, ids=lambda c: repr(c))
    def test_ordered_families_never_neither(self, c):
        assert classify_quadrant(c) is not QuadrantClass.NEITHER

    def test_pqd_implies_sigma_equals_rho(self):
        c = ClaytonCopula(3.0)
        assert classify_quadrant(c) is QuadrantClass.PQD
        assert schweizer_wolff_sigma(c) == pytest.approx(spearman_rho(c), abs=2e-3)

    def test_nqd_implies_sigma_equals_minus_rho(self):
        c = FrankCopula(-5.0)
        assert classify_quadrant(c) is QuadrantClass.NQD
        assert schweizer_wolff_sigma(c) == pytest.approx(-spearman_rho(c), abs=2e-3)


class TestRegressionClassification:
    def test_product_constant(self):
        assert classify_regression_dependence(PI) is RegressionClass.CONSTANT

    def test_frechet_upper_prd(self):
        assert classify_regression_dependence(M) is RegressionClass.PRD

    def test_frank_negative_nrd(self):
        assert classify_regression_dependence(FrankCopula(-5.0)) is RegressionClass.NRD

    def test_tent_copula_neither(self):
        assert classify_regression_dependence(make_copula("example1", 0.5)) is \
            RegressionClass.NEITHER

    @pytest.mark.parametrize("c", ORDERED_SWEEP + [M, W], ids=lambda c: repr(c))
    def test_prd_implies_pqd_and_nrd_implies_nqd(self, c):
        reg = classify_regression_dependence(c)
        quad = classify_quadrant(c)
        if reg is RegressionClass.PRD:
            assert quad is QuadrantClass.PQD
        if reg is RegressionClass.NRD:
            assert quad is QuadrantClass.NQD


class TestQuadratureConvergence:
    @pytest.mark.parametrize("c", [ClaytonCopula(2.0), FrankCopula(3.0),
                                   GumbelCopula(2.0), FGMCopula(0.5),
                                   PlackettCopula(3.0)],
                             ids=lambda c: repr(c))
    def test_doubling_nodes_is_stable(self, c):
        assert abs(spearman_rho(c, 64) - spearman_rho(c, 128)) < 1e-4
        assert abs(schweizer_wolff_sigma(c, 64) - schweizer_wolff_sigma(c, 128)) < 1e-4


class TestQuadratureCache:
    def test_nodes_built_once_per_size(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        _rule.cache_clear()
        first = spearman_rho(ClaytonCopula(2.0), 24)
        for theta in np.linspace(0.5, 8.0, 30):
            spearman_rho(ClaytonCopula(theta), 24)
            spearman_rho(FrankCopula(theta), 24)
        assert calls == [24]
        assert spearman_rho(ClaytonCopula(2.0), 24) == first

    @pytest.mark.parametrize("c", [ClaytonCopula(2.0), M],
                             ids=lambda c: repr(c))
    def test_cached_nodes_are_read_only(self, c):
        t, w = _quadrature_nodes(c, None)
        assert _quadrature_nodes(c, None)[0] is t
        for a in (t, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5


class TestReport:
    def test_report_fields(self):
        r = dependence_report(make_copula("example1", 0.25))
        assert r.rho == pytest.approx(-0.5, abs=1e-3)
        assert r.sigma == pytest.approx(0.625, abs=1e-3)
        assert r.quadrant_class is QuadrantClass.NEITHER
        assert r.regression_class is RegressionClass.NEITHER
        d = r.to_dict()
        assert d["quadrant_class"] == "NEITHER"
        assert set(d) == {"rho", "sigma", "quadrant_class", "regression_class"}
        assert r.grid_n == 64


BAD_TOLS = pytest.mark.parametrize("tol", [-1.0, -1e-12, np.nan, np.inf, -np.inf])
TOL_ENTRY_POINTS = pytest.mark.parametrize(
    "entry", [classify_quadrant, classify_regression_dependence, dependence_report],
    ids=["quadrant", "regression", "report"])


class TestTolerance:
    @TOL_ENTRY_POINTS
    @BAD_TOLS
    def test_negative_or_non_finite_tol(self, entry, tol):
        with pytest.raises(DomainError, match=r"^tol must be >= 0 and finite$"):
            entry(ClaytonCopula(2.0), tol=tol)

    def test_zero_tol_is_allowed(self):
        r = dependence_report(ClaytonCopula(2.0), tol=0.0)
        assert r.tolerance == 0.0
        assert r.quadrant_class is QuadrantClass.PQD
        assert classify_quadrant(PI, tol=0.0) is QuadrantClass.INDEPENDENT_LIKE
        assert classify_regression_dependence(M, tol=0.0) is RegressionClass.PRD
