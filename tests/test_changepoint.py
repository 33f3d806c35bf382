import numpy as np
import pytest

from gluecop import (
    ClaytonCopula,
    DomainError,
    Example1Copula,
    FrankCopula,
    FrechetLowerCopula,
    FrechetUpperCopula,
    GumbelCopula,
    IndependenceCopula,
    PlackettCopula,
    UniformMarginal,
    EmpiricalMarginal,
    breakpoint_from_gluing_point,
    diagonal_crossings,
    glue,
    pqd_nqd_prescreen,
    simulate_example4,
)

PI = IndependenceCopula()
M = FrechetUpperCopula()
W = FrechetLowerCopula()


class TestDiagonalCrossings:
    def test_product_has_no_crossings(self):
        assert diagonal_crossings(PI).crossings == []

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_tent_copula_single_down_crossing(self, theta):
        report = diagonal_crossings(Example1Copula(theta))
        assert len(report.crossings) == 1
        c = report.crossings[0]
        assert c.direction == "down"
        assert c.t == pytest.approx(theta, abs=1e-3)

    def test_refinement_accuracy(self):
        c = Example1Copula(0.37)
        report = diagonal_crossings(c)
        t_star = report.crossings[0].t
        assert abs(c.diagonal(t_star) - t_star**2) <= 1e-6

    @pytest.mark.parametrize("pqd,nqd", [(M, W), (ClaytonCopula(4), FrankCopula(-6)),
                                         (GumbelCopula(3), PlackettCopula(0.1))])
    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_glued_pqd_nqd_crosses_at_gluing_point(self, pqd, nqd, theta):
        report = diagonal_crossings(glue([pqd, nqd], [theta]))
        assert len(report.crossings) == 1
        assert report.crossings[0].t == pytest.approx(theta, abs=1e-3)

    @pytest.mark.parametrize("c", [ClaytonCopula(2), FrankCopula(5), FrankCopula(-5),
                                   GumbelCopula(2), PlackettCopula(0.3), M, W],
                             ids=lambda c: repr(c))
    def test_totally_ordered_families_have_no_crossings(self, c):
        assert diagonal_crossings(c, tol=1e-6).crossings == []

    def test_crossings_increasing_and_alternating(self):
        g = glue([M, W, M, W], [0.25, 0.5, 0.75])
        report = diagonal_crossings(g)
        ts = [c.t for c in report.crossings]
        assert ts == sorted(ts)
        dirs = [c.direction for c in report.crossings]
        assert all(a != b for a, b in zip(dirs, dirs[1:]))

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            diagonal_crossings(PI, grid_n=32)

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, np.nan, np.inf])
    def test_negative_or_non_finite_tol(self, tol):
        with pytest.raises(DomainError, match="must be >= "):
            diagonal_crossings(PI, tol=tol)

    def test_zero_tol_is_allowed(self):
        assert diagonal_crossings(M, tol=0.0).crossings == []


class TestPrescreen:
    def test_frechet_upper_false(self):
        assert pqd_nqd_prescreen(M) is False

    def test_product_false(self):
        assert pqd_nqd_prescreen(PI) is False

    def test_tent_copula_true(self):
        assert pqd_nqd_prescreen(Example1Copula(0.5)) is True

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, np.nan, np.inf])
    def test_negative_or_non_finite_tol(self, tol):
        with pytest.raises(DomainError, match=r"^tol must be >= 0 and finite$"):
            pqd_nqd_prescreen(PI, tol=tol)

    def test_zero_tol_is_allowed(self):
        assert pqd_nqd_prescreen(M, tol=0.0) is False
        assert pqd_nqd_prescreen(Example1Copula(0.5), tol=0.0) is True


class TestBreakpointMapping:
    def test_identity_quantile(self):
        assert breakpoint_from_gluing_point(0.6, UniformMarginal()) == \
            pytest.approx(0.6)

    def test_affine_quantile(self):
        assert breakpoint_from_gluing_point(0.5, UniformMarginal(2, 4)) == \
            pytest.approx(3.0)

    def test_empirical_quantile_median(self):
        s = simulate_example4(2001, 0.1, seed=5)
        m = EmpiricalMarginal(s.x)
        assert breakpoint_from_gluing_point(0.5, m) == \
            pytest.approx(float(np.median(s.x)), abs=1e-3)

    def test_range_check(self):
        with pytest.raises(DomainError):
            breakpoint_from_gluing_point(1.0, UniformMarginal())
