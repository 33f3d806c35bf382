from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gluecop import (
    ClaytonCopula,
    DomainError,
    EmpiricalCopula,
    FGMCopula,
    FrankCopula,
    FrechetLowerCopula,
    FrechetUpperCopula,
    GumbelCopula,
    IndependenceCopula,
    ParameterError,
    PlackettCopula,
    check_copula_axioms,
    conditional_quantile,
    decompose,
    dependence_report,
    glue,
    make_copula,
    schweizer_wolff_sigma,
    simulate_copula,
    spearman_rho,
)
from gluecop.copulas import (CLAYTON_NEAR, FRANK_NEAR, PLACKETT_NEAR, Copula,
                             _finite_difference_du)
from gluecop.empirical import _FIT_RANGES, _range_end_rho
from oracles import bisection_quantile

PI = IndependenceCopula()
M = FrechetUpperCopula()
W = FrechetLowerCopula()

SMOOTH_FAMILIES = [
    ClaytonCopula(0.5), ClaytonCopula(2.0), ClaytonCopula(8.0),
    FrankCopula(-8.0), FrankCopula(-2.0), FrankCopula(2.0), FrankCopula(8.0),
    GumbelCopula(1.0), GumbelCopula(1.5), GumbelCopula(4.0),
    FGMCopula(-1.0), FGMCopula(-0.3), FGMCopula(0.5), FGMCopula(1.0),
    PlackettCopula(0.2), PlackettCopula(5.0), PlackettCopula(50.0),
]
#: past where the closed forms overflow, so that C and du fall back to M
LARGE_THETA = [ClaytonCopula(200.0), ClaytonCopula(2000.0),
               GumbelCopula(200.0), GumbelCopula(2000.0)]
ALL_CLOSED_FORM = SMOOTH_FAMILIES + [
    PI, M, W,
    *(make_copula("example1", theta) for theta in (0.25, 0.5, 0.75)),
    *LARGE_THETA,
]
#: three smooth pieces glued at two points of the 33-point u grid below
GLUED_SMOOTH = glue([ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)],
                    [0.25, 0.625])
#: copulas whose bisection reaches ``_du`` through another copula's: a
#: ``decompose`` slab of each kind, a finite-difference empirical ``_du`` and
#: a glued piece (at 0.5, 0.75 of its slab) inside a glued copula
UNCHECKED_DU = [
    decompose(FrankCopula(-8.0), 0.4)[1],
    decompose(make_copula("example1", 0.5), 0.25)[0],
    EmpiricalCopula(simulate_copula(ClaytonCopula(2.0), 300, seed=4)),
    glue([FrankCopula(4.0), glue([ClaytonCopula(3.0), W, GumbelCopula(3.0)],
                                 [0.5, 0.75])], [0.5]),
]


class TestEval:
    def test_product(self):
        assert PI.cdf(0.3, 0.5) == pytest.approx(0.15)

    def test_frechet_upper(self):
        assert M.cdf(0.3, 0.5) == 0.3

    def test_example1_middle_branch(self):
        # theta*v = 0.2 < u = 0.25 < 1 - (1-theta)*v = 0.8
        assert make_copula("example1", 0.5).cdf(0.25, 0.4) == pytest.approx(0.2)

    def test_example1_outer_branches(self):
        c = make_copula("example1", 0.5)
        assert c.cdf(0.1, 0.4) == pytest.approx(0.1)
        assert c.cdf(0.9, 0.5) == pytest.approx(0.4)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            PI.cdf(1.2, 0.5)
        with pytest.raises(DomainError):
            PI.cdf(0.5, -0.1)
        with pytest.raises(DomainError):
            PI.du(np.nan, 0.5)

    @pytest.mark.parametrize("c", ALL_CLOSED_FORM + [PlackettCopula(1e4)],
                             ids=lambda c: repr(c))
    def test_within_frechet_bounds(self, c):
        # points within 1e-12 of the edges catch rounding at large theta
        t = np.r_[np.linspace(0, 1, 33), 1e-12, 1 - 1e-12]
        U, V = np.meshgrid(t, t, indexing="ij")
        vals = c.cdf(U, V)
        assert np.all(vals >= np.maximum(U + V - 1, 0) - 1e-12)
        assert np.all(vals <= np.minimum(U, V) + 1e-12)


GLUED = glue([ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)],
             [0.3, 0.65])
GRID_FAMILIES = ALL_CLOSED_FORM + [
    GLUED, *decompose(GLUED, 0.3), *decompose(FrankCopula(5.0), 0.4),
    *decompose(make_copula("example1", 0.4), 0.4),
]


class TestCdfGrid:
    @pytest.mark.parametrize("c", GRID_FAMILIES, ids=lambda c: repr(c))
    def test_equals_cdf_on_meshgrid(self, c):
        x, _ = np.polynomial.legendre.leggauss(64)
        axes = [0.5 * (x + 1.0), (np.arange(512) + 0.5) / 512,
                np.linspace(0.0, 1.0, 33),
                np.sort(np.random.default_rng(5).uniform(size=41))]
        for us in axes:
            for vs in (us, axes[-1]):
                U, V = np.meshgrid(us, vs, indexing="ij")
                np.testing.assert_array_equal(c.cdf_grid(us, vs), c.cdf(U, V))

    @pytest.mark.parametrize("c", GRID_FAMILIES, ids=lambda c: repr(c))
    @pytest.mark.parametrize("n,m", [(7, 5), (1, 64), (64, 1), (0, 64), (64, 0)])
    def test_axes_of_any_length(self, c, n, m):
        # _cdf sees a (n, 1) column and a (1, m) row; the edges 0 and 1 are
        # where the large-theta fallbacks and the grounded branches act
        rng = np.random.default_rng(10 * n + m)
        us, vs = (np.sort(np.r_[0.0, 1.0, rng.uniform(size=k - 2)]) if k >= 2
                  else rng.uniform(size=k) for k in (n, m))
        grid = c.cdf_grid(us, vs)
        assert grid.shape == (n, m)
        U, V = np.meshgrid(us, vs, indexing="ij")
        assert grid.tobytes() == c.cdf(U, V).tobytes()

    @pytest.mark.parametrize("c", [PI, GLUED, decompose(GLUED, 0.3)[1]],
                             ids=lambda c: repr(c))
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.2])
    def test_rejects_bad_axis(self, c, bad):
        ok = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            c.cdf_grid(np.append(ok, bad), ok)
        with pytest.raises(DomainError):
            c.cdf_grid(ok, np.append(ok, bad))


class TestParameters:
    @pytest.mark.parametrize("family,bad", [
        ("clayton", 0.0), ("clayton", -1.0),
        ("frank", 0.0),
        ("gumbel", 0.5),
        ("fgm", 1.5), ("fgm", -2.0),
        ("plackett", 1.0), ("plackett", -3.0),
        ("example1", 0.0), ("example1", 1.0),
    ])
    def test_inadmissible_rejected_at_construction(self, family, bad):
        with pytest.raises(ParameterError):
            make_copula(family, bad)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            make_copula("gaussian", 0.5)

    def test_parameterless_takes_no_theta(self):
        with pytest.raises(ParameterError):
            make_copula("product", 0.5)


class TestDu:
    def test_product_du_is_v(self):
        assert PI.du(0.123, 0.77) == pytest.approx(0.77)

    def test_frechet_upper_steps(self):
        assert M.du(0.2, 0.7) == 1.0
        assert M.du(0.7, 0.2) == 0.0

    def test_frechet_lower_steps(self):
        assert W.du(0.2, 0.7) == 0.0
        assert W.du(0.7, 0.7) == 1.0

    def test_clayton_matches_finite_difference(self):
        c = ClaytonCopula(2.0)
        fd = _finite_difference_du(c._cdf, np.array(0.4), np.array(0.6))
        assert c.du(0.4, 0.6) == pytest.approx(float(fd), abs=1e-6)

    @pytest.mark.parametrize("c", SMOOTH_FAMILIES, ids=lambda c: repr(c))
    def test_closed_form_du_matches_finite_difference(self, c):
        t = np.linspace(0.05, 0.95, 19)
        U, V = np.meshgrid(t, t, indexing="ij")
        fd = _finite_difference_du(c._cdf, U, V)
        assert np.max(np.abs(np.clip(fd, 0, 1) - c.du(U, V))) < 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", LARGE_THETA,
                             ids=lambda c: f"{c.name}-{c.theta:g}")
    def test_large_theta_tends_to_frechet_upper(self, c):
        assert c.cdf(0.3, 0.4) == pytest.approx(0.3, abs=1e-3)
        t = np.linspace(0.0, 1.0, 101)
        U, V = np.meshgrid(t, t, indexing="ij")
        assert np.all(np.isfinite(c.du(U, V)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", [1e16, 1e20, 1e300, 1e-17, 1e-300], ids=repr)
    def test_extreme_plackett_falls_back_to_its_bound(self, theta):
        # the closed form cancels to NaN on the diagonal; there C is within
        # 1/(2 + 2 sqrt(t)), t = max(theta, 1/theta), of M or W
        c, bound = PlackettCopula(theta), (M if theta > 1 else W)
        t = np.linspace(0.0, 1.0, 33)
        U, V = np.meshgrid(t, t, indexing="ij")
        np.testing.assert_allclose(c.cdf_grid(t, t), bound.cdf_grid(t, t),
                                   rtol=0, atol=1e-8)
        assert np.all(np.isfinite(c.du(U, V)))
        assert (conditional_quantile(c, 0.3, 0.5)
                == conditional_quantile(bound, 0.3, 0.5))
        assert spearman_rho(c) == (1.0 if theta > 1 else -1.0)
        assert schweizer_wolff_sigma(c) == 1.0

    @pytest.mark.parametrize("c", ALL_CLOSED_FORM, ids=lambda c: repr(c))
    def test_du_nondecreasing_in_v(self, c):
        t = np.linspace(0.02, 0.98, 49)
        U, V = np.meshgrid(t, t, indexing="ij")
        D = c.du(U, V)
        assert np.min(np.diff(D, axis=1)) >= -1e-9

    def test_finite_difference_fallback(self):
        class NoDu(Copula):
            def _cdf(self, u, v):
                return u * v
        c = NoDu()
        assert c.du(0.3, 0.8) == pytest.approx(0.8, abs=1e-6)
        # one-sided at boundaries
        assert c.du(0.0, 0.8) == pytest.approx(0.8, abs=1e-5)
        assert c.du(1.0, 0.8) == pytest.approx(0.8, abs=1e-5)


class TestConditional:
    def test_example1_step_location(self):
        # conditional CDF of V | U=0.25 jumps 0 -> 1 at v = u/theta = 0.5
        c = make_copula("example1", 0.5)
        assert c.du(0.25, 0.49) == 0.0
        assert c.du(0.25, 0.51) == 1.0

    def test_quantile_product(self):
        assert conditional_quantile(PI, 0.7, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_quantile_frechet_upper(self):
        assert conditional_quantile(M, 0.3, 0.5) == pytest.approx(0.3, abs=1e-9)

    def test_quantile_frechet_lower(self):
        assert conditional_quantile(W, 0.3, 0.5) == pytest.approx(0.7, abs=1e-9)

    def test_quantile_vectorized(self):
        u = np.array([0.2, 0.5, 0.8])
        v = conditional_quantile(M, u, 0.5)
        assert np.allclose(v, u, atol=1e-9)

    @pytest.mark.parametrize("c", ALL_CLOSED_FORM + [GLUED_SMOOTH] + UNCHECKED_DU,
                             ids=lambda c: repr(c))
    def test_quantile_is_the_34_step_bisection(self, c):
        u, p = np.meshgrid(np.linspace(0, 1, 33), np.linspace(0, 1, 17),
                           indexing="ij")
        assert np.array_equal(conditional_quantile(c, u, p),
                              bisection_quantile(c, u, p))
        # a scalar u, alone or broadcast against p, gives the array call's
        # bits; p = du(u, 1/2) puts flat stretches of du, where the last bit
        # of du decides each step, into the bracket
        for u0 in (0.01, 0.25, 0.5, 0.625, 0.99):
            p0 = c.du(u0, 0.5)
            assert conditional_quantile(c, u0, p0) == bisection_quantile(c, u0, p0)
            assert np.array_equal(conditional_quantile(c, u0, p[0]),
                                  bisection_quantile(c, u0, p[0]))

    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(0.01, 0.99), v=st.floats(0.01, 0.99),
           theta=st.floats(0.2, 8.0))
    @example(u=0.01, v=0.5, theta=6.0540158930013295)  # du(u, v) = 1 - 6e-11
    def test_galois_inequality_clayton(self, u, v, theta):
        # generalized inverse: quantile(du(u, v)) <= v for continuous cases
        c = ClaytonCopula(theta)
        p = c.du(u, v)
        assert conditional_quantile(c, u, p) <= v + 1e-8


class TestDiagonal:
    def test_product(self):
        assert PI.diagonal(0.5) == pytest.approx(0.25)

    def test_example1_branches(self):
        c = make_copula("example1", 0.5)
        assert c.diagonal(0.4) == pytest.approx(0.2)    # theta*t branch
        assert c.diagonal(0.8) == pytest.approx(0.6)    # 2t - 1 branch

    @pytest.mark.parametrize("c", ALL_CLOSED_FORM, ids=lambda c: repr(c))
    def test_diagonal_frechet_bounds(self, c):
        t = np.linspace(0, 1, 1001)
        d = c.diagonal(t)
        assert np.all(d >= np.maximum(2 * t - 1, 0) - 1e-12)
        assert np.all(d <= t + 1e-12)


class TestAxioms:
    def test_product_passes_exactly(self):
        report = check_copula_axioms(PI, 51)
        assert report.worst == pytest.approx(0.0, abs=1e-15)

    def test_example1_passes(self):
        assert check_copula_axioms(make_copula("example1", 0.3), 101).passed(1e-12)

    def test_counterexample_fails_groundedness(self):
        class Bad(Copula):
            def _cdf(self, u, v):
                return u * v - 0.1
        report = check_copula_axioms(Bad(), 21)
        assert report.grounded == pytest.approx(0.1)
        assert not report.passed(1e-6)

    @pytest.mark.parametrize("c", ALL_CLOSED_FORM, ids=lambda c: repr(c))
    def test_all_builtin_families_pass(self, c):
        assert check_copula_axioms(c, 101).passed(1e-9)

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            check_copula_axioms(PI, 1)


# ---------------------------------------------------------------------------
# near independence
# ---------------------------------------------------------------------------

def _decimal_cdf(family, theta, u, v):
    """C(u, v) in 400-digit decimal arithmetic from the textbook closed form,
    as a float: enough digits for theta - 0 (Plackett: theta - 1) down to
    1e-300."""
    with localcontext() as ctx:
        ctx.prec = 400
        th, u, v = Decimal(theta), Decimal(u), Decimal(v)
        if family == "clayton":
            c = (u ** -th + v ** -th - 1) ** (-1 / th)
        elif family == "frank":
            e = lambda t: (-th * t).exp() - 1  # noqa: E731
            c = -(1 + e(u) * e(v) / e(Decimal(1))).ln() / th
        else:
            s = 1 + (th - 1) * (u + v)
            c = (s - (s * s - 4 * th * (th - 1) * u * v).sqrt()) / (2 * (th - 1))
        return float(c)


def _decimal_clayton_du(theta, u, v):
    with localcontext() as ctx:
        ctx.prec = 400
        th, u, v = Decimal(theta), Decimal(u), Decimal(v)
        return float(u ** (-th - 1) * (u ** -th + v ** -th - 1) ** (-1 / th - 1))


def _inward(end, towards):
    return float(np.nextafter(end, towards))


#: theta past each fitting range towards independence: the float next to the
#: range end, then decades down to 1e-300 (Plackett: theta - 1 down to 1e-15,
#: and the floats next to 1)
NEAR_THETA = {
    "clayton": [_inward(1e-3, 0.0), *(10.0 ** -k for k in range(4, 301))],
    "frank": [_inward(1e-6, 0.0), *(10.0 ** -k for k in range(7, 301))],
    "frank-": [_inward(-1e-6, 0.0), *(-(10.0 ** -k) for k in range(7, 301))],
    "plackett": [_inward(1.0 + 1e-6, 1.0), *(1.0 + 10.0 ** -k for k in range(7, 16)),
                 1.0 + 2.0 ** -52],
    "plackett-": [_inward(1.0 - 1e-6, 1.0), *(1.0 - 10.0 ** -k for k in range(7, 16)),
                  1.0 - 2.0 ** -53],
}
_POINTS = [(0.3, 0.7), (0.5, 0.5), (0.05, 0.9), (0.9, 0.95), (1e-8, 0.4),
           (0.999, 0.001), (0.62, 1e-12)]


def _family(key):
    return key.rstrip("-")


class TestNearIndependence:
    def test_thresholds_are_the_fit_range_ends(self):
        assert _FIT_RANGES["clayton"]["+"][0] == CLAYTON_NEAR
        assert _FIT_RANGES["frank"]["+"][0] == FRANK_NEAR
        assert _FIT_RANGES["frank"]["-"][1] == -FRANK_NEAR
        assert _FIT_RANGES["plackett"]["+"][0] == 1.0 + PLACKETT_NEAR
        assert _FIT_RANGES["plackett"]["-"][1] == 1.0 - PLACKETT_NEAR

    # the rho of each range end, as the closed forms gave it before the near
    # forms existed: no rho inversion, and so no fit, sees them
    @pytest.mark.parametrize("family, key, rho", [
        ("clayton", "+", 0.0007496251809939736),
        ("frank", "+", 1.666666671340522e-07),
        ("frank", "-", -1.6666666580178457e-07),
        ("plackett", "+", 3.333241949121657e-07),
        ("plackett", "-", -3.333335056865394e-07),
    ])
    def test_range_ends_keep_the_closed_forms(self, family, key, rho):
        lo, hi = _range_end_rho(family, key)
        assert (lo if key == "+" else hi) == rho

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", NEAR_THETA)
    def test_cdf_matches_a_high_precision_oracle(self, key):
        family = _family(key)
        thetas = NEAR_THETA[key]
        for theta in (thetas[0], thetas[1], thetas[len(thetas) // 2], thetas[-1]):
            c = make_copula(family, theta)
            for u, v in _POINTS:
                want = _decimal_cdf(family, theta, u, v)
                assert c.cdf(u, v) == pytest.approx(want, rel=4e-16, abs=0), (theta, u, v)

    @pytest.mark.filterwarnings("error")
    def test_clayton_du_matches_a_high_precision_oracle(self):
        for theta in NEAR_THETA["clayton"][::37]:
            c = ClaytonCopula(theta)
            for u, v in _POINTS:
                want = _decimal_clayton_du(theta, u, v)
                assert c.du(u, v) == pytest.approx(want, rel=4e-16, abs=0), (theta, u, v)

    @pytest.mark.parametrize("key", NEAR_THETA)
    def test_rho_has_the_sign_of_theta_and_shrinks_with_it(self, key):
        family, sign = _family(key), (-1.0 if key.endswith("-") else 1.0)
        rhos = [spearman_rho(make_copula(family, theta)) for theta in NEAR_THETA[key]]
        assert all(sign * rho >= 0.0 for rho in rhos)
        assert all(abs(b) <= abs(a) for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", NEAR_THETA)
    def test_smallest_theta_is_independent_like(self, key):
        c = make_copula(_family(key), NEAR_THETA[key][-1])
        report = dependence_report(c, 64)
        assert report.quadrant_class.value == "INDEPENDENT-LIKE"
        assert report.regression_class.value == "CONSTANT"
        assert abs(report.rho) <= report.sigma < 1e-15
        assert check_copula_axioms(c, 101).passed(1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", NEAR_THETA)
    def test_near_forms_are_copulas(self, key):
        for theta in NEAR_THETA[key][:3]:
            c = make_copula(_family(key), theta)
            assert check_copula_axioms(c, 101).passed(1e-15)
            t = np.linspace(0.05, 0.95, 19)
            fd = _finite_difference_du(c._cdf, t[:, None], t[None, :])
            assert np.max(np.abs(fd - c.du(t[:, None], t[None, :]))) < 1e-9
