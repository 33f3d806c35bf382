import numpy as np
import pytest

from gluecop import (
    ClaytonCopula,
    DomainError,
    EmpiricalCopula,
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
    check_copula_axioms,
    classify_quadrant,
    classify_regression_dependence,
    decompose,
    dependence_report,
    fit_segment,
    glue,
    make_copula,
    pseudo_observations,
    schweizer_wolff_sigma,
    simulate_copula,
    simulate_example1,
    spearman_rho,
)
from gluecop import copulas, dependence
from gluecop.copulas import FAMILY_CONSTRUCTORS, PARAMETRIC_FAMILIES
from gluecop.dependence import _rule
from gluecop.empirical import _FIT_RANGES, _invert_rho

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
        # the default rule of a smooth copula against 128 Gauss nodes
        x, w = np.polynomial.legendre.leggauss(128)
        t, w = 0.5 * (x + 1.0), 0.5 * w
        grid = c.cdf_grid(t, t)
        rho = 12.0 * float(w @ grid @ w) - 3.0
        sigma = 12.0 * float(w @ np.abs(grid - np.outer(t, t)) @ w)
        assert abs(spearman_rho(c) - rho) < 1e-4
        assert abs(schweizer_wolff_sigma(c) - sigma) < 1e-4


class TestQuadratureCache:
    def test_nodes_built_once_per_rule(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        _rule.cache_clear()
        first = spearman_rho(ClaytonCopula(2.0))
        for theta in np.linspace(0.5, 8.0, 30):
            spearman_rho(ClaytonCopula(theta))
            spearman_rho(FrankCopula(theta))
        assert calls == [64]
        assert spearman_rho(ClaytonCopula(2.0)) == first

    def test_slab_takes_its_parents_rule(self):
        smooth = decompose(FrankCopula(5.0), 0.4)[1]
        kinked = decompose(glue([ClaytonCopula(3.0), FrankCopula(-8.0)], [0.5]), 0.3)[1]
        assert _rule(smooth.smooth) is _rule(True)
        assert _rule(kinked.smooth) is _rule(False)

        def integral(rule):  # of C, unclamped: this piece is not a copula
            t, w = rule
            return float(w @ smooth._cdf_grid(t, t) @ w)

        # the midpoint error is O(1/n^2), so Richardson's step on 512 and
        # 1024 nodes is the reference: 64 Gauss nodes are far nearer it
        n = 1024
        midpoint = (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)
        coarse, fine = integral(_rule(False)), integral(midpoint)
        reference = (4.0 * fine - coarse) / 3.0
        assert abs(integral(_rule(True)) - reference) < 1e-10
        assert abs(coarse - reference) > 1e-7

    @pytest.mark.parametrize("c", [ClaytonCopula(2.0), M],
                             ids=lambda c: repr(c))
    def test_cached_nodes_are_read_only(self, c):
        t, w = _rule(c.smooth)
        assert _rule(c.smooth)[0] is t
        for a in (t, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5


#: one interior theta per parametric family, next to the fitting range ends
INTERIOR_THETA = {"clayton": 2.0, "frank": -6.0, "gumbel": 2.5, "fgm": -0.4,
                  "plackett": 4.0, "example1": 0.4}


def _quadrature_copulas():
    """Every family at both ends of each fitting range and one interior
    theta, a glued copula, the parabola's copula and an empirical copula."""
    out = []
    for family in FAMILY_CONSTRUCTORS:
        if family not in PARAMETRIC_FAMILIES:
            out.append(make_copula(family))
            continue
        ends = [th for bracket in _FIT_RANGES.get(family, {}).values()
                for th in bracket]
        out += [make_copula(family, th) for th in ends + [INTERIOR_THETA[family]]]
    out.append(glue([ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)],
                    [0.3, 0.65]))
    out.append(Example4Model().copula())
    out.append(EmpiricalCopula(pseudo_observations(simulate_example1(500, 0.4, seed=3))))
    return out


class TestQuadratureGrid:
    @pytest.mark.parametrize("c", _quadrature_copulas(), ids=repr)
    def test_equals_checked_cdf_grid_bit_for_bit(self, c):
        # the unchecked grid must hand _cdf the same arrays as cdf_grid: a
        # last-bit change in rho moves the fitted theta through the root finder
        t, w = _rule(c.smooth)
        rho = float(np.clip(12.0 * float(w @ c.cdf_grid(t, t) @ w) - 3.0, -1.0, 1.0))
        diff = np.abs(c.cdf_grid(t, t) - np.outer(t, t))
        sigma = float(np.clip(12.0 * float(w @ diff @ w), 0.0, 1.0))
        assert spearman_rho(c) == rho
        assert schweizer_wolff_sigma(c) == sigma


class TestRegressionGrid:
    @pytest.mark.parametrize("c", _quadrature_copulas(), ids=repr)
    def test_du_axes_equal_public_du_on_meshgrid(self, c, monkeypatch):
        steps = []
        monkeypatch.setattr(dependence, "_band_class",
                            lambda values, tol, classes: steps.append(values))
        classify_regression_dependence(c)
        t = np.arange(1, 65) / 65
        U, V = np.meshgrid(t, t, indexing="ij")
        assert steps[0].tobytes() == (-np.diff(c.du(U, V), axis=0)).tobytes()


class _ConstantGrid(copulas.Copula):
    """Not a copula: every library grid is filled with ``value``."""

    def __init__(self, value):
        self.value = value

    def _cdf_grid(self, us, vs):
        return np.full((us.size, vs.size), self.value)


class TestScalarClamps:
    @pytest.mark.parametrize("value,rho", [(1.0, 1.0), (0.0, -1.0)])
    def test_rho_clamped_to_its_range(self, value, rho):
        out = spearman_rho(_ConstantGrid(value))
        assert type(out) is float and out == rho

    def test_rho_inside_its_range_unchanged(self):
        t, w = _rule(_ConstantGrid(0.3).smooth)
        out = spearman_rho(_ConstantGrid(0.3))
        assert type(out) is float
        assert out == 12.0 * float(w @ np.full((64, 64), 0.3) @ w) - 3.0

    def test_sigma_clamped_to_its_range(self):
        out = schweizer_wolff_sigma(_ConstantGrid(1.0))
        assert type(out) is float and out == 1.0

    def test_sigma_zero_for_the_product_grid(self):
        out = schweizer_wolff_sigma(PI)
        assert type(out) is float and out == 0.0

    @pytest.mark.parametrize("measure", [spearman_rho, schweizer_wolff_sigma])
    def test_nan_stays_nan(self, measure):
        out = measure(_ConstantGrid(np.nan))
        assert type(out) is float and np.isnan(out)


class TestGridsCheckedOnce:
    @pytest.fixture()
    def unit_checks(self, monkeypatch):
        """The arguments of every ``_validate_unit`` call, in the modules
        that call it."""
        calls = []
        check = copulas._validate_unit

        def counting(*arrays):
            calls.append(arrays)
            check(*arrays)

        for module in (copulas, dependence):
            monkeypatch.setattr(module, "_validate_unit", counting)
        return calls

    def test_rule_nodes_checked_when_built(self, unit_checks):
        _rule.cache_clear()
        for theta in (2.0, 3.0):
            spearman_rho(ClaytonCopula(theta))
            schweizer_wolff_sigma(ClaytonCopula(theta))
        assert len(unit_checks) == 1
        assert unit_checks[0][0] is _rule(True)[0]

    def test_library_grids_are_not_checked(self, unit_checks):
        ps = simulate_copula(FrankCopula(-4.0), 300, seed=32)
        _invert_rho("gumbel", 0.5)  # builds the rule before counting
        unit_checks.clear()
        assert _invert_rho("gumbel", 0.5) is not None
        fit_segment(ps.u, ps.v)
        schweizer_wolff_sigma(FrankCopula(-3.0))
        classify_quadrant(ClaytonCopula(2.0))
        dependence_report(ClaytonCopula(2.0))
        check_copula_axioms(PlackettCopula(5.0), 33)
        assert unit_checks == []


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
