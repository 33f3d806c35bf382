import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from gluecop import (
    ClaytonCopula,
    DomainError,
    Example4Copula,
    Example4Model,
    ParameterError,
    RegressionModel,
    Sample,
    check_copula_axioms,
    classify_regression_dependence,
    make_copula,
    mean_regression,
    simulate_copula,
    simulate_example1,
    simulate_example4,
    tent,
)
from gluecop.copulas import _finite_difference_du
from gluecop.dependence import _rule
from gluecop.regression import MEAN_BLOCK, MEAN_NODES


class TestSample:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            Sample(x=[1.0, 2.0], y=[1.0])

    def test_nonfinite(self):
        with pytest.raises(DomainError):
            Sample(x=[1.0, np.nan], y=[1.0, 2.0])

    def test_n(self):
        assert Sample(x=[1.0, 2.0, 3.0], y=[0.0, 1.0, 0.0]).n == 3


@pytest.mark.parametrize("n, seed, message", [
    (5, -1, "^seed must be >= 0$"),
    (0, 0, "^n must be >= 1$"),
    (-1, 0, "^n must be >= 1$"),
], ids=["seed-1", "n0", "n-1"])
@pytest.mark.parametrize("simulate", [
    lambda n, seed: simulate_example1(n, 0.5, seed),
    lambda n, seed: simulate_example4(n, 0.1, seed),
    lambda n, seed: simulate_copula(ClaytonCopula(2.0), n, seed),
], ids=["example1", "example4", "copula"])
def test_negative_seed_is_domain_error(simulate, n, seed, message):
    assert simulate(5, 0) is not None
    with pytest.raises(DomainError, match=message):
        simulate(n, seed)


class TestTentModel:
    def test_curve_values(self):
        assert tent(0.25, 0.5) == pytest.approx(0.5)
        assert tent(0.5, 0.5) == pytest.approx(1.0)
        assert tent(0.75, 0.5) == pytest.approx(0.5)
        assert tent(0.9, 0.3) == pytest.approx(1.0 / 7.0)

    def test_copula_branches(self):
        c = make_copula("example1", 0.5)
        # first branch: C = u on {u <= theta v}
        assert c.cdf(0.1, 0.4) == pytest.approx(0.1)
        # middle branch: C = theta v
        assert c.cdf(0.5, 0.6) == pytest.approx(0.3)
        # third branch: C = u + v - 1
        assert c.cdf(0.9, 0.9) == pytest.approx(0.8)

    def test_copula_axioms(self):
        assert check_copula_axioms(make_copula("example1", 0.3), 101).passed(1e-12)

    def test_simulation_lies_on_tent(self):
        s = simulate_example1(500, 0.4, seed=11)
        assert np.max(np.abs(s.y - tent(s.x, 0.4))) == 0.0

    def test_simulation_x_uniform(self):
        s = simulate_example1(4000, 0.5, seed=7)
        # Kolmogorov-Smirnov at the 5% level
        assert kstest(s.x, "uniform").statistic < 1.36 / np.sqrt(s.n)

    def test_simulation_reproducible(self):
        a = simulate_example1(50, 0.5, seed=3)
        b = simulate_example1(50, 0.5, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            simulate_example1(0, 0.5, seed=0)
        with pytest.raises(ParameterError):
            simulate_example1(10, 1.0, seed=0)

    def test_tiny_theta_does_not_warn(self):
        # x / theta overflows on the falling side, whose branch is not taken;
        # RuntimeWarnings are errors in this suite
        s = simulate_example1(3, 1e-320, 2)
        assert np.array_equal(s.y, (1.0 - s.x) / (1.0 - 1e-320))

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5, np.nan, np.inf])
    def test_curve_rejects_theta_outside_unit_interval(self, theta):
        # theta = 0 or 1 would divide by zero, and NaN would give a NaN curve
        with pytest.raises(ParameterError, match=r"^theta must lie in \(0, 1\)$"):
            tent(0.5, theta)
        with pytest.raises(ParameterError, match=r"^theta must lie in \(0, 1\)$"):
            tent(np.linspace(0.0, 1.0, 5), theta)


@pytest.fixture(scope="module")
def model():
    return Example4Model(k=0.1)


class TestParabolaMarginal:
    def test_cdf_monotone_and_bounded(self, model):
        ys = np.linspace(-0.6, 0.9, 301)
        F = model.marginal_y_cdf(ys)
        assert np.all(np.diff(F) >= 0)
        assert F[0] < 1e-8 and F[-1] > 1 - 1e-8

    def test_cdf_refinement_oracle(self, model):
        # quadrupling the quadrature nodes moves nothing past 1e-10
        class Fine(Example4Model):
            QUAD_NODES = 1024

        fine = Fine(k=0.1)
        ys = np.linspace(-0.4, 0.7, 57)
        assert np.max(np.abs(model.marginal_y_cdf(ys)
                             - fine.marginal_y_cdf(ys))) < 1e-10

    def test_cdf_is_the_matrix_vector_product_to_rounding(self, model):
        # the quadrature sums each y's row, in another order than a mat-vec
        ys = np.linspace(-0.6, 0.9, 500)
        z = (ys[:, None] - (model._r - 0.5) ** 2) / model.k
        assert (np.max(np.abs(model.marginal_y_cdf(ys) - ndtr(z) @ model._w))
                <= 4 * np.finfo(float).eps)

    def test_cdf_midpoint_oracle(self, model):
        # independent midpoint-rule evaluation of the same integral
        r = (np.arange(20000) + 0.5) / 20000
        for y in (-0.05, 0.02, 0.1, 0.3):
            ref = float(np.mean(ndtr((y - (r - 0.5) ** 2) / 0.1)))
            assert model.marginal_y_cdf(y) == pytest.approx(ref, abs=1e-8)

    def test_quantile_inverts_cdf(self, model):
        ps = np.linspace(1e-4, 1 - 1e-4, 101)
        ys = model.marginal_y_quantile(ps)
        assert np.max(np.abs(model.marginal_y_cdf(ys) - ps)) < 1e-6
        assert np.all(np.diff(ys) > 0)

    def test_quantile_is_the_40_step_bisection(self, model):
        ps = np.linspace(0, 1, 2001)
        pc = np.clip(ps, model._Fgrid[0], model._Fgrid[-1])
        idx = np.clip(np.searchsorted(model._Fgrid, pc), 1, model.TABLE_SIZE - 1)
        lo, hi = model._ygrid[idx - 1], model._ygrid[idx]
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ge = model.marginal_y_cdf(mid) >= pc
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        assert np.array_equal(model.marginal_y_quantile(ps), 0.5 * (lo + hi))

    def test_marginal_object_round_trip(self, model):
        m = model.marginal_y()
        assert m.quantile(m.cdf(0.05)) == pytest.approx(0.05, abs=1e-8)

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            Example4Model(k=0.0)


class TestParabolaCopula:
    def test_uniform_margins(self, model):
        c = model.copula()
        t = np.linspace(0, 1, 41)
        assert np.max(np.abs(c.cdf(t, np.ones_like(t)) - t)) < 1e-9
        assert np.max(np.abs(c.cdf(np.ones_like(t), t) - t)) < 1e-9
        assert np.max(np.abs(c.cdf(t, np.zeros_like(t)))) == 0.0

    def test_axioms(self, model):
        assert check_copula_axioms(model.copula(), 41).passed(1e-7)

    def test_du_matches_finite_difference(self, model):
        c = model.copula()
        t = np.linspace(0.05, 0.95, 13)
        U, V = np.meshgrid(t, t, indexing="ij")
        fd = _finite_difference_du(c._cdf, U, V)
        assert np.max(np.abs(fd - c.du(U, V))) < 1e-6

    def test_pieces_match_closed_forms(self, model):
        # the paper's pieces of the parabola copula at theta = 1/2
        c = model.copula()
        p1, p2 = model.pieces()
        t = np.linspace(0.05, 0.95, 13)
        U, V = np.meshgrid(t, t, indexing="ij")
        yv = model.marginal_y_quantile(V)
        assert p1.du(U, V) == pytest.approx(ndtr((yv - (1 - U) ** 2 / 4) / model.k),
                                            abs=1e-15)
        assert p2.du(U, V) == pytest.approx(ndtr((yv - U ** 2 / 4) / model.k), abs=1e-15)
        assert p1.cdf(U, V) == pytest.approx(2 * c.cdf(U / 2, V), abs=1e-15)
        assert p2.cdf(U, V) == pytest.approx(2 * c.cdf((U + 1) / 2, V) - V, abs=1e-15)

    def test_pieces_ordered_against_product(self, model):
        p1, p2 = model.pieces()
        t = np.linspace(0.02, 0.98, 25)
        U, V = np.meshgrid(t, t, indexing="ij")
        assert np.all(p1.cdf(U, V) <= U * V + 1e-12)
        assert np.all(p2.cdf(U, V) >= U * V - 1e-12)

    def test_piece_du_matches_finite_difference(self, model):
        for piece in model.pieces():
            t = np.linspace(0.05, 0.95, 9)
            U, V = np.meshgrid(t, t, indexing="ij")
            fd = _finite_difference_du(piece._cdf, U, V)
            assert np.max(np.abs(fd - piece.du(U, V))) < 1e-6

    @pytest.mark.parametrize("which", ["copula", "left", "right"])
    def test_column_by_row_equals_meshgrid_bit_for_bit(self, model, which):
        c = _parabola_copulas(model)[which]
        t = np.r_[0.0, 5e-324, np.linspace(0.0, 1.0, 17), 0.5, 1 - 2 ** -53, 1.0]
        U, V = np.meshgrid(t, t, indexing="ij")
        assert c.cdf(t[:, None], t[None, :]).tobytes() == c.cdf(U, V).tobytes()
        assert (c._du_clamped(t[:, None], t[None, :]).tobytes()
                == c.du(U, V).tobytes())


def _parabola_copulas(model):
    left, right = model.pieces()
    return {"copula": model.copula(), "left": left, "right": right}


class TestQuantileSolvedOncePerV:
    """The copula solves y_v = F_Y^{-1}(v) for the v it is given, a grid's
    row or a mean block's nodes, not for every (u, v) of their product."""

    @pytest.fixture
    def solved(self, monkeypatch):
        counted = Example4Model(k=0.1)
        sizes = []
        quantile = counted.marginal_y_quantile

        def counting(p):
            sizes.append(np.size(p))
            return quantile(p)
        monkeypatch.setattr(counted, "marginal_y_quantile", counting)
        return counted, sizes

    @pytest.mark.parametrize("which", ["copula", "left", "right"])
    def test_quadrature_grid(self, solved, which):
        counted, sizes = solved
        t, _ = _rule(True)
        _parabola_copulas(counted)[which]._cdf(t[:, None], t[None, :])
        assert sum(sizes) == t.size == 64

    @pytest.mark.parametrize("which", ["copula", "left", "right"])
    @pytest.mark.parametrize("call", ["cdf", "du"])
    def test_public_column_by_row(self, solved, which, call):
        # the public calls check the axes but leave them per axis: 64
        # solves, not one for each of the 4096 cells
        counted, sizes = solved
        t, _ = _rule(True)
        out = getattr(_parabola_copulas(counted)[which], call)(t[:, None], t[None, :])
        assert out.shape == (64, 64)
        assert sum(sizes) == 64

    @pytest.mark.parametrize("which", ["copula", "left", "right"])
    def test_regression_grid(self, solved, which):
        counted, sizes = solved
        classify_regression_dependence(_parabola_copulas(counted)[which])
        assert sum(sizes) == 64

    def test_one_mean_block(self, solved, model):
        counted, sizes = solved
        # the response marginal comes from another model, so only the
        # copula's solves are counted: 512 midpoint nodes on each side of 0
        m = RegressionModel(counted.copula(), model.marginal_x(), model.marginal_y())
        mean_regression(m, np.linspace(0.05, 0.95, MEAN_BLOCK))
        assert sum(sizes) == 2 * MEAN_NODES == 1024


class TestParabolaSimulation:
    def test_moments(self):
        s = simulate_example4(40000, 0.1, seed=2)
        # E[Y] = Var(X) = 1/12
        assert np.mean(s.y) == pytest.approx(1.0 / 12.0, abs=3e-3)
        # residuals are N(0, k^2)
        resid = s.y - (s.x - 0.5) ** 2
        assert kstest(resid / 0.1, "norm").statistic < 1.36 / np.sqrt(s.n)

    def test_noise_free_limit(self):
        s = simulate_example4(100, 0.0, seed=9)
        assert np.max(np.abs(s.y - (s.x - 0.5) ** 2)) == 0.0

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            simulate_example4(0)
        with pytest.raises(ParameterError):
            simulate_example4(10, k=-1.0)

    def test_overflowing_noise_is_the_sample_check(self):
        # k * eps overflows for |eps| > 1.8; Sample rejects the infinite y,
        # and no RuntimeWarning (an error in this suite) comes first
        with pytest.raises(DomainError, match="^sample values must be finite$"):
            simulate_example4(20000, 1e308, seed=0)
