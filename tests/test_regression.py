import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from gluecop import (
    ClaytonCopula,
    Copula,
    DomainError,
    EmpiricalMarginal,
    Example4Model,
    FGMCopula,
    FrankCopula,
    FrechetLowerCopula,
    FrechetUpperCopula,
    GumbelCopula,
    IndependenceCopula,
    Marginal,
    PlackettCopula,
    PiecewiseRegressionModel,
    RegressionClass,
    RegressionModel,
    UniformMarginal,
    classify_regression_dependence,
    conditional_quantile,
    decompose,
    fit_piecewise,
    glue,
    make_copula,
    mean_regression,
    median_regression,
    piecewise_regression,
    simulate_example1,
    tent,
)
from gluecop.regression import MEAN_BLOCK, MEAN_EPS, MEAN_NODES, _mean_grid
from oracles import bisection_quantile

PI = IndependenceCopula()
M = FrechetUpperCopula()
W = FrechetLowerCopula()
UNIT = UniformMarginal()
GLUED3 = ([ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)], [0.3, 0.65])
# response on both sides of 0, so both halves of the mean's integral are used
TWO_SIDED_Y = EmpiricalMarginal(np.random.default_rng(7).normal(0.2, 1.0, 500))


class TestMedianPsi:
    def test_product(self):
        for u in (0.1, 0.5, 0.9):
            assert conditional_quantile(PI, u, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_frechet_upper(self):
        assert conditional_quantile(M, 0.3, 0.5) == pytest.approx(0.3, abs=1e-9)

    def test_frechet_lower(self):
        assert conditional_quantile(W, 0.3, 0.5) == pytest.approx(0.7, abs=1e-9)


class TestMedianRegression:
    def test_tent_first_branch(self):
        m = RegressionModel(make_copula("example1", 0.5), UNIT, UNIT)
        assert median_regression(m, 0.25) == pytest.approx(0.5, abs=1e-9)

    def test_product_constant_half(self):
        m = RegressionModel(PI, UNIT, UNIT)
        xs = np.linspace(0, 1, 11)
        assert np.allclose([median_regression(m, x) for x in xs], 0.5, atol=1e-9)

    def test_parabola_model(self):
        model = Example4Model(k=0.1)
        m = RegressionModel(model.copula(), model.marginal_x(), model.marginal_y())
        assert median_regression(m, 0.3) == pytest.approx(0.04, abs=1e-4)

    def test_outside_support_rejected(self):
        m = RegressionModel(PI, UNIT, UNIT)
        with pytest.raises(DomainError):
            median_regression(m, 1.5)


class TestMeanRegression:
    def test_product_uniform(self):
        m = RegressionModel(PI, UNIT, UNIT)
        assert mean_regression(m, 0.3) == pytest.approx(0.5, abs=1e-3)

    def test_tent_degenerate_conditional(self):
        # conditional law is a point mass, so mean equals median
        m = RegressionModel(make_copula("example1", 0.5), UNIT, UNIT)
        assert mean_regression(m, 0.7) == pytest.approx(0.6, abs=1e-3)

    def test_parabola_model(self):
        model = Example4Model(k=0.1)
        m = RegressionModel(model.copula(), model.marginal_x(), model.marginal_y())
        assert mean_regression(m, 0.8) == pytest.approx(0.09, abs=1e-2)

    def test_mean_close_to_median_for_symmetric_conditional(self):
        model = Example4Model(k=0.1)
        m = RegressionModel(model.copula(), model.marginal_x(), model.marginal_y())
        for x in (0.2, 0.5, 0.8):
            assert mean_regression(m, x) == pytest.approx(
                median_regression(m, x), abs=2e-2)


def per_x_mean(m: RegressionModel, x):
    """The conditional mean one x at a time, E[Y | U=u] = a + h sum(1 - F)
    - h sum(F) with F = dC/du(u, nodes), as a reference for the blockwise
    evaluation."""
    a, sides = _mean_grid(m.marginal_y)
    out = []
    for u in m.marginal_x.cdf(np.atleast_1d(np.asarray(x, dtype=float))):
        total = a
        for upper, h, v in sides:
            if upper:
                total += h * float(np.sum(1.0 - m.copula.du(u, v)))
            else:
                total -= h * float(np.sum(m.copula.du(u, v)))
        out.append(total)
    return np.array(out)


MEAN_COPULAS = [
    ClaytonCopula(2.0), FrankCopula(-8.0), FrankCopula(3.0), GumbelCopula(1.5),
    FGMCopula(-0.3), PlackettCopula(5.0), PI, M, W, make_copula("example1", 0.4),
    glue(*GLUED3), decompose(glue(*GLUED3), 0.3)[1],
]
# x grids that leave slabs of GLUED3 empty: the first slab alone, the first
# two with x exactly at both gluing points, and the last slab alone
EMPTY_SLAB_GRIDS = [
    np.linspace(0.0, 0.25, 40),
    np.r_[np.linspace(0.0, 0.25, 40), GLUED3[1]],
    np.linspace(0.7, 1.0, 40),
]


@pytest.mark.parametrize("u", EMPTY_SLAB_GRIDS + GLUED3[1], ids=[
    "first-slab", "at-gluing-points", "last-slab", "scalar-at-0.3", "scalar-at-0.65"])
def test_quantile_slab_by_slab_is_the_whole_copula_bisection(u):
    c = glue(*GLUED3)
    v = conditional_quantile(c, u, 0.5)
    assert type(v) is (float if np.ndim(u) == 0 else np.ndarray)
    np.testing.assert_array_equal(v, bisection_quantile(c, u, 0.5))


class _CountingCopula(Copula):
    """Delegates to ``inner`` and records how many points each du call sees,
    and the u it is given."""

    def __init__(self, inner: Copula):
        self.inner, self.sizes, self.us = inner, [], []
        self.smooth, self.point_mass = inner.smooth, inner.point_mass

    def _cdf(self, u, v):
        return self.inner._cdf(u, v)

    def _du(self, u, v):
        self.sizes.append(np.broadcast(u, v).size)
        self.us.append(u)
        return self.inner._du(u, v)


class TestMeanGrid:
    @pytest.mark.parametrize("my, uppers", [
        (UNIT, [True]), (UniformMarginal(-2.0, -1.0), [False]),
        (TWO_SIDED_Y, [True, False]),
    ], ids=["above 0", "below 0", "straddles 0"])
    def test_one_tuple_per_non_empty_side(self, my, uppers):
        a, sides = _mean_grid(my)
        ylo, yhi = my.quantile(MEAN_EPS), my.quantile(1.0 - MEAN_EPS)
        assert a == min(max(0.0, ylo), yhi)
        assert [upper for upper, _, _ in sides] == uppers
        for upper, h, v in sides:
            lo, hi = (a, yhi) if upper else (ylo, a)
            assert h == (hi - lo) / MEAN_NODES and h > 0
            np.testing.assert_array_equal(
                v, my.cdf(lo + (np.arange(MEAN_NODES) + 0.5) * h))


class TestMeanBlocks:
    @pytest.mark.parametrize("my", [UNIT, TWO_SIDED_Y], ids=["uniform", "empirical"])
    @pytest.mark.parametrize("c", MEAN_COPULAS, ids=repr)
    def test_equals_per_x_mean_bit_for_bit(self, c, my):
        m = RegressionModel(c, UNIT, my)
        grids = [np.linspace(0.0, 1.0, n) if n != 1 else np.array([0.37])
                 for n in (0, 1, MEAN_BLOCK, MEAN_BLOCK + 1, 1001)]
        for xs in grids + EMPTY_SLAB_GRIDS:
            mu = mean_regression(m, xs)
            assert mu.shape == xs.shape
            np.testing.assert_array_equal(mu, per_x_mean(m, xs))
        mu = mean_regression(m, 0.37)
        assert type(mu) is float
        assert mu == per_x_mean(m, 0.37)[0]

    def test_empirical_explanatory_marginal(self):
        mx = EmpiricalMarginal(np.random.default_rng(8).uniform(-2.0, 3.0, 300))
        m = RegressionModel(glue(*GLUED3), mx, TWO_SIDED_Y)
        xs = np.linspace(*mx.support, 1001)
        np.testing.assert_array_equal(mean_regression(m, xs), per_x_mean(m, xs))

    def test_du_calls_are_bounded(self):
        counted = _CountingCopula(FrankCopula(-8.0))
        xs = np.linspace(0.0, 1.0, 1001)
        mean_regression(RegressionModel(counted, UNIT, TWO_SIDED_Y), xs)
        assert max(counted.sizes) <= MEAN_BLOCK * MEAN_NODES
        assert sum(counted.sizes) == 2 * xs.size * MEAN_NODES  # both sides

    @pytest.mark.parametrize("bps,xs,empty", [
        ((0.4,), np.linspace(0.0, 1.0, 1001), ()),
        *(((0.3, 0.65), xs, empty)
          for xs, empty in zip(EMPTY_SLAB_GRIDS, [(1, 2), (2,), (0, 1)])),
    ], ids=["two-pieces", "first-slab", "at-gluing-points", "last-slab"])
    def test_piecewise_du_calls_are_bounded(self, bps, xs, empty):
        pieces = [_CountingCopula(c) for c in GLUED3[0][:len(bps) + 1]]
        pm = PiecewiseRegressionModel(bps, pieces, UNIT, TWO_SIDED_Y)
        piecewise_regression(pm, xs, statistic="mean")
        for i, piece in enumerate(pieces):
            assert (piece.sizes == []) == (i in empty)  # an empty slab is skipped
        sizes = [size for piece in pieces for size in piece.sizes]
        assert max(sizes) <= MEAN_BLOCK * MEAN_NODES
        assert sum(sizes) == 2 * xs.size * MEAN_NODES


class _SteppedMarginal(Marginal):
    """Uniform on [-1, 1] with the cdf ``cdf``: a mean's nodes that are not
    those of a continuous, strictly increasing response."""

    support = (-1.0, 1.0)

    def __init__(self, cdf):
        self._cdf = cdf

    def _quantile(self, p):
        return 2.0 * p - 1.0


# a discrete response: its cdf steps, so many of the mean's nodes are equal
TIED_NODES_Y = _SteppedMarginal(lambda y: np.floor((y + 1.0) * 4.0) / 8.0)
# a cdf that is not monotone on the nodes
WAVY_Y = _SteppedMarginal(lambda y: 0.5 + 0.4 * np.sin(7.0 * y))
FRECHET_MEAN_COPULAS = [M, W, make_copula("example1", 0.4),
                        glue([W, ClaytonCopula(2.0), M], [0.3, 0.65])]
# the most du calls a count takes per side: lower-bound halving of the node
# index, whose answer is one of MEAN_NODES + 1 places
HALVINGS = math.ceil(math.log2(MEAN_NODES + 1))


class TestMeanCounts:
    """On M and W, du at the ordered nodes is 0 before one jump and 1 from
    it on: each row sum of the mean is a count, found by halving."""

    @pytest.mark.parametrize("c", [M, W], ids=repr)
    def test_du_calls_are_halvings(self, c):
        counted = _CountingCopula(c)
        xs = np.linspace(0.0, 1.0, 1001)
        mean_regression(RegressionModel(counted, UNIT, TWO_SIDED_Y), xs)
        assert 0 < len(counted.sizes) <= 2 * HALVINGS
        assert set(counted.sizes) == {xs.size}

    @pytest.mark.parametrize("leaf", [M, W], ids=repr)
    def test_nested_glue_du_calls_are_halvings_on_the_leaf(self, leaf):
        # the M or W sits in a glue inside a glue: it is handed its own u*
        counted = _CountingCopula(leaf)
        c = glue([ClaytonCopula(3.0), glue([FrankCopula(-8.0), counted], [0.5])],
                 [0.4])
        m = RegressionModel(c, UNIT, TWO_SIDED_Y)
        xs = np.linspace(0.0, 1.0, 1001)
        mu = mean_regression(m, xs)
        outer = (xs[xs > 0.4] - 0.4) / (1.0 - 0.4)
        inner = (outer[outer > 0.5] - 0.5) / (1.0 - 0.5)
        assert 0 < len(counted.us) <= 2 * HALVINGS
        for u in counted.us:
            np.testing.assert_array_equal(u, inner)
        np.testing.assert_array_equal(mu, per_x_mean(m, xs))

    def test_piecewise_du_calls_are_halvings_on_each_slab(self):
        pieces = [_CountingCopula(M), _CountingCopula(W)]
        pm = PiecewiseRegressionModel((0.4,), pieces, UNIT, TWO_SIDED_Y)
        xs = np.linspace(0.0, 1.0, 1001)
        piecewise_regression(pm, xs, statistic="mean")
        on_slab = np.count_nonzero(xs <= 0.4)  # slabs are left-closed
        for piece, size in zip(pieces, (on_slab, xs.size - on_slab)):
            assert 0 < len(piece.sizes) <= 2 * HALVINGS
            assert set(piece.sizes) == {size}

    @pytest.mark.parametrize("my", [TIED_NODES_Y, EmpiricalMarginal(
        np.round(np.random.default_rng(9).normal(0.2, 1.0, 500) * 2) / 2)],
        ids=["tied nodes", "tied knots"])
    @pytest.mark.parametrize("c", FRECHET_MEAN_COPULAS, ids=repr)
    def test_tied_response_equals_per_x_mean_bit_for_bit(self, c, my):
        m = RegressionModel(c, UNIT, my)
        xs = np.r_[np.linspace(0.0, 1.0, 1001), 0.3, 0.4, 0.65]
        np.testing.assert_array_equal(mean_regression(m, xs), per_x_mean(m, xs))

    def test_nodes_repeat_on_the_tied_response(self):
        _, sides = _mean_grid(TIED_NODES_Y)
        assert len(sides) == 2
        for _, _, v in sides:
            assert np.all(np.diff(v) >= 0) and np.unique(v).size < v.size / 10

    @pytest.mark.parametrize("c", FRECHET_MEAN_COPULAS, ids=repr)
    def test_nodes_out_of_order_take_the_blocks(self, c):
        _, sides = _mean_grid(WAVY_Y)
        assert [upper for upper, _, _ in sides] == [True, False]
        assert all(np.any(np.diff(v) < 0) for _, _, v in sides)
        xs = np.linspace(0.0, 1.0, 1001)
        m = RegressionModel(c, UNIT, WAVY_Y)
        np.testing.assert_array_equal(mean_regression(m, xs), per_x_mean(m, xs))
        counted = _CountingCopula(c)
        mean_regression(RegressionModel(counted, UNIT, WAVY_Y), xs)
        assert max(counted.sizes) == MEAN_BLOCK * MEAN_NODES

    @pytest.mark.parametrize("c, at_jump", [(M, lambda v: v), (W, lambda v: 1.0 - v)],
                             ids=["M at v", "W at 1 - v"])
    @pytest.mark.parametrize("my", [UNIT, TWO_SIDED_Y], ids=["uniform", "empirical"])
    def test_at_the_jump_and_one_ulp_either_side(self, c, at_jump, my):
        # for W, whether the rounded u + v_j reaches 1 decides each node
        _, sides = _mean_grid(my)
        v = np.concatenate([v for _, _, v in sides])
        u = at_jump(v)
        xs = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        m = RegressionModel(c, UNIT, my)
        np.testing.assert_array_equal(mean_regression(m, xs), per_x_mean(m, xs))


class TestArrayShapes:
    @pytest.mark.parametrize("curve", [
        lambda x: median_regression(RegressionModel(glue(*GLUED3), UNIT, TWO_SIDED_Y), x),
        lambda x: mean_regression(RegressionModel(glue(*GLUED3), UNIT, TWO_SIDED_Y), x),
        lambda x: piecewise_regression(PiecewiseRegressionModel(
            (0.3, 0.65), GLUED3[0], UNIT, TWO_SIDED_Y), x, "median"),
        lambda x: piecewise_regression(PiecewiseRegressionModel(
            (0.3, 0.65), GLUED3[0], UNIT, TWO_SIDED_Y), x, "mean"),
    ], ids=["median", "mean", "piecewise-median", "piecewise-mean"])
    def test_2d_x_is_1d_result_reshaped(self, curve):
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        out = curve(x)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out, curve(x.ravel()).reshape(3, 4))
        assert curve(np.full((2, 3), 0.5)).shape == (2, 3)


class TestPiecewise:
    def tent_model(self, theta=0.5):
        return PiecewiseRegressionModel((theta,), (M, W), UNIT, UNIT)

    def test_tent_two_segments(self):
        pm = self.tent_model()
        assert piecewise_regression(pm, 0.25) == pytest.approx(0.5, abs=1e-9)
        assert piecewise_regression(pm, 0.7) == pytest.approx(0.6, abs=1e-9)

    def test_all_product_segments_constant(self):
        pm = PiecewiseRegressionModel((0.4,), (PI, PI), UNIT, UNIT)
        xs = np.linspace(0, 1, 21)
        assert np.allclose(piecewise_regression(pm, xs), 0.5, atol=1e-9)

    def test_unknown_statistic(self):
        with pytest.raises(DomainError):
            piecewise_regression(self.tent_model(), 0.3, statistic="mode")

    @pytest.mark.parametrize("bps,pieces,message", [
        ((0.5,), (M,), "one more piece than gluing points"),
        ((0.6, 0.4), (M, PI, W), "strictly increasing in \\(0, 1\\)"),
        ((-0.5,), (M, W), "strictly increasing in \\(0, 1\\)"),
    ], ids=["count-mismatch", "decreasing-break-points", "break-point-below-support"])
    def test_segment_count_mismatch(self, bps, pieces, message):
        # one rule, gluing.misplaced_gluing_point, checks the gluing points;
        # the model names the break-point of a misplaced one
        with pytest.raises(DomainError, match=message):
            PiecewiseRegressionModel(bps, pieces, UNIT, UNIT)

    def test_break_point_belongs_to_left_segment(self):
        # the model is left-closed at a break (x <= b), and GluedCopula sends
        # u equal to a gluing point to the left slab, so both agree there
        left, right = ClaytonCopula(3), FrankCopula(-8)
        pm = PiecewiseRegressionModel((0.5,), (left, right), UNIT, UNIT)
        assert piecewise_regression(pm, 0.5) == conditional_quantile(left, 1.0, 0.5)
        assert piecewise_regression(pm, 0.5) == pytest.approx(0.8409, abs=1e-4)
        glued = RegressionModel(glue([left, right], [0.5]), UNIT, UNIT)
        assert median_regression(glued, 0.5) == piecewise_regression(pm, 0.5)

    def test_is_a_frozen_regression_model(self):
        pm = self.tent_model()
        assert isinstance(pm, RegressionModel)
        for name in ("break_points", "gluing_points", "copula"):
            with pytest.raises(FrozenInstanceError):
                setattr(pm, name, (1.0,))
        assert pm.break_points == (0.5,)

    def test_fitted_model_is_a_regression_model(self):
        fit = fit_piecewise(simulate_example1(2000, 0.5, seed=23))
        assert isinstance(fit.model, RegressionModel)

    def test_segment_copulas_are_the_glued_pieces(self):
        # the glue holds the segments; the model keeps no second copy
        pm = PiecewiseRegressionModel(
            break_points=np.array([0.3, 0.65]), segment_copulas=GLUED3[0],
            marginal_x=UNIT, marginal_y=TWO_SIDED_Y)
        assert pm.segment_copulas is pm.copula.pieces
        assert [f.name for f in fields(pm)] == [
            "copula", "marginal_x", "marginal_y", "break_points", "gluing_points"]

    def test_gluing_points_are_a_tuple_of_floats(self):
        mx = EmpiricalMarginal(np.random.default_rng(5).normal(size=300))
        pm = PiecewiseRegressionModel(np.array([-0.5, 0.5]), GLUED3[0], mx, UNIT)
        for points in (pm.break_points, pm.gluing_points):
            assert type(points) is tuple
            assert all(type(t) is float for t in points)
        # so that tuple arithmetic concatenates rather than adds
        assert (0.0,) + pm.gluing_points + (1.0,) == (
            0.0, *pm.copula.gluing_points.tolist(), 1.0)

    def test_parabola_decomposition_monotone_per_segment(self):
        model = Example4Model(k=0.1)
        p1, p2 = model.pieces()
        pm = PiecewiseRegressionModel((0.5,), (p1, p2), model.marginal_x(),
                                      model.marginal_y())
        left = piecewise_regression(pm, np.linspace(0.02, 0.5, 25))
        right = piecewise_regression(pm, np.linspace(0.5, 0.98, 25))
        assert np.all(np.diff(left) <= 1e-9)
        assert np.all(np.diff(right) >= -1e-9)


PAIRS = pytest.mark.parametrize(
    "pair", [(M, W), (ClaytonCopula(2), FrankCopula(-4)), (PI, FrankCopula(3))],
    ids=["M-W", "clayton-frank", "pi-frank"])
THETAS = pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])


class TestGluingEquivalence:
    @PAIRS
    @THETAS
    def test_glued_median_equals_piecewise(self, pair, theta):
        a, b = pair
        glued = RegressionModel(glue([a, b], [theta]), UNIT, UNIT)
        pw = PiecewiseRegressionModel((theta,), (a, b), UNIT, UNIT)
        xs = np.linspace(0, 1, 101)
        assert theta in xs  # both formulations give x == theta the left piece
        mu_glued = np.array([median_regression(glued, x) for x in xs])
        mu_pw = piecewise_regression(pw, xs)
        np.testing.assert_array_equal(mu_glued, mu_pw)

    @PAIRS
    @THETAS
    def test_glued_mean_equals_piecewise(self, pair, theta):
        a, b = pair
        glued = RegressionModel(glue([a, b], [theta]), UNIT, UNIT)
        pw = PiecewiseRegressionModel((theta,), (a, b), UNIT, UNIT)
        xs = np.linspace(0, 1, 21)
        assert theta in xs
        # then grids that leave the right slab, and the left one, empty
        for xs in (xs, np.linspace(0, theta, 11), np.linspace(theta, 1, 11)[1:]):
            mu_glued = mean_regression(glued, xs)
            mu_pw = piecewise_regression(pw, xs, statistic="mean")
            np.testing.assert_array_equal(mu_glued, mu_pw)
            np.testing.assert_array_equal(mu_glued, per_x_mean(glued, xs))

    @pytest.mark.parametrize("statistic", ["median", "mean"])
    def test_three_pieces_at_both_gluing_points(self, statistic):
        pieces, thetas = GLUED3
        glued = RegressionModel(glue(pieces, thetas), UNIT, UNIT)
        pw = PiecewiseRegressionModel(tuple(thetas), tuple(pieces), UNIT, UNIT)
        xs = np.concatenate((np.linspace(0, 1, 101), thetas))
        curve = median_regression if statistic == "median" else mean_regression
        mu_pw = piecewise_regression(pw, xs, statistic=statistic)
        np.testing.assert_array_equal(curve(glued, xs), mu_pw)
        # each gluing point takes its left piece at u* = 1
        for theta, piece in zip(thetas, pieces):
            alone = curve(RegressionModel(piece, UNIT, UNIT), 1.0)
            assert piecewise_regression(pw, theta, statistic=statistic) == alone

    def test_tied_x_with_break_points_on_tie_values(self):
        # x on 7 tied levels; a break-point at a level maps to the gluing
        # point F_X(b), so x <= b and F_X(x) <= F_X(b) pick the same piece
        levels = np.linspace(-1.0, 2.0, 7)
        mx = EmpiricalMarginal(np.random.default_rng(5).choice(levels, 400))
        pieces, _ = GLUED3
        pm = PiecewiseRegressionModel((levels[2], levels[4]), tuple(pieces), mx,
                                      TWO_SIDED_Y)
        assert len(pm.copula.pieces) == len(pm.segment_copulas) and all(
            a is b for a, b in zip(pm.copula.pieces, pm.segment_copulas))
        xs = np.concatenate((levels, np.linspace(*mx.support, 101)))
        # the piece each x's slab hands to the hook, as its index
        slab = pm.copula._on_pieces(
            lambda piece, us: np.full(us.shape, pm.segment_copulas.index(piece)),
            mx.cdf(xs))
        np.testing.assert_array_equal(
            slab, np.searchsorted(pm.break_points, xs, side="left"))
        glued = RegressionModel(pm.copula, mx, TWO_SIDED_Y)
        np.testing.assert_array_equal(piecewise_regression(pm, xs),
                                      median_regression(glued, xs))


class TestMonotoneRegression:
    @pytest.mark.parametrize("c,expected", [
        (ClaytonCopula(3.0), RegressionClass.PRD),
        (FrankCopula(-5.0), RegressionClass.NRD),
    ], ids=["clayton-prd", "frank-nrd"])
    def test_prd_nrd_implies_monotone_regression(self, c, expected):
        assert classify_regression_dependence(c) is expected
        m = RegressionModel(c, UNIT, UNIT)
        xs = np.linspace(0.01, 0.99, 101)
        mu = np.array([median_regression(m, x) for x in xs])
        diffs = np.diff(mu)
        if expected is RegressionClass.PRD:
            assert np.all(diffs >= -1e-8)
        else:
            assert np.all(diffs <= 1e-8)
        # mean regression on a coarser grid, same monotonicity
        mean = np.array([mean_regression(m, x) for x in xs[::10]])
        if expected is RegressionClass.PRD:
            assert np.all(np.diff(mean) >= -1e-6)
        else:
            assert np.all(np.diff(mean) <= 1e-6)
