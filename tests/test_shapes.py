"""One evaluation shape: a scalar in gives a float out, with exactly the bits
the array call gives at the same point.  numpy can round a 0-d array's
``pow`` differently in the last bit, and a flat ``du`` turns such a bit into
a different bisection step of ``conditional_quantile``.

Arrays whose shapes differ reach the hooks as passed: a column by a row
gives the meshgrid call's bits, in the broadcast shape, and so does a
scalar beside an array."""

from functools import partial

import numpy as np
import pytest

from gluecop import (ClaytonCopula, EmpiricalCopula, EmpiricalMarginal,
                     Example4Model, FrankCopula, GumbelCopula,
                     PiecewiseRegressionModel, RegressionModel, UniformMarginal,
                     conditional_quantile, decompose, glue, make_copula,
                     mean_regression, median_regression, piecewise_regression,
                     pseudo_observations, simulate_example4, tent)
from gluecop.copulas import FAMILY_CONSTRUCTORS
from gluecop.empirical import _FIT_RANGES

RNG = np.random.default_rng(23)
# the edges, the gluing points of GLUED and random points inside the square
U = np.r_[0.0, 1.0, 0.3, 0.65, 0.01, RNG.uniform(size=27)]
V = np.r_[0.5, 0.5, 1.0, 0.0, 1.0 - 6e-11, RNG.uniform(size=27)]
GLUED = glue([ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)],
             [0.3, 0.65])
# the other parameter of the tent copula, example1, has no fitting range
THETAS = {family: [t for lo, hi in ranges.values() for t in (lo, (lo + hi) / 2, hi)]
          for family, ranges in _FIT_RANGES.items()}
THETAS["example1"] = [0.05, 0.5, 0.95]


def _copulas():
    for family in FAMILY_CONSTRUCTORS:
        for theta in THETAS.get(family, [None]):
            yield f"{family}({theta})", make_copula(family, theta)
    # du(0.01, 1/2) = 1 - 6e-11: scalar and array quantiles once differed here
    yield "clayton(6.0540158930013295)", ClaytonCopula(6.0540158930013295)
    yield "glued three", GLUED
    yield "decompose slab", decompose(FrankCopula(4.0), 0.4)[1]
    yield "empirical", EmpiricalCopula(pseudo_observations(simulate_example4(200)))


def _copula_calls():
    for name, c in _copulas():
        yield pytest.param(c.cdf, (U, V), id=f"{name} cdf")
        yield pytest.param(c.du, (U, V), id=f"{name} du")
        yield pytest.param(c.diagonal, (U,), id=f"{name} diagonal")
        yield pytest.param(lambda u, p, c=c: conditional_quantile(c, u, p), (U, V),
                           id=f"{name} conditional_quantile")


def _other_calls():
    unit = UniformMarginal()
    my = EmpiricalMarginal(np.random.default_rng(7).normal(0.2, 1.0, 500))
    glued = RegressionModel(GLUED, unit, my)
    pm = PiecewiseRegressionModel((0.3, 0.65), GLUED.pieces, unit, my)
    e4 = Example4Model(k=0.1)
    ys = np.linspace(-0.4, 0.7, 16)
    calls = {
        "uniform cdf": (UniformMarginal(-1.0, 3.0).cdf, (4.0 * U - 1.0,)),
        "uniform quantile": (UniformMarginal(-1.0, 3.0).quantile, (U,)),
        "empirical cdf": (my.cdf, (4.0 * U - 1.0,)),
        "empirical quantile": (my.quantile, (U,)),
        "median curve": (lambda x: median_regression(glued, x), (U,)),
        "mean curve": (lambda x: mean_regression(glued, x), (U,)),
        "piecewise median curve": (lambda x: piecewise_regression(pm, x), (U,)),
        "piecewise mean curve": (
            lambda x: piecewise_regression(pm, x, statistic="mean"), (U,)),
        "tent": (lambda x: tent(x, 0.4), (U,)),
        "example4 marginal cdf": (e4.marginal_y_cdf, (ys,)),
        "example4 marginal quantile": (e4.marginal_y_quantile, (U[:16],)),
        "example4 marginal_y cdf": (e4.marginal_y().cdf, (ys,)),
        "example4 copula cdf": (e4.copula().cdf, (U[:16], V[:16])),
        "example4 copula du": (e4.copula().du, (U[:16], V[:16])),
    }
    for name, (f, args) in calls.items():
        yield pytest.param(f, args, id=name)


@pytest.mark.parametrize("f, args", [*_copula_calls(), *_other_calls()])
def test_scalar_gives_the_array_bits(f, args):
    whole = np.asarray(f(*args))
    alone = [f(*(float(a[i]) for a in args)) for i in range(args[0].size)]
    assert all(type(y) is float for y in alone)
    differ = np.flatnonzero(np.array(alone).view(np.int64) != whole.view(np.int64))
    assert differ.size == 0, [tuple(float(a[i]) for a in args) for i in differ]


def _per_axis_copulas():
    yield from _copulas()
    e4 = Example4Model(k=0.1)
    yield "example4", e4.copula()
    left, right = e4.pieces()
    yield "example4 left piece", left
    yield "example4 right piece", right


PER_AXIS = [pytest.param(c, id=name) for name, c in _per_axis_copulas()]


def _same_bits(out, want):
    assert type(out) is np.ndarray and out.shape == want.shape
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("c", PER_AXIS)
@pytest.mark.parametrize("call", ["cdf", "du", "conditional_quantile"])
def test_column_by_row_gives_the_meshgrid_bits(c, call):
    # the hooks see the column and the row as passed, not the grid
    f = (partial(conditional_quantile, c) if call == "conditional_quantile"
         else getattr(c, call))
    col, row = U[:9, None], V[None, :7]
    _same_bits(f(col, row), f(*np.meshgrid(U[:9], V[:7], indexing="ij")))


@pytest.mark.parametrize("c", PER_AXIS)
def test_scalar_beside_an_array_gives_the_broadcast_bits(c):
    for f in (c.cdf, c.du, partial(conditional_quantile, c)):
        for i in range(5):  # the edges and the gluing points of GLUED
            _same_bits(f(U[i], V[:7]), f(np.full(7, U[i]), V[:7]))
            _same_bits(f(U[:7], V[i]), f(U[:7], np.full(7, V[i])))


@pytest.mark.parametrize("c", PER_AXIS)
def test_shapes_that_do_not_broadcast_raise(c):
    for f in (c.cdf, c.du, partial(conditional_quantile, c)):
        with pytest.raises(ValueError):
            f(U[:3], V[:4])
        with pytest.raises(ValueError):
            f(U[:6].reshape(2, 3), V[:2])
