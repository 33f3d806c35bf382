"""The range test behind every argument check (``errors.out_of_range``)
rejects exactly the inputs that the elementwise tests it replaced rejected,
with the same exception and message, and emits no warning on the way."""

import warnings

import numpy as np
import pytest

from gluecop import (ClaytonCopula, DomainError, EmpiricalCopula,
                     EmpiricalMarginal, FrankCopula, GumbelCopula, Marginal,
                     conditional_quantile, glue, simulate_copula)
from gluecop.errors import out_of_range


def five_pass(a, lo, hi):
    """The test that ``_validate_unit`` and ``Marginal.quantile`` made before:
    isnan, any, <, >, | and any."""
    return bool(np.any(np.isnan(a)) or np.any((a < lo) | (a > hi)))


def old_outside_support(x, lo, hi):
    """The negation of what ``Marginal.contains`` returned before."""
    return not bool(np.all((x >= lo) & (x <= hi)))


def arrays(lo, hi):
    """Arrays at the edges of [lo, hi]: every value alone as a 0-d array and
    at the first, a middle and the last place of an array of values inside;
    an empty, a 2-D, a strided and a transposed array."""
    lo, hi = float(lo), float(hi)
    inner = (lo + hi) / 2 if np.isfinite(lo + hi) else 0.5
    edges = [np.nan, np.inf, -np.inf, -0.0, 0.0, lo, hi, inner,
             np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
             np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)]
    out = [np.array([]), np.empty((0, 3))]
    for value in edges:
        out.append(np.asarray(value))
        for place in (0, 3, -1):
            a = np.full(7, inner)
            a[place] = value
            out += [a, a.reshape(1, 7), np.repeat(a, 2)[::2]]
        grid = np.full((4, 6), inner)
        grid[2, 4] = value
        out += [grid, grid.T, grid[:, ::2], grid[::3, 1::3]]
    return out


UNIT = arrays(0.0, 1.0)
COPULA_MESSAGE = "copula arguments must lie in [0, 1] and be non-NaN"
GLUED = glue([ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)],
             [0.3, 0.65])
EMPIRICAL = EmpiricalCopula(simulate_copula(GLUED, 200, seed=4))

# (name, call on one array argument, message on rejection)
COPULA_CALLS = [
    ("cdf u", lambda c, a: c.cdf(a, 0.5)),
    ("cdf v", lambda c, a: c.cdf(0.5, a)),
    ("du u", lambda c, a: c.du(a, 0.5)),
    ("du v", lambda c, a: c.du(0.5, a)),
    ("cdf_grid us", lambda c, a: c.cdf_grid(a, [0.25, 0.5])),
    ("cdf_grid vs", lambda c, a: c.cdf_grid([0.25, 0.5], a)),
    ("conditional_quantile u", lambda c, a: conditional_quantile(c, a, 0.5)),
    ("conditional_quantile p", lambda c, a: conditional_quantile(c, 0.5, a)),
]


def expect_same_verdict(call, a, rejected, message):
    """``call(a)`` raises ``DomainError`` with ``message`` exactly when
    ``rejected``; a warning of any kind fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if rejected:
            with pytest.raises(DomainError) as info:
                call(a)
            assert str(info.value) == message, a
        else:
            call(a)


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 2.0), (-np.inf, np.inf)])
def test_predicate_agrees_with_the_elementwise_tests(lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in arrays(lo, hi):
            assert out_of_range(a, lo, hi) is five_pass(a, lo, hi), a
            assert out_of_range(a, lo, hi) is old_outside_support(a, lo, hi), a


@pytest.mark.parametrize("name,call", COPULA_CALLS, ids=[n for n, _ in COPULA_CALLS])
@pytest.mark.parametrize("c", [ClaytonCopula(2.0), GLUED], ids=repr)
def test_copula_entry_points(c, name, call):
    for a in UNIT:
        expect_same_verdict(lambda a: call(c, a), a, five_pass(a, 0.0, 1.0),
                            COPULA_MESSAGE)


@pytest.mark.parametrize("c", [ClaytonCopula(2.0), GLUED, EMPIRICAL], ids=repr)
def test_diagonal(c):
    for a in UNIT:
        expect_same_verdict(c.diagonal, a, five_pass(a, 0.0, 1.0), COPULA_MESSAGE)


def test_marginal_quantile():
    m = EmpiricalMarginal([-1.0, 0.5, 2.0])
    for a in UNIT:
        expect_same_verdict(m.quantile, a, five_pass(a, 0.0, 1.0),
                            "quantile argument must lie in [0, 1]")


@pytest.mark.parametrize("m", [EmpiricalMarginal([-1.0, 0.5, 2.0]), Marginal()],
                         ids=["finite support", "infinite support"])
def test_require_in_support(m):
    lo, hi = m.support
    for a in arrays(lo, hi):
        rejected = old_outside_support(a, lo, hi)
        assert m.contains(a) is not rejected
        expect_same_verdict(m.require_in_support, a, rejected,
                            f"value {a!r} outside marginal support {m.support}")
