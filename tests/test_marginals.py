import numpy as np
import pytest

from gluecop import (
    DataError,
    DomainError,
    EmpiricalMarginal,
    UniformMarginal,
)


class TestUniform:
    def test_cdf_quantile(self):
        m = UniformMarginal(2, 4)
        assert m.cdf(3.0) == pytest.approx(0.5)
        assert m.quantile(0.5) == pytest.approx(3.0)
        assert m.support == (2.0, 4.0)

    def test_rejects_degenerate(self):
        with pytest.raises(DataError):
            UniformMarginal(1, 1)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            UniformMarginal().quantile(1.5)

    @pytest.mark.parametrize("a, b", [
        (-1e308, 1e308), (-np.inf, 0.0), (np.float64(-1e308), np.float64(1e308)),
        (-np.finfo(float).max, np.finfo(float).max)])
    def test_rejects_overflowing_span(self, a, b):
        # b - a = inf would turn every cdf and quantile into inf or NaN
        with pytest.raises(DataError, match="^uniform marginal needs "):
            UniformMarginal(a, b)

    def test_largest_span_is_finite(self):
        m = UniformMarginal(-8e307, 8e307)
        assert m.cdf([-8e307, 0.0, 8e307]).tolist() == [0.0, 0.5, 1.0]
        assert m.quantile([0.0, 0.5, 1.0]).tolist() == [-8e307, 0.0, 8e307]

    def test_cdf_far_outside_a_wide_support(self):
        # x is clipped into [a, b] before x - a is taken, which could overflow
        m = UniformMarginal(-8e307, 8e307)
        big = np.finfo(float).max
        assert m.cdf([-big, -1.7e308, 1.7e308, big]).tolist() == [0.0, 0.0, 1.0, 1.0]
        assert m.cdf(1.7e308) == 1.0


class TestEmpirical:
    def test_generalized_inverse_inequalities(self):
        rng = np.random.default_rng(3)
        m = EmpiricalMarginal(rng.normal(size=200))
        ps = np.linspace(0.01, 0.99, 53)
        assert np.all(m.cdf(m.quantile(ps)) >= ps - 1e-12)
        xs = np.linspace(*m.support, 53)
        assert np.all(m.quantile(m.cdf(xs)) <= xs + 1e-12)

    def test_cdf_monotone(self):
        m = EmpiricalMarginal([3.0, 1.0, 2.0, 5.0])
        xs = np.linspace(0, 6, 100)
        assert np.all(np.diff(m.cdf(xs)) >= 0)

    def test_needs_two_points(self):
        with pytest.raises(DataError):
            EmpiricalMarginal([1.0])

    @pytest.mark.parametrize("values", [[0.5, 0.5], [2.0, 2.0, 2.0], [-0.0, 0.0],
                                        [0.0, -0.0, 0.0]])
    def test_needs_two_distinct_values(self, values):
        # a support of one point has no interior, and its cdf is a step
        message = r"^empirical marginal needs >= 2 distinct values$"
        with pytest.raises(DataError, match=message):
            EmpiricalMarginal(values)
        with pytest.raises(DataError, match=message):
            EmpiricalMarginal._sorted_by(values, np.argsort(values))
        assert EmpiricalMarginal(values + [3.0]).support == (min(values), 3.0)


def _column(kind: str) -> np.ndarray:
    rng = np.random.default_rng(4)
    if kind == "continuous":
        return rng.normal(size=1000)
    v = np.round(rng.normal(size=1000), 1) + 0.0  # ties, zeros all +0.0
    zero = v == 0.0
    if kind == "signed zeros":
        v[zero] = np.where(rng.uniform(size=zero.sum()) < 0.5, -0.0, 0.0)
    elif kind == "negative zeros":
        v[zero] = -0.0
    return v


class TestSortedBy:
    """``EmpiricalMarginal._sorted_by`` takes the knots from a sorting
    permutation; they must be those of ``EmpiricalMarginal``, bit for bit."""

    @pytest.mark.parametrize("kind, sorts", [("continuous", 0), ("ties", 0),
                                             ("negative zeros", 0),
                                             ("signed zeros", 1)])
    def test_knots_equal_the_sorting_constructor(self, kind, sorts, monkeypatch):
        v = _column(kind)
        ref = EmpiricalMarginal(v)
        sort, sorted_sizes = np.sort, []

        def counting(a, *args, **kwargs):
            sorted_sizes.append(np.size(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting)
        m = EmpiricalMarginal._sorted_by(v, np.argsort(v))
        # only values holding both -0.0 and 0.0 are sorted again
        assert sorted_sizes == [v.size] * sorts
        assert m.knots_x.tobytes() == ref.knots_x.tobytes()
        assert m.knots_p.tobytes() == ref.knots_p.tobytes()
        assert repr(m.support) == repr(ref.support)

    @pytest.mark.parametrize("values", [[1.0], [0.5, np.nan], [np.inf, 1.0]])
    def test_keeps_the_checks(self, values):
        with pytest.raises(DataError):
            EmpiricalMarginal._sorted_by(values, np.argsort(values))
