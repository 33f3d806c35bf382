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
