import numpy as np
import pytest

from gluecop import (
    ClaytonCopula,
    Copula,
    DomainError,
    FrankCopula,
    FrechetLowerCopula,
    FrechetUpperCopula,
    GumbelCopula,
    IndependenceCopula,
    PlackettCopula,
    diagonal_crossings,
    glue,
    make_copula,
)

PI = IndependenceCopula()
M = FrechetUpperCopula()
W = FrechetLowerCopula()


class TestDiagonalCrossings:
    def test_product_has_no_crossings(self):
        assert diagonal_crossings(PI).crossings == []

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.6])
    def test_tent_copula_single_down_crossing(self, theta):
        report = diagonal_crossings(make_copula("example1", theta))
        assert len(report.crossings) == 1
        c = report.crossings[0]
        assert c.direction == "down"
        assert c.t == pytest.approx(theta, abs=1e-3)
        # with tol=None too, which is the default
        assert diagonal_crossings(make_copula("example1", theta),
                                  tol=None).mixed_dependence is True

    def test_refinement_accuracy(self):
        c = make_copula("example1", 0.37)
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
                                   GumbelCopula(2), PlackettCopula(0.3), M, W, PI],
                             ids=lambda c: repr(c))
    def test_totally_ordered_families_have_no_crossings(self, c):
        # a band 100 times narrower than the default
        report = diagonal_crossings(c, tol=1e-6)
        assert report.crossings == []
        assert report.mixed_dependence is False

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

    # 3.5 used to keep runs of >= 4 points and be written into the report
    @pytest.mark.parametrize("persistence", [3.5, 5.0, np.float64(5)],
                             ids=["3.5", "5.0", "float64"])
    def test_float_persistence_is_type_error(self, persistence):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            diagonal_crossings(make_copula("example1", 0.6), persistence=persistence)

    def test_numpy_integer_persistence_is_an_int(self):
        c = make_copula("example1", 0.6)
        report = diagonal_crossings(c, persistence=np.int64(5))
        assert report == diagonal_crossings(c, persistence=5)
        assert type(report.persistence) is int

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, np.nan, np.inf])
    def test_negative_or_non_finite_tol(self, tol):
        with pytest.raises(DomainError, match=r"^tol must be >= 0 and finite$"):
            diagonal_crossings(PI, tol=tol)

    @pytest.mark.parametrize("c", [make_copula("example1", 0.3), M, W, ClaytonCopula(2)],
                             ids=lambda c: repr(c))
    def test_none_is_the_default_tolerance(self, c):
        assert diagonal_crossings(c, tol=None) == diagonal_crossings(c)
        assert diagonal_crossings(c, tol=None).tolerance == 1e-4

    def test_zero_tol_is_allowed(self):
        report = diagonal_crossings(M, tol=0.0)
        assert report.crossings == []
        assert report.mixed_dependence is False
        assert diagonal_crossings(make_copula("example1", 0.5),
                                  tol=0.0).mixed_dependence is True


class _StepDiagonal(Copula):
    """Stub whose g(t) = delta(t) - t^2 equals ``values[i]`` on the cell of
    point i of the ``len(values)``-point grid; only the hook ``_diagonal``,
    which detection reads, is defined."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def _diagonal(self, t):
        last = self.values.size - 1
        cell = np.clip(np.floor(t * last + 0.5).astype(int), 0, last)
        return t * t + self.values[cell]


def _steps(*runs):
    return [value for value, length in runs for _ in range(length)]


GRID_64 = np.linspace(0.0, 1.0, 64)
# +, zero band, +, -: a touch inside the band, one crossing after it
PLUS_BAND_PLUS_MINUS = _steps((0.01, 20), (0.0, 10), (0.01, 20), (-0.01, 14))
# the band holds a 3-point - run: crossings when it is kept, a touch when not
PLUS_BLIP_PLUS_MINUS = _steps((0.01, 20), (0.0, 4), (-0.01, 3), (0.0, 3),
                              (0.01, 20), (-0.01, 14))
# g never drops below the band, and only touches it
PLUS_BAND_PLUS = _steps((0.01, 20), (0.0, 24), (0.01, 20))


class TestTouches:
    @pytest.mark.parametrize("persistence", [1, 3, 10])
    def test_touch_then_crossing(self, persistence):
        report = diagonal_crossings(_StepDiagonal(PLUS_BAND_PLUS_MINUS), 64,
                                    tol=1e-4, persistence=persistence)
        assert report.touches == [0.5 * (GRID_64[19] + GRID_64[30])]
        assert [c.direction for c in report.crossings] == ["down"]
        assert report.crossings[0].t == pytest.approx(49.5 / 63, abs=1e-6)
        assert report.mixed_dependence is True

    @pytest.mark.parametrize("persistence, directions, touches", [
        (1, ["down", "up", "down"], []),
        (3, ["down", "up", "down"], []),
        (4, ["down"], [0.5 * (GRID_64[19] + GRID_64[30])]),
        (10, ["down"], [0.5 * (GRID_64[19] + GRID_64[30])]),
    ])
    def test_short_run_is_filtered_to_a_touch(self, persistence, directions,
                                              touches):
        report = diagonal_crossings(_StepDiagonal(PLUS_BLIP_PLUS_MINUS), 64,
                                    tol=1e-4, persistence=persistence)
        assert [c.direction for c in report.crossings] == directions
        assert report.touches == touches
        assert report.mixed_dependence is True

    @pytest.mark.parametrize("persistence", [1, 10])
    def test_touch_without_crossing_is_not_mixed(self, persistence):
        c = _StepDiagonal(PLUS_BAND_PLUS)
        report = diagonal_crossings(c, 64, tol=1e-4, persistence=persistence)
        assert report.crossings == []
        assert report.touches == [0.5 * (GRID_64[19] + GRID_64[44])]
        assert report.mixed_dependence is False

    def test_filtered_run_still_counts_as_mixed(self):
        # a 3-point - run below persistence is no crossing, but g does go
        # below -tol, which is all mixed dependence asks
        c = _StepDiagonal(_steps((0.01, 30), (-0.01, 3), (0.01, 31)))
        report = diagonal_crossings(c, 64, tol=1e-4, persistence=5)
        assert report.crossings == []
        assert report.touches == [0.5 * (GRID_64[29] + GRID_64[33])]
        assert report.mixed_dependence is True

    @pytest.mark.parametrize("persistence", [1, 5])
    def test_nan_is_coded_zero(self, persistence):
        # a NaN is beyond both sides of the band, so it codes 0: inside a +
        # run it splits the run with a touch, and it is no crossing
        c = _StepDiagonal(_steps((0.01, 20), (np.nan, 1), (0.01, 20),
                                 (np.nan, 3), (0.01, 20)))
        report = diagonal_crossings(c, 64, tol=1e-4, persistence=persistence)
        assert report.crossings == []
        assert report.touches == [0.5 * (GRID_64[19] + GRID_64[21]),
                                  0.5 * (GRID_64[40] + GRID_64[44])]
        assert report.mixed_dependence is False
