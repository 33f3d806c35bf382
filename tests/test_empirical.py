import re
import warnings

import numpy as np
import pytest
from scipy.stats import rankdata, spearmanr

from gluecop import (
    ClaytonCopula,
    Crossing,
    CrossingReport,
    DataError,
    DomainError,
    EmpiricalCopula,
    FGMCopula,
    FrankCopula,
    GumbelCopula,
    ParameterError,
    PlackettCopula,
    Sample,
    crossing_breakpoints,
    empirical_crossing_report,
    empirical_tolerance,
    fit_piecewise,
    fit_segment,
    pseudo_observations,
    simulate_copula,
    simulate_example1,
    simulate_example4,
    spearman_rho,
    tent,
)
from gluecop import EmpiricalMarginal, PiecewiseRegressionModel, empirical
from gluecop.copulas import make_copula
from gluecop.empirical import (_FIT_RANGES, GOF_GRID_N, MIN_SEGMENT_POINTS,
                               PseudoSample, _invert_rho, _rho_of, _sort_ranks,
                               crossing_report, rank_correlation)
from gluecop.model_io import dumps_canonical, model_to_dict


class TestPseudoObservations:
    def test_values_for_small_sample(self):
        ps = pseudo_observations(Sample(x=[3.0, 1.0, 2.0], y=[10.0, 30.0, 20.0]))
        assert np.allclose(ps.u, [0.75, 0.25, 0.5])
        assert np.allclose(ps.v, [0.25, 0.75, 0.5])

    def test_ties_get_midranks(self):
        ps = pseudo_observations(Sample(x=[1.0, 1.0, 2.0], y=[0.0, 1.0, 2.0]))
        assert np.allclose(ps.u, [1.5 / 4, 1.5 / 4, 3 / 4])

    def test_open_interval(self):
        rng = np.random.default_rng(0)
        ps = pseudo_observations(Sample(x=rng.normal(size=100),
                                        y=rng.normal(size=100)))
        assert np.all((ps.u > 0) & (ps.u < 1))
        assert np.all((ps.v > 0) & (ps.v < 1))

    @pytest.mark.parametrize("levels", [None, 2, 7, 50], ids=lambda k: f"levels={k}")
    @pytest.mark.parametrize("n", [2, 3, 31, 1000])
    def test_equals_scipy_average_ranks(self, n, levels):
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(2, n))
        if levels is not None:
            x = rng.integers(0, levels, n).astype(float)
            x[:2] = [0.0, 1.0]  # never constant
        ps = pseudo_observations(Sample(x=x, y=y))
        assert np.array_equal(ps.u, rankdata(x, method="average") / (n + 1))
        assert np.array_equal(ps.v, rankdata(y, method="average") / (n + 1))

    def test_midranks_of_empty_and_single(self):
        assert _sort_ranks(np.array([]))[1].size == 0
        assert np.array_equal(_sort_ranks(np.array([4.0]))[1], [1.0])

    @pytest.mark.parametrize("x, y", [([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                                      ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])],
                             ids=["constant-x", "constant-y"])
    def test_constant_column_is_data_error(self, x, y):
        with pytest.raises(DataError, match="constant"):
            pseudo_observations(Sample(x=x, y=y))

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        y = x + rng.normal(size=200)
        a = pseudo_observations(Sample(x=x, y=y))
        b = pseudo_observations(Sample(x=np.exp(x), y=y**3))
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)


class TestEmpiricalCopula:
    def test_counts(self):
        ec = EmpiricalCopula(PseudoSample(u=np.array([0.2, 0.4, 0.6, 0.8]),
                                          v=np.array([0.2, 0.8, 0.4, 0.6])))
        assert ec.cdf(0.5, 0.5) == pytest.approx(0.25)
        assert ec.cdf(1.0, 1.0) == pytest.approx(1.0)
        assert ec.cdf(0.1, 0.9) == pytest.approx(0.0)

    def test_column_by_row_matches_pointwise(self):
        ps = simulate_copula(ClaytonCopula(2.0), 300, seed=4)
        ec = EmpiricalCopula(ps)

        def count(u, v):  # brute-force reference (1/n) #{u_i <= u, v_i <= v}
            return np.array([np.mean((ps.u <= a) & (ps.v <= b))
                             for a, b in zip(np.ravel(u), np.ravel(v))]).reshape(np.shape(u))

        t = np.linspace(0.05, 0.95, 17)
        U, V = np.meshgrid(t, t, indexing="ij")
        scattered = np.random.default_rng(8).uniform(size=(2, 2500))
        scattered[:, :300] = ps.u, ps.v  # on the sample points themselves
        assert ec.cdf(0.4, 0.7) == count(0.4, 0.7)
        np.testing.assert_array_equal(ec.cdf(U, V), count(U, V))
        np.testing.assert_array_equal(ec.cdf(*scattered), count(*scattered))
        np.testing.assert_array_equal(ec.cdf(t[:, None], t[None, :]), count(U, V))
        h = max(0.05, 2.0 / np.sqrt(ps.n))
        lo, hi = np.maximum(U - h, 0.0), np.minimum(U + h, 1.0)
        np.testing.assert_array_equal(
            ec.du(U, V), np.clip((count(hi, V) - count(lo, V)) / (hi - lo), 0.0, 1.0))

    def test_column_by_row_takes_any_axes(self):
        ec = EmpiricalCopula(simulate_copula(ClaytonCopula(2.0), 300, seed=4))
        us = np.array([0.9, 0.1, 0.5, 0.1, 1.0, 0.0])
        vs = np.array([0.5, 0.5, 0.2, 0.95])
        U, V = np.meshgrid(us, vs, indexing="ij")
        np.testing.assert_array_equal(ec.cdf(us[:, None], vs[None, :]), ec.cdf(U, V))
        for bad in ([1.5], [-0.1], [np.nan], [0.2, np.nan]):
            with pytest.raises(DomainError):
                ec.cdf(np.array(bad)[:, None], vs[None, :])
            with pytest.raises(DomainError):
                ec.cdf(us[:, None], np.array(bad)[None, :])

    def test_counts_on_bounded_grids(self, monkeypatch):
        ec = EmpiricalCopula(simulate_copula(FrankCopula(3.0), 400, seed=9))
        block = empirical._CDF_BLOCK
        sizes = []
        kernel = EmpiricalCopula._count_grid

        def counting(self, us, vs):
            sizes.append((us.size, vs.size))
            return kernel(self, us, vs)

        monkeypatch.setattr(EmpiricalCopula, "_count_grid", counting)
        q = np.random.default_rng(10).uniform(size=(2, 2 * block + 5))
        ec.cdf(*q)
        assert len(sizes) == 3
        ec.du(*q)
        assert len(sizes) == 9
        t = np.linspace(0, 1, 64)
        ec.du(*np.meshgrid(t, t, indexing="ij"))
        assert all(nu * nv <= block ** 2 for nu, nv in sizes)
        # a column and a row take one count grid on their distinct values,
        # not one per block of the 64 * 64 cells they broadcast to
        sizes.clear()
        ec.cdf(t[:, None], t[None, :])
        assert sizes == [(64, 64)]

    @pytest.mark.parametrize("ranked", [True, False],
                             ids=["ranking's orders", "sorted here"])
    def test_counts_on_ties_and_data_values(self, ranked):
        # binning from the sorted columns goes wrong first where values tie
        # and where an axis value equals a data value: brute force there
        rng = np.random.default_rng(11)
        x = rng.integers(0, 6, 300).astype(float)
        y = np.round(x + rng.normal(size=300))
        ps = pseudo_observations(Sample(x=x, y=y))
        if not ranked:
            ps = PseudoSample(u=ps.u, v=ps.v)
        ec = EmpiricalCopula(ps)
        us = np.unique(np.r_[0.0, ps.u, 1.0, rng.uniform(size=5)])
        vs = np.unique(np.r_[0.0, ps.v, 1.0, rng.uniform(size=5)])
        brute = np.mean((ps.u[:, None, None] <= us[None, :, None])
                        & (ps.v[:, None, None] <= vs[None, None, :]), axis=0)
        np.testing.assert_array_equal(ec.cdf(us[:, None], vs[None, :]), brute)
        np.testing.assert_array_equal(
            ec.cdf(*np.meshgrid(us, vs, indexing="ij")), brute)
        # unsorted, repeated query points, all on data values
        i, j = rng.integers(0, 300, (2, 2000))
        np.testing.assert_array_equal(
            ec.cdf(ps.u[i], ps.v[j]),
            [np.mean((ps.u <= a) & (ps.v <= b)) for a, b in zip(ps.u[i], ps.v[j])])

    def test_overrides_no_public_method(self):
        # the public methods, and their one argument check, are Copula's
        assert [name for name, value in vars(EmpiricalCopula).items()
                if callable(value) and not name.startswith("_")] == []

    def test_diagonal_matches_cdf(self):
        ps = simulate_copula(FrankCopula(3.0), 200, seed=5)
        ec = EmpiricalCopula(ps)
        t = np.linspace(0, 1, 31)
        assert np.allclose(ec.diagonal(t), ec.cdf(t, t))

    def test_uniform_convergence_to_truth(self):
        c = GumbelCopula(2.0)
        ps = simulate_copula(c, 4000, seed=6)
        ec = EmpiricalCopula(ps)
        t = np.linspace(0.05, 0.95, 19)
        U, V = np.meshgrid(t, t, indexing="ij")
        # Massart-type bound at roughly the 1% level
        assert np.max(np.abs(ec.cdf(U, V) - c.cdf(U, V))) < 1.7 / np.sqrt(ps.n)


class TestSpearmanConsistency:
    @pytest.mark.parametrize("c", [ClaytonCopula(2.0), FrankCopula(-4.0),
                                   FGMCopula(0.8)], ids=lambda c: repr(c))
    def test_sample_rho_near_population_rho(self, c):
        ps = simulate_copula(c, 3000, seed=8)
        rho_hat = spearmanr(ps.u, ps.v).statistic
        assert rho_hat == pytest.approx(spearman_rho(c), abs=0.05)


class TestSampleSpearman:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_fit_segment_rho_equals_scipy(self, seed, tied):
        ps = simulate_copula(FrankCopula(4.0 * seed - 18.5), 20 + 97 * seed,
                             seed=seed)
        u, v = ps.u, ps.v
        if tied:
            u, v = np.round(u, 1), np.round(v, 2)
        rho_hat = fit_segment(u, v, families=("product",)).rho_hat
        assert rho_hat == spearmanr(u, v).statistic
        rho = rank_correlation(_sort_ranks(v)[1], _sort_ranks(u)[1])
        assert rho == spearmanr(v, u).statistic

    def test_constant_column_gives_nan(self):
        with np.errstate(invalid="ignore"):
            rho = rank_correlation(_sort_ranks(np.ones(30))[1],
                                   _sort_ranks(np.arange(30.0))[1])
        assert np.isnan(rho)


class TestBreakpointDetection:
    def test_tent_sample_recovers_theta(self):
        s = simulate_example1(3000, 0.6, seed=13)
        report = empirical_crossing_report(s)
        assert len(report.crossings) == 1
        assert report.crossings[0].t == pytest.approx(0.6, abs=0.05)
        assert report.tolerance == pytest.approx(empirical_tolerance(3000))

    def test_parabola_sample_recovers_half(self):
        s = simulate_example4(3000, 0.1, seed=14)
        bps = crossing_breakpoints(s.x, empirical_crossing_report(s))
        assert len(bps) == 1
        assert bps[0] == pytest.approx(0.5, abs=0.05)

    def test_monotone_sample_has_no_breakpoints(self):
        ps = simulate_copula(ClaytonCopula(3.0), 2000, seed=15)
        s = Sample(x=ps.u, y=ps.v)
        assert crossing_breakpoints(s.x, empirical_crossing_report(s)) == []

    def test_independent_sample_has_no_breakpoints(self):
        rng = np.random.default_rng(16)
        s = Sample(x=rng.uniform(size=2000), y=rng.uniform(size=2000))
        assert crossing_breakpoints(s.x, empirical_crossing_report(s)) == []

    def test_small_sample_warns(self):
        s = simulate_example1(30, 0.5, seed=17)
        with pytest.warns(UserWarning, match="unreliable"):
            empirical_crossing_report(s)

    @pytest.mark.parametrize("entry", [fit_piecewise, empirical_crossing_report])
    def test_small_sample_warns_once(self, entry):
        s = simulate_example1(40, 0.5, seed=17)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entry(s)
        assert [w.category for w in caught] == [UserWarning]
        assert "below 50" in str(caught[0].message)
        assert caught[0].filename == __file__

    def test_float_persistence_is_type_error(self):
        # 3.5 used to keep runs of >= 4 points and be written into the report
        ps = pseudo_observations(simulate_example1(500, 0.6, seed=3))
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            crossing_report(ps, persistence=3.5)
        assert crossing_report(ps, persistence=np.int64(10)) == crossing_report(ps)

    def test_candidate_at_max_x_is_dropped(self):
        x = np.repeat([0.0, 1.0, 2.0], 4)
        # x-quantiles 0, 1, 2, 2: the repeat and max(x) both go
        report = CrossingReport(crossings=[Crossing(0.2, "up"), Crossing(0.5, "down"),
                                           Crossing(0.9, "up"), Crossing(0.95, "down")])
        assert crossing_breakpoints(x, report) == [0.0, 1.0]

    @pytest.mark.parametrize("x", [
        np.repeat([3.0, 1.0, 2.0, 1.5, 1.0], [5, 7, 3, 1, 9]),
        np.tile([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0, -0.0], 5),
        np.r_[np.full(9, -0.0), np.zeros(4), np.linspace(-1.0, 1.0, 11)],
    ], ids=["ties", "signed zeros", "zero run"])
    def test_raw_and_sorted_x_give_the_same_bits(self, x):
        # fit_piecewise passes the sorted knots, analyze the raw column
        reports = [CrossingReport(crossings=[Crossing(t, "up")])
                   for t in np.linspace(0.005, 0.995, 199)]

        def bits(xs):
            return b"|".join(np.array(crossing_breakpoints(xs, r)).tobytes()
                             for r in reports)

        rng = np.random.default_rng(4)
        expected = bits(x)
        for xs in [np.sort(x), EmpiricalMarginal(x).knots_x, -np.sort(-x)[::-1],
                   *(rng.permutation(x) for _ in range(20))]:
            assert bits(xs) == expected
        assert not any(b == 0.0 and np.signbit(b)
                       for r in reports for b in crossing_breakpoints(x, r))


_INVERSION_CASES = [
    ("clayton", 0.5), ("clayton", 2.0), ("clayton", 8.0),
    ("frank", -8.0), ("frank", 2.0), ("frank", 12.0),
    ("gumbel", 1.3), ("gumbel", 2.5), ("gumbel", 6.0),
    ("fgm", -0.8), ("fgm", 0.4), ("fgm", 1.0),
    ("plackett", 0.1), ("plackett", 4.0), ("plackett", 40.0),
]


def _bisect_rho(family, rho_hat):
    """Reference inversion: 60 bisection steps on the family's range."""
    lo, hi = _FIT_RANGES[family]["+" if rho_hat >= 0 else "-"]
    increasing = _rho_of(family, hi) >= _rho_of(family, lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (_rho_of(family, mid) < rho_hat) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRhoInversion:
    @pytest.fixture()
    def rho_calls(self, monkeypatch):
        """Every (family, theta) whose rho is evaluated, with the range-end
        cache emptied before and after."""
        calls = []

        def counting(family, theta):
            calls.append((family, theta))
            return _rho_of(family, theta)

        monkeypatch.setattr(empirical, "_rho_of", counting)
        empirical._range_end_rho.cache_clear()
        yield calls
        empirical._range_end_rho.cache_clear()

    @pytest.mark.parametrize("family,theta", _INVERSION_CASES)
    def test_round_trip_through_rho(self, family, theta):
        rho = spearman_rho(make_copula(family, theta))
        theta_hat = _invert_rho(family, rho)
        rho_back = spearman_rho(make_copula(family, theta_hat))
        assert rho_back == pytest.approx(rho, abs=1e-6)

    @pytest.mark.parametrize("family,theta", _INVERSION_CASES)
    def test_residual_no_worse_than_bisection(self, family, theta):
        rho = spearman_rho(make_copula(family, theta))
        theta_hat = _invert_rho(family, rho)
        lo, hi = _FIT_RANGES[family]["+" if rho >= 0 else "-"]
        assert lo <= theta_hat <= hi
        residual = abs(_rho_of(family, theta_hat) - rho)
        assert residual <= abs(_rho_of(family, _bisect_rho(family, rho)) - rho) + 1e-15

    def test_evaluation_count(self, rho_calls):
        counts = []
        for family, theta in _INVERSION_CASES:
            rho = spearman_rho(make_copula(family, theta))
            empirical._range_end_rho.cache_clear()  # count both range ends too
            start = len(rho_calls)
            _invert_rho(family, rho)
            counts.append(len(rho_calls) - start)
        assert max(counts) <= 24
        # the 60-step bisection took 62 evaluations per call, range ends included
        assert sum(counts) <= 62 * len(_INVERSION_CASES) / 4

    def test_range_end_rho_once_per_family_and_sign(self, rho_calls):
        pos = simulate_copula(ClaytonCopula(3.0), 500, seed=30)
        neg = simulate_copula(FrankCopula(-5.0), 500, seed=31)
        for _ in range(2):
            fit_segment(pos.u, pos.v)
            fit_segment(neg.u, neg.v)
        ends = [(family, theta) for family, ranges in _FIT_RANGES.items()
                for bracket in ranges.values() for theta in bracket]
        assert [rho_calls.count(end) for end in ends] == [1] * len(ends)

    def test_unattainable_rho_returns_none(self):
        assert _invert_rho("fgm", 0.9) is None
        assert _invert_rho("clayton", -0.5) is None


# pseudo-observations of a Clayton(2) sample, for the argument checks
_PS = simulate_copula(ClaytonCopula(2.0), 200, seed=4)
PS_U, PS_V = _PS.u, _PS.v


class TestFitSegment:
    def test_recovers_fgm_parameter(self):
        ps = simulate_copula(FGMCopula(0.5), 2000, seed=20)
        fit = fit_segment(ps.u, ps.v)
        assert fit.theta is not None
        rho_fit = spearman_rho(fit.copula)
        assert rho_fit == pytest.approx(fit.rho_hat, abs=1e-6)
        assert abs(fit.rho_hat - 0.5 / 3) < 0.1

    @pytest.mark.parametrize("c", [ClaytonCopula(3.0), FrankCopula(-5.0),
                                   PlackettCopula(8.0)], ids=lambda c: repr(c))
    def test_fitted_rho_tracks_sample_rho(self, c):
        ps = simulate_copula(c, 2000, seed=21)
        fit = fit_segment(ps.u, ps.v)
        if fit.theta is not None:
            assert spearman_rho(fit.copula) == pytest.approx(fit.rho_hat, abs=1e-5)
        assert fit.rho_hat == pytest.approx(spearman_rho(c), abs=0.06)

    def test_perfectly_monotone_picks_frechet(self):
        u = np.arange(1, 101) / 101
        assert fit_segment(u, u).family == "frechet-upper"
        assert fit_segment(u, 1 - u).family == "frechet-lower"

    def test_too_few_points(self):
        with pytest.raises(DataError):
            fit_segment(np.linspace(0.1, 0.9, 10), np.linspace(0.1, 0.9, 10))

    def test_frechet_bound_of_the_other_sign_is_no_candidate(self):
        pos = simulate_copula(ClaytonCopula(3.0), 500, seed=30)
        neg = simulate_copula(FrankCopula(-5.0), 500, seed=31)
        for ps, other, own in ((pos, "frechet-lower", "frechet-upper"),
                               (neg, "frechet-upper", "frechet-lower")):
            with pytest.raises(DataError, match="no candidate family attains"):
                fit_segment(ps.u, ps.v, families=(other,))
            assert fit_segment(ps.u, ps.v, families=(other, own)).family == own

    def test_unknown_family(self):
        # checked once at entry, before any ranking: a ParameterError that
        # names every unknown family, for the segment and the piecewise fit
        u = np.arange(1, 101) / 101
        with pytest.raises(ParameterError, match="^unknown families: gaussian, t$"):
            fit_segment(u, u, families=("gaussian", "clayton", "t"))
        with pytest.raises(ParameterError, match="^unknown families: gaussian$"):
            fit_piecewise(Sample(x=u, y=u), families=("product", "gaussian"))

    def test_empty_family_list(self):
        # a usage error, checked at entry like an unknown family: one point,
        # too few to fit, still gives the ParameterError
        u = np.arange(1, 101) / 101
        for x in (u, u[:1]):
            with pytest.raises(ParameterError, match="^families is empty"):
                fit_segment(x, x, families=[])
        with pytest.raises(ParameterError, match="^families is empty"):
            fit_piecewise(Sample(x=u, y=u), families=())

    def test_families_iterator_is_read_once(self):
        # taken as a tuple once, at entry: the check does not use it up
        u = np.arange(1, 101) / 101
        fit = fit_segment(u, u, families=(f for f in ["frechet-upper"]))
        assert fit.family == "frechet-upper"
        s = simulate_example1(2000, 0.5, seed=23)
        fit = fit_piecewise(s, families=iter(["frechet-lower", "frechet-upper"]))
        assert [f.family for f in fit.segments] == ["frechet-upper",
                                                    "frechet-lower"]

    def test_families_string_is_rejected(self):
        # a string is not read letter by letter as a list of names
        u = np.arange(1, 101) / 101
        message = ("^families must be a collection of family names, "
                   "not the string 'clayton'$")
        with pytest.raises(ParameterError, match=message):
            fit_segment(u, u, families="clayton")
        with pytest.raises(ParameterError, match=message):
            fit_piecewise(Sample(x=u, y=u), families="clayton")

    @pytest.mark.parametrize("families", [b"clayton", bytearray(b"clayton")],
                             ids=["bytes", "bytearray"])
    def test_families_bytes_are_rejected(self, families):
        # bytes used to be read as byte values and end in str.join's TypeError
        u = np.arange(1, 101) / 101
        message = ("^families must be a collection of family names, not the "
                   f"string {re.escape(repr(families))}$")
        with pytest.raises(ParameterError, match=message):
            fit_segment(u, u, families=families)
        with pytest.raises(ParameterError, match=message):
            fit_piecewise(Sample(x=u, y=u), families=families)

    def test_unknown_family_that_is_not_a_string(self):
        # named as str() names it, where str.join used to raise TypeError
        u = np.arange(1, 101) / 101
        with pytest.raises(ParameterError, match="^unknown families: 1, None$"):
            fit_segment(u, u, families=("clayton", 1, None))

    @pytest.mark.parametrize("u, v", [
        (PS_U.reshape(2, -1), PS_V.reshape(2, -1)),
        (0.5, 0.5),
    ], ids=["2-D", "0-D"])
    def test_pseudo_observations_not_1d(self, u, v):
        with pytest.raises(DomainError, match="^u and v must be 1-D arrays of one"):
            fit_segment(u, v)

    def test_pseudo_observations_of_unequal_lengths(self):
        with pytest.raises(DomainError, match=r"of shapes \(200,\) and \(199,\)$"):
            fit_segment(PS_U, PS_V[:-1])

    @pytest.mark.parametrize("u, v", [
        (5 * PS_U, PS_V), (PS_U, PS_V - 0.5),
        (PS_U, np.r_[PS_V[:-1], 1 + 2 ** -52]),
    ], ids=["u above 1", "v below 0", "v one ulp above 1"])
    def test_pseudo_observations_outside_the_unit_interval(self, u, v):
        with pytest.raises(DomainError, match="^pseudo-observations u and v must"):
            fit_segment(u, v)

    @pytest.mark.parametrize("u, v", [
        (np.r_[np.nan, PS_U[1:]], PS_V), (PS_U, np.r_[PS_V[:-1], np.nan]),
    ], ids=["u", "v"])
    def test_pseudo_observations_with_nan(self, u, v):
        with pytest.raises(DomainError, match="^pseudo-observations u and v must"):
            fit_segment(u, v)

    def test_pseudo_observations_at_0_and_1_are_accepted(self):
        fit = fit_segment(np.r_[0.0, PS_U[1:-1], 1.0], PS_V)
        assert fit.rho_hat > 0

    def test_gof_distance_is_l2_grid_distance(self):
        ps = simulate_copula(FrankCopula(-5.0), 500, seed=22)
        t = np.arange(1, GOF_GRID_N + 1) / (GOF_GRID_N + 1)
        emp = EmpiricalCopula(ps).cdf(t[:, None], t[None, :])
        for family in ("product", "frank", "plackett"):
            fit = fit_segment(ps.u, ps.v, families=(family,))
            assert fit.gof_distance == float(
                np.mean((emp - fit.copula.cdf(t[:, None], t[None, :])) ** 2))

    def test_constant_column_names_the_interval(self):
        u = np.arange(1, 101) / 101
        with pytest.raises(DataError, match=r"segment \(0.1, 0.5\] has a constant"):
            fit_segment(u, np.full(100, 0.5), interval=(0.1, 0.5))
        with pytest.raises(DataError, match="segment has a constant"):
            fit_segment(np.full(100, 0.5), u)


def _unranked(s):
    raise AssertionError("the data was ranked before the check")


class TestFitPiecewise:
    def test_tent_sample(self):
        s = simulate_example1(2000, 0.5, seed=23)
        fit = fit_piecewise(s)
        assert len(fit.break_points) == 1
        assert fit.break_points[0] == pytest.approx(0.5, abs=0.05)
        assert len(fit.segments) == 2
        # the estimated split is not exactly theta, so a handful of points
        # near the kink land in the wrong segment
        assert fit.segments[0].rho_hat == pytest.approx(1.0, abs=1e-3)
        assert fit.segments[1].rho_hat == pytest.approx(-1.0, abs=1e-3)
        assert [f.family for f in fit.segments] == ["frechet-upper",
                                                    "frechet-lower"]

    def test_tent_sample_prediction_error(self):
        from gluecop import piecewise_regression
        s = simulate_example1(2000, 0.5, seed=23)
        fit = fit_piecewise(s)
        xs = np.linspace(0.05, 0.95, 181)
        mu = piecewise_regression(fit.model, xs)
        rmse = float(np.sqrt(np.mean((mu - tent(xs, 0.5)) ** 2)))
        assert rmse < 0.02

    # "0.5" used to fail inside numpy on '.', "5" was break-point 5, and
    # bytes were read as their byte values: b"5" was break-point 53; a
    # number that cannot be iterated ended in Python's own TypeError
    @pytest.mark.parametrize("candidates", [
        "0.5", "5", pytest.param(b"5", id="bytes"),
        pytest.param(bytearray(b"5"), id="bytearray"),
        pytest.param(0.5, id="float"), pytest.param(np.float64(0.5), id="float64"),
        pytest.param(np.array(0.5), id="0-d array")])
    def test_candidates_string_is_rejected(self, candidates, monkeypatch):
        monkeypatch.setattr(empirical, "pseudo_observations", _unranked)
        s = simulate_example1(200, 0.5, seed=23)
        what = "the string " if isinstance(candidates, (str, bytes, bytearray)) else ""
        message = ("^candidates must be a collection of break-points, not "
                   f"{what}{re.escape(repr(candidates))}$")
        with pytest.raises(ParameterError, match=message):
            fit_piecewise(s, candidates=candidates)

    # each used to end in float()'s own TypeError or ValueError
    @pytest.mark.parametrize("item", [[0.5], None, "abc"],
                             ids=["list", "None", "word"])
    def test_candidate_not_a_number_is_rejected(self, item, monkeypatch):
        monkeypatch.setattr(empirical, "pseudo_observations", _unranked)
        s = simulate_example1(200, 0.5, seed=23)
        message = f"^break-point {re.escape(repr(item))} is not a number$"
        with pytest.raises(ParameterError, match=message):
            fit_piecewise(s, candidates=[0.4, item])

    @pytest.mark.parametrize("candidates", [
        [0.5], (0.5,), ["0.5"], [np.float64(0.5)], [np.float32(0.5)],
        np.array([0.5]), iter([0.5]),
    ], ids=["list", "tuple", "numeric string", "float64", "float32", "array",
            "iterator"])
    def test_number_candidates_give_one_fit(self, candidates):
        s = simulate_example1(500, 0.5, seed=23)
        fit = fit_piecewise(s, candidates=candidates)
        assert fit.break_points == [0.5] and type(fit.break_points[0]) is float

    def test_ranks_once_and_matches_explicit_candidates(self, monkeypatch):
        s = simulate_example4(3000, 0.1, seed=14)
        ranked, sorted_sizes = [], []
        rank, argsort = empirical._sort_ranks, np.argsort

        def counting_rank(a):
            ranked.append(a)
            return rank(a)

        def counting_argsort(a, *args, **kwargs):
            sorted_sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        sort, sorted_values = np.sort, []

        def counting_sort(a, *args, **kwargs):
            sorted_values.append(np.size(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(empirical, "_sort_ranks", counting_rank)
        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(np, "sort", counting_sort)
        auto = fit_piecewise(s)
        # one full-column sort per column: detection, the segment ranks,
        # every goodness-of-fit count and the marginals' knots come from
        # those two orders; the one other sort is the diagonal's max(u, v)
        assert len(ranked) == 2
        assert ranked[0] is s.x and ranked[1] is s.y
        assert sorted_sizes == [s.n, s.n]
        assert sorted_values.count(s.n) == 1
        assert len(auto.break_points) == 1
        explicit = fit_piecewise(
            s, candidates=crossing_breakpoints(s.x, empirical_crossing_report(s)))
        assert auto.break_points == explicit.break_points
        assert ([(f.family, f.theta, f.gof_distance) for f in auto.segments]
                == [(f.family, f.theta, f.gof_distance) for f in explicit.segments])

    def test_explicit_candidates(self):
        ps = simulate_copula(ClaytonCopula(2.0), 500, seed=24)
        s = Sample(x=ps.u, y=ps.v)
        fit = fit_piecewise(s, candidates=[0.5])
        assert fit.break_points == [0.5]
        assert len(fit.segments) == 2
        assert fit.segments[0].interval[1] <= 0.5 + 1e-12

    def test_frechet_bound_only_with_the_sign_of_the_data(self):
        # the forced break at 0.7 is no gluing point, so v is not uniform on
        # (0.7, 1]; the L2 distance there preferred W at rho_hat = +0.22
        ps = simulate_copula(ClaytonCopula(2.0), 300, seed=24)
        fit = fit_piecewise(Sample(x=ps.u, y=ps.v), candidates=[0.3, 0.7])
        last = fit.segments[-1]
        assert last.rho_hat > 0.2
        assert last.family == "product"
        for f in fit.segments:
            assert spearman_rho(f.copula) * f.rho_hat >= 0

    def test_segment_too_small_raises(self):
        ps = simulate_copula(ClaytonCopula(2.0), 100, seed=25)
        s = Sample(x=ps.u, y=ps.v)
        with pytest.raises(DataError):
            fit_piecewise(s, candidates=[0.01])


def _fit_per_segment(s, candidates):
    """The reference fit: each segment's x ranked on its own by
    ``_sort_ranks``, then ``fit_segment``."""
    ps = pseudo_observations(s)
    if candidates is None:
        candidates = crossing_breakpoints(s.x, crossing_report(ps))
    bps = sorted(candidates)
    x_lo, x_hi = float(s.x.min()), float(s.x.max())
    edges = [-np.inf] + bps + [np.inf]
    fits = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (s.x > lo) & (s.x <= hi)
        ranks = _sort_ranks(s.x[mask])[1]
        fits.append(fit_segment(ranks / (ranks.size + 1), ps.v[mask],
                                interval=(max(lo, x_lo), min(hi, x_hi))))
    model = PiecewiseRegressionModel(tuple(bps), tuple(f.copula for f in fits),
                                     EmpiricalMarginal(s.x), EmpiricalMarginal(s.y))
    return fits, model


def _tie_case(name):
    tent_draw = simulate_example1(3000, 0.4, seed=5)
    x, y = tent_draw.x, tent_draw.y
    clayton = simulate_copula(ClaytonCopula(2.0), 300, seed=24)
    if name == "y on 3 levels":
        return Sample(x=x, y=np.round(y * 2) / 2), [0.4]
    if name == "y on 5 levels":
        return Sample(x=x, y=np.round(y * 4) / 4), [0.4]
    if name == "y on 5 levels, detected":
        return Sample(x=x, y=np.round(y * 4) / 4), None
    if name == "x ties at a break-point":
        return Sample(x=np.round(x, 2), y=y), [0.4]
    if name == "signed zeros":
        rng = np.random.default_rng(6)
        xz = np.round(rng.uniform(-1.0, 1.0, 400), 1)
        yz = np.round(xz * xz - 0.25 + rng.normal(0.0, 0.1, 400), 1)
        for col in (xz, yz):  # each zero gets a random sign
            zero = col == 0.0
            col[zero] = np.where(rng.uniform(size=zero.sum()) < 0.5, -0.0, 0.0)
        return Sample(x=xz, y=yz), [0.0]
    if name in ("MIN_SEGMENT_POINTS points", "one point short"):
        k = MIN_SEGMENT_POINTS - (name == "one point short")
        return Sample(x=clayton.u, y=clayton.v), [float(np.sort(clayton.u)[k - 1])]
    if name == "explicit candidates":
        return Sample(x=clayton.u, y=clayton.v), [0.7, 0.3]
    if name == "constant-x segment":
        return Sample(x=np.floor(x * 3) + 1, y=y), None
    raise KeyError(name)


class TestFitFromGlobalOrders:
    """``fit_piecewise`` ranks each segment from the two global sort orders;
    on ties it must give what ranking each segment on its own gave."""

    @pytest.mark.parametrize("name", [
        "y on 3 levels", "y on 5 levels", "y on 5 levels, detected",
        "x ties at a break-point", "signed zeros", "MIN_SEGMENT_POINTS points",
        "one point short", "explicit candidates", "constant-x segment"])
    def test_matches_per_segment_ranking(self, name):
        s, candidates = _tie_case(name)
        try:
            ref, ref_model = _fit_per_segment(s, candidates)
        except DataError as exc:
            with pytest.raises(DataError) as new_exc:
                fit_piecewise(s, candidates)
            assert str(new_exc.value) == str(exc)
            return
        fit = fit_piecewise(s, candidates)
        assert ([(f.family, f.theta, f.rho_hat, f.gof_distance, f.interval)
                 for f in fit.segments]
                == [(f.family, f.theta, f.rho_hat, f.gof_distance, f.interval)
                    for f in ref])
        assert (dumps_canonical(model_to_dict(fit.model))
                == dumps_canonical(model_to_dict(ref_model)))
        for m, ref_m in ((fit.model.marginal_x, ref_model.marginal_x),
                         (fit.model.marginal_y, ref_model.marginal_y)):
            assert m.knots_x.tobytes() == ref_m.knots_x.tobytes()

    @pytest.mark.parametrize("name, message", [
        ("constant-x segment", "segment (2, 3] has a constant x or y column; "
                               "its Spearman rho is undefined"),
        ("one point short", f"segment has {MIN_SEGMENT_POINTS - 1} points; "
                            f"need >= {MIN_SEGMENT_POINTS}")])
    def test_segment_errors_keep_their_text(self, name, message):
        s, candidates = _tie_case(name)
        with pytest.raises(DataError) as exc:
            fit_piecewise(s, candidates)
        assert str(exc.value) == message

    def test_cases_reach_the_tie_paths(self):
        # each case holds the ties it is named for, and all but the error
        # cases fit
        for name in ("y on 3 levels", "y on 5 levels", "y on 5 levels, detected"):
            s, _ = _tie_case(name)
            assert np.unique(s.y).size == (3 if "3" in name else 5)
        s, bps = _tie_case("x ties at a break-point")
        assert np.sum(s.x == bps[0]) > 1
        s, _ = _tie_case("signed zeros")
        for col in (s.x, s.y):
            zeros = col[col == 0.0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        s, bps = _tie_case("MIN_SEGMENT_POINTS points")
        assert fit_piecewise(s, bps).segments[0].interval[1] == bps[0]
        assert np.sum(s.x <= bps[0]) == MIN_SEGMENT_POINTS

    def test_analyze_rho_is_sample_spearman(self):
        # the ranking's own midranks give the rho of its pseudo-observations
        for name in ("y on 3 levels", "signed zeros", "constant-x segment"):
            ps = pseudo_observations(_tie_case(name)[0])
            assert rank_correlation(*ps.ranks) == spearmanr(ps.u, ps.v).statistic


class TestSimulateCopula:
    def test_frechet_upper_is_diagonal(self):
        from gluecop import FrechetUpperCopula
        ps = simulate_copula(FrechetUpperCopula(), 200, seed=27)
        assert np.max(np.abs(ps.u - ps.v)) < 1e-9

    def test_tent_copula_draws_lie_on_tent_support(self):
        ps = simulate_copula(make_copula("example1", 0.4), 500, seed=28)
        # support of the singular measure: v = u/theta or v = (1-u)/(1-theta)
        d = np.minimum(np.abs(ps.v - ps.u / 0.4),
                       np.abs(ps.v - (1 - ps.u) / 0.6))
        assert np.max(d) < 1e-8

    def test_reproducible(self):
        a = simulate_copula(FrankCopula(2.0), 50, seed=29)
        b = simulate_copula(FrankCopula(2.0), 50, seed=29)
        assert np.array_equal(a.v, b.v)
