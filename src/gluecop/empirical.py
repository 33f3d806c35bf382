"""Estimation from data: pseudo-observations, empirical copula, break-point
detection on samples, and per-segment parametric fitting.

Fitting is deliberately light-weight moment matching: each family's
parameter is found by inverting the family's Spearman rho (computed by the
same quadrature used everywhere else) against the sample rho with a
Brent-Dekker root finder bracketed by the family's search range, and the
winning family minimizes an L2 grid distance between the empirical and the
fitted copula.  The Fréchet bounds and the product copula enter as
parameterless candidates so that exactly monotone or independent segments
resolve cleanly.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .changepoint import GRID_N_DEFAULT, CrossingReport, diagonal_crossings
from .copulas import (Copula, _finite_difference_du, _validate_unit,
                      conditional_quantile, make_copula)
from .dependence import DependenceReport, dependence_report, spearman_rho
from .errors import DataError, ParameterError
from .marginals import EmpiricalMarginal
from .reference import Sample, seeded_rng
from .regression import PiecewiseRegressionModel

MIN_SEGMENT_POINTS = 20
GOF_GRID_N = 32
_CDF_BLOCK = 1024   # query points per empirical-copula count

DETECTION_PERSISTENCE = 10  # grid points a sign run of delta_n(t) - t^2 must span
MIN_DETECTION_POINTS = 50   # detection on fewer points draws a warning

#: parameter search ranges for Spearman-rho inversion, keyed by family and
#: by the sign of the target rho where the family covers both signs
_FIT_RANGES = {
    "clayton": {"+": (1e-3, 50.0)},
    "gumbel": {"+": (1.0 + 1e-9, 50.0)},
    "fgm": {"+": (0.0 + 1e-12, 1.0), "-": (-1.0, -1e-12)},
    "frank": {"+": (1e-6, 30.0), "-": (-30.0, -1e-6)},
    "plackett": {"+": (1.0 + 1e-6, 1e4), "-": (1e-4, 1.0 - 1e-6)},
}

DEFAULT_FIT_FAMILIES = ("product", "frechet-upper", "frechet-lower",
                        "clayton", "frank", "gumbel", "fgm", "plackett")


@dataclass(frozen=True)
class PseudoSample:
    """Rank-transformed sample with coordinates strictly inside (0, 1)."""

    u: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return self.u.size


def _midranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; each tie group gets the mean of its ranks."""
    order = np.argsort(a)
    s = a[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[first, s.size])
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2, counts)
    return ranks


def pseudo_observations(s: Sample) -> PseudoSample:
    """Coordinatewise midranks scaled by 1/(n+1); a constant column carries
    no rank information and is a ``DataError``."""
    for name, col in (("x", s.x), ("y", s.y)):
        if col.min() == col.max():
            raise DataError(f"the {name} column is constant")
    n = s.n
    return PseudoSample(u=_midranks(s.x) / (n + 1), v=_midranks(s.y) / (n + 1))


def sample_spearman(u: np.ndarray, v: np.ndarray) -> float:
    """Sample Spearman rho: the Pearson correlation of the midranks, by the
    same column-stacked ``np.corrcoef`` call as SciPy, so the two agree bit
    for bit (NaN for a constant column)."""
    return _rank_correlation(_midranks(u), _midranks(v))


def _rank_correlation(ru: np.ndarray, rv: np.ndarray) -> float:
    return float(np.corrcoef(np.column_stack((ru, rv)), rowvar=False)[1, 0])


class EmpiricalCopula(Copula):
    """Step-function estimator (1/n) * #{u_i <= u, v_i <= v}."""

    name = "empirical"
    smooth = False
    numerical = True

    def __init__(self, ps: PseudoSample):
        self.u = np.asarray(ps.u, dtype=float)
        self.v = np.asarray(ps.v, dtype=float)
        self.n = self.u.size

    def _count_grid(self, us, vs):
        # histogram-and-cumsum count on sorted axes: O(n + grid^2), not O(n*grid^2)
        iu = np.searchsorted(us, self.u, side="left")
        iv = np.searchsorted(vs, self.v, side="left")
        counts = np.zeros((us.size + 1, vs.size + 1))
        np.add.at(counts, (iu, iv), 1.0)
        return counts[:-1, :-1].cumsum(axis=0).cumsum(axis=1) / self.n

    def _on_distinct(self, u, v):
        """The count grid on the distinct values of u and v, and each
        value's row and column in it."""
        uq, iu = np.unique(u, return_inverse=True)
        vq, iv = np.unique(v, return_inverse=True)
        return self._count_grid(uq, vq), iu, iv

    def _cdf(self, u, v):
        shape = np.broadcast(u, v).shape
        uq, vq = (a.ravel() for a in np.broadcast_arrays(u, v))
        out = np.empty(uq.shape)
        # each block is a grid of at most _CDF_BLOCK^2 cells
        for i in range(0, uq.size, _CDF_BLOCK):
            sl = slice(i, i + _CDF_BLOCK)
            grid, iu, iv = self._on_distinct(uq[sl], vq[sl])
            out[sl] = grid[iu, iv]
        return out.reshape(shape)

    def cdf_grid(self, us, vs):
        us = np.asarray(us, dtype=float).ravel()
        vs = np.asarray(vs, dtype=float).ravel()
        _validate_unit(us, vs)
        grid, iu, iv = self._on_distinct(us, vs)
        return grid[np.ix_(iu, iv)]

    def diagonal(self, t):
        # delta(t) is the ECDF of max(u_i, v_i)
        m = getattr(self, "_sorted_max", None)
        if m is None:
            m = np.sort(np.maximum(self.u, self.v))
            self._sorted_max = m
        t = np.asarray(t, dtype=float)
        out = np.searchsorted(m, t, side="right") / self.n
        return float(out) if t.ndim == 0 else out

    def _du(self, u, v):
        # coarse central difference; the raw estimator is a step function
        h = max(0.05, 2.0 / np.sqrt(self.n))
        return _finite_difference_du(self._cdf, u, v, h)


# ---------------------------------------------------------------------------
# break-point detection on samples
# ---------------------------------------------------------------------------

def empirical_tolerance(n: int) -> float:
    """Default crossing tolerance for empirical diagonals, O(n^{-1/2})."""
    return 1.5 / np.sqrt(n)


def small_sample_note(n: int, what: str) -> str | None:
    """The note that ``what`` is unreliable on n points, or None when n
    reaches ``MIN_DETECTION_POINTS``."""
    if n < MIN_DETECTION_POINTS:
        return (f"only {n} points; {what} is unreliable below "
                f"{MIN_DETECTION_POINTS}")
    return None


def _warn_if_small(n: int, what: str) -> None:
    note = small_sample_note(n, what)
    if note is not None:
        warnings.warn(note, stacklevel=3)


def crossing_report(ps: PseudoSample, grid_n: int = GRID_N_DEFAULT,
                    tol: float | None = None,
                    persistence: int = DETECTION_PERSISTENCE) -> CrossingReport:
    """The one detection policy on data: crossings of the empirical diagonal
    with t^2 on ranked ``ps``, with ``tol`` defaulting to ``empirical_tolerance``."""
    tol = empirical_tolerance(ps.n) if tol is None else tol
    return diagonal_crossings(EmpiricalCopula(ps), grid_n, tol, persistence)


def empirical_crossing_report(s: Sample) -> CrossingReport:
    """Crossings of the empirical diagonal with t^2 under the default
    detection policy of ``crossing_report``."""
    _warn_if_small(s.n, "break-point detection")
    return crossing_report(pseudo_observations(s))


def crossing_breakpoints(x, report: CrossingReport) -> list[float]:
    """Break-point candidates in x-space: the empirical x-quantile of each
    crossing, in crossing order.  Crossings that map to the same x (several
    diagonal crossings inside one tie group of a discrete x) give one
    candidate, and a candidate equal to max(x) is dropped, since either
    would leave an empty segment."""
    top = float(np.max(x))
    return [b for b in dict.fromkeys(float(np.quantile(x, c.t))
                                     for c in report.crossings) if b != top]


def sample_dependence_report(s: Sample) -> DependenceReport:
    """The dependence report of a sample: its empirical copula on a 16-point
    grid, with twice the detection tolerance ``empirical_tolerance(n)``."""
    return dependence_report(EmpiricalCopula(pseudo_observations(s)), grid_n=16,
                             tol=2.0 * empirical_tolerance(s.n))


# ---------------------------------------------------------------------------
# segment fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    family: str
    theta: float | None
    rho_hat: float
    gof_distance: float
    interval: tuple[float, float] | None
    copula: Copula


def _rho_of(family: str, theta: float) -> float:
    return spearman_rho(make_copula(family, theta))


@functools.cache
def _range_end_rho(family: str, key: str) -> tuple[float, float]:
    """Family rho at both ends of its search range for one sign of the
    target; it does not depend on the data, so it is computed once."""
    lo, hi = _FIT_RANGES[family][key]
    return _rho_of(family, lo), _rho_of(family, hi)


def _invert_rho(family: str, rho_hat: float) -> float | None:
    """Parameter with family rho equal to rho_hat, or None if unattainable."""
    ranges = _FIT_RANGES[family]
    key = "+" if rho_hat >= 0 else "-"
    if key not in ranges:
        return None
    rlo, rhi = _range_end_rho(family, key)
    if not (min(rlo, rhi) <= rho_hat <= max(rlo, rhi)):
        return None
    lo, hi = ranges[key]
    return _brent_root(lambda theta: _rho_of(family, theta) - rho_hat,
                       lo, hi, rlo - rho_hat, rhi - rho_hat)


def _brent_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Zero of f in [a, b], given fa = f(a) and fb = f(b) of opposite signs
    or zero: Brent's algorithm (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4).  Secant and inverse quadratic steps are taken
    while they stay inside the bracket and shrink it fast enough, bisection
    otherwise; it stops when the bracket is within 4 eps |b| of the zero."""
    eps = np.finfo(float).eps
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):  # keep the zero between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best estimate so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0 else -tol)
        fb = f(b)


def _check_families(families) -> None:
    unknown = [f for f in families if f not in DEFAULT_FIT_FAMILIES]
    if unknown:
        raise ParameterError(f"unknown families: {', '.join(unknown)}")


def fit_segment(u, v, families=DEFAULT_FIT_FAMILIES,
                interval: tuple[float, float] | None = None) -> FitResult:
    """Best moment-matched copula for one segment's pseudo-observations; a
    family outside ``DEFAULT_FIT_FAMILIES`` is a ``ParameterError``."""
    _check_families(families)
    return _fit_ranked(u, None, v, families, interval)


def _fit_ranked(u, u_ranks, v, families, interval) -> FitResult:
    """``fit_segment`` given the midranks of u, or None to rank u here."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size < MIN_SEGMENT_POINTS:
        raise DataError(f"segment has {u.size} points; need >= {MIN_SEGMENT_POINTS}")
    if u_ranks is None:
        u_ranks = _midranks(u)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_hat = _rank_correlation(u_ranks, _midranks(v))
    if np.isnan(rho_hat):
        where = "" if interval is None else f" ({interval[0]:g}, {interval[1]:g}]"
        raise DataError(f"segment{where} has a constant x or y column; "
                        "its Spearman rho is undefined")

    # goodness of fit: mean squared difference between the empirical and
    # the fitted copula on one grid, built once for every candidate
    t = np.arange(1, GOF_GRID_N + 1) / (GOF_GRID_N + 1)
    emp = EmpiricalCopula(PseudoSample(u=u, v=v)).cdf_grid(t, t)
    best: FitResult | None = None
    for family in families:
        theta = None
        if family in _FIT_RANGES:
            theta = _invert_rho(family, rho_hat)
            if theta is None:
                continue
        c = make_copula(family, theta)
        gof = float(np.mean((emp - c.cdf_grid(t, t)) ** 2))
        if best is None or gof < best.gof_distance:
            best = FitResult(family=family, theta=theta, rho_hat=rho_hat,
                             gof_distance=gof, interval=interval, copula=c)
    if best is None:
        raise DataError("no candidate family attains the sample Spearman rho")
    return best


@dataclass(frozen=True)
class PiecewiseFit:
    model: PiecewiseRegressionModel
    segments: list[FitResult]
    break_points: list[float]


def fit_piecewise(s: Sample, candidates=None,
                  families=DEFAULT_FIT_FAMILIES) -> PiecewiseFit:
    """Split at break-points, rescale each segment's u by within-segment
    ranks (the empirical conditional marginal), fit each segment, and
    assemble a piecewise regression model with empirical marginals.  A
    family outside ``DEFAULT_FIT_FAMILIES`` is a ``ParameterError``, raised
    before the data is ranked."""
    _check_families(families)
    _warn_if_small(s.n, "piecewise fitting")
    ps = pseudo_observations(s)  # ranked once: detection and global y ranks
    if candidates is None:
        candidates = crossing_breakpoints(s.x, crossing_report(ps))
    bps = sorted(float(b) for b in candidates)
    x_lo, x_hi = float(s.x.min()), float(s.x.max())
    for b in bps:
        # b = max(x) would leave the last segment empty
        if not x_lo <= b < x_hi:
            raise DataError(f"break-point {b:g} is outside [{x_lo:g}, {x_hi:g}), "
                            "the x range of the data")
    for b0, b1 in zip(bps, bps[1:]):
        if b0 == b1:
            raise DataError(f"break-point {b1:g} is given twice")

    v_global = ps.v
    edges = [-np.inf] + bps + [np.inf]
    fits: list[FitResult] = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (s.x > lo) & (s.x <= hi)
        ranks = _midranks(s.x[mask])
        interval = (max(lo, x_lo), min(hi, x_hi))
        fits.append(_fit_ranked(ranks / (ranks.size + 1), ranks, v_global[mask],
                                families, interval))

    model = PiecewiseRegressionModel(
        break_points=tuple(bps),
        segment_copulas=tuple(f.copula for f in fits),
        marginal_x=EmpiricalMarginal(s.x),
        marginal_y=EmpiricalMarginal(s.y),
    )
    return PiecewiseFit(model=model, segments=fits, break_points=bps)


# ---------------------------------------------------------------------------
# simulation through the conditional quantile
# ---------------------------------------------------------------------------

def simulate_copula(c: Copula, n: int, seed: int = 0) -> PseudoSample:
    """Draw (U, V) from a copula: U uniform, V by conditional-quantile
    inversion; exact for singular copulas."""
    rng = seeded_rng(n, seed)
    u = rng.uniform(size=n)
    p = rng.uniform(size=n)
    return PseudoSample(u=u, v=np.asarray(conditional_quantile(c, u, p)))
