"""Estimation from data: pseudo-observations, empirical copula, break-point
detection on samples, and per-segment parametric fitting.

Fitting is deliberately light-weight moment matching: each family's
parameter is found by inverting the family's Spearman rho (computed by the
same quadrature used everywhere else) against the sample rho with a
Brent-Dekker root finder bracketed by the family's search range, and the
winning family minimizes an L2 grid distance between the empirical and the
fitted copula.  The Fréchet bounds and the product copula enter as
parameterless candidates so that exactly monotone or independent segments
resolve cleanly; a bound enters only where the sample rho does not have the
other sign.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .copulas import (CLAYTON_NEAR, FRANK_NEAR, PLACKETT_NEAR, Copula,
                      _finite_difference_du, make_copula)
from .dependence import (GRID_N_DEFAULT, CrossingReport, DependenceReport,
                         dependence_report, diagonal_crossings, spearman_rho)
from .errors import DataError, DomainError, ParameterError, out_of_range
from .marginals import EmpiricalMarginal
from .reference import Sample, seeded_rng
from .regression import PiecewiseRegressionModel

MIN_SEGMENT_POINTS = 20
GOF_GRID_N = 32
_CDF_BLOCK = 1024   # query points per empirical-copula count

DETECTION_PERSISTENCE = 10  # grid points a sign run of delta_n(t) - t^2 must span
MIN_DETECTION_POINTS = 50   # detection on fewer points draws a warning

#: parameter search ranges for Spearman-rho inversion, keyed by family and
#: by the sign of the target rho where the family covers both signs; the
#: ends towards independence are where the near-independence forms begin
_FIT_RANGES = {
    "clayton": {"+": (CLAYTON_NEAR, 50.0)},
    "gumbel": {"+": (1.0 + 1e-9, 50.0)},
    "fgm": {"+": (0.0 + 1e-12, 1.0), "-": (-1.0, -1e-12)},
    "frank": {"+": (FRANK_NEAR, 30.0), "-": (-30.0, -FRANK_NEAR)},
    "plackett": {"+": (1.0 + PLACKETT_NEAR, 1e4), "-": (1e-4, 1.0 - PLACKETT_NEAR)},
}

#: the rho of each Fréchet bound: a bound is a candidate only for a segment
#: whose sample rho does not have the other sign
_BOUND_RHO = {"frechet-upper": 1.0, "frechet-lower": -1.0}

DEFAULT_FIT_FAMILIES = ("product", "frechet-upper", "frechet-lower",
                        "clayton", "frank", "gumbel", "fgm", "plackett")


@dataclass(frozen=True)
class PseudoSample:
    """Rank-transformed sample with coordinates strictly inside (0, 1).

    A ranking also keeps the midranks behind u and v and the permutations
    that sort them, so that Spearman rho and the empirical copula's counts
    need no second sort; both are None on a sample that was not ranked."""

    u: np.ndarray
    v: np.ndarray
    ranks: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    orders: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.u.size


def _sort_ranks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation that sorts ``a``, and the midranks of ``a``."""
    order = np.argsort(a)
    return order, _ranks_in_order(a[order], order)


def _ranks_in_order(s: np.ndarray, order: np.ndarray) -> np.ndarray:
    """1-based midranks, in data order, of the values ``s`` = a[order]
    sorted by ``order``; each tie group gets the mean of its ranks."""
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[first, s.size])
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2, counts)
    return ranks


def pseudo_observations(s: Sample) -> PseudoSample:
    """Coordinatewise midranks scaled by 1/(n+1); a constant column carries
    no rank information and is a ``DataError``.  Each column is sorted once,
    and the ranks and sort orders ride along on the result."""
    for name, col in (("x", s.x), ("y", s.y)):
        if col.min() == col.max():
            raise DataError(f"the {name} column is constant")
    n = s.n
    (ox, rx), (oy, ry) = _sort_ranks(s.x), _sort_ranks(s.y)
    return PseudoSample(u=rx / (n + 1), v=ry / (n + 1), ranks=(rx, ry),
                        orders=(ox, oy))


def rank_correlation(ru: np.ndarray, rv: np.ndarray) -> float:
    """The Pearson correlation of two midrank vectors: the sample Spearman
    rho, by the same column-stacked ``np.corrcoef`` call as SciPy, so the
    two agree bit for bit (NaN for a constant column).  The midranks of
    r/(n+1) are r, so a ranking's own ranks give the sample Spearman rho of
    its pseudo-observations."""
    return float(np.corrcoef(np.column_stack((ru, rv)), rowvar=False)[1, 0])


class EmpiricalCopula(Copula):
    """Step-function estimator (1/n) * #{u_i <= u, v_i <= v}."""

    name = "empirical"
    smooth = False

    def __init__(self, ps: PseudoSample):
        self.u = np.asarray(ps.u, dtype=float)
        self.v = np.asarray(ps.v, dtype=float)
        self.n = self.u.size
        self._orders = ps.orders

    @functools.cached_property
    def _sorted_columns(self):
        """Each column's sorting permutation and sorted values: the
        ranking's orders when it kept them, else one sort each."""
        orders = self._orders or (np.argsort(self.u), np.argsort(self.v))
        return tuple((o, c[o]) for o, c in zip(orders, (self.u, self.v)))

    def _count_grid(self, us, vs):
        # histogram-and-cumsum count on sorted axes: O(n + grid^2), not
        # O(n*grid^2).  Cell k of an axis holds the values in
        # (axis[k-1], axis[k]]; a sorted column fills its cells in order,
        # so each point's cell comes from the column's order and the cell
        # sizes, found by binary search of the axis in the sorted column.
        cells = np.zeros(self.n, dtype=np.intp)
        for (order, col), axis, stride in zip(self._sorted_columns, (us, vs),
                                              (vs.size + 1, 1)):
            upto = np.searchsorted(col, axis, side="right")
            sizes = np.diff(upto, prepend=0, append=self.n)
            cells[order] += np.repeat(np.arange(axis.size + 1) * stride, sizes)
        counts = np.bincount(cells, minlength=(us.size + 1) * (vs.size + 1))
        counts = counts.reshape(us.size + 1, vs.size + 1)
        return counts[:-1, :-1].cumsum(axis=0).cumsum(axis=1) / self.n

    def _on_distinct(self, u, v):
        """The count grid on the distinct values of u and v, and each
        value's row and column in it."""
        uq, iu = np.unique(u, return_inverse=True)
        vq, iv = np.unique(v, return_inverse=True)
        return self._count_grid(uq, vq), iu, iv

    def _cdf(self, u, v):
        if u.ndim == v.ndim == 2 and u.shape[1] == v.shape[0] == 1:
            # a column and a row: one count grid on their distinct values
            grid, iu, iv = self._on_distinct(u.ravel(), v.ravel())
            return grid[np.ix_(iu, iv)]
        shape = np.broadcast(u, v).shape
        uq, vq = (a.ravel() for a in np.broadcast_arrays(u, v))
        out = np.empty(uq.shape)
        # each block is a grid of at most _CDF_BLOCK^2 cells
        for i in range(0, uq.size, _CDF_BLOCK):
            sl = slice(i, i + _CDF_BLOCK)
            grid, iu, iv = self._on_distinct(uq[sl], vq[sl])
            out[sl] = grid[iu, iv]
        return out.reshape(shape)

    @functools.cached_property
    def _sorted_max(self):
        return np.sort(np.maximum(self.u, self.v))

    def _diagonal(self, t):
        # delta(t) is the ECDF of max(u_i, v_i)
        return np.searchsorted(self._sorted_max, t, side="right") / self.n

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
    would leave an empty segment.  Raw and sorted x give the same bits: a
    quantile inside a tie group of -0.0 and 0.0 takes its sign from where
    a partition puts them, so ``+ 0.0`` writes a break-point at zero as 0.0."""
    top = float(np.max(x))
    return [b for b in dict.fromkeys(float(np.quantile(x, c.t)) + 0.0
                                     for c in report.crossings) if b != top]


def sample_dependence_report(ps: PseudoSample) -> DependenceReport:
    """The dependence report of ranked data's empirical copula, classed on a
    16-point grid with twice the detection tolerance ``empirical_tolerance(n)``."""
    return dependence_report(EmpiricalCopula(ps), grid_n=16,
                             tol=2.0 * empirical_tolerance(ps.n))


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


def _checked_families(families) -> tuple:
    """``families`` as a tuple, taken once so that an iterator is read once;
    a string, empty or with an unknown name is a ``ParameterError``."""
    if isinstance(families, str):
        raise ParameterError(f"families must be a collection of family names, "
                             f"not the string {families!r}")
    families = tuple(families)
    if not families:
        raise ParameterError("families is empty; give at least one family")
    unknown = [f for f in families if f not in DEFAULT_FIT_FAMILIES]
    if unknown:
        raise ParameterError(f"unknown families: {', '.join(unknown)}")
    return families


def fit_segment(u, v, families=DEFAULT_FIT_FAMILIES,
                interval: tuple[float, float] | None = None) -> FitResult:
    """Best moment-matched copula for one segment's pseudo-observations; a
    family outside ``DEFAULT_FIT_FAMILIES`` is a ``ParameterError``, and u
    and v that are not 1-D arrays of one length in [0, 1] a ``DomainError``."""
    families = _checked_families(families)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.shape != u.shape:
        raise DomainError("u and v must be 1-D arrays of one length, not of "
                          f"shapes {u.shape} and {v.shape}")
    if out_of_range(u, 0.0, 1.0) or out_of_range(v, 0.0, 1.0):
        raise DomainError("pseudo-observations u and v must lie in [0, 1]")
    (ou, ru), (ov, rv) = _sort_ranks(u), _sort_ranks(v)
    return _fit_ranked(PseudoSample(u=u, v=v, ranks=(ru, rv), orders=(ou, ov)),
                       families, interval)


def _fit_ranked(ps: PseudoSample, families, interval) -> FitResult:
    """``fit_segment`` on a segment ranked with its midranks and orders."""
    if ps.n < MIN_SEGMENT_POINTS:
        raise DataError(f"segment has {ps.n} points; need >= {MIN_SEGMENT_POINTS}")
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_hat = rank_correlation(*ps.ranks)
    if np.isnan(rho_hat):
        where = "" if interval is None else f" ({interval[0]:g}, {interval[1]:g}]"
        raise DataError(f"segment{where} has a constant x or y column; "
                        "its Spearman rho is undefined")

    # goodness of fit: mean squared difference between the empirical and
    # the fitted copula on one grid, built once for every candidate
    t = np.arange(1, GOF_GRID_N + 1) / (GOF_GRID_N + 1)
    emp = EmpiricalCopula(ps)._cdf(t[:, None], t[None, :])
    best: FitResult | None = None
    for family in families:
        if _BOUND_RHO.get(family, 0.0) * rho_hat < 0:
            continue
        theta = None
        if family in _FIT_RANGES:
            theta = _invert_rho(family, rho_hat)
            if theta is None:
                continue
        c = make_copula(family, theta)
        gof = float(np.mean((emp - c._cdf(t[:, None], t[None, :])) ** 2))
        if best is None or gof < best.gof_distance:
            best = FitResult(family=family, theta=theta, rho_hat=rho_hat,
                             gof_distance=gof, interval=interval, copula=c)
    if best is None:
        raise DataError("no candidate family attains the sample Spearman rho")
    return best


def _segment(ps: PseudoSample, k_lo: int, k_hi: int) -> PseudoSample:
    """Places k_lo to k_hi - 1 of the x order of the ranked sample ``ps``,
    in data order and ranked within the segment without a sort.

    A segment is a range of x values, so no tie group of x straddles its
    ends: each x midrank drops by k_lo = #(x <= lo).  The y order
    restricted to the segment sorts the segment's v, whose ties are those
    of y, and gives its midranks."""
    (ox, oy), (rx, _) = ps.orders, ps.ranks
    inside = np.zeros(ps.n, dtype=bool)
    inside[ox[k_lo:k_hi]] = True
    idx = np.flatnonzero(inside)
    local = np.empty(ps.n, dtype=np.intp)  # global index -> segment position
    local[idx] = np.arange(idx.size)
    oy_in = oy[inside[oy]]
    u_order, v_order = local[ox[k_lo:k_hi]], local[oy_in]
    u_ranks = rx[idx] - k_lo
    v_ranks = _ranks_in_order(ps.v[oy_in], v_order)
    return PseudoSample(u=u_ranks / (idx.size + 1), v=ps.v[idx],
                        ranks=(u_ranks, v_ranks), orders=(u_order, v_order))


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
    family outside ``DEFAULT_FIT_FAMILIES``, or a string of families or of
    candidates, is a ``ParameterError``, raised before the data is ranked.
    Each column is sorted once: detection, the within-segment ranks, every
    goodness-of-fit count and the empirical marginals' knots come from
    those two orders, and detected break-points are quantiles of the sorted x."""
    families = _checked_families(families)
    if isinstance(candidates, str):
        raise ParameterError("candidates must be a collection of break-points, "
                             f"not the string {candidates!r}")
    _warn_if_small(s.n, "piecewise fitting")
    ps = pseudo_observations(s)
    ox, oy = ps.orders
    mx = EmpiricalMarginal._sorted_by(s.x, ox)
    my = EmpiricalMarginal._sorted_by(s.y, oy)
    if candidates is None:
        candidates = crossing_breakpoints(mx.knots_x, crossing_report(ps))
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

    edges = [-np.inf] + bps + [np.inf]
    # the segment (lo, hi] is places k_lo = #(x <= lo) to k_hi - 1 of the x order
    k = [0, *np.searchsorted(mx.knots_x, bps, side="right"), s.n]
    fits: list[FitResult] = []
    for lo, hi, k_lo, k_hi in zip(edges, edges[1:], k, k[1:]):
        interval = (max(lo, x_lo), min(hi, x_hi))
        fits.append(_fit_ranked(_segment(ps, k_lo, k_hi), families, interval))

    model = PiecewiseRegressionModel(
        break_points=tuple(bps),
        segment_copulas=tuple(f.copula for f in fits),
        marginal_x=mx,
        marginal_y=my,
    )
    return PiecewiseFit(model=model, segments=fits, break_points=bps)


# ---------------------------------------------------------------------------
# simulation through the conditional quantile
# ---------------------------------------------------------------------------

def simulate_copula(c: Copula, n: int, seed: int = 0) -> PseudoSample:
    """Draw (U, V) from a copula: U uniform, V by conditional-quantile
    inversion, piece by piece on the slabs of a glued copula; exact for
    singular copulas.  The draws go to ``c._conditional_quantile``, unchecked."""
    rng = seeded_rng(n, seed)
    u = rng.uniform(size=n)
    p = rng.uniform(size=n)
    return PseudoSample(u=u, v=c._conditional_quantile(u, p))
