"""Marked point process view of the inverse local time.

A jump function restricted to a window of levels is the same data as a
finite marked point set: one point per jump, with the level as abscissa and
the jump size as mark.  For an H-self-similar path the pooled marks follow
a power tail with index 1 - H, which the Hill estimator and two counting
based checks (a threshold-ratio statistic and a log-log count regression)
estimate from ensembles.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError
from .localtime import JumpBlock, JumpFunction

__all__ = [
    "FitMethod",
    "MarkedPointSet",
    "IntensityFit",
    "jumps_to_empp",
    "empp_to_jumps",
    "rescale_empp",
    "count_heavy_subintervals",
    "hill_tail_index",
    "loglog_count_fit",
    "window_exceedance_counts",
    "intensity_ratio_from_counts",
    "intensity_ratio_test",
]

RATIO_MIN_POINTS = 100


class FitMethod(enum.Enum):
    HILL = "hill"
    LOGLOG_COUNTS = "loglog_counts"


@dataclass
class MarkedPointSet:
    """Finite set of (level, mark) points inside a level window.

    With ``offsets`` the object is a block of point sets that share the
    window: set p holds the points ``offsets[p]:offsets[p + 1]`` of the
    concatenated arrays, and each set is checked as a single set would be.
    A count then gives one value per set.
    """

    locations: np.ndarray
    marks: np.ndarray
    window: tuple[float, float]
    offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.locations = locations = np.asarray(self.locations, dtype=np.float64)
        self.marks = marks = np.asarray(self.marks, dtype=np.float64)
        if locations.shape != marks.shape or locations.ndim != 1:
            raise ValueError("locations and marks must be 1-d arrays of equal length")
        n = len(locations)
        if self.offsets is not None:
            self.offsets = offsets = np.asarray(self.offsets, dtype=np.int64)
            if not (offsets.ndim == 1 and len(offsets) >= 1 and offsets[0] == 0
                    and offsets[-1] == n and (offsets[1:] >= offsets[:-1]).all()):
                raise ValueError("offsets must rise from 0 to the number of points")
        lo, hi = self.window
        # NaN fails every comparison, so these checks also refuse it
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"window must be finite with lo < hi, got {self.window}")
        if n:
            rising = locations[1:] > locations[:-1]
            if self.offsets is not None:
                # a set's first point need not lie above the last point of the set before
                starts = self.offsets[1:-1]
                rising[starts[(starts > 0) & (starts < n)] - 1] = True
            if not rising.all():
                raise ValueError("locations must be strictly increasing")
            if not (lo <= locations.min() and locations.max() <= hi):
                raise ValueError("locations must lie inside the window")
            if not (marks.min() > 0.0 and marks.max() < np.inf):
                raise ValueError("marks must be finite and positive")

    @property
    def n_points(self) -> int:
        return len(self.locations)

    def count(self, x_hi: float, mark_gt: float):
        """Number of points with location in (0, x_hi] and mark > mark_gt.

        An int for a single set; for a block, an int64 array with one count
        per set.
        """
        if math.isnan(x_hi):
            raise ValueError("x_hi must not be NaN")
        if math.isnan(mark_gt):
            raise ValueError("mark_gt must not be NaN")
        locations = self.locations
        hit = (locations > 0.0) & (locations <= x_hi) & (self.marks > mark_gt)
        if self.offsets is None:
            return int(np.count_nonzero(hit))
        offsets = self.offsets
        owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        return np.bincount(owner[hit], minlength=len(offsets) - 1)


@dataclass
class IntensityFit:
    """Fitted power-tail of the mark intensity.

    ``exponent`` estimates the tail index (1 - H for an H-self-similar
    source).  ``constant`` is the multiplicative prefactor in the fitted
    survival relation; its meaning depends on the method and is documented
    by the producing function.
    """

    exponent: float
    constant: float
    stderr: float
    k_used: int
    method: FitMethod


def jumps_to_empp(
    L: JumpFunction | Sequence[JumpFunction], window: tuple[float, float]
) -> MarkedPointSet:
    """Marked point set of the jumps of L with levels inside the window.

    The window must sit inside [0, total_mass_cap]; both endpoints are
    inclusive.  The map keeps the exact float values, so composing with
    ``empp_to_jumps`` is a bit-exact round trip.  A sequence of jump
    functions, each of which must cover the window, gives a block of point
    sets, one per function.
    """
    lo, hi = window
    if not 0.0 <= lo < hi:
        raise ValueError(f"window must satisfy 0 <= lo < hi, got {window}")
    block = JumpBlock.of(L)
    block.require_caps(hi, f"the window {window}")
    locations = block.locations
    inside = (locations >= lo) & (locations <= hi)
    if block.single:
        offsets = None
    else:
        offsets = np.zeros(len(block) + 1, dtype=np.int64)
        np.cumsum(block.per_path(inside), out=offsets[1:])
    return MarkedPointSet(
        locations=locations[inside], marks=block.sizes[inside], window=(lo, hi),
        offsets=offsets,
    )


def empp_to_jumps(points: MarkedPointSet) -> JumpFunction:
    """Jump function with exactly the jumps of the point set and no drift.

    Inverse of ``jumps_to_empp`` on the window: the reconstructed function
    reproduces the restricted jump data bit-exactly, with the window top as
    its mass cap.  A block of point sets has no single inverse.
    """
    if points.offsets is not None:
        raise ValueError("a block of point sets cannot be inverted as one jump function")
    locs = points.locations
    if len(locs) and np.any(np.diff(locs) == 0.0):
        raise ValueError("duplicate jump locations cannot be inverted")
    return JumpFunction(
        locations=locs.copy(),
        sizes=points.marks.copy(),
        drift=0.0,
        total_mass_cap=points.window[1],
    )


def rescale_empp(points: MarkedPointSet, r: float, beta: float) -> MarkedPointSet:
    """Bi-scale rescaling: (x, m) -> (x / r, m / r^beta), window / r.

    This is the point-level form of the scaling that maps the point process
    of an H-self-similar path to itself in law when beta = 1 / (1 - H).  A
    block of point sets rescales set by set into a block.
    """
    if not r > 0.0:
        raise ValueError(f"scale r must be positive, got {r}")
    mark_scale = r**beta
    return MarkedPointSet(
        locations=points.locations / r,
        marks=points.marks / mark_scale,
        window=(points.window[0] / r, points.window[1] / r),
        offsets=points.offsets,
    )


@functools.lru_cache(maxsize=8)
def _level_grid(n: int) -> np.ndarray:
    """The levels k / n, k = 0..n, as ``arange(n + 1) / n``; cached read-only."""
    grid = np.arange(n + 1, dtype=np.float64) / n
    grid.flags.writeable = False
    return grid


def count_heavy_subintervals(L: JumpFunction | Sequence[JumpFunction], n, r: float):
    """Number of n-th level subintervals of (0, 1] with L-increment above r.

    Computes sum_{k=1..n} 1{L(k/n) - L((k-1)/n) > r}, with the levels k/n
    of ``arange(n + 1) / n``.  One ``n`` gives an int; a sequence of them
    gives an int64 array of counts, from one evaluation of L.  Once 1/n is
    smaller than the smallest gap between jump locations, each subinterval
    holds at most one jump and the count stabilises at the number of jumps
    in (0, 1] with size above r (plus the negligible drift contribution).
    A sequence of jump functions gives one row of those counts per
    function.

    Only the subintervals that hold a jump in (0, 1] are evaluated: one
    without a jump rises by the drift alone, at most 2 drift / n plus four
    rounding units of L(1), and while that bound stays below r it cannot
    count.  The edges of such a subinterval need no search: below its left
    edge lie the jumps before its first one, and up to its right edge the
    jumps up to its last one.  Where the bound reaches r, all n subintervals
    are evaluated.  Either way the count equals the one over the full level
    grid.
    """
    ns = np.asarray(n)
    if ns.dtype.kind not in "iu" or ns.ndim > 1:
        raise ValueError(f"n must be an integer or a 1-d sequence of them, got {n!r}")
    subdivisions = ns.reshape(-1).tolist()
    if min(subdivisions, default=0) < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not r > 0.0:
        raise ValueError(f"threshold r must be positive, got {r}")
    block = JumpBlock.of(L)
    block.require_caps(1.0, "counting on [0, 1]")
    locs = block.locations
    # a jump at level 0 belongs to L(0), not to a subinterval
    inner = np.flatnonzero((locs > 0.0) & (locs <= 1.0))
    path = block.owner[inner]
    # the rank of each inner jump among its own function's jumps
    rank = inner - block.offsets[path]
    # drift + total jump mass bounds L(1) from above, hence also its rounding unit
    rounding = 4.0 * np.spacing(block.drifts + block.jump_mass)
    counts = np.zeros((len(block), len(subdivisions)), dtype=np.int64)
    for j, m in enumerate(subdivisions):
        grid = _level_grid(m)
        sparse = 2.0 * block.drifts / m + rounding < r
        # subinterval k holds the jumps x with grid[k - 1] < x <= grid[k]; a
        # run of jumps of one function in one subinterval is taken once
        on = sparse[path]
        p, k, i = path[on], grid.searchsorted(locs[inner[on]], side="left"), rank[on]
        first = np.ones(len(k), dtype=bool)
        first[1:] = (k[1:] != k[:-1]) | (p[1:] != p[:-1])
        last = np.roll(first, -1)
        p = p[first]
        left = block.values(p, grid[k[first] - 1], i[first])
        right = block.values(p, grid[k[last]], i[last] + 1)
        counts[:, j] = np.bincount(p[right - left > r], minlength=len(block))
        for q in np.flatnonzero(~sparse):
            jumps = block.locations[block.offsets[q]:block.offsets[q + 1]]
            values = block.values(q, grid, jumps.searchsorted(grid, side="right"))
            counts[q, j] = np.count_nonzero(values[1:] - values[:-1] > r)
    if ns.ndim == 0:
        counts = counts[:, 0]
    counts = block.result(counts)
    return int(counts) if counts.ndim == 0 else counts


def hill_tail_index(
    marks: Sequence[float] | np.ndarray, k: int, n_marks: int | None = None
) -> IntensityFit:
    """Hill estimator of the tail index from the k largest marks.

    With descending order statistics m_(1) >= m_(2) >= ...,

        exponent = [ (1/k) sum_{i<=k} log(m_(i) / m_(k+1)) ]^-1,

    and stderr = exponent / sqrt(k).  ``constant`` is the sample-level tail
    prefactor (k / n_marks) * m_(k+1)^exponent, i.e. the fitted survival
    fraction of the pooled marks is constant * m^-exponent near the tail.

    ``n_marks`` is the size of the full pool, ``len(marks)`` by default.
    Since the fit reads only m_(1), ..., m_(k+1), ``marks`` may be any part
    of the pool that holds its k + 1 largest marks (ties at m_(k+1) may be
    kept or not): the result is then the full pool's, bit for bit.
    """
    marks = np.asarray(marks, dtype=np.float64)
    if marks.ndim != 1:
        raise ValueError("marks must be a 1-d array")
    n_marks = len(marks) if n_marks is None else n_marks
    if n_marks < len(marks):
        raise ValueError(f"n_marks = {n_marks} is less than the {len(marks)} marks given")
    if n_marks < 3:
        raise InsufficientDataError(
            f"Hill needs at least 3 marks, got {n_marks}"
        )
    # NaN fails both comparisons
    if len(marks) and not (marks.min() > 0.0 and marks.max() < np.inf):
        raise ValueError("marks must be finite and positive")
    if not 2 <= k < n_marks:
        raise InsufficientDataError(
            f"k must satisfy 2 <= k < n_marks = {n_marks}, got {k}"
        )
    if k >= len(marks):
        raise ValueError(f"the k + 1 = {k + 1} largest marks are needed, got {len(marks)}")
    ordered = np.sort(marks)[::-1]
    floor_mark = float(ordered[k])
    # the ratios are divided and logged in place in the sorted copy, the
    # fit's only temporary; they keep their descending order for the sum
    log_ratios = ordered[:k]
    np.divide(log_ratios, floor_mark, out=log_ratios)
    np.log(log_ratios, out=log_ratios)
    mean_log = float(np.mean(log_ratios))
    if mean_log <= 0.0:
        raise InsufficientDataError("top marks are all equal; tail index undefined")
    exponent = 1.0 / mean_log
    return IntensityFit(
        exponent=exponent,
        constant=(k / n_marks) * floor_mark ** exponent,
        stderr=exponent / math.sqrt(k),
        k_used=k,
        method=FitMethod.HILL,
    )


def loglog_count_fit(mean_counts: np.ndarray, thresholds: np.ndarray) -> IntensityFit:
    """Tail index from a log-log regression of mean exceedance counts.

    ``mean_counts[i]`` is the ensemble-average number of points per unit
    level window with mark above ``thresholds[i]``.  Under the power-law
    intensity the means follow (c / alpha) * r^-alpha; the slope of
    log(count) on log(r) estimates -alpha and ``constant`` recovers c as
    alpha * exp(intercept).  Serves as the independent cross-check of the
    Hill route.
    """
    mean_counts = np.asarray(mean_counts, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if mean_counts.shape != thresholds.shape or mean_counts.ndim != 1:
        raise ValueError("mean_counts and thresholds must be 1-d arrays of equal length")
    if len(mean_counts) < 2:
        raise InsufficientDataError("need at least 2 thresholds for the count fit")
    if not (np.isfinite(mean_counts).all() and np.isfinite(thresholds).all()):
        raise ValueError("counts and thresholds must be finite")
    if np.any(mean_counts <= 0.0) or np.any(thresholds <= 0.0):
        raise InsufficientDataError("counts and thresholds must be positive")
    x = np.log(thresholds)
    y = np.log(mean_counts)
    slope, intercept = np.polyfit(x, y, 1)
    alpha = -float(slope)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if sxx > 0 else float("nan")
    return IntensityFit(
        exponent=alpha,
        constant=alpha * math.exp(float(intercept)),
        stderr=stderr,
        k_used=len(x),
        method=FitMethod.LOGLOG_COUNTS,
    )


def window_exceedance_counts(
    L: JumpFunction | Sequence[JumpFunction], x_window: float, thresholds: Sequence[float]
) -> np.ndarray:
    """Counts of jumps with level in (0, x_window] and size above each threshold.

    One jump function gives an int64 array shaped like ``thresholds``; a
    sequence of them gives one such row per function.
    """
    if math.isnan(x_window):
        raise ValueError("x_window must not be NaN")
    thr = np.asarray(thresholds, dtype=np.float64)
    if np.isnan(thr).any():
        raise ValueError(f"thresholds must not be NaN, got {thresholds}")
    block = JumpBlock.of(L)
    locs = block.locations
    inside = (locs > 0.0) & (locs <= x_window)
    sizes, path = block.sizes[inside], block.owner[inside]
    counts = np.empty((len(block), thr.size), dtype=np.int64)
    for j, t in enumerate(thr.reshape(-1)):
        counts[:, j] = np.bincount(path[sizes > t], minlength=len(block))
    return block.result(counts.reshape((len(block),) + thr.shape))


def intensity_ratio_from_counts(low_total: int, high_total: int) -> float:
    """Ratio of pooled exceedance counts, guarding the sparse-tail case."""
    if high_total < RATIO_MIN_POINTS:
        raise InsufficientDataError(
            f"only {high_total} points above the upper threshold; "
            f"need {RATIO_MIN_POINTS}"
        )
    return low_total / high_total


def intensity_ratio_test(
    L_ensemble: Sequence[JumpFunction], r: float, x_window: float = 1.0
) -> float:
    """Ratio of mean exceedance counts at thresholds r and 4r.

    Counts jumps with level in (0, x_window] and size above the threshold,
    averaged over the paths whose mass cap covers the window.  Under the
    power-law intensity the ratio estimates 4^(1-H) independently of the
    unknown constant.
    """
    if not r > 0.0:
        raise ValueError(f"threshold r must be positive, got {r}")
    if not x_window > 0.0:
        raise ValueError(f"x_window must be positive, got {x_window}")
    covering = [L for L in L_ensemble if L.total_mass_cap >= x_window]
    if not covering:
        raise InsufficientDataError("no path covers the requested level window")
    low, high = window_exceedance_counts(covering, x_window, (r, 4.0 * r)).sum(axis=0)
    return intensity_ratio_from_counts(int(low), int(high))
