"""Persistence probabilities of small local time and their decay exponent.

The central quantity is the survival function T -> P(local time on (0, T]
stays below a threshold a), estimated by ensemble frequencies.  For an
H-self-similar source it decays like c * T^-(1-H); a weighted log-log
regression recovers the exponent.  At hurst = 1/2 the law is known in
closed form through the reflection identity, which provides the exact
oracle erf(a / sqrt(2 T)) used to validate the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitRangeError
from .generators import SamplePath
from .localtime import LocalTimeProfile, horizon_stretches, persistence_indicator

__all__ = [
    "PersistenceCurve",
    "ExponentFit",
    "survival_from_events",
    "survival_curve",
    "fit_exponent",
    "bm_exact_persistence",
    "max_persistence_indicator",
]

WILSON_Z = 1.96


@dataclass
class PersistenceCurve:
    """Empirical survival estimates over a grid of horizons.

    ``counts[i]`` is the number of paths whose event held at ``T_grid[i]``;
    ``survival = counts / n_paths``.  The events are nested in T within one
    ensemble, so survival is non-increasing by construction and this is
    enforced.
    """

    T_grid: np.ndarray
    survival: np.ndarray
    counts: np.ndarray
    n_paths: int
    a: float

    def __post_init__(self) -> None:
        self.T_grid = np.asarray(self.T_grid, dtype=np.float64)
        self.survival = np.asarray(self.survival, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if not (self.T_grid.ndim == 1 and self.T_grid.shape == self.survival.shape == self.counts.shape):
            raise ValueError("T_grid, survival and counts must be 1-d arrays of equal length")
        if len(self.T_grid) == 0:
            raise ValueError("curve must contain at least one horizon")
        if not (np.isfinite(self.T_grid).all() and (self.T_grid[1:] > self.T_grid[:-1]).all()):
            raise ValueError("T_grid must be finite and strictly increasing")
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        # NaN fails every comparison, so these checks also refuse it
        if not ((self.survival >= 0.0) & (self.survival <= 1.0)).all():
            raise ValueError("survival must lie in [0, 1]")
        if np.any(np.diff(self.survival) > 0.0):
            raise ValueError("survival must be non-increasing in T")
        if not self.a > 0.0:
            raise ValueError(f"threshold a must be positive, got {self.a}")

    def standard_error(self) -> np.ndarray:
        """Binomial normal-approximation standard error of each estimate."""
        s = self.survival
        return np.sqrt(s * (1.0 - s) / self.n_paths)

    def wilson_interval(self, z: float = WILSON_Z) -> tuple[np.ndarray, np.ndarray]:
        """Wilson score interval for each survival estimate."""
        n = self.n_paths
        p = self.survival
        denom = 1.0 + z**2 / n
        centre = (p + z**2 / (2 * n)) / denom
        half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z**2 / (4 * n**2))
        return np.clip(centre - half, 0.0, 1.0), np.clip(centre + half, 0.0, 1.0)


@dataclass
class ExponentFit:
    """Power-law fit of a survival curve: survival ~ c_hat * T^-kappa_hat."""

    kappa_hat: float
    c_hat: float
    stderr_kappa: float
    fit_range: tuple[float, float]
    r_squared: float
    n_points: int

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa_hat < 1.5:
            raise ValueError(
                f"kappa_hat = {self.kappa_hat} outside the plausible range (0, 1.5)"
            )


def survival_from_events(events: np.ndarray, T_grid: Sequence[float], a: float) -> PersistenceCurve:
    """Curve from a boolean event matrix of shape (n_paths, len(T_grid))."""
    events = np.asarray(events, dtype=bool)
    if events.ndim != 2 or events.shape[1] != len(T_grid):
        raise ValueError("events must have shape (n_paths, len(T_grid))")
    n_paths = events.shape[0]
    counts = events.sum(axis=0)
    return PersistenceCurve(
        T_grid=np.asarray(T_grid, dtype=np.float64),
        survival=counts / n_paths,
        counts=counts,
        n_paths=n_paths,
        a=a,
    )


def survival_curve(
    profiles: Sequence[LocalTimeProfile], T_grid: Sequence[float], a: float
) -> PersistenceCurve:
    """Empirical survival of {local time on (0, T] <= a} over an ensemble."""
    if len(profiles) == 0:
        raise ValueError("need at least one profile")
    events = np.array([persistence_indicator(p, T_grid, a) for p in profiles], dtype=bool)
    return survival_from_events(events, T_grid, a)


def fit_exponent(
    curve: PersistenceCurve, T_lo: float | None = None, T_hi: float | None = None
) -> ExponentFit:
    """Weighted least squares fit of log survival on log T.

    The default window is [T_max / 64, T_max / 4] with T_max the largest
    grid horizon, keeping clear of both the small-T regime (where the
    asymptotic power law has not set in) and the largest horizons (where
    the grid itself is exhausted).  Weights are the inverse delta-method
    variance of log survival, w = n * s / (1 - s), evaluated with an
    add-one shrink so that survival estimates of exactly 1 keep a finite
    weight.  kappa_hat is the negated slope and c_hat the exponentiated
    intercept; stderr_kappa comes from the weighted information.
    """
    t_max = float(curve.T_grid[-1])
    if T_lo is None:
        T_lo = t_max / 64.0
    if T_hi is None:
        T_hi = t_max / 4.0
    if not 0.0 < T_lo < T_hi:
        raise FitRangeError(f"need 0 < T_lo < T_hi, got ({T_lo}, {T_hi})")
    tol = 1e-9
    inside = (curve.T_grid >= T_lo * (1 - tol)) & (curve.T_grid <= T_hi * (1 + tol))
    if np.count_nonzero(inside) < 4:
        raise FitRangeError(
            f"fit range [{T_lo}, {T_hi}] holds {np.count_nonzero(inside)} grid points; need 4"
        )
    s = curve.survival[inside]
    if np.any(s == 0.0):
        raise FitRangeError("fit range contains zero survival; shrink T_hi or add paths")
    counts = curve.counts[inside]
    n = curve.n_paths
    s_shrunk = (counts + 1.0) / (n + 2.0)
    w = n * s_shrunk / (1.0 - s_shrunk)
    x = np.log(curve.T_grid[inside])
    y = np.log(s)
    wsum = w.sum()
    xbar = np.sum(w * x) / wsum
    ybar = np.sum(w * y) / wsum
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = np.sum(w * (x - xbar) * (y - ybar)) / sxx
    intercept = ybar - slope * xbar
    resid = y - slope * x - intercept
    syy = np.sum(w * (y - ybar) ** 2)
    r_squared = 1.0 - float(np.sum(w * resid**2) / syy) if syy > 0 else 1.0
    return ExponentFit(
        kappa_hat=-float(slope),
        c_hat=float(np.exp(intercept)),
        stderr_kappa=float(np.sqrt(1.0 / sxx)),
        fit_range=(float(T_lo), float(T_hi)),
        r_squared=r_squared,
        n_points=int(np.count_nonzero(inside)),
    )


def bm_exact_persistence(T: float, a: float = 1.0) -> float:
    """Exact survival P(local time of BM on (0, T] <= a) = erf(a / sqrt(2T)).

    Follows from the identity equating the local time at zero with the
    running maximum (and hence |value|) in law at hurst = 1/2; accurate to
    double precision (well below 1e-12 relative error).
    """
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T}")
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a}")
    # scipy.special on first use: only the BM oracle of ``report`` needs it
    from scipy.special import erf

    return float(erf(a / np.sqrt(2.0 * T)))


def max_persistence_indicator(path: SamplePath, T):
    """Indicator of {max of the path on [0, T] <= 1}.

    The grid maximum over [0, T]; the unit barrier matches the scale
    normalisation of the samplers (unit variance at time 1).  One horizon
    ``T`` gives a bool, a sequence of horizons a bool array; a block of
    paths gives one row of those per path.  Only the values up to the
    largest requested horizon are read: one maximum per stretch between
    consecutive requested grid points, accumulated over those stretches.
    """
    _, ends, starts, positions = horizon_stretches(T, path.delta, path.spec.grid_size)
    stretches = np.maximum.reduceat(path.values[..., : ends[-1] + 1], starts, axis=-1)
    held = np.maximum.accumulate(stretches, axis=-1)[..., positions] <= 1.0
    return bool(held) if held.ndim == 0 else held
