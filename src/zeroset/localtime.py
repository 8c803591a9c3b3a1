"""Occupation-density local time at level zero and its right-continuous inverse.

The estimator counts grid points inside the window (-epsilon, epsilon) and
normalises by 2 epsilon, giving a non-decreasing step profile

    cumulative[k] = delta / (2 epsilon) * #{1 <= j <= k : |X(t_j)| < epsilon}.

Inverting the profile in the level variable produces a pure-jump function:
every stretch of time the path spends away from the window becomes a jump
whose size is the duration of the stretch and whose location is the amount
of local time accrued before it.  Stretches shorter than ``min_jump_steps``
grid cells are below resolution and are folded, together with the occupied
cells themselves, into a small absolutely continuous drift that serves as a
refinement diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import SamplePath

__all__ = [
    "LocalTimeProfile",
    "JumpFunction",
    "default_epsilon",
    "estimate_local_time",
    "inverse_time",
    "grid_index",
    "persistence_indicator",
    "invert_profile",
    "atom_diagnostic",
    "support_diagnostic",
]

DEFAULT_C_EPSILON = 0.5
DEFAULT_MIN_JUMP_STEPS = 2


@dataclass
class LocalTimeProfile:
    """Cumulative local-time estimate on the time grid of one path.

    ``path_ref`` is the seed of the source path, which identifies it within
    a run.  ``cumulative`` has one entry per grid point, starts at 0 and is
    non-decreasing with increments of either 0 or delta / (2 epsilon).
    """

    path_ref: int
    epsilon: float
    delta: float
    cumulative: np.ndarray

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        self.cumulative = np.asarray(self.cumulative, dtype=np.float64)
        if self.cumulative.ndim != 1 or len(self.cumulative) < 2:
            raise ValueError("cumulative must be a 1-d array with at least 2 entries")
        if self.cumulative[0] != 0.0:
            raise ValueError("cumulative must start at zero")

    @property
    def grid_size(self) -> int:
        return len(self.cumulative) - 1

    @property
    def horizon(self) -> float:
        return self.grid_size * self.delta

    @property
    def total_mass(self) -> float:
        return float(self.cumulative[-1])


@dataclass
class JumpFunction:
    """Non-decreasing pure-jump function with an optional linear drift.

    Evaluation is right-continuous:

        L(x) = drift * x + sum of sizes over jumps with location <= x.

    ``total_mass_cap`` is the largest level at which the function is defined;
    an empty jump list with cap 0 flags a path that never touched the window.
    """

    locations: np.ndarray
    sizes: np.ndarray
    drift: float
    total_mass_cap: float

    def __post_init__(self) -> None:
        self.locations = np.asarray(self.locations, dtype=np.float64)
        self.sizes = np.asarray(self.sizes, dtype=np.float64)
        if self.locations.shape != self.sizes.shape or self.locations.ndim != 1:
            raise ValueError("locations and sizes must be 1-d arrays of equal length")
        if len(self.locations) and np.any(np.diff(self.locations) <= 0.0):
            raise ValueError("jump locations must be strictly increasing")
        if np.any(self.sizes <= 0.0):
            raise ValueError("jump sizes must be positive")
        if len(self.locations) and self.locations[0] < 0.0:
            raise ValueError("jump locations must be non-negative")
        if self.drift < 0.0:
            raise ValueError(f"drift must be non-negative, got {self.drift}")
        if self.total_mass_cap < 0.0:
            raise ValueError(f"total_mass_cap must be non-negative, got {self.total_mass_cap}")
        self._cumsizes = np.cumsum(self.sizes)

    @property
    def n_jumps(self) -> int:
        return len(self.locations)

    @property
    def jumps(self) -> np.ndarray:
        """Jumps as an (n, 2) array of (location, size) rows."""
        return np.column_stack([self.locations, self.sizes])

    def evaluate(self, x):
        """L(x) for scalar or array x in [0, total_mass_cap]."""
        x = np.asarray(x, dtype=np.float64)
        if len(self.locations) == 0:
            out = self.drift * x
        else:
            idx = np.searchsorted(self.locations, x, side="right")
            jump_part = np.where(idx > 0, self._cumsizes[np.maximum(idx, 1) - 1], 0.0)
            out = self.drift * x + jump_part
        return float(out) if out.ndim == 0 else out


def default_epsilon(delta: float, hurst: float, c_epsilon: float = DEFAULT_C_EPSILON) -> float:
    """Resolution-adapted window half-width c * delta^H."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if c_epsilon <= 0.0:
        raise ValueError(f"c_epsilon must be positive, got {c_epsilon}")
    return c_epsilon * delta**hurst


def estimate_local_time(path: SamplePath, epsilon: float | None = None) -> LocalTimeProfile:
    """Occupation-density local time of one path at level zero.

    With epsilon omitted the default rule epsilon = 0.5 * delta^H is applied
    using the Hurst index of the path's spec.
    """
    delta = path.delta
    if epsilon is None:
        epsilon = default_epsilon(delta, path.spec.hurst)
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    quantum = delta / (2.0 * epsilon)
    hits = np.abs(path.values[1:]) < epsilon
    cumulative = np.empty(len(path.values), dtype=np.float64)
    cumulative[0] = 0.0
    np.cumsum(quantum * hits, out=cumulative[1:])
    return LocalTimeProfile(path_ref=path.seed, epsilon=epsilon, delta=delta, cumulative=cumulative)


def inverse_time(profile: LocalTimeProfile, x: float) -> float:
    """Exact grid inverse inf{t on the grid : cumulative(t) > x}.

    Returns +inf when the profile never exceeds x.  This is the reference
    evaluation that the jump encoding is checked against; it involves no
    thresholding.
    """
    idx = int(np.searchsorted(profile.cumulative, x, side="right"))
    if idx == len(profile.cumulative):
        return float("inf")
    return idx * profile.delta


def grid_index(T, delta: float, grid_size: int):
    """Index min(round(T / delta), grid_size) of the grid point at horizon T.

    ``T`` is one horizon or an array of them, each in (0, grid_size * delta]
    up to a relative 1e-9; the result has the shape of ``T``.
    """
    T = np.asarray(T, dtype=np.float64)
    if not np.all((T > 0.0) & (T <= grid_size * delta * (1.0 + 1e-9))):
        raise ValueError(f"T must lie in (0, horizon], got {T}")
    return np.minimum(np.round(T / delta).astype(np.int64), grid_size)


def persistence_indicator(profile: LocalTimeProfile, T, a: float):
    """Indicator of the event {local time accrued on (0, T] <= a}.

    One horizon ``T`` gives a bool, a sequence of horizons a bool array.
    Equivalent to {inverse_time(profile, a) > T} for T on the grid; the two
    encodings agree exactly there because the profile is non-decreasing.
    """
    if a <= 0.0:
        raise ValueError(f"threshold a must be positive, got {a}")
    held = profile.cumulative[grid_index(T, profile.delta, profile.grid_size)] <= a
    return bool(held) if held.ndim == 0 else held


def invert_profile(profile: LocalTimeProfile, min_jump_steps: int = DEFAULT_MIN_JUMP_STEPS) -> JumpFunction:
    """Right-continuous inverse of the profile as a jump function.

    Maximal flat stretches of at least ``min_jump_steps`` grid cells become
    jumps located at the level where the profile stalls; the trailing
    stretch after the last increase is censored and never recorded.  The
    drift absorbs, by exact time balance, the occupied cells and the
    sub-resolution stretches:

        drift = (time of last increase - total jump mass) / total mass.

    A profile that never increases yields the flagged empty function with
    ``total_mass_cap`` 0.
    """
    if min_jump_steps < 1:
        raise ValueError(f"min_jump_steps must be at least 1, got {min_jump_steps}")
    increments = np.diff(profile.cumulative)
    if np.any(increments < 0.0):
        raise ValueError("profile must be non-decreasing")
    occupied = np.flatnonzero(increments > 0.0)
    if len(occupied) == 0:
        return JumpFunction(
            locations=np.empty(0), sizes=np.empty(0), drift=0.0, total_mass_cap=0.0
        )
    delta = profile.delta
    t_last = (occupied[-1] + 1) * delta
    gaps = np.diff(occupied) - 1
    lead = int(occupied[0])

    locations: list[float] = []
    sizes: list[float] = []
    if lead >= min_jump_steps:
        locations.append(0.0)
        sizes.append(lead * delta)
    big = np.flatnonzero(gaps >= min_jump_steps)
    for j in big:
        locations.append(float(profile.cumulative[occupied[j] + 1]))
        sizes.append(float(gaps[j] * delta))

    total_mass = profile.total_mass
    jump_mass = float(np.sum(sizes))
    drift = max(0.0, (t_last - jump_mass) / total_mass)
    return JumpFunction(
        locations=np.asarray(locations),
        sizes=np.asarray(sizes),
        drift=drift,
        total_mass_cap=total_mass,
    )


def atom_diagnostic(profile: LocalTimeProfile) -> float:
    """Largest single-cell increment of the profile.

    Under an atomless local time this is exactly delta / (2 epsilon) whenever
    the window is visited at all, so it vanishes under the resolution-adapted
    epsilon rule as the grid refines (like delta^(1-H)); a non-vanishing
    value signals atoms.
    """
    return float(np.max(np.diff(profile.cumulative)))


def support_diagnostic(profile: LocalTimeProfile) -> float:
    """Fraction of grid cells that accrue local time.

    A box-count proxy for the support of the local-time measure: it decays
    like n^-H for an H-self-similar path under the default epsilon rule, and
    a fraction approaching 1 would indicate a dense occupied set.
    """
    increments = np.diff(profile.cumulative)
    return float(np.mean(increments > 0.0))
