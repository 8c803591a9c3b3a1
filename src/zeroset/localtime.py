"""Occupation-density local time at level zero and its right-continuous inverse.

The estimator counts grid points inside the window (-epsilon, epsilon) and
normalises by 2 epsilon, giving a non-decreasing step profile

    cumulative[k] = delta / (2 epsilon) * #{1 <= j <= k : |X(t_j)| < epsilon}.

Only a fraction of about n^-H of the n cells is occupied, so the profile is
stored by the indices of its occupied cells and its value after each; every
reader works from that form.

Inverting the profile in the level variable produces a pure-jump function:
every stretch of time the path spends away from the window becomes a jump
whose size is the duration of the stretch and whose location is the amount
of local time accrued before it.  Stretches shorter than ``min_jump_steps``
grid cells are below resolution and are folded, together with the occupied
cells themselves, into a small absolutely continuous drift that serves as a
refinement diagnostic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .generators import SamplePath

__all__ = [
    "LocalTimeProfile",
    "JumpFunction",
    "JumpBlock",
    "default_epsilon",
    "estimate_local_time",
    "inverse_time",
    "grid_index",
    "horizon_stretches",
    "persistence_indicator",
    "invert_profile",
    "atom_diagnostic",
    "support_diagnostic",
]

DEFAULT_C_EPSILON = 0.5
DEFAULT_MIN_JUMP_STEPS = 2


@dataclass
class LocalTimeProfile:
    """Local-time estimate on the time grid of one path, stored sparsely.

    ``path_ref`` is the seed of the source path, which identifies it within
    a run.  The profile is a non-decreasing step function on the grid
    points 0..grid_size that starts at 0 and rises only across occupied
    cells: ``occupied`` holds the strictly increasing indices j of the
    cells (t_j, t_j+1] that accrue local time, and ``levels`` the profile
    value at t_j+1, after each of them.  The zero set of the path has zero
    Lebesgue measure, so only a small fraction of cells is occupied.
    ``from_cumulative`` builds a profile from one value per grid point.
    """

    path_ref: int
    epsilon: float
    delta: float
    grid_size: int
    occupied: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        # written as "not > 0" so that NaN is refused too
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be positive, got {self.grid_size}")
        self.occupied = np.asarray(self.occupied, dtype=np.int64)
        self.levels = np.asarray(self.levels, dtype=np.float64)
        if self.occupied.ndim != 1 or self.occupied.shape != self.levels.shape:
            raise ValueError("occupied and levels must be 1-d arrays of equal length")
        occupied, levels = self.occupied, self.levels
        if len(occupied) == 0:
            return
        if not (0 <= occupied[0] and occupied[-1] < self.grid_size
                and (occupied[1:] > occupied[:-1]).all()):
            raise ValueError("occupied must be strictly increasing cell indices in [0, grid_size)")
        # NaN fails every comparison, so these also refuse it
        if not (levels[0] > 0.0 and (levels[1:] > levels[:-1]).all() and levels[-1] < np.inf):
            raise ValueError("levels must be finite, positive and strictly increasing")

    @classmethod
    def from_cumulative(
        cls, path_ref: int, epsilon: float, delta: float, cumulative
    ) -> "LocalTimeProfile":
        """Profile from its values at every grid point, starting at 0."""
        cumulative = np.asarray(cumulative, dtype=np.float64)
        if cumulative.ndim != 1 or len(cumulative) < 2:
            raise ValueError("cumulative must be a 1-d array with at least 2 entries")
        if cumulative[0] != 0.0:
            raise ValueError("cumulative must start at zero")
        if not np.all(np.isfinite(cumulative)):
            raise ValueError("cumulative must be finite")
        increments = np.diff(cumulative)
        if np.any(increments < 0.0):
            raise ValueError("cumulative must be non-decreasing")
        occupied = np.flatnonzero(increments > 0.0)
        return cls(path_ref=path_ref, epsilon=epsilon, delta=delta,
                   grid_size=len(cumulative) - 1, occupied=occupied,
                   levels=cumulative[occupied + 1])

    def mass_at(self, k):
        """Profile value at grid index k (or an array of them), local time on (0, k delta]."""
        return np.concatenate(([0.0], self.levels))[self.occupied.searchsorted(k)]

    @property
    def cumulative(self) -> np.ndarray:
        """The profile at every grid point 0..grid_size, built on each access."""
        return self.mass_at(np.arange(self.grid_size + 1))

    @property
    def horizon(self) -> float:
        return self.grid_size * self.delta

    @property
    def total_mass(self) -> float:
        return float(self.levels[-1]) if len(self.levels) else 0.0


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
        self.locations = locations = np.asarray(self.locations, dtype=np.float64)
        self.sizes = sizes = np.asarray(self.sizes, dtype=np.float64)
        if locations.shape != sizes.shape or locations.ndim != 1:
            raise ValueError("locations and sizes must be 1-d arrays of equal length")
        # the value of L just after each jump, with 0 in front: evaluate is
        # one gather; a NaN or infinite size makes the last entry non-finite
        self._cum = np.zeros(len(sizes) + 1)
        sizes.cumsum(out=self._cum[1:])
        # NaN fails every comparison, so these checks also refuse it
        if len(locations):
            if not (locations[0] >= 0.0 and locations[-1] < np.inf):
                raise ValueError("jump locations must be finite and non-negative")
            if not (locations[1:] > locations[:-1]).all():
                raise ValueError("jump locations must be strictly increasing")
            if not (sizes.min() > 0.0 and self._cum[-1] < np.inf):
                raise ValueError("jump sizes must be finite and positive")
        if not 0.0 <= self.drift < np.inf:
            raise ValueError(f"drift must be finite and non-negative, got {self.drift}")
        if not 0.0 <= self.total_mass_cap < np.inf:
            raise ValueError(
                f"total_mass_cap must be finite and non-negative, got {self.total_mass_cap}"
            )

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
        out = self.drift * x + self._cum[self.locations.searchsorted(x, side="right")]
        return float(out) if out.ndim == 0 else out


class JumpBlock:
    """One jump function or a sequence of them, with their jumps concatenated.

    The block form of a per-path function takes a sequence of jump functions
    and returns one row per function; a single function is a block of one,
    and ``result`` turns its one row back into the single form.  Jump ``i``
    of the concatenation belongs to function ``owner[i]``, and function p
    holds the jumps ``offsets[p]:offsets[p + 1]``.  Per-path counts are
    ``np.bincount`` over ``owner`` of a mask of jumps.
    """

    def __init__(self, L) -> None:
        self.single = isinstance(L, JumpFunction)
        self.functions = [L] if self.single else list(L)
        if not all(isinstance(f, JumpFunction) for f in self.functions):
            raise TypeError("expected a JumpFunction or a sequence of them")

    # each array is built on first use: a count reads only some of them

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        offsets = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum([len(f.locations) for f in self.functions], out=offsets[1:])
        return offsets

    @functools.cached_property
    def owner(self) -> np.ndarray:
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    @functools.cached_property
    def locations(self) -> np.ndarray:
        return self._concatenate("locations")

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        return self._concatenate("sizes")

    @functools.cached_property
    def drifts(self) -> np.ndarray:
        return np.array([f.drift for f in self.functions], dtype=np.float64)

    @functools.cached_property
    def caps(self) -> np.ndarray:
        return np.array([f.total_mass_cap for f in self.functions], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.functions)

    def _concatenate(self, attr: str) -> np.ndarray:
        if len(self.functions) == 1:
            return getattr(self.functions[0], attr)
        return np.concatenate([getattr(f, attr) for f in self.functions] or [np.empty(0)])

    def per_path(self, mask) -> np.ndarray:
        """Number of jumps of each function that ``mask`` selects."""
        return np.bincount(self.owner[mask], minlength=len(self))

    def ranks(self, x) -> np.ndarray:
        """(k, q) numbers of each function's jumps at or below each level x."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return np.stack([self.per_path(self.locations <= level) for level in x], axis=1)

    def values(self, path, x, rank) -> np.ndarray:
        """L(x) of function ``path``, given ``rank`` of its jumps at or below x.

        The value is ``drift * x + _cum[rank]`` of that function, the sum
        ``JumpFunction.evaluate`` forms, so the two agree bit for bit.
        """
        # function p's _cum has offsets[p + 1] - offsets[p] + 1 entries
        return self.drifts[path] * x + self._cum[self.offsets[path] + path + rank]

    @functools.cached_property
    def _cum(self) -> np.ndarray:
        return self._concatenate("_cum")

    @property
    def jump_mass(self) -> np.ndarray:
        """Each function's total jump mass, the last entry of its ``_cum``."""
        return self._cum[self.offsets[1:] + np.arange(len(self))]

    def require_caps(self, level: float, what: str) -> None:
        """Refuse the block unless every function is defined up to ``level``."""
        short = np.flatnonzero(~(self.caps >= level))
        if len(short):
            p = int(short[0])
            where = "L" if self.single else f"L[{p}]"
            raise ValueError(
                f"{where} is only defined up to {self.caps[p]}; {what} needs {level}"
            )

    def result(self, rows):
        """``rows`` as the block returns them, or the one row of a single function."""
        return rows[0] if self.single else rows


def default_epsilon(delta: float, hurst: float, c_epsilon: float = DEFAULT_C_EPSILON) -> float:
    """Resolution-adapted window half-width c * delta^H."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not c_epsilon > 0.0:
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
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    quantum = delta / (2.0 * epsilon)
    occupied = (np.abs(path.values[1:]) < epsilon).nonzero()[0]
    # a sequential sum of the quanta alone: the same bits as a running sum
    # over every cell, since adding the unoccupied cells' 0.0 is exact
    levels = np.cumsum(np.full(len(occupied), quantum))
    return LocalTimeProfile(
        path_ref=path.seed, epsilon=epsilon, delta=delta,
        grid_size=len(path.values) - 1, occupied=occupied, levels=levels,
    )


def inverse_time(profile: LocalTimeProfile, x: float) -> float:
    """Exact grid inverse inf{t on the grid : cumulative(t) > x}.

    Returns +inf when the profile never exceeds x.  This is the reference
    evaluation that the jump encoding is checked against; it involves no
    thresholding.
    """
    if np.isnan(x):
        raise ValueError("level x must not be NaN")
    if x < 0.0:
        return 0.0
    i = int(np.searchsorted(profile.levels, x, side="right"))
    if i == len(profile.levels):
        return float("inf")
    return int(profile.occupied[i] + 1) * profile.delta


def grid_index(T, delta: float, grid_size: int):
    """Index min(round(T / delta), grid_size) of the grid point at horizon T.

    ``T`` is one horizon or an array of them, each in (0, grid_size * delta]
    up to a relative 1e-9; the result has the shape of ``T``.
    """
    T = np.asarray(T, dtype=np.float64)
    # NaN fails both comparisons
    if T.size and not (T.min() > 0.0 and T.max() <= grid_size * delta * (1.0 + 1e-9)):
        raise ValueError(f"T must lie in (0, horizon], got {T}")
    return np.minimum(np.rint(T / delta).astype(np.int64), grid_size)


def horizon_stretches(T, delta: float, grid_size: int):
    """The grid points of the horizons T and the stretches that reach them.

    Returns ``(k, ends, starts, positions)``: ``k = grid_index(T, delta,
    grid_size)``, the distinct sorted indices ``ends`` of k, the first grid
    point ``starts`` of each stretch up to an end, and the position of each
    k in ``ends``.  They depend on the horizons and the grid only, not on
    a path, so they are computed once per (T, delta, grid_size) and shared
    read-only by every later call.
    """
    T = np.asarray(T, dtype=np.float64)
    return _horizon_stretches(T.tobytes(), T.shape, delta, grid_size)


@functools.lru_cache(maxsize=8)
def _horizon_stretches(raw: bytes, shape: tuple, delta: float, grid_size: int):
    k = grid_index(np.frombuffer(raw).reshape(shape), delta, grid_size)
    ends = np.unique(k)
    starts = np.concatenate(([0], ends[:-1] + 1))
    positions = np.searchsorted(ends, k)
    for array in (k, ends, starts, positions):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return k, ends, starts, positions


def persistence_indicator(profile: LocalTimeProfile, T, a: float):
    """Indicator of the event {local time accrued on (0, T] <= a}.

    One horizon ``T`` gives a bool, a sequence of horizons a bool array.
    Equivalent to {inverse_time(profile, a) > T} for T on the grid; the two
    encodings agree exactly there because the profile is non-decreasing.
    """
    if not a > 0.0:
        raise ValueError(f"threshold a must be positive, got {a}")
    k = horizon_stretches(T, profile.delta, profile.grid_size)[0]
    held = profile.mass_at(k) <= a
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
    occupied = profile.occupied
    if len(occupied) == 0:
        return JumpFunction(
            locations=np.empty(0), sizes=np.empty(0), drift=0.0, total_mass_cap=0.0
        )
    delta = profile.delta
    t_last = (occupied[-1] + 1) * delta
    gaps = occupied[1:] - occupied[:-1] - 1
    lead = int(occupied[0])

    big = (gaps >= min_jump_steps).nonzero()[0]
    locations = profile.levels[big]
    sizes = gaps[big] * delta
    if lead >= min_jump_steps:
        locations = np.concatenate(([0.0], locations))
        sizes = np.concatenate(([lead * delta], sizes))

    total_mass = profile.total_mass
    jump_mass = float(sizes.sum())
    drift = max(0.0, (t_last - jump_mass) / total_mass)
    return JumpFunction(
        locations=locations,
        sizes=sizes,
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
    levels = profile.levels
    if len(levels) == 0:
        return 0.0
    return float((levels[1:] - levels[:-1]).max(initial=levels[0]))


def support_diagnostic(profile: LocalTimeProfile) -> float:
    """Fraction of grid cells that accrue local time.

    A box-count proxy for the support of the local-time measure: it decays
    like n^-H for an H-self-similar path under the default epsilon rule, and
    a fraction approaching 1 would indicate a dense occupied set.
    """
    return len(profile.occupied) / profile.grid_size
