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

Each step runs on one path or on a block of them.  A block of paths is a
``SamplePath`` whose values hold one row per path; its profiles form a
``ProfileBlock`` and its jump functions a ``JumpBlock``, each with the
entries of its items concatenated.  The single form of every function here
is the block of one, so the two forms agree bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .generators import SamplePath

__all__ = [
    "LocalTimeProfile",
    "ProfileBlock",
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

# entries of the zero-padded matrix that a block's running sums are formed
# in, per group of rows (a row longer than this is a group of its own): 64 KiB
_RUNNING_SUM_ENTRIES = 2**13


def _offsets(lengths) -> np.ndarray:
    """0 and the running totals of ``lengths``: the offsets of items of those lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each item's ``values[a:b].sum()``, item by item.

    numpy sums an array pairwise, in a tree fixed by its length, so no
    reduction over the whole block gives these bits.
    """
    bounds = offsets.tolist()
    return np.array([values[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])],
                    dtype=np.float64)


def _concatenate(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays or [np.empty(0)])


class _Ragged:
    """A block of items whose entries are concatenated.

    Item p holds the entries ``offsets[p]:offsets[p + 1]`` of each
    concatenated array.  A block built from a single object has ``single``
    set, and ``result`` turns its one row back into the single form.
    """

    single = False

    def _set_offsets(self, offsets, n_entries: int) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        if not (offsets.ndim == 1 and len(offsets) >= 1 and offsets[0] == 0
                and offsets[-1] == n_entries and (offsets[1:] >= offsets[:-1]).all()):
            raise ValueError("offsets must rise from 0 to the number of entries")
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @functools.cached_property
    def owner(self) -> np.ndarray:
        """The item of each entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def _ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mask of the non-empty items, their first entries, their last entries)."""
        nonempty = self.offsets[1:] > self.offsets[:-1]
        return nonempty, self.offsets[:-1][nonempty], self.offsets[1:][nonempty] - 1

    @functools.cached_property
    def _starts(self) -> np.ndarray:
        """Whether each entry after the first begins an item."""
        return self.owner[1:] != self.owner[:-1]

    def _rising(self, values: np.ndarray) -> bool:
        """Whether ``values`` rise strictly within each item (NaN never rises).

        An item's first entry need not lie above the last entry of the item before.
        """
        return bool(((values[1:] > values[:-1]) | self._starts).all())

    def _with_zeros(self, values: np.ndarray) -> np.ndarray:
        """Each item's entries of ``values`` with a 0 in front, concatenated."""
        out = np.zeros(len(values) + len(self))
        out[np.arange(len(values)) + self.owner + 1] = values
        return out

    def _running_sums(self, values: np.ndarray) -> np.ndarray:
        """Each item's running sum of ``values``, as a cumsum of the item alone gives it.

        A cumsum along the rows of a zero-padded matrix adds each item's
        values in their order, before the padding; the rows go in groups
        whose matrix holds about _RUNNING_SUM_ENTRIES entries.
        """
        if len(self) == 1:
            return values.cumsum()
        out = np.empty(len(values))
        width = int(np.diff(self.offsets).max(initial=0))
        if width == 0:
            return out
        column = np.arange(len(values)) - self.offsets[self.owner]
        group = max(1, _RUNNING_SUM_ENTRIES // width)
        for lo in range(0, len(self), group):
            hi = min(lo + group, len(self))
            a, b = self.offsets[lo], self.offsets[hi]
            rows, cols = self.owner[a:b] - lo, column[a:b]
            padded = np.zeros((hi - lo, width))
            padded[rows, cols] = values[a:b]
            out[a:b] = np.cumsum(padded, axis=1, out=padded)[rows, cols]
        return out

    def result(self, rows):
        """``rows`` as the block returns them, or the one row of a single item."""
        return rows[0] if self.single else rows


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
        self.occupied = np.asarray(self.occupied, dtype=np.int64)
        self.levels = np.asarray(self.levels, dtype=np.float64)
        # the block of one makes the checks
        ProfileBlock([self.path_ref], self.epsilon, self.delta, self.grid_size,
                     [0, len(self.occupied)], self.occupied, self.levels)

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
        return ProfileBlock.of(self).mass_at(k)[0]

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


class ProfileBlock(_Ragged):
    """The local-time profiles of a block of paths on one grid.

    Profile p holds the occupied cells ``occupied[offsets[p]:offsets[p +
    1]]`` and the levels after them, and belongs to the path ``path_refs[p]``.
    The constructor makes on every profile the checks that
    ``LocalTimeProfile`` makes on one, once for the block.  ``of`` turns a
    profile into a block of one.
    """

    def __init__(self, path_refs, epsilon: float, delta: float, grid_size: int,
                 offsets, occupied, levels, *, single: bool = False) -> None:
        # written as "not > 0" so that NaN is refused too
        if not epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if not delta > 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        if grid_size < 1:
            raise ValueError(f"grid_size must be positive, got {grid_size}")
        self.occupied = occupied = np.asarray(occupied, dtype=np.int64)
        self.levels = levels = np.asarray(levels, dtype=np.float64)
        if occupied.ndim != 1 or occupied.shape != levels.shape:
            raise ValueError("occupied and levels must be 1-d arrays of equal length")
        self._set_offsets(offsets, len(occupied))
        self.path_refs = np.asarray(path_refs)
        if self.path_refs.shape != (len(self),):
            raise ValueError("path_refs must hold one reference per profile")
        self.epsilon, self.delta, self.grid_size, self.single = epsilon, delta, grid_size, single
        if not len(occupied):
            return
        # within a profile that rises, the extremes are its first and last entries
        if not (occupied.min() >= 0 and occupied.max() < grid_size and self._rising(occupied)):
            raise ValueError("occupied must be strictly increasing cell indices in [0, grid_size)")
        # NaN fails every comparison, so these also refuse it
        if not (levels.min() > 0.0 and self._rising(levels) and levels.max() < np.inf):
            raise ValueError("levels must be finite, positive and strictly increasing")

    @classmethod
    def of(cls, profile) -> "ProfileBlock":
        """A block as given, or the block of one of a ``LocalTimeProfile``."""
        if isinstance(profile, ProfileBlock):
            return profile
        if not isinstance(profile, LocalTimeProfile):
            raise TypeError("expected a LocalTimeProfile or a ProfileBlock")
        # the profile was checked when it was built
        return cls._checked(profile, np.asarray([profile.path_ref]),
                            np.array([0, len(profile.occupied)], dtype=np.int64),
                            profile.occupied, profile.levels, single=True)

    @classmethod
    def concatenate(cls, blocks: list) -> "ProfileBlock":
        """The profiles of ``blocks``, blocks on one grid, in order, as one block."""
        if len(blocks) == 1:
            return blocks[0]
        return cls._checked(
            blocks[0], np.concatenate([b.path_refs for b in blocks]),
            _offsets(np.concatenate([np.diff(b.offsets) for b in blocks])),
            np.concatenate([b.occupied for b in blocks]),
            np.concatenate([b.levels for b in blocks]),
        )

    def select(self, rows) -> "ProfileBlock":
        """The block of the profiles where the boolean mask ``rows`` holds."""
        lengths = np.diff(self.offsets)
        cells = np.repeat(rows, lengths)
        return ProfileBlock._checked(self, self.path_refs[rows], _offsets(lengths[rows]),
                                     self.occupied[cells], self.levels[cells])

    @classmethod
    def _checked(cls, grid, path_refs, offsets, occupied, levels, single=False) -> "ProfileBlock":
        """A block of arrays whose profiles were checked already, on the grid of ``grid``."""
        block = cls.__new__(cls)
        block.__dict__.update(
            path_refs=path_refs, epsilon=grid.epsilon, delta=grid.delta,
            grid_size=grid.grid_size, offsets=offsets, occupied=occupied, levels=levels,
            single=single)
        return block

    def profile(self, p: int) -> LocalTimeProfile:
        """Profile p on its own."""
        a, b = self.offsets[p], self.offsets[p + 1]
        return LocalTimeProfile(
            path_ref=self.path_refs[p].item(), epsilon=self.epsilon, delta=self.delta,
            grid_size=self.grid_size, occupied=self.occupied[a:b], levels=self.levels[a:b],
        )

    @functools.cached_property
    def _levels(self) -> np.ndarray:
        """Each profile's values 0 and then its levels, concatenated."""
        return self._with_zeros(self.levels)

    @property
    def total_mass(self) -> np.ndarray:
        """Each profile's last level, or 0 for a profile with no occupied cell."""
        return self._levels[self.offsets[1:] + np.arange(len(self))]

    def mass_at(self, k) -> np.ndarray:
        """Each profile's value at grid index k (or an array of them).

        The result has one row per profile, shaped like ``k``.  An index
        below 0 reads 0, and one above grid_size the total mass.
        """
        k = np.clip(np.asarray(k), 0, self.grid_size)
        p = np.arange(len(self)).reshape((-1,) + (1,) * k.ndim)
        first = self.offsets[:-1].reshape(p.shape)
        # the cells of profile p lie at p * grid_size + cell on one increasing axis;
        # those below p * grid_size + k are its occupied cells before k
        cells = self.owner * self.grid_size + self.occupied
        rank = cells.searchsorted(p * self.grid_size + k) - first
        return self._levels[first + p + rank]


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
        # the block of one makes the checks, and gives the value of L just
        # after each jump, with 0 in front: evaluate is one gather
        self._cum = JumpBlock([0, len(self.sizes)], self.locations, self.sizes,
                              [self.drift], [self.total_mass_cap])._cum

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


class JumpBlock(_Ragged):
    """A block of jump functions, with their jumps concatenated.

    Function p holds the jumps ``offsets[p]:offsets[p + 1]`` (locations and
    sizes), the drift ``drifts[p]`` and the mass cap ``caps[p]``; jump ``i``
    belongs to function ``owner[i]``.  The constructor makes on every
    function the checks that ``JumpFunction`` makes on one, once for the
    block.  The block form of a per-path function takes a block, a
    ``JumpFunction`` or a sequence of them (``of``), and returns one row per
    function; a single function is a block of one, and ``result`` turns its
    one row back into the single form.  Per-path counts are ``np.bincount``
    over ``owner`` of a mask of jumps.
    """

    def __init__(self, offsets, locations, sizes, drifts, caps) -> None:
        locations = np.asarray(locations, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.float64)
        if locations.shape != sizes.shape or locations.ndim != 1:
            raise ValueError("locations and sizes must be 1-d arrays of equal length")
        self._set_offsets(offsets, len(locations))
        drifts = np.asarray(drifts, dtype=np.float64)
        caps = np.asarray(caps, dtype=np.float64)
        if drifts.shape != (len(self),) or caps.shape != (len(self),):
            raise ValueError("drifts and caps must hold one value per function")
        self.locations, self.sizes, self.drifts, self.caps = locations, sizes, drifts, caps
        # the value of each function just after each of its jumps, with 0 in
        # front; a NaN or infinite size makes its last entry non-finite
        self._cum = self._with_zeros(self._running_sums(sizes))
        # NaN fails every comparison, so these checks also refuse it
        if len(locations):
            if not (locations.min() >= 0.0 and locations.max() < np.inf):
                raise ValueError("jump locations must be finite and non-negative")
            if not self._rising(locations):
                raise ValueError("jump locations must be strictly increasing")
            if not (sizes.min() > 0.0 and self.jump_mass.max() < np.inf):
                raise ValueError("jump sizes must be finite and positive")
        for name, values in (("drift", drifts), ("total_mass_cap", caps)):
            valid = (values >= 0.0) & (values < np.inf)
            if not valid.all():
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {values[np.argmin(valid)]}")

    @classmethod
    def _checked(cls, offsets, locations, sizes, drifts, caps, cum, single=False) -> "JumpBlock":
        """A block of arrays whose functions were checked already."""
        block = cls.__new__(cls)
        block.__dict__.update(offsets=offsets, locations=locations, sizes=sizes, drifts=drifts,
                              caps=caps, _cum=cum, single=single)
        return block

    @classmethod
    def of(cls, L) -> "JumpBlock":
        """A block as given; a ``JumpFunction`` or a sequence of them as a block."""
        if isinstance(L, JumpBlock):
            return L
        single = isinstance(L, JumpFunction)
        functions = [L] if single else list(L)
        if not all(isinstance(f, JumpFunction) for f in functions):
            raise TypeError("expected a JumpBlock, a JumpFunction or a sequence of them")
        return cls._checked(
            _offsets([len(f.locations) for f in functions]),
            _concatenate([f.locations for f in functions]),
            _concatenate([f.sizes for f in functions]),
            np.array([f.drift for f in functions], dtype=np.float64),
            np.array([f.total_mass_cap for f in functions], dtype=np.float64),
            _concatenate([f._cum for f in functions]),
            single,
        )

    def select(self, rows) -> "JumpBlock":
        """The block of the functions where the boolean mask ``rows`` holds."""
        lengths = np.diff(self.offsets)
        jumps = np.repeat(rows, lengths)
        return JumpBlock._checked(
            _offsets(lengths[rows]), self.locations[jumps], self.sizes[jumps],
            self.drifts[rows], self.caps[rows], self._cum[np.repeat(rows, lengths + 1)],
        )

    def function(self, p: int) -> JumpFunction:
        """Function p on its own."""
        a, b = self.offsets[p], self.offsets[p + 1]
        return JumpFunction(locations=self.locations[a:b], sizes=self.sizes[a:b],
                            drift=float(self.drifts[p]), total_mass_cap=float(self.caps[p]))

    @property
    def n_jumps(self) -> int:
        """Jumps of all functions together."""
        return len(self.locations)

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


def default_epsilon(delta: float, hurst: float, c_epsilon: float = DEFAULT_C_EPSILON) -> float:
    """Resolution-adapted window half-width c * delta^H."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not c_epsilon > 0.0:
        raise ValueError(f"c_epsilon must be positive, got {c_epsilon}")
    return c_epsilon * delta**hurst


def estimate_local_time(path: SamplePath, epsilon: float | None = None):
    """Occupation-density local time at level zero of one path or a block of them.

    With epsilon omitted the default rule epsilon = 0.5 * delta^H is applied
    using the Hurst index of the path's spec.  A block of paths gives a
    ``ProfileBlock``, one profile per path; one path gives its
    ``LocalTimeProfile``, the block of one's.
    """
    delta = path.delta
    if epsilon is None:
        epsilon = default_epsilon(delta, path.spec.hurst)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    quantum = delta / (2.0 * epsilon)
    rows = path.values.reshape(-1, path.values.shape[-1])[:, 1:]
    # |x| < epsilon as two comparisons, with no array of |x|
    inside = rows < epsilon
    inside &= rows > -epsilon
    owner, occupied = np.divmod(np.flatnonzero(inside), rows.shape[1])
    offsets = _offsets(np.bincount(owner, minlength=len(rows)))
    # a path's levels are a sequential sum of its quanta alone (the same bits
    # as a running sum over every cell, since adding an unoccupied cell's 0.0
    # is exact), and so the first entries of one sum shared by the block
    shared = np.cumsum(np.full(int(np.diff(offsets).max(initial=0)), quantum))
    levels = shared[np.arange(len(occupied)) - offsets[owner]]
    block = ProfileBlock(np.reshape(path.seed, -1), epsilon, delta, rows.shape[1], offsets,
                         occupied, levels, single=path.values.ndim == 1)
    return block.profile(0) if block.single else block


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


def invert_profile(profile, min_jump_steps: int = DEFAULT_MIN_JUMP_STEPS):
    """Right-continuous inverse of a profile as a jump function.

    Maximal flat stretches of at least ``min_jump_steps`` grid cells become
    jumps located at the level where the profile stalls; the trailing
    stretch after the last increase is censored and never recorded.  The
    drift absorbs, by exact time balance, the occupied cells and the
    sub-resolution stretches:

        drift = (time of last increase - total jump mass) / total mass.

    A profile that never increases yields the flagged empty function with
    ``total_mass_cap`` 0.  A ``ProfileBlock`` gives the ``JumpBlock`` of its
    profiles' functions; one profile gives its ``JumpFunction``, the block
    of one's.
    """
    if min_jump_steps < 1:
        raise ValueError(f"min_jump_steps must be at least 1, got {min_jump_steps}")
    block = ProfileBlock.of(profile)
    occupied, delta = block.occupied, block.delta
    nonempty, first, last = block._ends()
    # each occupied cell with the flat stretch before it, which starts after
    # the path's previous occupied cell, or at t = 0 for its first one (the
    # leading stretch); a jump there sits at the level the profile stalls
    # at, the one after that previous cell, or 0
    previous = np.empty_like(occupied)
    previous[1:] = occupied[:-1]
    previous[first] = -1
    stretch = occupied - previous - 1
    stalls = block._levels[np.arange(len(occupied)) + block.owner]
    jump = stretch >= min_jump_steps
    sizes = stretch[jump] * delta
    offsets = _offsets(np.bincount(block.owner[jump], minlength=len(block)))
    caps = block.total_mass
    drifts = np.zeros(len(block))
    t_last = (occupied[last] + 1) * delta
    jump_mass = _sums(sizes, offsets)[nonempty]
    drifts[nonempty] = np.maximum(0.0, (t_last - jump_mass) / caps[nonempty])
    L = JumpBlock(offsets, stalls[jump], sizes, drifts, caps)
    return L.function(0) if block.single else L


def atom_diagnostic(profile):
    """Largest single-cell increment of the profile.

    Under an atomless local time this is exactly delta / (2 epsilon) whenever
    the window is visited at all, so it vanishes under the resolution-adapted
    epsilon rule as the grid refines (like delta^(1-H)); a non-vanishing
    value signals atoms.  A ``ProfileBlock`` gives one value per profile.
    """
    block = ProfileBlock.of(profile)
    nonempty, first, _ = block._ends()
    # each level's rise over the one before it, or over 0 for a first level
    rises = block.levels - block._levels[np.arange(len(block.levels)) + block.owner]
    atoms = np.zeros(len(block))
    if len(first):
        atoms[nonempty] = np.maximum.reduceat(rises, first)
    return float(atoms[0]) if block.single else atoms


def support_diagnostic(profile):
    """Fraction of grid cells that accrue local time.

    A box-count proxy for the support of the local-time measure: it decays
    like n^-H for an H-self-similar path under the default epsilon rule, and
    a fraction approaching 1 would indicate a dense occupied set.  A
    ``ProfileBlock`` gives one value per profile.
    """
    block = ProfileBlock.of(profile)
    fractions = np.diff(block.offsets) / block.grid_size
    return float(fractions[0]) if block.single else fractions
