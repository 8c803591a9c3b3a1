"""Experiment driver: configuration, deterministic ensemble runs, outputs.

A run is described by a JSON config with a versioned schema (unknown keys
are hard errors).  Path indices are mapped to seeds by avalanche mixing of
the master seed, every per-path computation is a pure function of
(config, seed), and aggregation happens in path-index order, so results
are bit-identical for any worker count.  Nothing in the compute path reads
the wall clock or OS entropy; timings appear only as manifest metadata.

A worker samples each path on its own, with its own seeded generator,
and runs every later step on a block of paths: as many as hold
BLOCK_POINTS grid points of path values (16 BM paths at 2^12, one fBM
path at 2^16).  On a block of paths it takes the running-maximum events
and estimates the local-time profiles; these are the only steps that read
the values.  The profiles are held until they reach BLOCK_CELLS occupied
cells (about 90 BM paths at 2^12, or 3 fBM paths at 2^16), and that block of
profiles gives every other column with one call per quantity: the
local-time masses at the horizons and at r T_max, the atom and support
diagnostics, and, through one inversion into a ``JumpBlock``, the caps,
drifts, jump counts, validity flags, increments of the inverse,
exceedance, bi-scale and heavy-subinterval counts, interior jump counts
and the pooled jump marks that the Hill fit can read.  If a block step
raises, it runs again one path at a time, so that only the offending path
fails.  Every value comes from the same library function that the
object-level API uses, whose single form is a block of one, so each
quantity has one implementation.  The columns are declared once, as the
fields of ``EnsembleSummary`` with their dtype, per-path width and fill
value; a chunk concatenates its blocks' columns into its ok rows, and the
chunks are concatenated in index order.  The threshold is applied at
stage time: ``EnsembleSummary.persist`` forms the survival event from the
masses.  Stage writers turn the columns into CSV and JSON files; the
manifest records the config hash and a checksum of every file written.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, FitRangeError, InsufficientDataError, InsufficientMassError
from .generators import (
    Family,
    ProcessSpec,
    SamplePath,
    derive_path_seed,
    rosenblatt_calibration,
    sample,
)
from .invariance import (
    REJECT_LEVEL,
    TestReport,
    bi_scale_test_from_counts,
    bonferroni,
    self_similarity_masses,
    self_similarity_test_from_values,
    stationarity_increments,
    stationarity_test_from_values,
)
from .localtime import (
    DEFAULT_C_EPSILON,
    JumpBlock,
    ProfileBlock,
    atom_diagnostic,
    default_epsilon,
    estimate_local_time,
    horizon_stretches,
    invert_profile,
    support_diagnostic,
)
from .persistence import (
    bm_exact_persistence,
    fit_exponent,
    max_persistence_indicator,
    survival_from_events,
)
from .pointprocess import (
    count_heavy_subintervals,
    hill_tail_index,
    intensity_ratio_from_counts,
    jumps_to_empp,
    loglog_count_fit,
    rescale_empp,
    window_exceedance_counts,
)

__all__ = [
    "SCHEMA_VERSION",
    "TOOLKIT_VERSION",
    "ExperimentConfig",
    "EnsembleSummary",
    "RunManifest",
    "run_paths",
    "run_experiment",
    "dump_paths",
    "report",
]

SCHEMA_VERSION = 1
TOOLKIT_VERSION = "0.1.0"

MAX_FAILURE_FRACTION = 0.01
CHUNK_TARGET = 256
# occupied cells a chunk's profiles hold before they are inverted and their
# columns computed: BM paths at 2^12 (about 46 cells and 22 jumps each) come
# about 90 to a block, fBM paths at 2^16 (about 1400 cells and 640 jumps
# each) about 3.  A block has no more jumps than cells, and its inversion
# holds a few arrays of one entry per cell: at 2^14 cells a BM round's peak
# RSS rose by about 1 MiB more than at 2^12, for no gain in time.
BLOCK_CELLS = 2**12
# grid points of path values a block of paths holds: 16 BM paths at 2^12,
# 4 Rosenblatt paths at 2^14, 1 fBM path at 2^16 (512 KiB of values)
BLOCK_POINTS = 2**16

# Ceilings of the config's size fields, far above any run the code is sized
# for: the acceptance gate draws at most 2^16 steps, 2^18 micro-points and
# 2 * 10^4 paths per run.  A Rosenblatt lattice of 2^26 points already
# needs a 2 GiB eigenvalue row.  MAX_LATTICE_POINTS bounds
# grid_size * micro_factor for every family, and admits the default
# micro_factor 16 at every grid.
MAX_GRID_SIZE = 2**22
MAX_LATTICE_POINTS = 2**26
MAX_N_PATHS = 10**8
MAX_WORKERS = 256

# rows of empp.csv formatted per write
EMPP_BLOCK_ROWS = 4096

# Threshold ladder (in units of the mark floor) for the log-log count fit.
LOGLOG_FACTORS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

# Acceptance tolerances used by the report stage.
KAPPA_TOL_GAUSSIAN = 0.05
KAPPA_TOL_ROSENBLATT = 0.08
HILL_TOL = 0.07
HILL_FLOOR_MULTIPLE = 3.0
RATIO_REL_TOL = 0.10
ORACLE_REL_TOL = 0.10
ORACLE_SE_MULTIPLE = 3.0

_TEST_NAMES = ("self_similarity", "increment_stationarity", "bi_scale")


def _integer(value, name: str) -> int:
    """An integral JSON number as an int; booleans and fractions are errors."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _finite(value, name: str) -> float:
    """A finite JSON number as a float; booleans, NaN and infinities are errors."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond every float
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _family(value, name: str) -> Family:
    if isinstance(value, Family) or value in [f.value for f in Family]:
        return Family(value)
    raise ConfigError(f"{name} must be one of {[f.value for f in Family]}, got {value!r}")


def _sequence(item=None):
    """A converter of a JSON list to the tuple of its items, converted by ``item`` if given."""

    def convert(value, name: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(value) if item is None else tuple(item(v, name) for v in value)

    return convert


def _field(path: str, convert=None, default=MISSING, check=None, derive=None):
    """Declare a config field: its JSON path, converter, default and check.

    The constructor converts each value (None: keep it as given) and checks
    it, so ``from_dict``, ``replace`` and overrides share one path.  ``check``
    is a pair (predicate, rule): a value v failing the predicate raises
    "<path> must <rule>, got v".  A field whose default is None may be null;
    ``derive`` then computes it from the fields above it.
    """
    return field(default=default, metadata=dict(
        path=path, convert=convert, check=check, derive=derive))


_POSITIVE = (lambda x: x > 0.0, "be positive")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Fully resolved description of one ensemble experiment."""

    family: Family = _field("process.family", _family)
    hurst: float = _field("process.hurst", _finite)
    horizon: float = _field("process.horizon", _finite)
    grid_size: int = _field("process.grid_size", _integer, check=(
        lambda n: n <= MAX_GRID_SIZE, f"be at most {MAX_GRID_SIZE}"))
    micro_factor: int = _field("process.micro_factor", _integer, 16)
    n_paths: int = _field("n_paths", _integer, check=(
        lambda n: 1 <= n <= MAX_N_PATHS, f"lie in [1, {MAX_N_PATHS}]"))
    master_seed: int = _field("master_seed", _integer, 0, (
        lambda s: 0 <= s < 2**64, "be an unsigned 64-bit integer"))
    c_epsilon: float = _field("epsilon.c", _finite, DEFAULT_C_EPSILON, _POSITIVE)
    epsilon_exponent_is_hurst: bool = _field("epsilon.exponent_is_hurst", None, True, (
        lambda b: isinstance(b, bool), "be true or false"))
    t_grid: tuple[float, ...] = _field("t_grid", _sequence(_finite), None, (
        lambda g: len(g) > 0 and g[0] > 0.0 and all(a < b for a, b in zip(g, g[1:])),
        "be a strictly increasing positive sequence",
    ), lambda cfg: tuple(cfg.horizon / 2**j for j in range(8, -1, -1)))
    threshold: float = _field("threshold", _finite, 1.0, _POSITIVE)
    fit_range: tuple[float, float] | None = _field("fit_range", _sequence(_finite), None, (
        lambda r: len(r) == 2 and 0.0 < r[0] < r[1], "be [T_lo, T_hi] with 0 < T_lo < T_hi"))
    mark_floor_factor: float = _field("analysis.mark_floor_factor", _finite, 2.0, _POSITIVE)
    hill_k: int | None = _field("analysis.hill_k", _integer, None, (
        lambda k: k >= 2, "be at least 2"))
    ratio_r: float | None = _field("analysis.ratio_r", _finite, None, _POSITIVE)
    x_window: float = _field("analysis.x_window", _finite, 1.0, _POSITIVE)
    m0: float | None = _field("analysis.m0", _finite, None, _POSITIVE)
    test_r: float = _field("analysis.test_r", _finite, 0.5, (
        lambda r: 0.0 < r < 1.0, "lie in (0, 1)"))
    test_x0: float = _field("analysis.test_x0", _finite, 0.5, (lambda x: x >= 0.0, "be at least 0"))
    test_h: float = _field("analysis.test_h", _finite, 0.5, _POSITIVE)
    heavy_subdivisions: tuple[int, int] = _field(
        "analysis.heavy_subdivisions", _sequence(_integer), (1024, 4096),
        (lambda h: len(h) == 2 and min(h) >= 1, "be two positive integers"))
    tests: tuple[str, ...] = _field("tests", _sequence(), _TEST_NAMES, (
        lambda t: all(n in _TEST_NAMES for n in t) and len(set(t)) == len(t),
        f"name tests of {_TEST_NAMES}, each at most once"))
    workers: int = _field("workers", _integer, 1, (
        lambda w: 1 <= w <= MAX_WORKERS, f"lie in [1, {MAX_WORKERS}]"))
    out_dir: str | None = _field("out_dir", None, None, (
        lambda s: isinstance(s, str), "be a string or null"))

    def __post_init__(self) -> None:
        for f in fields(self):
            path, convert, check, derive = (
                f.metadata[key] for key in ("path", "convert", "check", "derive"))
            value = getattr(self, f.name)
            if value is None and derive is not None:
                value = derive(self)
            if value is None and f.default is None:
                continue
            value = value if convert is None else convert(value, path)
            if check is not None and not check[0](value):
                raise ConfigError(f"{path} must {check[1]}, got {value!r}")
            object.__setattr__(self, f.name, value)
        self.spec()  # delegate process validation
        if self.grid_size * self.micro_factor > MAX_LATTICE_POINTS:
            raise ConfigError(f"grid_size * micro_factor must be at most {MAX_LATTICE_POINTS}, "
                              f"got {self.grid_size} * {self.micro_factor}")
        if self.t_grid[-1] > self.horizon * (1.0 + 1e-9):
            raise ConfigError(f"t_grid exceeds the horizon {self.horizon}")

    def spec(self) -> ProcessSpec:
        process = (f.name for f in fields(self) if f.metadata["path"].startswith("process."))
        try:
            return ProcessSpec(**{name: getattr(self, name) for name in process})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def delta(self) -> float:
        return self.horizon / self.grid_size

    @property
    def epsilon(self) -> float:
        if self.epsilon_exponent_is_hurst:
            return default_epsilon(self.delta, self.hurst, self.c_epsilon)
        return self.c_epsilon

    @property
    def mark_floor(self) -> float:
        return self.mark_floor_factor * self.delta

    @property
    def ratio_r_resolved(self) -> float:
        return self.ratio_r if self.ratio_r is not None else 10.0 * self.mark_floor

    @property
    def m0_resolved(self) -> float:
        return self.m0 if self.m0 is not None else 32.0 * self.mark_floor

    @property
    def beta(self) -> float:
        return 1.0 / (1.0 - self.hurst)

    @property
    def loglog_thresholds(self) -> tuple[float, ...]:
        return tuple(f * self.mark_floor for f in LOGLOG_FACTORS)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        by_path = {tuple(f.metadata["path"].split(".")): f for f in fields(cls)}
        sections = {path[0] for path in by_path if len(path) == 2}
        given = {(key,): value for key, value in raw.items() if key not in sections}
        for name in sections & raw.keys():
            if not isinstance(raw[name], dict):
                raise ConfigError(f"'{name}' must be an object")
            given.update(((name, key), value) for key, value in raw[name].items())
        version = given.pop(("schema_version",), None)
        unknown = sorted(".".join(path) for path in set(given) - set(by_path))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        for path, f in by_path.items():
            if f.default is MISSING and path not in given:
                raise ConfigError(f"{f.metadata['path']} is required")
        return cls(**{by_path[path].name: value for path, value in given.items()})

    def to_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            *section, key = f.metadata["path"].split(".")
            value = getattr(self, f.name)
            if isinstance(value, (Family, tuple)):
                value = value.value if isinstance(value, Family) else list(value)
            (out.setdefault(section[0], {}) if section else out)[key] = value
        return out

    def replace(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)

    def config_hash(self) -> str:
        """SHA-256 of the experiment: every key but those of the run, which move no output."""
        experiment = {k: v for k, v in self.to_dict().items() if k not in ("workers", "out_dir")}
        canon = json.dumps(experiment, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# per-path record
# ---------------------------------------------------------------------------


def _per_path(dtype, fill, width: int | str | None = None):
    """Declare a column with one row per path.

    ``width`` is None for one value per path, a number of values, or the
    name of the config sequence whose length gives it.  A row keeps
    ``fill`` when its path fails or does not reach the computation.
    """
    return field(metadata={"dtype": dtype, "fill": fill, "width": width})


def _pooled(dtype):
    """Declare a column that pools variable-length pieces in path-index order."""
    return field(metadata={"dtype": dtype, "pooled": True})


@dataclass
class EnsembleSummary:
    """Per-path results of one run, in path-index order.

    Every field but ``config`` and ``failures`` is a column declared here
    and nowhere else: ``run_paths`` allocates, fills and concatenates the
    columns from these declarations.  The columns hold what a path
    measures, each quantity once; ``persist`` forms the survival event
    from ``masses`` and the config's threshold.
    """

    config: ExperimentConfig
    ok: np.ndarray = _per_path(bool, False)
    seeds: np.ndarray = _per_path(np.uint64, 0)
    caps: np.ndarray = _per_path(np.float64, np.nan)
    drifts: np.ndarray = _per_path(np.float64, np.nan)
    n_jumps: np.ndarray = _per_path(np.int64, 0)
    # the local-time mass on (0, T] at each horizon T of t_grid
    masses: np.ndarray = _per_path(np.float64, np.nan, "t_grid")
    max_persist: np.ndarray = _per_path(bool, False, "t_grid")
    mass_at_r: np.ndarray = _per_path(np.float64, np.nan)
    atoms: np.ndarray = _per_path(np.float64, np.nan)
    supports: np.ndarray = _per_path(np.float64, np.nan)
    L_incr: np.ndarray = _per_path(np.float64, np.nan)
    L_ref: np.ndarray = _per_path(np.float64, np.nan)
    covers_window: np.ndarray = _per_path(bool, False)
    ratio_counts: np.ndarray = _per_path(np.int64, 0, 2)
    loglog_counts: np.ndarray = _per_path(np.int64, 0, "loglog_thresholds")
    biscale_raw: np.ndarray = _per_path(np.int64, 0)
    biscale_scaled: np.ndarray = _per_path(np.int64, 0)
    biscale_scaled_alt: np.ndarray = _per_path(np.int64, 0)
    heavy_valid: np.ndarray = _per_path(bool, False)
    heavy_counts: np.ndarray = _per_path(np.int64, -1, "heavy_subdivisions")
    # interior jumps of each path: the size of the Hill fit's full pool
    n_marks: np.ndarray = _per_path(np.int64, 0)
    # the interior jump sizes that can be among the Hill fit's k + 1 largest:
    # of each path, those above _hill_pool_floor and one copy of the largest
    # of the rest
    marks_pool: np.ndarray = _pooled(np.float64)
    # interior jumps of at least m0 / 2, with the index of their path
    dump_index: np.ndarray = _pooled(np.int64)
    dump_locs: np.ndarray = _pooled(np.float64)
    dump_sizes: np.ndarray = _pooled(np.float64)
    failures: list = field(default_factory=list)

    @property
    def n_ok(self) -> int:
        return int(np.count_nonzero(self.ok))

    @property
    def persist(self) -> np.ndarray:
        """The survival event {mass on (0, T] <= threshold}; a failed row's NaN gives False."""
        return self.masses <= self.config.threshold

    @property
    def n_marks_pooled(self) -> int:
        """Interior jumps of the ok paths: the Hill fit's n_marks."""
        return int(self.n_marks[self.ok].sum())


_COLUMNS = tuple(f for f in fields(EnsembleSummary) if "dtype" in f.metadata)
_COLUMN_META = {f.name: f.metadata for f in _COLUMNS}


def _new_column(config: ExperimentConfig, name: str, n_paths: int) -> np.ndarray:
    """Column ``name`` for n_paths rows, each holding the column's fill value."""
    meta = _COLUMN_META[name]
    if meta.get("pooled"):
        return np.empty(0, dtype=meta["dtype"])
    width = meta["width"]
    if isinstance(width, str):
        width = len(getattr(config, width))
    shape = (n_paths,) if width is None else (n_paths, width)
    return np.full(shape, meta["fill"], dtype=meta["dtype"])


def _compute_block(config: ExperimentConfig, indices: Sequence[int], Ls) -> dict:
    """The columns that come from the jump functions of a block of paths.

    ``Ls`` holds the jump function of each path of ``indices``, as a
    ``JumpBlock`` or a sequence of functions.  Each count is one call of its
    library function on the whole block, which returns one row per path; a
    row that the path's mass cap does not reach keeps its fill.
    """
    block = JumpBlock.of(Ls)
    caps = block.caps
    columns = dict(caps=caps, drifts=block.drifts, n_jumps=np.diff(block.offsets))
    pairs = stationarity_increments(block, config.test_x0, config.test_h)
    columns.update(L_incr=pairs[:, 0], L_ref=pairs[:, 1])

    # the jump at level 0, when present, is the censored leading stretch;
    # it is kept out of the mark pool and the dump like any other censoring
    locs, sizes, owner = block.locations, block.sizes, block.owner
    interior = locs > 0.0
    keep = interior & (sizes >= config.m0_resolved / 2.0)
    # the Hill pool: each path's marks above the floor, and one copy of its
    # largest other mark, the first of the path once they are sorted by
    # path and then by size, largest first
    floor = _hill_pool_floor(config)
    pooled = interior & (sizes > floor)
    rest = np.flatnonzero(interior & (sizes <= floor))
    rest = rest[np.lexsort((-sizes[rest], owner[rest]))]
    pooled[rest[np.diff(owner[rest], prepend=-1) != 0]] = True
    columns.update(
        n_marks=np.bincount(owner[interior], minlength=len(block)),
        marks_pool=sizes[pooled],
        dump_index=np.asarray(indices, dtype=np.int64)[owner[keep]],
        dump_locs=locs[keep],
        dump_sizes=sizes[keep],
    )

    xw, r_ratio = config.x_window, config.ratio_r_resolved
    covers, heavy_valid = caps >= xw, caps >= 1.0
    columns.update(covers_window=covers, heavy_valid=heavy_valid)
    covering = block.select(covers)
    counts = window_exceedance_counts(
        covering, xw, (r_ratio, 4.0 * r_ratio) + config.loglog_thresholds
    )
    points = jumps_to_empp(covering, (0.0, xw))
    m0, r_t, beta = config.m0_resolved, config.test_r, config.beta
    for name, values in dict(
        ratio_counts=counts[:, :2],
        loglog_counts=counts[:, 2:],
        biscale_raw=points.count(xw, m0),
        biscale_scaled=rescale_empp(points, r_t, beta).count(xw, m0),
        biscale_scaled_alt=rescale_empp(points, r_t, beta / 2.0).count(xw, m0),
    ).items():
        columns[name] = _scatter(config, name, covers, values)
    heavy = count_heavy_subintervals(
        block.select(heavy_valid), config.heavy_subdivisions, r_ratio)
    columns["heavy_counts"] = _scatter(config, "heavy_counts", heavy_valid, heavy)
    return columns


def _hill_pool_floor(config: ExperimentConfig) -> float:
    """The floor of the Hill pool.

    By default the fit's k counts the marks above HILL_FLOOR_MULTIPLE mark
    floors, and it reads only those and the largest mark at or below them,
    so each path pools just those (a block-independent rule).  An explicit
    ``hill_k`` may reach any mark: the floor is then 0, and every mark is
    pooled.
    """
    return 0.0 if config.hill_k is not None else HILL_FLOOR_MULTIPLE * config.mark_floor


def _scatter(config: ExperimentConfig, name: str, rows: np.ndarray, values) -> np.ndarray:
    """Column ``name`` over ``len(rows)`` paths: ``values`` where ``rows``, the fill elsewhere."""
    column = _new_column(config, name, len(rows))
    column[rows] = values
    return column


def _sample_blocks(
    config: ExperimentConfig, lo: int, hi: int, failures: list[tuple[int, str]]
) -> Iterable[tuple[np.ndarray, SamplePath]]:
    """Paths [lo, hi) drawn, as (indices, block of paths) pairs.

    Each path is sampled on its own; a path that raises is added to
    ``failures``.  A block holds at most BLOCK_POINTS grid points: its
    paths are copied into the rows of one array, which the next block
    overwrites, so each block must be used before the next is drawn.  A
    block of one path is a view of that path's values.
    """
    spec = config.spec()
    size = max(1, BLOCK_POINTS // config.grid_size)
    rows = np.empty((size, config.grid_size + 1)) if size > 1 else None
    indices, seeds = [], []

    def block(values):
        return (np.array(indices, dtype=np.int64),
                SamplePath(spec, np.array(seeds, dtype=np.uint64), values[: len(indices)]))

    for index in range(lo, hi):
        seed = derive_path_seed(config.master_seed, index)
        try:
            values = sample(spec, seed).values
        except Exception as exc:  # noqa: BLE001 - crash isolation by contract
            failures.append((index, _error_payload(exc)["error"]))
            continue
        if rows is not None:
            rows[len(indices)] = values
        indices.append(index)
        seeds.append(seed)
        if len(indices) == size:
            yield block(values[None] if rows is None else rows)
            indices, seeds = [], []
        # dropped before the next draw, which can then reuse its memory
        values = None
    if indices:
        yield block(rows)


def _profile_paths(config: ExperimentConfig, sampled: tuple) -> tuple:
    """(indices, running-maximum events, local-time profiles) of a block of paths.

    These are the only steps that read the paths' values.
    """
    indices, paths = sampled
    return (indices, max_persistence_indicator(paths, config.t_grid),
            estimate_local_time(paths, config.epsilon))


def _sampled_path(sampled: tuple, p: int) -> tuple:
    """Path p of a block of paths, as a block of its own."""
    indices, paths = sampled
    return indices[p : p + 1], SamplePath(paths.spec, paths.seed[p : p + 1], paths.values[p : p + 1])


def _profiled_path(profiled: tuple, p: int) -> tuple:
    """Path p of a block of profiled paths, as a block of its own."""
    indices, max_persist, profile = profiled
    rows = np.arange(len(indices)) == p
    return indices[rows], max_persist[rows], profile.select(rows)


def _isolated(compute, block: tuple, path, failures: list[tuple[int, str]]) -> list:
    """``[compute(block)]``, or, when that raises, ``compute`` of each path alone.

    ``block[0]`` holds the paths' indices and ``path(block, p)`` gives path p
    as a block of its own; a path whose own call raises is added to
    ``failures``, so that only the offending path fails.
    """
    try:
        return [compute(block)]
    except Exception:  # noqa: BLE001 - isolated below, path by path
        results = []
        for p, index in enumerate(block[0].tolist()):
            try:
                results.append(compute(path(block, p)))
            except Exception as exc:  # noqa: BLE001 - crash isolation by contract
                failures.append((index, _error_payload(exc)["error"]))
        return results


def _path_blocks(
    config: ExperimentConfig, lo: int, hi: int, failures: list[tuple[int, str]]
) -> Iterable[tuple]:
    """Paths [lo, hi) profiled, as (indices, running-maximum events, ProfileBlock).

    Each block of paths is profiled as one.  A block of profiles ends once
    they hold BLOCK_CELLS occupied cells, and the last one ends the chunk.
    """
    held: list[tuple] = []

    def block():
        return (np.concatenate([indices for indices, _, _ in held]),
                np.concatenate([max_persist for _, max_persist, _ in held]),
                ProfileBlock.concatenate([profile for _, _, profile in held]))

    for sampled in _sample_blocks(config, lo, hi, failures):
        held += _isolated(functools.partial(_profile_paths, config), sampled,
                          _sampled_path, failures)
        # dropped before the next draw: a block of one path is a view of its values
        del sampled
        if sum(len(profile.occupied) for _, _, profile in held) >= BLOCK_CELLS:
            yield block()
            held = []
    if held:
        yield block()


def _block_columns(config: ExperimentConfig, profiled: tuple) -> dict:
    """Every column of a block of profiled paths but ``ok``.

    The profiles are inverted into one ``JumpBlock``, whose columns
    ``_compute_block`` computes; the other columns come from the profiles,
    each with one library call on the whole block.
    """
    indices, max_persist, profile = profiled
    columns = _compute_block(config, indices, invert_profile(profile))
    # the grid points of the horizons, as persistence_indicator reads them
    k = horizon_stretches(config.t_grid, profile.delta, profile.grid_size)[0]
    columns.update(
        seeds=profile.path_refs,
        masses=profile.mass_at(k),
        max_persist=max_persist,
        mass_at_r=self_similarity_masses(profile, config.test_r)[:, 0],
        atoms=atom_diagnostic(profile),
        supports=support_diagnostic(profile),
    )
    return columns


def _compute_chunk(
    config: ExperimentConfig, lo: int, hi: int
) -> tuple[dict[str, np.ndarray], list[tuple[int, str]]]:
    """Columns for path indices [lo, hi); failures isolated per path.

    Each column's blocks are concatenated into the rows of the paths that did not fail.
    """
    failures: list[tuple[int, str]] = []
    compute = functools.partial(_block_columns, config)
    blocks = [columns for profiled in _path_blocks(config, lo, hi, failures)
              for columns in _isolated(compute, profiled, _profiled_path, failures)]
    failures.sort()

    rows = {f.name: _new_column(config, f.name, hi - lo) for f in _COLUMNS}
    ok = rows["ok"]
    ok[:] = True
    ok[[index - lo for index, _ in failures]] = False
    for name in blocks[0] if blocks else ():
        parts = [block[name] for block in blocks]
        if _COLUMN_META[name].get("pooled"):
            rows[name] = np.concatenate(parts)
        else:
            rows[name][ok] = np.concatenate(parts)
    return rows, failures


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _chunk_ranges(n_paths: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, min(CHUNK_TARGET, math.ceil(n_paths / max(workers, 1))))
    return [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _iter_chunks(
    config: ExperimentConfig, workers: int
) -> Iterable[tuple[dict[str, np.ndarray], list[tuple[int, str]]]]:
    ranges = _chunk_ranges(config.n_paths, workers)
    # a pool starts all its processes at once: never more than the chunks
    workers = min(workers, len(ranges))
    if workers <= 1:
        for lo, hi in ranges:
            yield _compute_chunk(config, lo, hi)
    else:
        # imported here: a 1-worker run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(_compute_chunk, config, lo, hi) for lo, hi in ranges]
            for (lo, hi), fut in zip(ranges, futures):
                try:
                    result = fut.result()
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        f"a worker process died; paths [{lo}, {hi}) were not computed"
                    ) from exc
                yield result
        finally:
            # when the caller stops early, chunks not yet started never run
            pool.shutdown(cancel_futures=True)


def run_paths(config: ExperimentConfig, workers: int | None = None) -> EnsembleSummary:
    """Compute the full ensemble and concatenate the chunks in index order.

    Per-path failures are tolerated up to MAX_FAILURE_FRACTION of the
    ensemble and excluded from every analysis; beyond that the run aborts.
    """
    n = config.n_paths
    # an override is bounded as the config field is
    workers = config.workers if workers is None else config.replace(workers=workers).workers
    max_failures = max(1, int(MAX_FAILURE_FRACTION * n))
    chunks: list[dict[str, np.ndarray]] = []
    failures: list[tuple[int, str]] = []
    for columns, chunk_failures in _iter_chunks(config, workers):
        failures.extend(chunk_failures)
        if len(failures) > max_failures:
            sample_msgs = "; ".join(f"path {i}: {m}" for i, m in failures[:3])
            raise RuntimeError(
                f"{len(failures)} of {n} paths failed "
                f"(limit {max_failures}); first errors: {sample_msgs}"
            )
        chunks.append(columns)
    return EnsembleSummary(
        config=config,
        failures=failures,
        **{f.name: np.concatenate([c[f.name] for c in chunks]) for f in _COLUMNS},
    )


# ---------------------------------------------------------------------------
# stage analyses and writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a CSV cell."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@contextlib.contextmanager
def _atomic_open(path: str):
    """Write ``<path>.partial``, then rename it to ``path`` in one step.

    Readers see the old file or the whole new one, never a partial one; a
    write that raises removes its temporary file.
    """
    partial = path + ".partial"
    try:
        with open(partial, "w", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_empp(path: str, index: np.ndarray, locs: np.ndarray, sizes: np.ndarray) -> None:
    """``empp.csv``, formatted as ``_write_csv`` would, one block of rows at a time."""
    with _atomic_open(path) as fh:
        fh.write("path_id,x,m\n")
        for lo in range(0, len(index), EMPP_BLOCK_ROWS):
            block = slice(lo, lo + EMPP_BLOCK_ROWS)
            rows = zip(map(str, index[block].tolist()), map(repr, locs[block].tolist()),
                       map(repr, sizes[block].tolist()))
            fh.write("\n".join(map(",".join, rows)))
            fh.write("\n")


def _nan_to_null(obj):
    """``obj`` with every NaN float, at any depth, replaced by None."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {key: _nan_to_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nan_to_null(value) for value in obj]
    return obj


def _write_json(path: str, payload: dict) -> None:
    """Strict JSON: NaN becomes null and an infinity raises ValueError."""
    with _atomic_open(path) as fh:
        json.dump(_nan_to_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _error_payload(exc: Exception) -> dict:
    """The payload of an analysis that raised: its error type and message."""
    return {"error": f"{type(exc).__name__}: {exc}"}


def _fit_payload(curve, fit_range, target_kappa: float, kind: str) -> dict:
    try:
        fit = fit_exponent(curve, *(fit_range or ()))
    except (FitRangeError, ValueError) as exc:
        return _error_payload(exc) | {"kind": kind}
    return asdict(fit) | {"target_kappa": target_kappa,
                          "abs_error": abs(fit.kappa_hat - target_kappa), "kind": kind}


def _curve_rows(curve) -> Iterable[Sequence]:
    se = curve.standard_error()
    lo, hi = curve.wilson_interval()
    for i, T in enumerate(curve.T_grid):
        yield (
            T, curve.survival[i], int(curve.counts[i]), curve.n_paths,
            se[i], lo[i], hi[i],
        )


_CURVE_HEADER = ("T", "survival", "count", "n_paths", "se", "wilson_lo", "wilson_hi")


# stage name -> the files the stage writes, in the order it writes them.  The
# stage bodies take their paths from here, and a run first clears these files.
_STAGE_FILES = {
    "persist": ("curve.csv", "fit.json", "maxcurve.csv", "maxfit.json"),
    "excursions": ("tailfit.json", "empp.csv"),
    "invariants": ("invariance.json",),
}


def _stage_paths(stage: str, out_dir: str) -> list[str]:
    return [os.path.join(out_dir, name) for name in _STAGE_FILES[stage]]


def _stage_persist(summary: EnsembleSummary, out_dir: str) -> None:
    cfg = summary.config
    ok = summary.ok
    target = 1.0 - cfg.hurst
    curve_path, fit_path, maxcurve_path, maxfit_path = _stage_paths("persist", out_dir)
    curve = survival_from_events(summary.persist[ok], cfg.t_grid, cfg.threshold)
    _write_csv(curve_path, _CURVE_HEADER, _curve_rows(curve))
    _write_json(fit_path, _fit_payload(curve, cfg.fit_range, target, "local-time-persistence"))

    max_curve = survival_from_events(summary.max_persist[ok], cfg.t_grid, 1.0)
    _write_csv(maxcurve_path, _CURVE_HEADER, _curve_rows(max_curve))
    t_max = cfg.t_grid[-1]
    _write_json(maxfit_path, _fit_payload(max_curve, (t_max / 8.0, t_max), target,
                                          "max-persistence"))


def _stage_excursions(summary: EnsembleSummary, out_dir: str) -> None:
    cfg = summary.config
    target = 1.0 - cfg.hurst
    marks = summary.marks_pool
    n_marks = summary.n_marks_pooled
    floor = cfg.mark_floor

    k = cfg.hill_k
    if k is None:
        # order statistics down to three resolution floors: low enough to
        # dodge the horizon truncation of the largest excursions, high
        # enough to clear the lattice distortion of the smallest ones.
        # The pool holds every mark above the floor, so k is the full pool's
        k = int(np.count_nonzero(marks > _hill_pool_floor(cfg)))
    try:
        fit = hill_tail_index(marks, k, n_marks)
        hill_payload = asdict(fit) | {
            "method": fit.method.value,
            "n_marks_pooled": n_marks,
            "target_exponent": target,
            "abs_error": abs(fit.exponent - target),
        }
    except (InsufficientDataError, ValueError) as exc:
        hill_payload = _error_payload(exc)

    covers = summary.covers_window
    n_covering = int(np.count_nonzero(covers))
    if n_covering == 0:
        ratio_payload = loglog_payload = _error_payload(
            InsufficientDataError("no path covers the level window"))
    else:
        expected = 4.0**target
        try:
            ratio = intensity_ratio_from_counts(
                int(summary.ratio_counts[covers, 0].sum()),
                int(summary.ratio_counts[covers, 1].sum()),
            )
            ratio_payload = {
                "r": cfg.ratio_r_resolved,
                "ratio": ratio,
                "expected": expected,
                "rel_error": abs(ratio / expected - 1.0),
                "n_points_high": int(summary.ratio_counts[covers, 1].sum()),
                "n_paths_used": n_covering,
            }
        except InsufficientDataError as exc:
            ratio_payload = _error_payload(exc)
        thresholds = np.asarray(cfg.loglog_thresholds)
        means = summary.loglog_counts[covers].mean(axis=0) / cfg.x_window
        positive = means > 0.0
        try:
            if np.count_nonzero(positive) < 2:
                raise InsufficientDataError("fewer than 2 thresholds with positive counts")
            llfit = loglog_count_fit(means[positive], thresholds[positive])
            loglog_payload = {
                "exponent": llfit.exponent,
                "constant": llfit.constant,
                "stderr": llfit.stderr,
                "n_thresholds": llfit.k_used,
                "method": llfit.method.value,
                "thresholds": [float(t) for t in thresholds[positive]],
                "mean_counts": [float(m) for m in means[positive]],
                "target_exponent": target,
                "abs_error": abs(llfit.exponent - target),
            }
        except (InsufficientDataError, ValueError) as exc:
            loglog_payload = _error_payload(exc)

    heavy_ok = summary.heavy_valid
    if np.count_nonzero(heavy_ok) == 0:
        heavy_payload = _error_payload(InsufficientDataError("no path has unit mass"))
    else:
        c1 = summary.heavy_counts[heavy_ok, 0]
        c2 = summary.heavy_counts[heavy_ok, 1]
        mean1, mean2 = float(c1.mean()), float(c2.mean())
        heavy_payload = {
            "subdivisions": [int(v) for v in cfg.heavy_subdivisions],
            "threshold": cfg.ratio_r_resolved,
            "mean_counts": [mean1, mean2],
            "rel_gap": abs(mean1 - mean2) / mean2 if mean2 > 0 else None,
            "n_paths_used": int(np.count_nonzero(heavy_ok)),
        }

    payload = {
        "mark_floor": floor,
        "hill": hill_payload,
        "loglog": loglog_payload,
        "ratio": ratio_payload,
        "heavy_counts": heavy_payload,
    }
    tailfit_path, empp_path = _stage_paths("excursions", out_dir)
    _write_json(tailfit_path, payload)
    _write_empp(empp_path, summary.dump_index, summary.dump_locs, summary.dump_sizes)


def _stage_invariants(summary: EnsembleSummary, out_dir: str) -> None:
    cfg = summary.config
    ok = summary.ok
    reports: list[TestReport] = []
    errors: dict[str, str] = {}
    for name in cfg.tests:
        try:
            if name == "self_similarity":
                rep = self_similarity_test_from_values(
                    summary.mass_at_r[ok], summary.caps[ok], cfg.test_r, cfg.hurst)
            elif name == "increment_stationarity":
                rep = stationarity_test_from_values(
                    summary.L_incr[ok], summary.L_ref[ok], ~np.isnan(summary.L_incr[ok]))
            else:  # "bi_scale"; the config admits no other name
                rep = bi_scale_test_from_counts(
                    summary.biscale_raw[ok], summary.biscale_scaled[ok], summary.covers_window[ok])
            reports.append(rep)
        except (InsufficientMassError, ValueError) as exc:
            errors[name] = _error_payload(exc)["error"]
    flags = bonferroni(reports) if reports else []
    payload = {
        "level": REJECT_LEVEL,
        "n_tests": len(reports),
        "battery": [asdict(rep) | {"reject_bonferroni": flag}
                    for rep, flag in zip(reports, flags)],
        "errors": errors,
    }
    (invariance_path,) = _stage_paths("invariants", out_dir)
    _write_json(invariance_path, payload)


_STAGES = {
    "persist": _stage_persist,
    "excursions": _stage_excursions,
    "invariants": _stage_invariants,
}


@dataclass
class RunManifest:
    """Provenance record of one run: config, counters, file checksums."""

    config_hash: str
    out_dir: str
    stages: tuple[str, ...]
    outputs: dict
    counters: dict
    timings: dict

    def path(self) -> str:
        return os.path.join(self.out_dir, "manifest.json")


def _make_out_dir(config: ExperimentConfig, out_dir: str | None, files: Sequence[str]) -> str:
    """Create the output directory and clear the manifest and ``files``.

    An earlier run's manifest would vouch for files this run rewrites, and
    an earlier run's copy of a file this run writes would be stale: a run
    that crashes leaves neither, only the files it wrote whole.
    """
    out_dir = out_dir or config.out_dir
    if not out_dir:
        raise ConfigError("an output directory is required (config out_dir or --out)")
    os.makedirs(out_dir, exist_ok=True)
    for name in ("manifest.json", *files):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    return out_dir


def _write_manifest(
    config: ExperimentConfig,
    out_dir: str,
    stages: Sequence[str],
    files: Sequence[str],
    counters: dict,
    timings: dict,
    **extra,
) -> RunManifest:
    """Checksum the written files, then write and return the run's manifest."""
    outputs = {name: _sha256(os.path.join(out_dir, name)) for name in sorted(files)}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": TOOLKIT_VERSION,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "stages": list(stages),
        "counters": counters,
        "timings_seconds": timings,
        "outputs": outputs,
        **extra,
    }
    manifest = RunManifest(
        config_hash=payload["config_hash"],
        out_dir=out_dir,
        stages=tuple(stages),
        outputs=outputs,
        counters=counters,
        timings=timings,
    )
    _write_json(manifest.path(), payload)
    return manifest


def run_experiment(
    config: ExperimentConfig,
    stages: Sequence[str] = ("persist", "excursions", "invariants"),
    out_dir: str | None = None,
    workers: int | None = None,
) -> RunManifest:
    """Run the ensemble, write the stage outputs and the manifest.

    Returns the manifest, whose ``outputs`` map file names to SHA-256
    checksums.  Identical configs reproduce identical checksums for any
    worker count because every path's row is a pure function of (config,
    seed) and chunks are concatenated in index order.
    """
    unknown = set(stages) - set(_STAGES)
    if unknown:
        raise ConfigError(f"unknown stages {sorted(unknown)}; valid: {sorted(_STAGES)}")
    files = [f for name in stages for f in _STAGE_FILES[name]]
    out_dir = _make_out_dir(config, out_dir, files)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    summary = run_paths(config, workers=workers)
    timings["paths"] = time.perf_counter() - t0

    for name in stages:
        t0 = time.perf_counter()
        _STAGES[name](summary, out_dir)
        timings[name] = time.perf_counter() - t0

    ok = summary.ok
    counters = {
        "n_paths": config.n_paths,
        "n_ok": summary.n_ok,
        "n_failed": len(summary.failures),
        "zero_mass_paths": int(np.count_nonzero(summary.caps[ok] == 0.0)),
        "stationarity_excluded": int(np.count_nonzero(np.isnan(summary.L_incr[ok]))),
        "window_excluded": summary.n_ok - int(np.count_nonzero(summary.covers_window[ok])),
        "marks_pooled": summary.n_marks_pooled,
        "mean_drift": float(np.nanmean(summary.drifts[ok])) if summary.n_ok else None,
    }
    resolved = {
        "delta": config.delta,
        "epsilon": config.epsilon,
        "mark_floor": config.mark_floor,
        "ratio_r": config.ratio_r_resolved,
        "m0": config.m0_resolved,
        "beta": config.beta,
        "loglog_thresholds": list(config.loglog_thresholds),
    }
    if config.family is Family.ROSENBLATT:
        resolved["rosenblatt_calibration"] = rosenblatt_calibration(
            config.hurst, config.grid_size * config.micro_factor
        )
    return _write_manifest(
        config, out_dir, stages, files, counters, timings,
        resolved=resolved,
        failures=[{"index": i, "error": m} for i, m in summary.failures],
    )


def dump_paths(config: ExperimentConfig, out_dir: str | None = None) -> RunManifest:
    """Simulate paths and dump them as CSV rows (path_id, t, x).

    Debug-oriented stage: the full trajectories are written, so it is meant
    for small ensembles.  The paths are simulated serially in the calling
    process, whatever the config's worker count.
    """
    out_dir = _make_out_dir(config, out_dir, ["paths.csv"])
    spec = config.spec()
    times = np.arange(config.grid_size + 1) * config.delta

    def rows():
        for index in range(config.n_paths):
            path = sample(spec, derive_path_seed(config.master_seed, index))
            for t, x in zip(times, path.values):
                yield index, t, x

    t0 = time.perf_counter()
    _write_csv(os.path.join(out_dir, "paths.csv"), ("path_id", "t", "x"), rows())
    timings = {"paths": time.perf_counter() - t0}
    return _write_manifest(
        config, out_dir, ("simulate",), ["paths.csv"], {"n_paths": config.n_paths}, timings
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _load_curve_rows(path: str) -> list[dict] | None:
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        return [
            {k: float(v) if k != "count" else int(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


def _check_row(label: str, value, target, tol, rows: list, checks: list) -> None:
    ok = abs(value - target) <= tol
    checks.append(ok)
    rows.append(
        f"| {label} | {value:.5g} | {target:.5g} | {tol:.3g} | "
        f"{'PASS' if ok else 'FAIL'} |"
    )


def report(run_dirs: Sequence[str], out_dir: str, check: bool = False) -> tuple[str, bool]:
    """Assemble a summary document (and plot-ready CSV) from run manifests.

    Each run contributes the rows its artifacts support; missing artifacts
    are listed as gaps without failing the report.  With ``check`` the
    returned flag is False whenever any present check row fails, which the
    CLI maps to exit code 3.
    """
    os.makedirs(out_dir, exist_ok=True)
    lines: list[str] = ["# Ensemble verification summary", ""]
    checks: list[bool] = []
    gaps: list[str] = []
    loglog_rows: list[Sequence] = []

    for run_dir in run_dirs:
        manifest = _load_json(os.path.join(run_dir, "manifest.json"))
        if manifest is None:
            gaps.append(f"{run_dir}: no manifest.json")
            continue
        cfg = manifest.get("config", {})
        proc = cfg.get("process", {})
        family = proc.get("family", "?")
        hurst = float(proc.get("hurst", float("nan")))
        target_kappa = 1.0 - hurst
        lines.append(f"## Run `{run_dir}`")
        lines.append("")
        lines.append(
            f"family **{family}**, hurst {hurst}, horizon {proc.get('horizon')}, "
            f"grid {proc.get('grid_size')}, paths {cfg.get('n_paths')}, "
            f"seed {cfg.get('master_seed')}, config `{manifest.get('config_hash', '')[:12]}`"
        )
        lines.append("")

        counters = manifest.get("counters", {})
        if counters.get("n_failed"):
            lines.append(f"- failed paths: {counters['n_failed']}")
        if counters.get("zero_mass_paths") is not None:
            lines.append(f"- zero-mass paths: {counters['zero_mass_paths']}")
        lines.append("")

        table = ["| quantity | value | target | tolerance | status |",
                 "|---|---|---|---|---|"]

        fit = _load_json(os.path.join(run_dir, "fit.json"))
        if fit is None:
            gaps.append(f"{run_dir}: no fit.json")
        elif "error" in fit:
            gaps.append(f"{run_dir}: exponent fit failed: {fit['error']}")
        else:
            tol = (
                KAPPA_TOL_ROSENBLATT if family == Family.ROSENBLATT.value
                else KAPPA_TOL_GAUSSIAN
            )
            _check_row(
                "persistence exponent kappa", fit["kappa_hat"], target_kappa, tol,
                table, checks,
            )
            if hurst == 0.5:
                c_oracle = math.sqrt(2.0 / math.pi)
                table.append(
                    f"| prefactor c (info, oracle sqrt(2/pi)) | {fit['c_hat']:.5g} "
                    f"| {c_oracle:.5g} | - | info |"
                )

        maxfit = _load_json(os.path.join(run_dir, "maxfit.json"))
        if maxfit is not None and "error" not in maxfit and hurst == 0.5:
            _check_row(
                "max-persistence exponent", maxfit["kappa_hat"], target_kappa,
                KAPPA_TOL_GAUSSIAN, table, checks,
            )

        tail = _load_json(os.path.join(run_dir, "tailfit.json"))
        if tail is None:
            gaps.append(f"{run_dir}: no tailfit.json")
        else:
            hill = tail.get("hill", {})
            if "error" in hill:
                gaps.append(f"{run_dir}: Hill fit failed: {hill['error']}")
            else:
                _check_row(
                    "mark tail index (Hill)", hill["exponent"], target_kappa,
                    HILL_TOL, table, checks,
                )
            ratio = tail.get("ratio", {})
            if "error" in ratio:
                gaps.append(f"{run_dir}: ratio test failed: {ratio['error']}")
            else:
                expected = ratio["expected"]
                _check_row(
                    "count ratio at (r, 4r)", ratio["ratio"], expected,
                    RATIO_REL_TOL * expected, table, checks,
                )
            loglog = tail.get("loglog", {})
            if "error" not in loglog and loglog:
                table.append(
                    f"| tail index (log-log counts, info) | {loglog['exponent']:.5g} "
                    f"| {target_kappa:.5g} | - | info |"
                )

        curve_rows = _load_curve_rows(os.path.join(run_dir, "curve.csv"))
        if curve_rows is None:
            gaps.append(f"{run_dir}: no curve.csv")
        else:
            if hurst == 0.5:
                for row in curve_rows:
                    oracle = bm_exact_persistence(row["T"], float(cfg.get("threshold", 1.0)))
                    tol = ORACLE_REL_TOL * oracle + ORACLE_SE_MULTIPLE * row["se"]
                    _check_row(
                        f"survival at T={row['T']:g} vs exact law",
                        row["survival"], oracle, tol, table, checks,
                    )
            fitted = None
            if fit is not None and "error" not in fit:
                fitted = (fit["kappa_hat"], fit["c_hat"])
            for row in curve_rows:
                if row["survival"] > 0.0:
                    log_fit = (
                        math.log(fitted[1]) - fitted[0] * math.log(row["T"])
                        if fitted else float("nan")
                    )
                    loglog_rows.append(
                        (run_dir, family, hurst, row["T"], row["survival"],
                         math.log(row["T"]), math.log(row["survival"]), log_fit)
                    )

        inv = _load_json(os.path.join(run_dir, "invariance.json"))
        if inv is None:
            gaps.append(f"{run_dir}: no invariance.json")
        else:
            for entry in inv.get("battery", []):
                if entry["p_value"] is None:
                    gaps.append(f"{run_dir}: invariance test {entry['name']} has no p-value")
                    continue
                rejected = bool(entry["reject_bonferroni"])
                checks.append(not rejected)
                table.append(
                    f"| {entry['name']} (p={entry['p_value']:.4g}) | "
                    f"{'reject' if rejected else 'no reject'} | no reject | "
                    f"Bonferroni {inv.get('level', REJECT_LEVEL)}/{inv.get('n_tests')} | "
                    f"{'FAIL' if rejected else 'PASS'} |"
                )
            for name, msg in inv.get("errors", {}).items():
                gaps.append(f"{run_dir}: invariance test {name} failed: {msg}")

        if len(table) > 2:
            lines.extend(table)
        lines.append("")

    if loglog_rows:
        _write_csv(
            os.path.join(out_dir, "loglog.csv"),
            ("run", "family", "hurst", "T", "survival", "log_T",
             "log_survival", "fit_log_survival"),
            loglog_rows,
        )
        lines.append(f"Plot-ready decay curves: `{os.path.join(out_dir, 'loglog.csv')}`")
        lines.append("")

    if gaps:
        lines.append("## Gaps")
        lines.append("")
        lines.extend(f"- {g}" for g in gaps)
        lines.append("")

    ok = all(checks)
    n_pass = sum(checks)
    lines.append(
        f"**{n_pass} of {len(checks)} checks passed.** "
        + ("All good." if ok else "Some checks FAILED.")
    )
    lines.append("")
    summary_path = os.path.join(out_dir, "summary.md")
    with _atomic_open(summary_path) as fh:
        fh.write("\n".join(lines))
    return summary_path, ok
