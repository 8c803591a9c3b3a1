"""Experiment driver: configuration, deterministic ensemble runs, outputs.

A run is described by a JSON config with a versioned schema (unknown keys
are hard errors).  Path indices are mapped to seeds by avalanche mixing of
the master seed, every per-path computation is a pure function of
(config, seed), and aggregation happens in path-index order, so results
are bit-identical for any worker count.  Nothing in the compute path reads
the wall clock or OS entropy; timings appear only as manifest metadata.

Per path the worker samples the process, estimates the local-time profile,
inverts it, and reduces everything downstream analyses need to one row
(event indicators, masses, diagnostics, increments of the inverse,
exceedance counts) plus its pieces of the pooled jump marks.  Every value
comes from the same per-path library function that the object-level API
uses, so each quantity has one implementation.  The columns are declared
once, as the fields of ``EnsembleSummary`` with their dtype, per-path
width and fill value; each chunk allocates and fills them by name, and
the chunks are concatenated in index order.  Stage writers turn
the columns into CSV and JSON files; the manifest records the config hash
and a checksum of every file written.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, FitRangeError, InsufficientDataError, InsufficientMassError
from .generators import (
    Family,
    ProcessSpec,
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
    atom_diagnostic,
    estimate_local_time,
    invert_profile,
    persistence_indicator,
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

_TOP_KEYS = {
    "schema_version", "process", "n_paths", "master_seed", "epsilon",
    "t_grid", "threshold", "fit_range", "analysis", "tests", "workers",
    "out_dir",
}
_PROCESS_KEYS = {"family", "hurst", "horizon", "grid_size", "micro_factor"}
_EPSILON_KEYS = {"c", "exponent_is_hurst"}
_ANALYSIS_KEYS = {
    "mark_floor_factor", "hill_k", "ratio_r", "x_window", "m0",
    "test_r", "test_x0", "test_h", "heavy_subdivisions",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one ensemble experiment."""

    family: Family
    hurst: float
    horizon: float
    grid_size: int
    micro_factor: int
    n_paths: int
    master_seed: int
    c_epsilon: float
    epsilon_exponent_is_hurst: bool
    t_grid: tuple[float, ...]
    threshold: float
    fit_t_lo: float | None
    fit_t_hi: float | None
    mark_floor_factor: float
    hill_k: int | None
    ratio_r: float | None
    x_window: float
    m0: float | None
    test_r: float
    test_x0: float
    test_h: float
    heavy_subdivisions: tuple[int, int]
    tests: tuple[str, ...]
    workers: int
    out_dir: str | None

    def __post_init__(self) -> None:
        self.spec()  # delegate process validation
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be positive, got {self.n_paths}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be an unsigned 64-bit integer")
        if self.c_epsilon <= 0.0:
            raise ConfigError(f"epsilon.c must be positive, got {self.c_epsilon}")
        grid = np.asarray(self.t_grid, dtype=np.float64)
        if len(grid) == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise ConfigError("t_grid must be a strictly increasing positive sequence")
        if grid[-1] > self.horizon * (1.0 + 1e-9):
            raise ConfigError(f"t_grid exceeds the horizon {self.horizon}")
        if self.threshold <= 0.0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")
        if (self.fit_t_lo is None) != (self.fit_t_hi is None):
            raise ConfigError("fit_range must give both ends or be null")
        if self.fit_t_lo is not None and not 0.0 < self.fit_t_lo < self.fit_t_hi:
            raise ConfigError(f"fit_range must be increasing, got {self.fit_t_lo, self.fit_t_hi}")
        if self.mark_floor_factor <= 0.0:
            raise ConfigError("mark_floor_factor must be positive")
        if self.hill_k is not None and self.hill_k < 2:
            raise ConfigError("hill_k must be at least 2")
        if self.ratio_r is not None and self.ratio_r <= 0.0:
            raise ConfigError("ratio_r must be positive")
        if self.x_window <= 0.0:
            raise ConfigError("x_window must be positive")
        if self.m0 is not None and self.m0 <= 0.0:
            raise ConfigError("m0 must be positive")
        if not 0.0 < self.test_r < 1.0:
            raise ConfigError(f"test_r must lie in (0, 1), got {self.test_r}")
        if self.test_x0 < 0.0 or self.test_h <= 0.0:
            raise ConfigError("test_x0 must be >= 0 and test_h > 0")
        if len(self.heavy_subdivisions) != 2 or any(int(n) < 1 for n in self.heavy_subdivisions):
            raise ConfigError("heavy_subdivisions must be two positive integers")
        unknown_tests = set(self.tests) - set(_TEST_NAMES)
        if unknown_tests:
            raise ConfigError(f"unknown tests {sorted(unknown_tests)}; valid: {_TEST_NAMES}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")

    def spec(self) -> ProcessSpec:
        try:
            return ProcessSpec(
                family=self.family,
                hurst=self.hurst,
                horizon=self.horizon,
                grid_size=self.grid_size,
                micro_factor=self.micro_factor,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # ------------------------------------------------------------------
    # resolved quantities
    # ------------------------------------------------------------------

    @property
    def delta(self) -> float:
        return self.horizon / self.grid_size

    @property
    def epsilon(self) -> float:
        if self.epsilon_exponent_is_hurst:
            return self.c_epsilon * self.delta**self.hurst
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

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        process = raw.get("process")
        if not isinstance(process, dict):
            raise ConfigError("config needs a 'process' object")
        unknown = set(process) - _PROCESS_KEYS
        if unknown:
            raise ConfigError(f"unknown process keys {sorted(unknown)}")
        try:
            family = Family(process.get("family"))
        except ValueError as exc:
            raise ConfigError(
                f"family must be one of {[f.value for f in Family]}, "
                f"got {process.get('family')!r}"
            ) from exc
        for req in ("hurst", "horizon", "grid_size"):
            if req not in process:
                raise ConfigError(f"process.{req} is required")
        eps = raw.get("epsilon", {})
        if not isinstance(eps, dict):
            raise ConfigError("'epsilon' must be an object")
        unknown = set(eps) - _EPSILON_KEYS
        if unknown:
            raise ConfigError(f"unknown epsilon keys {sorted(unknown)}")
        analysis = raw.get("analysis", {})
        if not isinstance(analysis, dict):
            raise ConfigError("'analysis' must be an object")
        unknown = set(analysis) - _ANALYSIS_KEYS
        if unknown:
            raise ConfigError(f"unknown analysis keys {sorted(unknown)}")

        horizon = _finite(process["horizon"], "process.horizon")
        t_grid = raw.get("t_grid")
        if t_grid is None:
            t_grid = tuple(horizon / 2**j for j in range(8, -1, -1))
        else:
            t_grid = tuple(_finite(t, "t_grid") for t in t_grid)
        fit_range = raw.get("fit_range")
        if fit_range is None:
            fit_lo = fit_hi = None
        else:
            if not (isinstance(fit_range, (list, tuple)) and len(fit_range) == 2):
                raise ConfigError("fit_range must be [T_lo, T_hi] or null")
            fit_lo, fit_hi = (_finite(t, "fit_range") for t in fit_range)
        tests = raw.get("tests", _TEST_NAMES)
        if not isinstance(tests, (list, tuple)):
            raise ConfigError(f"tests must be a list of test names, got {tests!r}")
        exponent_is_hurst = eps.get("exponent_is_hurst", True)
        if not isinstance(exponent_is_hurst, bool):
            raise ConfigError(
                f"epsilon.exponent_is_hurst must be true or false, got {exponent_is_hurst!r}"
            )
        heavy = analysis.get("heavy_subdivisions", (1024, 4096))
        out_dir = raw.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError(f"out_dir must be a string or null, got {out_dir!r}")
        try:
            return cls(
                family=family,
                hurst=_finite(process["hurst"], "process.hurst"),
                horizon=horizon,
                grid_size=_integer(process["grid_size"], "process.grid_size"),
                micro_factor=_integer(process.get("micro_factor", 16), "process.micro_factor"),
                n_paths=_integer(raw.get("n_paths", 0), "n_paths"),
                master_seed=_integer(raw.get("master_seed", 0), "master_seed"),
                c_epsilon=_finite(eps.get("c", DEFAULT_C_EPSILON), "epsilon.c"),
                epsilon_exponent_is_hurst=exponent_is_hurst,
                t_grid=t_grid,
                threshold=_finite(raw.get("threshold", 1.0), "threshold"),
                fit_t_lo=fit_lo,
                fit_t_hi=fit_hi,
                mark_floor_factor=_finite(
                    analysis.get("mark_floor_factor", 2.0), "analysis.mark_floor_factor"
                ),
                hill_k=(
                    None if analysis.get("hill_k") is None
                    else _integer(analysis["hill_k"], "analysis.hill_k")
                ),
                ratio_r=(
                    None if analysis.get("ratio_r") is None
                    else _finite(analysis["ratio_r"], "analysis.ratio_r")
                ),
                x_window=_finite(analysis.get("x_window", 1.0), "analysis.x_window"),
                m0=(None if analysis.get("m0") is None else _finite(analysis["m0"], "analysis.m0")),
                test_r=_finite(analysis.get("test_r", 0.5), "analysis.test_r"),
                test_x0=_finite(analysis.get("test_x0", 0.5), "analysis.test_x0"),
                test_h=_finite(analysis.get("test_h", 0.5), "analysis.test_h"),
                heavy_subdivisions=tuple(
                    _integer(n, "analysis.heavy_subdivisions") for n in heavy
                ),
                tests=tuple(tests),
                workers=_integer(raw.get("workers", 1), "workers"),
                out_dir=out_dir,
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config value: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "process": {
                "family": self.family.value,
                "hurst": self.hurst,
                "horizon": self.horizon,
                "grid_size": self.grid_size,
                "micro_factor": self.micro_factor,
            },
            "n_paths": self.n_paths,
            "master_seed": self.master_seed,
            "epsilon": {
                "c": self.c_epsilon,
                "exponent_is_hurst": self.epsilon_exponent_is_hurst,
            },
            "t_grid": list(self.t_grid),
            "threshold": self.threshold,
            "fit_range": (
                None if self.fit_t_lo is None else [self.fit_t_lo, self.fit_t_hi]
            ),
            "analysis": {
                "mark_floor_factor": self.mark_floor_factor,
                "hill_k": self.hill_k,
                "ratio_r": self.ratio_r,
                "x_window": self.x_window,
                "m0": self.m0,
                "test_r": self.test_r,
                "test_x0": self.test_x0,
                "test_h": self.test_h,
                "heavy_subdivisions": list(self.heavy_subdivisions),
            },
            "tests": list(self.tests),
            "workers": self.workers,
            "out_dir": self.out_dir,
        }

    def replace(self, **changes) -> "ExperimentConfig":
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


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
        value = float(value)
        if math.isfinite(value):
            return value
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


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
    columns from these declarations.
    """

    config: ExperimentConfig
    ok: np.ndarray = _per_path(bool, False)
    seeds: np.ndarray = _per_path(np.uint64, 0)
    caps: np.ndarray = _per_path(np.float64, np.nan)
    drifts: np.ndarray = _per_path(np.float64, np.nan)
    n_jumps: np.ndarray = _per_path(np.int64, 0)
    zero_mass: np.ndarray = _per_path(bool, False)
    persist: np.ndarray = _per_path(bool, False, "t_grid")
    max_persist: np.ndarray = _per_path(bool, False, "t_grid")
    terminal_mass: np.ndarray = _per_path(np.float64, np.nan)
    mass_at_r: np.ndarray = _per_path(np.float64, np.nan)
    atoms: np.ndarray = _per_path(np.float64, np.nan)
    supports: np.ndarray = _per_path(np.float64, np.nan)
    L_incr: np.ndarray = _per_path(np.float64, np.nan)
    L_ref: np.ndarray = _per_path(np.float64, np.nan)
    stat_valid: np.ndarray = _per_path(bool, False)
    covers_window: np.ndarray = _per_path(bool, False)
    ratio_counts: np.ndarray = _per_path(np.int64, 0, 2)
    loglog_counts: np.ndarray = _per_path(np.int64, 0, "loglog_thresholds")
    biscale_raw: np.ndarray = _per_path(np.int64, 0)
    biscale_scaled: np.ndarray = _per_path(np.int64, 0)
    biscale_scaled_alt: np.ndarray = _per_path(np.int64, 0)
    heavy_valid: np.ndarray = _per_path(bool, False)
    heavy_counts: np.ndarray = _per_path(np.int64, -1, "heavy_subdivisions")
    # interior jump sizes of every path
    marks_pool: np.ndarray = _pooled(np.float64)
    # interior jumps of at least m0 / 2, with the index of their path
    dump_index: np.ndarray = _pooled(np.int64)
    dump_locs: np.ndarray = _pooled(np.float64)
    dump_sizes: np.ndarray = _pooled(np.float64)
    failures: list = field(default_factory=list)

    @property
    def n_ok(self) -> int:
        return int(np.count_nonzero(self.ok))


_COLUMNS = tuple(f for f in fields(EnsembleSummary) if "dtype" in f.metadata)


def _compute_path(config: ExperimentConfig, index: int) -> dict:
    """One path's values, keyed by the columns they fill."""
    spec = config.spec()
    seed = derive_path_seed(config.master_seed, index)
    path = sample(spec, seed)
    max_persist = max_persistence_indicator(path, config.t_grid)

    profile = estimate_local_time(path, config.epsilon)
    del path
    mass_at_r, terminal_mass = self_similarity_masses(profile, config.test_r)
    values = dict(
        seeds=seed,
        persist=persistence_indicator(profile, config.t_grid, config.threshold),
        max_persist=max_persist,
        terminal_mass=terminal_mass,
        mass_at_r=mass_at_r,
        atoms=atom_diagnostic(profile),
        supports=support_diagnostic(profile),
    )

    L = invert_profile(profile)
    del profile
    cap = L.total_mass_cap
    increments = stationarity_increments(L, config.test_x0, config.test_h)
    xw = config.x_window
    stat_valid, covers, heavy_valid = increments is not None, cap >= xw, cap >= 1.0
    # the jump at level 0, when present, is the censored leading stretch;
    # it is kept out of the mark pool and the dump like any other censoring
    interior = L.locations > 0.0
    keep = (L.sizes >= config.m0_resolved / 2.0) & interior
    values.update(
        caps=cap,
        drifts=L.drift,
        n_jumps=L.n_jumps,
        zero_mass=cap == 0.0,
        stat_valid=stat_valid,
        covers_window=covers,
        heavy_valid=heavy_valid,
        marks_pool=L.sizes[interior],
        dump_index=np.full(np.count_nonzero(keep), index, dtype=np.int64),
        dump_locs=L.locations[keep],
        dump_sizes=L.sizes[keep],
    )
    if stat_valid:
        values["L_incr"], values["L_ref"] = increments

    r_ratio = config.ratio_r_resolved
    if covers:
        counts = window_exceedance_counts(
            L, xw, (r_ratio, 4.0 * r_ratio) + config.loglog_thresholds
        )
        points = jumps_to_empp(L, (0.0, xw))
        m0, r_t, beta = config.m0_resolved, config.test_r, config.beta
        values.update(
            ratio_counts=counts[:2],
            loglog_counts=counts[2:],
            biscale_raw=points.count(xw, m0),
            biscale_scaled=rescale_empp(points, r_t, beta).count(xw, m0),
            biscale_scaled_alt=rescale_empp(points, r_t, beta / 2.0).count(xw, m0),
        )

    if heavy_valid:
        values["heavy_counts"] = [
            count_heavy_subintervals(L, int(n_sub), r_ratio)
            for n_sub in config.heavy_subdivisions
        ]
    return values


def _compute_chunk(
    config: ExperimentConfig, lo: int, hi: int
) -> tuple[dict[str, np.ndarray], list[tuple[int, str]]]:
    """Columns for path indices [lo, hi); failures isolated per path."""
    rows: dict[str, np.ndarray] = {}
    pieces: dict[str, list[np.ndarray]] = {}
    for f in _COLUMNS:
        meta = f.metadata
        if meta.get("pooled"):
            pieces[f.name] = [np.empty(0, dtype=meta["dtype"])]
            continue
        width = meta["width"]
        if isinstance(width, str):
            width = len(getattr(config, width))
        shape = (hi - lo,) if width is None else (hi - lo, width)
        rows[f.name] = np.full(shape, meta["fill"], dtype=meta["dtype"])

    failures: list[tuple[int, str]] = []
    for row, index in enumerate(range(lo, hi)):
        try:
            values = _compute_path(config, index)
        except Exception as exc:  # noqa: BLE001 - crash isolation by contract
            failures.append((index, f"{type(exc).__name__}: {exc}"))
            continue
        rows["ok"][row] = True
        for name, value in values.items():
            if name in pieces:
                pieces[name].append(value)
            else:
                rows[name][row] = value
    rows.update((name, np.concatenate(parts)) for name, parts in pieces.items())
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
    if workers <= 1:
        for lo, hi in ranges:
            yield _compute_chunk(config, lo, hi)
    else:
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
    workers = config.workers if workers is None else workers
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


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _fit_payload(curve, t_lo, t_hi, target_kappa: float) -> dict:
    try:
        fit = fit_exponent(curve, t_lo, t_hi)
    except (FitRangeError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "kappa_hat": fit.kappa_hat,
        "c_hat": fit.c_hat,
        "stderr_kappa": fit.stderr_kappa,
        "fit_range": list(fit.fit_range),
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
        "target_kappa": target_kappa,
        "abs_error": abs(fit.kappa_hat - target_kappa),
    }


def _curve_rows(curve) -> Iterable[Sequence]:
    se = curve.standard_error()
    lo, hi = curve.wilson_interval()
    for i, T in enumerate(curve.T_grid):
        yield (
            T, curve.survival[i], int(curve.counts[i]), curve.n_paths,
            se[i], lo[i], hi[i],
        )


_CURVE_HEADER = ("T", "survival", "count", "n_paths", "se", "wilson_lo", "wilson_hi")


def _stage_persist(summary: EnsembleSummary, out_dir: str) -> list[str]:
    cfg = summary.config
    ok = summary.ok
    target = 1.0 - cfg.hurst
    curve = survival_from_events(summary.persist[ok], cfg.t_grid, cfg.threshold)
    _write_csv(os.path.join(out_dir, "curve.csv"), _CURVE_HEADER, _curve_rows(curve))
    fit_payload = _fit_payload(curve, cfg.fit_t_lo, cfg.fit_t_hi, target)
    fit_payload["kind"] = "local-time-persistence"
    _write_json(os.path.join(out_dir, "fit.json"), fit_payload)

    max_curve = survival_from_events(summary.max_persist[ok], cfg.t_grid, 1.0)
    _write_csv(os.path.join(out_dir, "maxcurve.csv"), _CURVE_HEADER, _curve_rows(max_curve))
    t_max = cfg.t_grid[-1]
    max_payload = _fit_payload(max_curve, t_max / 8.0, t_max, target)
    max_payload["kind"] = "max-persistence"
    _write_json(os.path.join(out_dir, "maxfit.json"), max_payload)
    return ["curve.csv", "fit.json", "maxcurve.csv", "maxfit.json"]


def _stage_excursions(summary: EnsembleSummary, out_dir: str) -> list[str]:
    cfg = summary.config
    target = 1.0 - cfg.hurst
    marks = summary.marks_pool
    floor = cfg.mark_floor

    hill_payload: dict
    k = cfg.hill_k
    if k is None:
        # order statistics down to three resolution floors: low enough to
        # dodge the horizon truncation of the largest excursions, high
        # enough to clear the lattice distortion of the smallest ones
        k = int(np.count_nonzero(marks > HILL_FLOOR_MULTIPLE * floor))
    try:
        fit = hill_tail_index(marks, k)
        hill_payload = {
            "exponent": fit.exponent,
            "constant": fit.constant,
            "stderr": fit.stderr,
            "k_used": fit.k_used,
            "method": fit.method.value,
            "n_marks_pooled": int(len(marks)),
            "target_exponent": target,
            "abs_error": abs(fit.exponent - target),
        }
    except (InsufficientDataError, ValueError) as exc:
        hill_payload = {"error": f"{type(exc).__name__}: {exc}"}

    covers = summary.covers_window
    n_covering = int(np.count_nonzero(covers))
    ratio_payload: dict
    loglog_payload: dict
    if n_covering == 0:
        ratio_payload = {"error": "InsufficientDataError: no path covers the level window"}
        loglog_payload = {"error": "InsufficientDataError: no path covers the level window"}
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
            ratio_payload = {"error": f"{type(exc).__name__}: {exc}"}
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
            loglog_payload = {"error": f"{type(exc).__name__}: {exc}"}

    heavy_ok = summary.heavy_valid
    heavy_payload: dict
    if np.count_nonzero(heavy_ok) == 0:
        heavy_payload = {"error": "InsufficientDataError: no path has unit mass"}
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
    _write_json(os.path.join(out_dir, "tailfit.json"), payload)
    _write_csv(
        os.path.join(out_dir, "empp.csv"),
        ("path_id", "x", "m"),
        zip(summary.dump_index, summary.dump_locs, summary.dump_sizes),
    )
    return ["tailfit.json", "empp.csv"]


def _stage_invariants(summary: EnsembleSummary, out_dir: str) -> list[str]:
    cfg = summary.config
    ok = summary.ok
    reports: list[TestReport] = []
    errors: dict[str, str] = {}
    for name in cfg.tests:
        try:
            if name == "self_similarity":
                reports.append(
                    self_similarity_test_from_values(
                        summary.mass_at_r[ok], summary.terminal_mass[ok],
                        cfg.test_r, cfg.hurst,
                    )
                )
            elif name == "increment_stationarity":
                reports.append(
                    stationarity_test_from_values(
                        summary.L_incr[ok], summary.L_ref[ok], summary.stat_valid[ok]
                    )
                )
            elif name == "bi_scale":
                reports.append(
                    bi_scale_test_from_counts(
                        summary.biscale_raw[ok], summary.biscale_scaled[ok],
                        summary.covers_window[ok],
                    )
                )
        except (InsufficientMassError, ValueError) as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
    flags = bonferroni(reports) if reports else []
    payload = {
        "level": REJECT_LEVEL,
        "n_tests": len(reports),
        "battery": [
            {
                "name": rep.name,
                "statistic": rep.statistic,
                "p_value": rep.p_value,
                "n1": rep.n1,
                "n2": rep.n2,
                "reject_at_01": rep.reject_at_01,
                "reject_bonferroni": flag,
            }
            for rep, flag in zip(reports, flags)
        ],
        "errors": errors,
    }
    _write_json(os.path.join(out_dir, "invariance.json"), payload)
    return ["invariance.json"]


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
    payload: dict

    def path(self) -> str:
        return os.path.join(self.out_dir, "manifest.json")


def _make_out_dir(config: ExperimentConfig, out_dir: str | None) -> str:
    out_dir = out_dir or config.out_dir
    if not out_dir:
        raise ConfigError("an output directory is required (config out_dir or --out)")
    os.makedirs(out_dir, exist_ok=True)
    # an earlier run's manifest would vouch for files this run rewrites;
    # a run that crashes before its own manifest must leave none
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "manifest.json"))
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
        payload=payload,
    )
    # written whole under a temporary name, so no partial manifest is seen
    partial = manifest.path() + ".partial"
    _write_json(partial, payload)
    os.replace(partial, manifest.path())
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
    out_dir = _make_out_dir(config, out_dir)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    summary = run_paths(config, workers=workers)
    timings["paths"] = time.perf_counter() - t0

    files: list[str] = []
    for name in stages:
        t0 = time.perf_counter()
        files.extend(_STAGES[name](summary, out_dir))
        timings[name] = time.perf_counter() - t0

    cfg = config
    counters = {
        "n_paths": cfg.n_paths,
        "n_ok": summary.n_ok,
        "n_failed": len(summary.failures),
        "zero_mass_paths": int(np.count_nonzero(summary.zero_mass[summary.ok])),
        "stationarity_excluded": int(np.count_nonzero(summary.ok) - np.count_nonzero(summary.stat_valid[summary.ok])),
        "window_excluded": int(np.count_nonzero(summary.ok) - np.count_nonzero(summary.covers_window[summary.ok])),
        "marks_pooled": int(len(summary.marks_pool)),
        "mean_drift": (
            float(np.nanmean(summary.drifts[summary.ok])) if summary.n_ok else None
        ),
    }
    resolved = {
        "delta": cfg.delta,
        "epsilon": cfg.epsilon,
        "mark_floor": cfg.mark_floor,
        "ratio_r": cfg.ratio_r_resolved,
        "m0": cfg.m0_resolved,
        "beta": cfg.beta,
        "loglog_thresholds": list(cfg.loglog_thresholds),
    }
    if cfg.family is Family.ROSENBLATT:
        resolved["rosenblatt_calibration"] = rosenblatt_calibration(
            cfg.hurst, cfg.grid_size * cfg.micro_factor
        )
    return _write_manifest(
        cfg, out_dir, stages, files, counters, timings,
        resolved=resolved,
        failures=[{"index": i, "error": m} for i, m in summary.failures],
    )


def dump_paths(config: ExperimentConfig, out_dir: str | None = None) -> RunManifest:
    """Simulate paths and dump them as CSV rows (path_id, t, x).

    Debug-oriented stage: the full trajectories are written, so it is meant
    for small ensembles.  The paths are simulated serially in the calling
    process, whatever the config's worker count.
    """
    out_dir = _make_out_dir(config, out_dir)
    spec = config.spec()
    times = np.arange(config.grid_size + 1) * config.delta
    t0 = time.perf_counter()
    path_file = os.path.join(out_dir, "paths.csv")
    with open(path_file, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("path_id", "t", "x"))
        for index in range(config.n_paths):
            seed = derive_path_seed(config.master_seed, index)
            path = sample(spec, seed)
            for t, x in zip(times, path.values):
                writer.writerow((index, _fmt(t), _fmt(x)))
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
    with open(summary_path, "w") as fh:
        fh.write("\n".join(lines))
    return summary_path, ok
