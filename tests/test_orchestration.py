import csv
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from dataclasses import fields, replace

import numpy as np
import pytest

import zeroset
from zeroset import (
    ConfigError,
    EnsembleSummary,
    ExperimentConfig,
    Family,
    load_config,
    run_paths,
)
from zeroset.cli import main
from zeroset.orchestration import (
    CHUNK_TARGET,
    HILL_FLOOR_MULTIPLE,
    LOGLOG_FACTORS,
    MAX_GRID_SIZE,
    MAX_LATTICE_POINTS,
    MAX_N_PATHS,
    MAX_WORKERS,
    SCHEMA_VERSION,
    dump_paths,
    report,
    run_experiment,
)


def _raw(**over):
    raw = {
        "schema_version": 1,
        "process": {"family": "fbm", "hurst": 0.5, "horizon": 8.0, "grid_size": 1024},
        "n_paths": 24,
        "master_seed": 7,
    }
    raw.update(over)
    return raw


def _config(**over):
    return ExperimentConfig.from_dict(_raw(**over))


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = _config()
    assert cfg.family is Family.FBM
    assert cfg.threshold == 1.0
    assert cfg.workers == 1
    assert cfg.c_epsilon == 0.5
    assert cfg.epsilon_exponent_is_hurst is True
    # default horizon ladder: T_max / 2^j for j = 8..0
    assert cfg.t_grid[-1] == 8.0
    assert len(cfg.t_grid) == 9
    assert cfg.t_grid[0] == pytest.approx(8.0 / 256)
    assert cfg.tests == ("self_similarity", "increment_stationarity", "bi_scale")
    assert cfg.heavy_subdivisions == (1024, 4096)


def test_config_resolved_quantities():
    cfg = _config()
    assert cfg.delta == pytest.approx(8.0 / 1024)
    assert cfg.epsilon == pytest.approx(0.5 * (8.0 / 1024) ** 0.5)
    assert cfg.mark_floor == pytest.approx(2.0 * cfg.delta)
    assert cfg.ratio_r_resolved == pytest.approx(10.0 * cfg.mark_floor)
    assert cfg.m0_resolved == pytest.approx(32.0 * cfg.mark_floor)
    assert cfg.beta == pytest.approx(2.0)
    np.testing.assert_allclose(
        cfg.loglog_thresholds, [f * cfg.mark_floor for f in LOGLOG_FACTORS]
    )


def test_config_absolute_epsilon():
    cfg = _config(epsilon={"c": 0.05, "exponent_is_hurst": False})
    assert cfg.epsilon == 0.05


def test_config_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_raw(bogus=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _raw(process={"family": "fbm", "hurst": 0.5, "horizon": 8.0,
                          "grid_size": 64, "extra": 2})
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_raw(epsilon={"c": 0.5, "nope": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_raw(analysis={"what": 3}))


def test_config_schema_version_enforced():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_raw(schema_version=99))
    bad = _raw()
    del bad["schema_version"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


def test_config_family_and_process_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _raw(process={"family": "levy", "hurst": 0.5, "horizon": 8.0, "grid_size": 64})
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _raw(process={"family": "fbm", "horizon": 8.0, "grid_size": 64})
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _raw(process={"family": "bm", "hurst": 0.7, "horizon": 8.0, "grid_size": 64})
        )


def test_config_value_validation():
    with pytest.raises(ConfigError):
        _config(n_paths=0)
    with pytest.raises(ConfigError):
        _config(t_grid=[4.0, 2.0])
    with pytest.raises(ConfigError):
        _config(t_grid=[4.0, 16.0])  # beyond the horizon
    with pytest.raises(ConfigError):
        _config(threshold=0.0)
    with pytest.raises(ConfigError):
        _config(fit_range=[2.0])
    with pytest.raises(ConfigError):
        _config(fit_range=[4.0, 2.0])
    with pytest.raises(ConfigError):
        _config(tests=["self_similarity", "teleportation"])
    with pytest.raises(ConfigError):
        _config(workers=0)
    with pytest.raises(ConfigError):
        _config(analysis={"hill_k": 1})
    with pytest.raises(ConfigError):
        _config(analysis={"test_r": 1.0})
    with pytest.raises(ConfigError):
        _config(analysis={"heavy_subdivisions": [1024]})
    # malformed values are rejected, never truncated or coerced
    with pytest.raises(ConfigError):
        _config(n_paths=1.5)
    with pytest.raises(ConfigError):
        _config(workers=2.7)
    with pytest.raises(ConfigError):
        _config(master_seed=True)
    with pytest.raises(ConfigError):
        _config(threshold=float("inf"))
    with pytest.raises(ConfigError):
        _config(epsilon={"c": float("nan")})
    with pytest.raises(ConfigError):
        _config(tests="bi_scale")
    with pytest.raises(ConfigError):
        _config(n_paths="24")
    with pytest.raises(ConfigError):
        _config(epsilon={"exponent_is_hurst": "false"})
    with pytest.raises(ConfigError):
        _config(out_dir=5)
    with pytest.raises(ConfigError):
        _config(out_dir=["a"])
    assert _config(n_paths=24.0).n_paths == 24


def test_config_bounds_grid_size():
    assert _config(process={"family": "fbm", "hurst": 0.5, "horizon": 8.0,
                            "grid_size": MAX_GRID_SIZE}).grid_size == MAX_GRID_SIZE
    for bad in (MAX_GRID_SIZE + 1, 10**400):
        with pytest.raises(ConfigError, match="grid_size must be at most"):
            _config(process={"family": "fbm", "hurst": 0.5, "horizon": 8.0, "grid_size": bad})


def test_config_bounds_the_micro_lattice():
    def rosenblatt(grid_size, micro_factor):
        return _config(process={"family": "rosenblatt", "hurst": 0.75, "horizon": 8.0,
                                "grid_size": grid_size, "micro_factor": micro_factor})

    assert rosenblatt(2**20, 64).micro_factor == 64
    assert rosenblatt(1, MAX_LATTICE_POINTS).micro_factor == MAX_LATTICE_POINTS
    for grid_size, micro_factor in ((2**20, 65), (2, MAX_LATTICE_POINTS), (1, 10**400)):
        with pytest.raises(ConfigError, match="grid_size \\* micro_factor"):
            rosenblatt(grid_size, micro_factor)
    # every family: micro_factor is a field of every config
    with pytest.raises(ConfigError, match="grid_size \\* micro_factor"):
        _config(process={"family": "bm", "hurst": 0.5, "horizon": 8.0,
                         "grid_size": 1024, "micro_factor": 10**400})


def test_config_bounds_n_paths():
    assert _config(n_paths=MAX_N_PATHS).n_paths == MAX_N_PATHS
    for bad in (MAX_N_PATHS + 1, 10**30):
        with pytest.raises(ConfigError, match="n_paths must lie in"):
            _config(n_paths=bad)


def test_config_bounds_workers():
    assert _config(workers=MAX_WORKERS).workers == MAX_WORKERS
    for bad in (MAX_WORKERS + 1, 1_000_000):
        with pytest.raises(ConfigError, match="workers must lie in"):
            _config(workers=bad)
    # an override is bounded alike, before any process starts
    with pytest.raises(ConfigError, match="workers must lie in"):
        run_paths(_config(n_paths=4), workers=1_000_000)


class _InlinePool:
    """A ProcessPoolExecutor stand-in that records its size and runs each
    chunk in the calling process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("n_paths, workers, pool_size", [
    (1, 2, None),      # one chunk runs in the calling process
    (4, 64, 4),        # 4 chunks of one path: 4 processes, not 64
    (600, 2, 2),       # 3 chunks of at most 256 paths for 2 processes
])
def test_pool_is_capped_at_the_chunk_count(monkeypatch, n_paths, workers, pool_size):
    import zeroset.orchestration as orch

    monkeypatch.setattr(_InlinePool, "sizes", [])
    # the driver imports the pool class when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    cfg = _config(n_paths=n_paths, workers=workers,
                  process={"family": "bm", "hurst": 0.5, "horizon": 8.0, "grid_size": 64})
    summary = run_paths(cfg)
    assert summary.n_ok == n_paths
    assert _InlinePool.sizes == ([] if pool_size is None else [pool_size])
    serial = run_paths(cfg, workers=1)
    np.testing.assert_array_equal(summary.persist, serial.persist)


def test_config_round_trip_and_hash():
    cfg = _config(t_grid=[1.0, 2.0, 4.0], analysis={"x_window": 2.0})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    other = _config(t_grid=[1.0, 2.0, 4.0], analysis={"x_window": 2.5})
    assert other.config_hash() != cfg.config_hash()


# every key set to a value other than its default
_EVERY_KEY = {
    "schema_version": 1,
    "process": {"family": "rosenblatt", "hurst": 0.75, "horizon": 16.0,
                "grid_size": 512, "micro_factor": 8},
    "n_paths": 40,
    "master_seed": 12345,
    "epsilon": {"c": 0.25, "exponent_is_hurst": False},
    "t_grid": [1.0, 2.0, 4.0, 8.0],
    "threshold": 0.5,
    "fit_range": [1.0, 8.0],
    "analysis": {"mark_floor_factor": 3.0, "hill_k": 20, "ratio_r": 0.5, "x_window": 2.0,
                 "m0": 0.75, "test_r": 0.25, "test_x0": 0.25, "test_h": 0.75,
                 "heavy_subdivisions": [256, 512]},
    "tests": ["bi_scale", "self_similarity"],
    "workers": 2,
    "out_dir": "runs/x",
}

_DEFAULTS_DICT = {
    "schema_version": 1,
    "process": {"family": "fbm", "hurst": 0.5, "horizon": 8.0, "grid_size": 1024,
                "micro_factor": 16},
    "n_paths": 24,
    "master_seed": 7,
    "epsilon": {"c": 0.5, "exponent_is_hurst": True},
    "t_grid": [0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
    "threshold": 1.0,
    "fit_range": None,
    "analysis": {"mark_floor_factor": 2.0, "hill_k": None, "ratio_r": None, "x_window": 1.0,
                 "m0": None, "test_r": 0.5, "test_x0": 0.5, "test_h": 0.5,
                 "heavy_subdivisions": [1024, 4096]},
    "tests": ["self_similarity", "increment_stationarity", "bi_scale"],
    "workers": 1,
    "out_dir": None,
}


@pytest.mark.parametrize("raw, to_dict, digest", [
    (_raw(), _DEFAULTS_DICT,
     "8697af653ae9e47bfee8a31218eb1af0abf809ce7528b0941abf91719d087bc9"),
    (_EVERY_KEY, _EVERY_KEY,
     "c1b621517f6dc80a49c06f3dba04de71687f69f650a346bcdd533b283528d62a"),
], ids=["defaults", "every-key"])
def test_config_dict_and_hash_are_pinned(raw, to_dict, digest):
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.to_dict() == to_dict
    # the key order too: the manifest writes this dict as it comes
    assert json.dumps(cfg.to_dict()) == json.dumps(to_dict)
    assert cfg.config_hash() == digest


def _leaves(raw: dict, section: tuple = ()):
    """(JSON path, value) of each key of a raw config, sections flattened."""
    for key, value in raw.items():
        if isinstance(value, dict):
            yield from _leaves(value, (*section, key))
        else:
            yield (*section, key), value


# a second value of each key, each valid alongside the rest of _EVERY_KEY
_OTHER_VALUE = {**dict(_leaves(_DEFAULTS_DICT)), ("process", "hurst"): 0.875}


@pytest.mark.parametrize("path", [p for p, _ in _leaves(_EVERY_KEY) if p != ("schema_version",)],
                         ids=".".join)
def test_config_hash_identifies_the_experiment_not_the_run(path):
    """The worker count and the output directory move no output, so they
    leave the hash alone; every other key changes it."""
    raw = json.loads(json.dumps(_EVERY_KEY))
    (raw[path[0]] if len(path) == 2 else raw)[path[-1]] = _OTHER_VALUE[path]
    base, changed = ExperimentConfig.from_dict(_EVERY_KEY), ExperimentConfig.from_dict(raw)
    assert changed.to_dict() != base.to_dict()
    same = changed.config_hash() == base.config_hash()
    assert same == (path in (("workers",), ("out_dir",)))


_BM_600 = {"n_paths": 600,
           "process": {"family": "bm", "hurst": 0.5, "horizon": 8.0, "grid_size": 64}}


@pytest.mark.parametrize("override, normalised", [
    (lambda cfg: cfg.replace(n_paths=1.5), None),
    (lambda cfg: cfg.replace(t_grid=[1.0, 2.0]), (1.0, 2.0)),
    (lambda cfg: run_paths(cfg, workers=1.5), None),
    (lambda cfg: run_paths(cfg, workers=True), None),
], ids=["replace-n_paths-fraction", "replace-t_grid-list", "run_paths-workers-fraction",
        "run_paths-workers-bool"])
def test_overrides_are_converted_as_json_is(override, normalised):
    cfg = _config(**_BM_600)
    if normalised is None:
        with pytest.raises(ConfigError):
            override(cfg)
        return
    changed = override(cfg)
    assert type(changed.t_grid) is tuple and changed.t_grid == normalised
    assert hash(changed) == hash(ExperimentConfig.from_dict(changed.to_dict()))


def test_load_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_raw()))
    assert load_config(str(good)) == _config()


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------


def test_run_paths_deterministic_across_worker_counts():
    cfg = _config()
    one = run_paths(cfg, workers=1)
    two = run_paths(cfg, workers=2)
    np.testing.assert_array_equal(one.seeds, two.seeds)
    np.testing.assert_array_equal(one.caps, two.caps)
    np.testing.assert_array_equal(one.persist, two.persist)
    np.testing.assert_array_equal(one.max_persist, two.max_persist)
    np.testing.assert_array_equal(one.marks_pool, two.marks_pool)
    np.testing.assert_array_equal(one.loglog_counts, two.loglog_counts)
    np.testing.assert_array_equal(one.dump_locs, two.dump_locs)
    np.testing.assert_array_equal(one.dump_sizes, two.dump_sizes)


def test_marks_pool_holds_what_the_hill_fit_reads():
    # each path pools its marks above the Hill floor and one copy of the
    # largest of the others; with an explicit hill_k every interior mark is
    # pooled
    cfg = _config(n_paths=40)
    summary = run_paths(cfg, workers=1)
    tau = HILL_FLOOR_MULTIPLE * cfg.mark_floor
    pool = summary.marks_pool
    above = int(np.count_nonzero(pool > tau))
    assert above < len(pool) <= above + summary.n_ok
    assert len(pool) < summary.n_marks_pooled == summary.n_marks[summary.ok].sum()
    full = run_paths(cfg.replace(hill_k=50), workers=1)
    np.testing.assert_array_equal(full.n_marks, summary.n_marks)
    assert len(full.marks_pool) == full.n_marks[full.ok].sum()
    np.testing.assert_array_equal(full.marks_pool[full.marks_pool > tau], pool[pool > tau])


def test_process_pool_is_imported_only_when_a_pool_starts():
    raw = _raw(n_paths=2, process={"family": "bm", "hurst": 0.5, "horizon": 8.0,
                                   "grid_size": 64})
    src = os.path.dirname(os.path.dirname(os.path.abspath(zeroset.__file__)))
    code = (
        "import json, sys\n"
        "from zeroset import ExperimentConfig, run_paths\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        f"cfg = ExperimentConfig.from_dict(json.loads({json.dumps(raw)!r}))\n"
        "run_paths(cfg, workers=1)\n"
        "assert not [m for m in pool if m in sys.modules]\n"
        "run_paths(cfg, workers=2)\n"
        "assert all(m in sys.modules for m in pool)\n"
    )
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True)


def test_run_paths_all_paths_ok():
    summary = run_paths(_config(n_paths=40), workers=1)
    assert summary.n_ok == 40
    assert len(summary.failures) == 0


def test_run_paths_isolates_and_limits_failures(monkeypatch):
    import zeroset.orchestration as orch

    real = orch.sample

    def flaky(spec, seed):
        if seed % 5 == 0:  # roughly a fifth of the seeds
            raise RuntimeError("synthetic failure")
        return real(spec, seed)

    monkeypatch.setattr(orch, "sample", flaky)
    with pytest.raises(RuntimeError, match="paths failed"):
        run_paths(_config(n_paths=40), workers=1)

    def fail_one(spec, seed):
        if seed == orch.derive_path_seed(7, 3):
            raise RuntimeError("synthetic failure")
        return real(spec, seed)

    monkeypatch.setattr(orch, "sample", fail_one)
    cfg = _config(n_paths=200)
    summary = run_paths(cfg, workers=1)
    assert len(summary.failures) == 1
    assert summary.failures[0][0] == 3
    assert not summary.ok[3]
    assert summary.n_ok == 199


def test_run_paths_abort_skips_chunks_not_started(monkeypatch, tmp_path):
    import zeroset.orchestration as orch

    real = orch.sample
    calls = tmp_path / "calls"

    def half_fail(spec, seed):
        with open(calls, "a") as fh:
            fh.write(".")
        if seed % 2:
            raise RuntimeError("synthetic failure")
        return real(spec, seed)

    # the pool forks its workers, so they call the patched sampler too
    monkeypatch.setattr(orch, "sample", half_fail)
    cfg = _config(
        n_paths=32 * orch.CHUNK_TARGET,
        process={"family": "bm", "hurst": 0.5, "horizon": 8.0, "grid_size": 4096},
    )
    with pytest.raises(RuntimeError, match="paths failed"):
        run_paths(cfg, workers=2)
    assert calls.stat().st_size < cfg.n_paths / 2


def test_run_paths_columns_match_the_library(monkeypatch):
    """Each run_paths column against the public per-path functions.

    Some columns (seeds, drifts, n_jumps, atoms, supports) never reach a
    stage file, so the stage checksums cannot catch a mis-wired one.  Path
    5 fails and must keep the fill values.
    """
    _assert_columns_match_the_library(monkeypatch, process=None, n_paths=8)


_BM = {"family": "bm", "hurst": 0.5, "horizon": 8.0, "grid_size": 1024}
_ROSENBLATT = {"family": "rosenblatt", "hurst": 0.75, "horizon": 8.0, "grid_size": 1024}


@pytest.mark.parametrize("process, n_paths", [
    (_BM, 8),
    (_ROSENBLATT, 8),
    # two chunks at one worker
    (_BM, CHUNK_TARGET + 8),
], ids=["bm", "rosenblatt", "bm-two-chunks"])
def test_run_paths_columns_match_the_library_per_family(monkeypatch, process, n_paths):
    """As above for BM and Rosenblatt paths, and across two chunks: the
    driver computes the jump-function columns once per block of paths, the
    reference once per path."""
    _assert_columns_match_the_library(monkeypatch, process, n_paths)


def _assert_columns_match_the_library(monkeypatch, process, n_paths):
    import zeroset.orchestration as orch
    from zeroset import (
        atom_diagnostic,
        count_heavy_subintervals,
        derive_path_seed,
        estimate_local_time,
        invert_profile,
        jumps_to_empp,
        max_persistence_indicator,
        persistence_indicator,
        rescale_empp,
        support_diagnostic,
    )
    from zeroset.localtime import grid_index
    from zeroset.pointprocess import window_exceedance_counts

    real = orch.sample
    failed = 5

    def fail_one(spec, seed):
        if seed == derive_path_seed(7, failed):
            raise RuntimeError("synthetic failure")
        return real(spec, seed)

    monkeypatch.setattr(orch, "sample", fail_one)
    cfg = _config(n_paths=n_paths, **({} if process is None else {"process": process}))
    summary = run_paths(cfg, workers=1)

    nan = float("nan")
    n_t, n_thr = len(cfg.t_grid), len(cfg.loglog_thresholds)
    assert cfg.hill_k is None
    tau = HILL_FLOOR_MULTIPLE * cfg.mark_floor
    rows, persist = [], []
    pooled = {"marks_pool": [], "dump_index": [], "dump_locs": [], "dump_sizes": []}
    for i in range(cfg.n_paths):
        if i == failed:
            persist.append([False] * n_t)
            rows.append(dict(
                ok=False, seeds=0, caps=nan, drifts=nan, n_jumps=0,
                masses=[nan] * n_t, max_persist=[False] * n_t,
                mass_at_r=nan, atoms=nan, supports=nan, L_incr=nan, L_ref=nan,
                covers_window=False, ratio_counts=[0, 0],
                loglog_counts=[0] * n_thr, biscale_raw=0, biscale_scaled=0,
                biscale_scaled_alt=0, heavy_valid=False, heavy_counts=[-1, -1],
                n_marks=0,
            ))
            continue
        seed = derive_path_seed(cfg.master_seed, i)
        path = real(cfg.spec(), seed)
        profile = estimate_local_time(path, cfg.epsilon)
        L = invert_profile(profile)
        cap = L.total_mass_cap
        x0, h, xw = cfg.test_x0, cfg.test_h, cfg.x_window
        r, m0, r_t = cfg.ratio_r_resolved, cfg.m0_resolved, cfg.test_r
        row = dict(
            ok=True, seeds=seed, caps=profile.total_mass, drifts=L.drift,
            n_jumps=L.n_jumps,
            masses=profile.mass_at(grid_index(cfg.t_grid, cfg.delta, cfg.grid_size)),
            max_persist=[max_persistence_indicator(path, T) for T in cfg.t_grid],
            mass_at_r=profile.cumulative[round(r_t * cfg.grid_size)],
            atoms=atom_diagnostic(profile), supports=support_diagnostic(profile),
            covers_window=cap >= xw, heavy_valid=cap >= 1.0,
        )
        persist.append([persistence_indicator(profile, T, cfg.threshold) for T in cfg.t_grid])
        if cap >= x0 + 2.0 * h:
            row["L_incr"] = L.evaluate(x0 + h) - L.evaluate(x0)
            row["L_ref"] = L.evaluate(x0 + 2.0 * h) - L.evaluate(x0 + h)
        else:
            row["L_incr"] = row["L_ref"] = nan
        if row["covers_window"]:
            points = jumps_to_empp(L, (0.0, xw))
            row.update(
                ratio_counts=window_exceedance_counts(L, xw, [r, 4.0 * r]),
                loglog_counts=window_exceedance_counts(L, xw, cfg.loglog_thresholds),
                biscale_raw=points.count(xw, m0),
                biscale_scaled=rescale_empp(points, r_t, cfg.beta).count(xw, m0),
                biscale_scaled_alt=rescale_empp(points, r_t, cfg.beta / 2).count(xw, m0),
            )
        else:
            row.update(ratio_counts=[0, 0], loglog_counts=[0] * n_thr,
                       biscale_raw=0, biscale_scaled=0, biscale_scaled_alt=0)
        row["heavy_counts"] = (
            [count_heavy_subintervals(L, n, r) for n in cfg.heavy_subdivisions]
            if row["heavy_valid"] else [-1, -1]
        )
        rows.append(row)
        interior = L.locations > 0.0
        dumped = interior & (L.sizes >= m0 / 2.0)
        # the marks above the Hill floor, and the first copy of the largest
        # of the others
        marks = L.sizes[interior]
        keep, rest = marks > tau, np.flatnonzero(marks <= tau)
        keep[rest[np.argmax(marks[rest])] if len(rest) else []] = True
        row["n_marks"] = len(marks)
        pooled["marks_pool"].append(marks[keep])
        pooled["dump_index"].append(np.full(np.count_nonzero(dumped), i))
        pooled["dump_locs"].append(L.locations[dumped])
        pooled["dump_sizes"].append(L.sizes[dumped])

    expected = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    expected.update((name, np.concatenate(parts)) for name, parts in pooled.items())
    columns = {f.name for f in fields(EnsembleSummary)} - {"config", "failures"}
    assert set(expected) == columns
    for name in sorted(columns):
        actual = getattr(summary, name)
        assert actual.shape == expected[name].shape, name
        np.testing.assert_array_equal(actual, expected[name], err_msg=name)
    # the survival event, formed from the masses
    np.testing.assert_array_equal(summary.persist, np.array(persist))
    assert summary.seeds.dtype == np.uint64
    assert summary.persist.dtype == bool
    assert summary.heavy_counts.dtype == np.int64
    # the paths reach both sides of each validity cut
    for name, valid in (("stationarity", ~np.isnan(summary.L_incr)),
                        ("covers_window", summary.covers_window),
                        ("heavy_valid", summary.heavy_valid)):
        assert 0 < np.count_nonzero(valid) < summary.n_ok, name


def test_the_record_does_not_depend_on_the_threshold():
    """A path's record holds its masses, and ``persist`` applies the
    threshold to them: two thresholds give the same record bit for bit."""
    cfg = _config(n_paths=16)
    one, quarter = run_paths(cfg, workers=1), run_paths(cfg.replace(threshold=0.25), workers=1)
    for f in fields(EnsembleSummary):
        if f.name not in ("config", "failures"):
            a, b = getattr(one, f.name), getattr(quarter, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
    for summary in (one, quarter):
        np.testing.assert_array_equal(summary.persist, summary.masses <= summary.config.threshold)
    assert (one.persist != quarter.persist).any()
    # the event holds at a mass equal to the threshold
    largest = one.config.replace(threshold=float(one.masses.max()))
    assert replace(one, config=largest).persist.all()


# ---------------------------------------------------------------------------
# stage outputs
# ---------------------------------------------------------------------------


def test_run_experiment_outputs(tmp_path):
    cfg = _config(n_paths=40)
    manifest = run_experiment(cfg, out_dir=str(tmp_path / "run"))
    for name in ("curve.csv", "fit.json", "maxcurve.csv", "maxfit.json",
                 "tailfit.json", "empp.csv", "invariance.json"):
        assert name in manifest.outputs, name
        assert (tmp_path / "run" / name).exists()

    payload = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["counters"]["n_ok"] == 40
    assert payload["resolved"]["epsilon"] == pytest.approx(cfg.epsilon)
    # the stage payloads live in their files only
    assert "stage_info" not in payload
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(
        [*manifest.outputs, "manifest.json"]
    )

    with open(tmp_path / "run" / "curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cfg.t_grid)
    assert set(rows[0]) == {"T", "survival", "count", "n_paths", "se",
                            "wilson_lo", "wilson_hi"}
    survs = [float(r["survival"]) for r in rows]
    assert survs == sorted(survs, reverse=True)

    with open(tmp_path / "run" / "empp.csv", newline="") as fh:
        empp_rows = list(csv.DictReader(fh))
    assert set(empp_rows[0]) == {"path_id", "x", "m"}
    fit = json.loads((tmp_path / "run" / "fit.json").read_text())
    assert ("kappa_hat" in fit) or ("error" in fit)
    inv = json.loads((tmp_path / "run" / "invariance.json").read_text())
    assert {e["name"] for e in inv["battery"]} | set(inv["errors"]) >= {
        "profile-self-similarity"
    }


def test_hill_part_of_the_excursions_stage_holds_one_pool_sized_array(tmp_path):
    # the fit sorts one copy of the pool; a stage that first extended the
    # pool (say, by the largest mark below the floor) would hold two
    import zeroset.orchestration as orch

    cfg = _config(n_paths=8)
    summary = run_paths(cfg, workers=1)
    tau = HILL_FLOOR_MULTIPLE * cfg.mark_floor
    rng = np.random.default_rng(13)
    n_above = 400_000
    pool = np.concatenate([tau * (1.0 + rng.pareto(0.7, n_above)), np.full(summary.n_ok, tau)])
    n_marks = np.where(summary.ok, 2 * n_above // summary.n_ok, 0)
    summary = replace(summary, marks_pool=pool, n_marks=n_marks)
    tracemalloc.start()
    try:
        orch._stage_excursions(summary, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hill = json.loads((tmp_path / "tailfit.json").read_text())["hill"]
    assert hill["k_used"] == n_above and hill["n_marks_pooled"] == 2 * n_above
    assert peak < 1.1 * pool.nbytes


# SHA-256 of the stage files that hold exact event counts and grid gap
# lengths, so that no BLAS or libm rounding enters them; a change to any
# per-path kernel that moves one output bit shows here
PINNED_CHECKSUMS = {
    "curve.csv": "52ac7093a12924d4a3de92e64ba5616da99193d247d6a8c568f6c35ee667d953",
    "maxcurve.csv": "a0b0f2dddec8fd8988c4ef74617d715fb0916417398bdcfc910bb25a6aeaa98a",
    "empp.csv": "61bfeed984847e7cfb6be1f015b20e70a8422065e7f9fa7569b828fdc8c70630",
    "tailfit.json": "4bb1e7024e02c98f103d439672448452fc6934d71a0555d156c57c85d4d68a3f",
    "invariance.json": "d12e07b7542bdfe5ef5fc0b0ae196ef2f9459fe173f5c9797d2660b9832907e6",
}


def test_run_experiment_checksums_reproduce(tmp_path):
    cfg = _config(n_paths=30)
    m1 = run_experiment(cfg, out_dir=str(tmp_path / "a"), workers=1)
    m2 = run_experiment(cfg, out_dir=str(tmp_path / "b"), workers=2)
    assert m1.outputs == m2.outputs
    assert m1.config_hash == m2.config_hash
    for manifest in (m1, m2):
        assert {name: manifest.outputs[name] for name in PINNED_CHECKSUMS} == PINNED_CHECKSUMS


def test_every_traced_layer_name_is_bound_and_called(monkeypatch):
    """The benchmark's tracer wraps these names in the orchestration
    namespace, and ``MarkedPointSet.count`` on its class; a name that is
    missing or that ``run_paths`` no longer calls would break or blank a
    traced layer.  The tracer counts paths by the sampler's calls and jumps
    by the inversion's, so the per-path layers run once per path."""
    import zeroset.orchestration as orch
    from zeroset.pointprocess import MarkedPointSet

    source = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", source)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.LAYER_OF
    calls = dict.fromkeys([*layertrace.LAYER_OF, "count"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in layertrace.LAYER_OF:
        assert callable(getattr(orch, name, None)), name
        monkeypatch.setattr(orch, name, counted(name, getattr(orch, name)))
    monkeypatch.setattr(MarkedPointSet, "count", counted("count", MarkedPointSet.count))
    summary = run_paths(_config(n_paths=8), workers=1)
    assert summary.n_ok == 8
    assert all(calls.values()), calls
    for name in ("sample", "estimate_local_time", "invert_profile"):
        assert calls[name] == 8, name


@pytest.mark.parametrize("block_jumps", [1, 40])
def test_blocks_of_any_size_give_the_same_columns(monkeypatch, block_jumps):
    """A chunk computes the jump-function columns whenever its paths reach
    BLOCK_JUMPS jumps; the size of those blocks moves no bit."""
    import zeroset.orchestration as orch

    cfg = _config(n_paths=40, process=_BM)
    whole = run_paths(cfg, workers=1)
    assert np.sum(whole.n_jumps) < orch.BLOCK_JUMPS
    monkeypatch.setattr(orch, "BLOCK_JUMPS", block_jumps)
    sizes = []
    real_block = orch._compute_block

    def block(config, indices, Ls):
        sizes.append(sum(L.n_jumps for L in Ls))
        return real_block(config, indices, Ls)

    monkeypatch.setattr(orch, "_compute_block", block)
    split = run_paths(cfg, workers=1)
    # every block but the last stops at the first path that reaches the bound
    assert len(sizes) > 1 and all(n >= block_jumps for n in sizes[:-1])
    for f in fields(EnsembleSummary):
        if f.name not in ("config", "failures"):
            np.testing.assert_array_equal(
                getattr(split, f.name), getattr(whole, f.name), err_msg=f.name)


def test_a_failed_block_call_fails_only_its_path(monkeypatch):
    """A block-level count that raises is run again path by path: only the
    offending path fails, and every column equals that of a run in which
    the same path failed in the sampler."""
    import zeroset.orchestration as orch

    # two failures are allowed from 200 paths on
    cfg = _config(n_paths=200)
    bad = int(np.flatnonzero(run_paths(cfg, workers=1).heavy_valid)[0])
    last = cfg.n_paths - 1
    assert bad < last
    real_sample, real_invert, real_count = (
        orch.sample, orch.invert_profile, orch.count_heavy_subintervals)
    inverted = []

    def sample_fails_at(*indices):
        seeds = {orch.derive_path_seed(cfg.master_seed, i) for i in indices}

        def sample(spec, seed):
            if seed in seeds:
                raise RuntimeError("synthetic failure")
            return real_sample(spec, seed)
        return sample

    def invert(profile):
        inverted.append(real_invert(profile))
        return inverted[-1]

    def count(L, n, r):
        if any(f is inverted[bad] for f in L):
            raise RuntimeError("synthetic block failure")
        return real_count(L, n, r)

    monkeypatch.setattr(orch, "sample", sample_fails_at(bad, last))
    reference = run_paths(cfg, workers=1)
    monkeypatch.setattr(orch, "sample", sample_fails_at(last))
    monkeypatch.setattr(orch, "invert_profile", invert)
    monkeypatch.setattr(orch, "count_heavy_subintervals", count)
    summary = run_paths(cfg, workers=1)

    # failures stay in index order, although the block failure came last
    assert summary.failures == [
        (bad, "RuntimeError: synthetic block failure"),
        (last, "RuntimeError: synthetic failure"),
    ]
    assert summary.n_ok == cfg.n_paths - 2 and not summary.ok[bad]
    for f in fields(EnsembleSummary):
        if f.name not in ("config", "failures"):
            np.testing.assert_array_equal(
                getattr(summary, f.name), getattr(reference, f.name), err_msg=f.name)


def test_crashed_run_leaves_no_stale_manifest(monkeypatch, tmp_path):
    import zeroset.orchestration as orch

    run = tmp_path / "run"
    cfg = _config(n_paths=8)
    run_experiment(cfg, out_dir=str(run))
    assert (run / "manifest.json").exists()

    def crash_after_one_file(summary, out_dir):
        orch._write_json(os.path.join(out_dir, "tailfit.json"), {"partial": True})
        raise RuntimeError("synthetic stage crash")

    monkeypatch.setitem(orch._STAGES, "excursions", crash_after_one_file)
    with pytest.raises(RuntimeError, match="synthetic stage crash"):
        run_experiment(cfg, out_dir=str(run))
    assert not (run / "manifest.json").exists()


def test_crashed_stage_write_leaves_no_partial_or_stale_file(monkeypatch, tmp_path):
    import zeroset.orchestration as orch

    run, clean = tmp_path / "run", tmp_path / "clean"
    run_experiment(_config(n_paths=8), out_dir=str(run))
    cfg = _config(n_paths=8, master_seed=8)
    fresh = run_experiment(cfg, out_dir=str(clean)).outputs

    def rows_then_crash():
        yield from ([i, 0.5, 1.0] for i in range(3))
        raise RuntimeError("synthetic write crash")

    def crash_mid_write(summary, out_dir):
        orch._write_json(os.path.join(out_dir, "tailfit.json"), {"partial": True})
        orch._write_csv(os.path.join(out_dir, "empp.csv"), ("a", "b", "c"), rows_then_crash())

    monkeypatch.setitem(orch._STAGES, "excursions", crash_mid_write)
    with pytest.raises(RuntimeError, match="synthetic write crash"):
        run_experiment(cfg, out_dir=str(run))
    # the persist files are this run's, whole; the crashed stage left only
    # the file it finished; the earlier run's later-stage files are gone
    assert sorted(os.listdir(run)) == [
        "curve.csv", "fit.json", "maxcurve.csv", "maxfit.json", "tailfit.json"]
    for name in ("curve.csv", "fit.json", "maxcurve.csv", "maxfit.json"):
        assert orch._sha256(str(run / name)) == fresh[name]
    assert json.loads((run / "tailfit.json").read_text()) == {"partial": True}


def test_write_keeps_the_old_file_when_it_crashes(tmp_path):
    import zeroset.orchestration as orch

    path = tmp_path / "curve.csv"
    orch._write_csv(str(path), ("x",), [[1.0]])
    before = path.read_bytes()

    def rows_then_crash():
        yield [2.0]
        raise RuntimeError("synthetic write crash")

    with pytest.raises(RuntimeError):
        orch._write_csv(str(path), ("x",), rows_then_crash())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["curve.csv"]


def test_write_json_maps_nan_to_null(tmp_path):
    import zeroset.orchestration as orch

    path = tmp_path / "fit.json"
    nan = float("nan")
    orch._write_json(str(path), {"a": nan, "b": [1.5, np.float64(nan), {"c": nan}],
                                 "d": (nan, 2), "e": "nan"})

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    assert json.loads(path.read_text(), parse_constant=reject) == {
        "a": None, "b": [1.5, None, {"c": None}], "d": [None, 2], "e": "nan"}
    with pytest.raises(ValueError):
        orch._write_json(str(tmp_path / "inf.json"), {"a": float("inf")})
    assert os.listdir(tmp_path) == ["fit.json"]


def test_run_experiment_rejects_unknown_stage(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_config(), stages=("persist", "teleport"),
                       out_dir=str(tmp_path))


def test_each_stage_writes_exactly_its_declared_files(tmp_path):
    import zeroset.orchestration as orch

    assert set(orch._STAGE_FILES) == set(orch._STAGES)
    cfg = _config(n_paths=8)
    for stage, files in orch._STAGE_FILES.items():
        manifest = run_experiment(cfg, stages=(stage,), out_dir=str(tmp_path / stage))
        assert sorted(manifest.outputs) == sorted(files)
        assert sorted(os.listdir(tmp_path / stage)) == sorted((*files, "manifest.json"))


def test_run_experiment_needs_out_dir():
    with pytest.raises(ConfigError):
        run_experiment(_config())


def test_dump_paths(tmp_path):
    cfg = _config(n_paths=3, process={"family": "bm", "hurst": 0.5,
                                      "horizon": 1.0, "grid_size": 16})
    manifest = dump_paths(cfg, out_dir=str(tmp_path / "sim"))
    assert "paths.csv" in manifest.outputs
    with open(tmp_path / "sim" / "paths.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_id", "t", "x"]
    assert len(rows) == 1 + 3 * 17
    assert float(rows[1][2]) == 0.0  # every path starts at zero
    again = dump_paths(cfg, out_dir=str(tmp_path / "sim2"))
    assert again.outputs == manifest.outputs


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _fake_run_dir(tmp_path, name, kappa, hurst=0.5):
    run = tmp_path / name
    run.mkdir()
    cfg = _raw()
    cfg["process"]["hurst"] = hurst
    (run / "manifest.json").write_text(json.dumps({
        "schema_version": 1,
        "config": cfg,
        "config_hash": "f" * 64,
        "counters": {"n_failed": 0, "zero_mass_paths": 0},
    }))
    (run / "fit.json").write_text(json.dumps({
        "kappa_hat": kappa, "c_hat": 0.8, "stderr_kappa": 0.01,
        "fit_range": [1.0, 4.0], "r_squared": 0.99, "n_points": 5,
        "target_kappa": 1.0 - hurst, "abs_error": abs(kappa - (1.0 - hurst)),
    }))
    return run


def test_report_pass_and_fail(tmp_path):
    good = _fake_run_dir(tmp_path, "good", kappa=0.52)
    bad = _fake_run_dir(tmp_path, "bad", kappa=0.9)
    out = tmp_path / "rep"

    path, ok = report([str(good)], str(out))
    assert ok is True
    text = (tmp_path / "rep" / "summary.md").read_text()
    assert "PASS" in text and "Gaps" in text  # tail/curve artifacts missing

    path, ok = report([str(good), str(bad)], str(out), check=True)
    assert ok is False
    assert "FAIL" in (tmp_path / "rep" / "summary.md").read_text()


def test_report_tolerates_missing_manifest(tmp_path):
    out = tmp_path / "rep"
    path, ok = report([str(tmp_path / "ghost")], str(out))
    assert ok is True  # nothing checkable, gaps only
    assert "no manifest.json" in (out / "summary.md").read_text()


def test_one_path_per_half_records_invariance_errors(tmp_path):
    cfg = _config(n_paths=2, master_seed=2)
    # premise: both paths enter every test, so each test is refused for
    # having one value per sample, not for missing mass
    summary = run_paths(cfg)
    assert summary.ok.all() and not np.isnan(summary.L_incr).any()
    assert summary.covers_window.all()
    run_experiment(cfg, out_dir=str(tmp_path / "run"))
    inv = json.loads((tmp_path / "run" / "invariance.json").read_text())
    assert inv["battery"] == []
    assert sorted(inv["errors"]) == ["bi_scale", "increment_stationarity", "self_similarity"]
    assert all("one value per sample" in msg for msg in inv["errors"].values())


def test_report_lists_a_null_p_value_as_a_gap(tmp_path):
    run = _fake_run_dir(tmp_path, "run", kappa=0.52)
    entry = {"name": "profile-self-similarity", "statistic": 1.0, "p_value": None,
             "n1": 1, "n2": 1, "reject_at_01": False, "reject_bonferroni": False}
    (run / "invariance.json").write_text(json.dumps(
        {"level": 0.01, "n_tests": 1, "battery": [entry], "errors": {}}))
    path, ok = report([str(run)], str(tmp_path / "rep"), check=True)
    assert ok is True  # the kappa row passes; the test counts as neither
    text = (tmp_path / "rep" / "summary.md").read_text()
    assert "invariance test profile-self-similarity has no p-value" in text
    assert "1 of 1 checks passed" in text


def test_report_on_a_real_run(tmp_path):
    cfg = _config(n_paths=40)
    run_experiment(cfg, out_dir=str(tmp_path / "run"))
    path, ok = report([str(tmp_path / "run")], str(tmp_path / "rep"))
    text = (tmp_path / "rep" / "summary.md").read_text()
    assert "survival at T=" in text
    assert (tmp_path / "rep" / "loglog.csv").exists()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_persist_and_report(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_raw(n_paths=30)))
    run_dir = tmp_path / "run"
    assert main(["persist", "--config", str(cfg_file), "--out", str(run_dir)]) == 0
    assert (run_dir / "curve.csv").exists()
    out = capsys.readouterr().out
    assert "manifest.json" in out and "sha256:" in out

    assert main(["report", str(run_dir), "--out", str(tmp_path / "rep")]) == 0


def test_cli_seed_and_workers_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_raw(n_paths=8)))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["persist", "--config", str(cfg_file), "--out", str(a),
                 "--seed", "123"]) == 0
    assert main(["persist", "--config", str(cfg_file), "--out", str(b),
                 "--seed", "124"]) == 0
    ca = (a / "curve.csv").read_text()
    cb = (b / "curve.csv").read_text()
    assert ca != cb  # different master seeds shift the ensemble


def test_cli_simulate(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_raw(
        n_paths=2,
        process={"family": "bm", "hurst": 0.5, "horizon": 1.0, "grid_size": 8},
    )))
    assert main(["simulate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "paths.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_raw(bogus=True)))
    assert main(["persist", "--config", str(cfg_file),
                 "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_run_aborted_exit_code(monkeypatch, tmp_path, capsys):
    import zeroset.orchestration as orch

    real = orch.sample
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_raw()))

    def fail_all(spec, seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(orch, "sample", fail_all)
    assert main(["persist", "--config", str(cfg_file),
                 "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert "run aborted:" in err and "paths failed" in err

    def die_on_path_0(spec, seed):
        if seed == orch.derive_path_seed(7, 0):
            os._exit(3)
        return real(spec, seed)

    # the pool forks its workers, so they call the patched sampler too
    monkeypatch.setattr(orch, "sample", die_on_path_0)
    assert main(["persist", "--config", str(cfg_file),
                 "--out", str(tmp_path / "b"), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert "run aborted: a worker process died; paths [0, 12)" in err
    assert not (tmp_path / "b" / "manifest.json").exists()


def test_cli_report_check_exit_code(tmp_path):
    bad = _fake_run_dir(tmp_path, "bad", kappa=0.9)
    assert main(["report", str(bad), "--out", str(tmp_path / "rep"),
                 "--check"]) == 3
    assert main(["report", str(bad), "--out", str(tmp_path / "rep")]) == 0
