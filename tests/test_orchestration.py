import csv
import json
import os

import numpy as np
import pytest

from zeroset import ConfigError, ExperimentConfig, Family, load_config, run_paths
from zeroset.cli import main
from zeroset.orchestration import (
    LOGLOG_FACTORS,
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


def test_config_round_trip_and_hash():
    cfg = _config(t_grid=[1.0, 2.0, 4.0], analysis={"x_window": 2.0})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    other = _config(t_grid=[1.0, 2.0, 4.0], analysis={"x_window": 2.5})
    assert other.config_hash() != cfg.config_hash()


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

    Some columns (seeds, caps, drifts, n_jumps, zero_mass, atoms,
    supports) never reach a stage file, so the stage checksums cannot catch
    a mis-wired one.  Path 5 fails and must keep the fill values.
    """
    from dataclasses import fields

    import zeroset.orchestration as orch
    from zeroset import (
        EnsembleSummary,
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
    from zeroset.pointprocess import window_exceedance_counts

    real = orch.sample
    failed = 5

    def fail_one(spec, seed):
        if seed == derive_path_seed(7, failed):
            raise RuntimeError("synthetic failure")
        return real(spec, seed)

    monkeypatch.setattr(orch, "sample", fail_one)
    cfg = _config(n_paths=8)
    summary = run_paths(cfg, workers=1)

    nan = float("nan")
    n_t, n_thr = len(cfg.t_grid), len(cfg.loglog_thresholds)
    rows = []
    pooled = {"marks_pool": [], "dump_index": [], "dump_locs": [], "dump_sizes": []}
    for i in range(cfg.n_paths):
        if i == failed:
            rows.append(dict(
                ok=False, seeds=0, caps=nan, drifts=nan, n_jumps=0, zero_mass=False,
                persist=[False] * n_t, max_persist=[False] * n_t, terminal_mass=nan,
                mass_at_r=nan, atoms=nan, supports=nan, L_incr=nan, L_ref=nan,
                stat_valid=False, covers_window=False, ratio_counts=[0, 0],
                loglog_counts=[0] * n_thr, biscale_raw=0, biscale_scaled=0,
                biscale_scaled_alt=0, heavy_valid=False, heavy_counts=[-1, -1],
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
            n_jumps=L.n_jumps, zero_mass=cap == 0.0,
            persist=[persistence_indicator(profile, T, cfg.threshold) for T in cfg.t_grid],
            max_persist=[max_persistence_indicator(path, T) for T in cfg.t_grid],
            terminal_mass=profile.total_mass,
            mass_at_r=profile.cumulative[round(r_t * cfg.grid_size)],
            atoms=atom_diagnostic(profile), supports=support_diagnostic(profile),
            stat_valid=cap >= x0 + 2.0 * h, covers_window=cap >= xw,
            heavy_valid=cap >= 1.0,
        )
        if row["stat_valid"]:
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
        pooled["marks_pool"].append(L.sizes[interior])
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
    assert summary.seeds.dtype == np.uint64
    assert summary.persist.dtype == bool
    assert summary.heavy_counts.dtype == np.int64
    # the paths reach both sides of each validity cut
    for name in ("stat_valid", "covers_window", "heavy_valid"):
        assert 0 < np.count_nonzero(getattr(summary, name)) < summary.n_ok, name


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


def test_run_experiment_checksums_reproduce(tmp_path):
    cfg = _config(n_paths=30)
    m1 = run_experiment(cfg, out_dir=str(tmp_path / "a"), workers=1)
    m2 = run_experiment(cfg, out_dir=str(tmp_path / "b"), workers=2)
    assert m1.outputs == m2.outputs
    assert m1.config_hash == m2.config_hash


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


def test_run_experiment_rejects_unknown_stage(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_config(), stages=("persist", "teleport"),
                       out_dir=str(tmp_path))


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
