"""Tests of the benchmark itself.

Each check must reject a deliberately perturbed output, the bm-g12-w2
workload must give byte-identical outputs at 1 and 2 workers, and the
tracer must attribute self time correctly and leave results unchanged.
Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DELTA = 64.0 / 2**12
N = 4096
T_GRID = [64.0 / 2**j for j in range(8, -1, -1)]


def law_curve(shift_se: float = 0.0) -> list[dict]:
    """A maxcurve.csv whose survival sits shift_se standard errors off the law."""
    rows = []
    for T in T_GRID:
        law = checks.bgk_max_survival(T, DELTA)
        se = math.sqrt(law * (1.0 - law) / N)
        count = round(min(1.0, max(0.0, law + shift_se * se)) * N)
        rows.append({"T": T, "survival": count / N, "count": count, "n_paths": N})
    return rows


def test_curve_on_the_law_passes():
    rows = law_curve()
    assert checks.check_curve_shape(rows, "maxcurve.csv") == []
    assert checks.check_bgk(rows, DELTA) == []


@pytest.mark.parametrize("shift", [checks.Z + 2.0, -(checks.Z + 2.0)])
def test_bgk_rejects_a_shifted_curve(shift):
    assert checks.check_bgk(law_curve(shift), DELTA)


def test_shape_rejects_an_increasing_curve():
    rows = law_curve()
    rows[3], rows[4] = rows[4], rows[3]
    rows[3]["T"], rows[4]["T"] = rows[4]["T"], rows[3]["T"]
    assert any("increases" in m for m in checks.check_curve_shape(rows, "c"))


def test_shape_rejects_values_outside_the_unit_interval_and_bad_counts():
    rows = law_curve()
    rows[0] = dict(rows[0], survival=1.25, count=round(1.25 * N))
    assert any("outside" in m for m in checks.check_curve_shape(rows, "c"))
    rows = law_curve()
    rows[2] = dict(rows[2], count=rows[2]["count"] + 1)
    assert any("count" in m for m in checks.check_curve_shape(rows, "c"))


def fit_payload(kappa: float, se: float = 0.05) -> dict:
    return {"kappa_hat": kappa, "stderr_kappa": se}


def test_kappa_check():
    allowance = 0.05
    assert checks.check_kappa(fit_payload(0.7), 0.3, allowance) == []
    off = checks.Z * 0.05 + allowance + 0.01
    assert checks.check_kappa(fit_payload(0.7 + off), 0.3, allowance)
    assert checks.check_kappa(fit_payload(0.7 - off), 0.3, allowance)


# the largest stderr_kappa a fbm-h03-g16 run can have: one round, no
# pooling (16 rounds gave 0.056-0.069)
FBM_ROUND_STDERR = 0.075
# the fewest points above 4r in one round (16 rounds of each workload gave
# at least 751 and 139)
ROUND_POINTS_HIGH = {"fbm-h03-g16": 700, "rosenblatt-h075-g14": 100}


def test_kappa_check_rejects_h_for_fbm_at_one_round():
    """kappa = H instead of 1 - H fails at the stderr of a single fBM round."""
    workload = WORKLOADS["fbm-h03-g16"]
    hurst = workload.config["process"]["hurst"]
    allowance = workload.kappa_allowance
    assert checks.check_kappa(fit_payload(1.0 - hurst, FBM_ROUND_STDERR), hurst, allowance) == []
    assert checks.check_kappa(fit_payload(hurst, FBM_ROUND_STDERR), hurst, allowance)


def test_pooled_fit_is_the_precision_weighted_mean():
    pooled = checks.pool_fits([fit_payload(0.6, 0.1), fit_payload(0.9, 0.2)])
    assert pooled["kappa_hat"] == pytest.approx((0.6 / 0.01 + 0.9 / 0.04) / (1 / 0.01 + 1 / 0.04))
    assert pooled["stderr_kappa"] == pytest.approx((1 / 0.01 + 1 / 0.04) ** -0.5)


def test_pooled_ratio_and_curve_sum_the_counts():
    pooled = checks.pool_ratios([{"ratio": 2.5, "n_points_high": 100},
                                 {"ratio": 3.0, "n_points_high": 300}])
    assert pooled == {"ratio": (250 + 900) / 400, "n_points_high": 400}
    rows = checks.pool_curves([law_curve(), law_curve(checks.Z + 2.0)])
    assert [r["n_paths"] for r in rows] == [2 * N] * len(T_GRID)
    assert checks.check_curve_shape(rows, "pooled") == []


def test_ratio_check():
    expected = 4.0**0.7
    assert checks.check_ratio({"ratio": expected, "n_points_high": 2000}, 0.3, 0.1) == []
    assert checks.check_ratio({"ratio": 1.5 * expected, "n_points_high": 2000}, 0.3, 0.1)
    assert checks.check_ratio({"ratio": expected / 1.5, "n_points_high": 2000}, 0.3, 0.1)


@pytest.mark.parametrize("name", ["fbm-h03-g16", "rosenblatt-h075-g14"])
def test_ratio_check_rejects_4_to_the_h_at_one_round(name):
    """4^H instead of 4^(1 - H) fails at the point count of a single round."""
    workload = WORKLOADS[name]
    hurst = workload.config["process"]["hurst"]
    high = ROUND_POINTS_HIGH[name]
    allowance = workload.ratio_rel_allowance
    assert checks.check_ratio({"ratio": 4.0 ** (1.0 - hurst), "n_points_high": high},
                              hurst, allowance) == []
    assert checks.check_ratio({"ratio": 4.0**hurst, "n_points_high": high}, hurst, allowance)


def test_strict_json_rejects_nan_and_infinity(tmp_path):
    (tmp_path / "good.json").write_text(json.dumps({"a": 1.5, "b": None}))
    assert checks.check_strict_json(str(tmp_path)) == []
    for i, bad in enumerate(("NaN", "Infinity", "-Infinity")):
        (tmp_path / f"bad{i}.json").write_text('{"a": %s}' % bad)
    assert len(checks.check_strict_json(str(tmp_path))) == 3


def write_empp(path, rows):
    path.write_text("path_id,x,m\n" + "".join(f"{p},{x!r},{m!r}\n" for p, x, m in rows))


def test_empp_check(tmp_path):
    f = tmp_path / "empp.csv"
    write_empp(f, [(0, 0.1, 1.0), (0, 0.2, 2.0), (3, 0.05, 1.0), (3, 0.5, 1.0)])
    assert checks.check_empp(str(f)) == []
    write_empp(f, [(0, 0.1, 1.0), (0, 0.1, 2.0)])
    assert checks.check_empp(str(f))
    write_empp(f, [(0, 0.3, 1.0), (0, 0.2, 2.0)])
    assert checks.check_empp(str(f))
    write_empp(f, [(0, 0.1, 0.0)])
    assert checks.check_empp(str(f))


def battery(p_values, flags=None) -> dict:
    cut = 0.01 / len(p_values)
    flags = flags or [p < cut for p in p_values]
    return {
        "level": 0.01,
        "n_tests": len(p_values),
        "battery": [{"name": f"t{i}", "p_value": p, "reject_bonferroni": f}
                    for i, (p, f) in enumerate(zip(p_values, flags))],
        "errors": {},
    }


def test_invariance_check():
    assert checks.check_invariance(battery([0.5, 0.2, 0.9])) == []
    assert checks.check_invariance(battery([0.5, 1e-9, 0.9])) == []
    assert checks.check_invariance(battery([0.5, 0.2, 0.9], [False, True, False]))
    assert checks.check_invariance(battery([0.5, 1e-9, 0.9], [False, False, False]))
    assert checks.check_invariance(battery([0.5, 1.5, 0.9]))
    assert checks.check_invariance(dict(battery([0.5, 0.2, 0.9]), n_tests=4))


def test_bm_workload_is_identical_at_1_and_2_workers_and_passes_its_checks(tmp_path):
    from zeroset import ExperimentConfig, run_experiment

    workload = WORKLOADS["bm-g12-w2"]
    config = ExperimentConfig.from_dict(workload.raw_config(seed=1, round_index=0))
    one = run_experiment(config, out_dir=str(tmp_path / "w1"), workers=1)
    two = run_experiment(config, out_dir=str(tmp_path / "w2"), workers=2)
    assert one.outputs == two.outputs
    attempted, errors, failures = checks.check_round(str(tmp_path / "w2"))
    assert attempted == 9
    assert errors == [] and failures == []
    assert checks.check_statistics([str(tmp_path / "w2")], workload) == []


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_tracer_self_time_excludes_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layertrace, "time", clock)
    tracer = layertrace.Tracer()

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 1.0

    tracer.wrap("outer", outer)()
    assert tracer.self_times() == {"outer": 2.0, "inner": 2.0}


def test_tracing_leaves_results_and_program_unchanged():
    import numpy as np

    from zeroset import ExperimentConfig, orchestration, run_paths

    config = ExperimentConfig.from_dict(
        dict(WORKLOADS["bm-g12-w2"].raw_config(seed=1, round_index=0), n_paths=8)
    )
    before = {name: getattr(orchestration, name) for name in layertrace.LAYER_OF}
    plain = run_paths(config, workers=1)
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        traced = run_paths(config, workers=1)
    assert {name: getattr(orchestration, name) for name in layertrace.LAYER_OF} == before
    assert np.array_equal(plain.persist, traced.persist)
    assert np.array_equal(plain.dump_locs, traced.dump_locs)
    assert tracer.path == 7 and len(tracer.jumps) == 8
    assert tracer.fft_bytes == 8 * 2 * 16 * 2**13
