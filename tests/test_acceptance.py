"""Full-scale acceptance suite.

Every test here rebuilds its ensemble from scratch at the advertised size,
checks one numbered guarantee at its stated tolerance, and registers a
one-line verdict that is echoed in the terminal summary.  The whole file
takes roughly a quarter of an hour on a single core; the module test files
cover the same code paths at small scale in seconds.

Expected values are frozen independently of the library: the Brownian
survival oracle erf(1 / sqrt(2 T)) is written out as literals, and every
target exponent is the literal 1 - H.
"""

import math
import os

import numpy as np
import pytest

from zeroset import (
    ExperimentConfig,
    Family,
    JumpFunction,
    LocalTimeProfile,
    MarkedPointSet,
    ProcessSpec,
    count_heavy_subintervals,
    empp_to_jumps,
    estimate_local_time,
    fit_exponent,
    hill_tail_index,
    invert_profile,
    jumps_to_empp,
    rescale_empp,
    run_experiment,
    run_paths,
    sample,
    survival_from_events,
)
from zeroset.invariance import (
    bi_scale_test,
    bi_scale_test_from_counts,
    bonferroni,
    self_similarity_test,
    self_similarity_test_from_values,
    stationarity_test,
    stationarity_test_from_values,
)
from zeroset.pointprocess import intensity_ratio_from_counts

# exact Brownian survival P(local time up to T stays <= 1) = erf(1/sqrt(2T))
BM_SURVIVAL_ORACLE = {
    1.0: 0.6826894921370859,
    4.0: 0.3829249225480261,
    16.0: 0.19741265136584743,
    64.0: 0.09947644966022577,
}

KAPPA_TOL_GAUSSIAN = 0.05
KAPPA_TOL_ROSENBLATT = 0.08
HILL_TOL = 0.07
HILL_FLOOR_MULTIPLE = 3.0
RATIO_REL_TOL = 0.10
HEAVY_REL_TOL = 0.05
BATTERY_LEVEL = 0.01
CALIBRATION_MAX_REJECTS = 2

WORKERS = min(8, os.cpu_count() or 1)


def _sqrt2_ladder(t_max: float, n_halvings: int = 12) -> list[float]:
    """Geometric time grid with ratio sqrt(2), ending exactly at t_max."""
    return sorted(t_max / 2 ** (j / 2) for j in range(n_halvings + 1))


def _run(raw: dict):
    return run_paths(ExperimentConfig.from_dict(raw), workers=WORKERS)


def _survival_curve(summary):
    cfg = summary.config
    return survival_from_events(summary.persist[summary.ok], cfg.t_grid, cfg.threshold)


def _kappa_error(summary, hurst: float):
    cfg = summary.config
    fit = fit_exponent(_survival_curve(summary), *(cfg.fit_range or ()))
    return fit, abs(fit.kappa_hat - (1.0 - hurst))


# ---------------------------------------------------------------------------
# ensembles (session scoped; each is built once and shared across criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def bm_ensemble():
    """Criterion 1 ensemble, reused as the H = 0.5 invariance battery."""
    return _run({
        "schema_version": 1,
        "process": {"family": "bm", "hurst": 0.5, "horizon": 64.0,
                    "grid_size": 2**16},
        "t_grid": [1.0, 4.0, 16.0, 64.0],
        "n_paths": 10_000,
        "master_seed": 101,
        "analysis": {"m0": 0.25, "test_x0": 0.5, "test_h": 0.25},
    })


@pytest.fixture(scope="session")
def fbm_ensembles():
    """Exponent-recovery ensembles, one per Hurst index, grid 2^16.

    The horizon per H pushes the fit window [T_max/64, T_max/4] far enough
    right that the preasymptotic curvature of the survival curve stays
    below the tolerance, while keeping enough surviving paths in the window
    for the binomial error to stay small: H = 0.3 decays fast (window
    counts vanish at long horizons), H >= 0.5 decays slowly (curvature
    dominates at short horizons).
    """
    specs = {
        0.3: {"horizon": 1024.0, "master_seed": 303},
        0.5: {"horizon": 4096.0, "master_seed": 505},
        0.7: {"horizon": 4096.0, "master_seed": 707},
    }
    out = {}
    for hurst, extra in specs.items():
        out[hurst] = _run({
            "schema_version": 1,
            "process": {"family": "fbm", "hurst": hurst,
                        "horizon": extra["horizon"], "grid_size": 2**16},
            "t_grid": _sqrt2_ladder(extra["horizon"]),
            "n_paths": 20_000,
            "master_seed": extra["master_seed"],
        })
    return out


@pytest.fixture(scope="session")
def fbm_battery_ensemble():
    """H = 0.7 invariance battery.

    The stationarity windows are aligned to the local-time quantum
    q = delta^(1-H) so both adjacent increments straddle the same number
    of attainable jump levels, and the raw bi-scale threshold is lifted by
    r^(-beta) so the rescaled threshold still clears the resolution floor.
    """
    delta = 1024.0 / 2**16
    q = delta**0.3
    return _run({
        "schema_version": 1,
        "process": {"family": "fbm", "hurst": 0.7, "horizon": 1024.0,
                    "grid_size": 2**16},
        "n_paths": 4_000,
        "master_seed": 407,
        "analysis": {
            "m0": 32.0 * 2.0 * delta * 0.5 ** (-1.0 / 0.3),
            "test_x0": 2.5 * q,
            "test_h": 2.0 * q,
        },
    })


@pytest.fixture(scope="session")
def rosenblatt_ensemble():
    return _run({
        "schema_version": 1,
        "process": {"family": "rosenblatt", "hurst": 0.75, "horizon": 1024.0,
                    "grid_size": 2**14, "micro_factor": 16},
        "t_grid": _sqrt2_ladder(1024.0),
        "n_paths": 10_000,
        "master_seed": 109,
    })


@pytest.fixture(scope="session")
def verdicts(pytestconfig):
    lines: list[str] = []
    pytestconfig.acceptance_lines = lines
    return lines


def _verdict(verdicts, number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number} [{'PASS' if ok else 'FAIL'}] {detail}"
    verdicts.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_bm_survival_matches_exact_law(bm_ensemble, verdicts):
    curve = _survival_curve(bm_ensemble)
    se = curve.standard_error()
    worst = 0.0
    worst_T = None
    for i, T in enumerate(curve.T_grid):
        oracle = BM_SURVIVAL_ORACLE[float(T)]
        err = abs(curve.survival[i] - oracle)
        allowed = 0.10 * oracle + 3.0 * se[i]
        if err / allowed > worst:
            worst = err / allowed
            worst_T = float(T)
    _verdict(
        verdicts, 1, worst <= 1.0,
        f"BM survival vs erf(1/sqrt(2T)): worst err/tol {worst:.2f} "
        f"at T={worst_T:g}, n_ok={bm_ensemble.n_ok}",
    )


def test_criterion_2_fbm_exponent_recovery(fbm_ensembles, verdicts):
    parts = []
    ok = True
    for hurst, summary in sorted(fbm_ensembles.items()):
        fit, err = _kappa_error(summary, hurst)
        ok = ok and err <= KAPPA_TOL_GAUSSIAN
        parts.append(f"H={hurst:g} kappa_hat={fit.kappa_hat:.4f} err={err:.4f}")
    _verdict(verdicts, 2, ok,
             "; ".join(parts) + f" (tol {KAPPA_TOL_GAUSSIAN})")


def test_criterion_3_excursion_tail_law(fbm_ensembles, verdicts):
    parts = []
    ok = True
    for hurst, summary in sorted(fbm_ensembles.items()):
        target = 1.0 - hurst
        floor = summary.config.mark_floor
        marks = summary.marks_pool
        k = int(np.count_nonzero(marks > HILL_FLOOR_MULTIPLE * floor))
        # the pool holds the marks the fit reads; n_marks counts them all
        hill = hill_tail_index(marks, k, summary.n_marks_pooled)
        hill_err = abs(hill.exponent - target)
        low = int(summary.ratio_counts[summary.ok, 0].sum())
        high = int(summary.ratio_counts[summary.ok, 1].sum())
        ratio = intensity_ratio_from_counts(low, high)
        ratio_target = 4.0**target
        rel = abs(ratio - ratio_target) / ratio_target
        ok = ok and hill_err <= HILL_TOL and rel <= RATIO_REL_TOL
        parts.append(f"H={hurst:g} hill_err={hill_err:.4f} ratio_rel={rel:.4f}")
    _verdict(
        verdicts, 3, ok,
        "; ".join(parts) + f" (tol {HILL_TOL} / {RATIO_REL_TOL})",
    )


def _random_jump_function(rng):
    """Synthetic pure-jump function with a known heavy-jump count."""
    while True:
        k = rng.poisson(20.0) + 2
        locs = np.sort(rng.uniform(0.01, 0.99, k))
        if len(np.unique(locs)) != k or np.diff(locs).min() <= 1e-5:
            continue
        sizes = 0.01 * rng.random(k) ** (-2.0)
        r = float(np.median(sizes))
        margin = float(np.min(np.abs(sizes - r)))
        if margin <= 0.0:
            continue
        drift = 0.05
        gap = float(np.diff(locs).min())
        n = 1 << max(8, int(math.ceil(math.log2(max(2.0 / gap, 2.0 * drift / margin)))))
        L = JumpFunction(locations=locs, sizes=sizes, drift=drift,
                         total_mass_cap=1.0)
        return L, n, r, int(np.count_nonzero(sizes > r))


def test_criterion_4_counting_identity(fbm_ensembles, fbm_battery_ensemble,
                                       verdicts):
    rng = np.random.default_rng(424242)
    exact = 0
    for _ in range(100):
        L, n, r, truth = _random_jump_function(rng)
        if (count_heavy_subintervals(L, n, r) == truth
                and count_heavy_subintervals(L, 2 * n, r) == truth):
            exact += 1

    rels = []
    for summary in (fbm_ensembles[0.5], fbm_battery_ensemble):
        hv = summary.heavy_valid
        coarse = float(summary.heavy_counts[hv, 0].mean())
        fine = float(summary.heavy_counts[hv, 1].mean())
        rels.append(abs(coarse - fine) / fine)
    ok = exact == 100 and all(rel <= HEAVY_REL_TOL for rel in rels)
    _verdict(
        verdicts, 4, ok,
        f"synthetic stabilisation {exact}/100; fbm dyadic count gaps "
        f"{rels[0]:.4f} and {rels[1]:.4f} (tol {HEAVY_REL_TOL})",
    )


def _battery(summary, hurst):
    ok = summary.ok
    cfg = summary.config
    ss = self_similarity_test_from_values(
        summary.mass_at_r[ok], summary.caps[ok], cfg.test_r, hurst)
    st = stationarity_test_from_values(
        summary.L_incr[ok], summary.L_ref[ok], ~np.isnan(summary.L_incr[ok]))
    bs = bi_scale_test_from_counts(
        summary.biscale_raw[ok], summary.biscale_scaled[ok],
        summary.covers_window[ok])
    wrong_h = self_similarity_test_from_values(
        summary.mass_at_r[ok], summary.caps[ok], cfg.test_r,
        hurst + 0.2)
    wrong_beta = bi_scale_test_from_counts(
        summary.biscale_raw[ok], summary.biscale_scaled_alt[ok],
        summary.covers_window[ok])
    return (ss, st, bs), (wrong_h, wrong_beta)


def test_criterion_5_invariance_battery(bm_ensemble, fbm_battery_ensemble,
                                        verdicts):
    parts = []
    ok = True
    for hurst, summary in ((0.5, bm_ensemble), (0.7, fbm_battery_ensemble)):
        null_reports, power_reports = _battery(summary, hurst)
        rejected = bonferroni(null_reports, BATTERY_LEVEL)
        null_ok = not any(rejected)
        power_ok = all(rep.p_value < BATTERY_LEVEL for rep in power_reports)
        ok = ok and null_ok and power_ok
        min_null = min(rep.p_value for rep in null_reports)
        max_power = max(rep.p_value for rep in power_reports)
        parts.append(
            f"H={hurst:g} min null p={min_null:.3g} max power p={max_power:.3g}"
        )
    _verdict(
        verdicts, 5, ok,
        "; ".join(parts)
        + f" (no null reject at Bonferroni {BATTERY_LEVEL}, powers reject)",
    )


def test_criterion_6_rosenblatt_exponent(rosenblatt_ensemble, verdicts):
    fit, err = _kappa_error(rosenblatt_ensemble, 0.75)
    _verdict(
        verdicts, 6, err <= KAPPA_TOL_ROSENBLATT,
        f"Rosenblatt H=0.75 kappa_hat={fit.kappa_hat:.4f} err={err:.4f} "
        f"(tol {KAPPA_TOL_ROSENBLATT})",
    )


def test_criterion_7_structural_exactness(bm_ensemble, fbm_ensembles,
                                          fbm_battery_ensemble,
                                          rosenblatt_ensemble, tmp_path,
                                          verdicts):
    # jump function -> point set -> jump function is a bit-exact round trip
    spec = ProcessSpec(family=Family.FBM, hurst=0.6, horizon=8.0,
                       grid_size=4096)
    L = invert_profile(estimate_local_time(sample(spec, 4242)))
    points = jumps_to_empp(L, (0.0, L.total_mass_cap))
    back = empp_to_jumps(points)
    round_trip = (
        np.array_equal(back.locations, points.locations)
        and np.array_equal(back.sizes, points.marks)
        and np.array_equal(points.locations, L.locations)
        and np.array_equal(points.marks, L.sizes)
        and back.total_mass_cap == L.total_mass_cap
    )

    # dyadic rescalings compose exactly: S_r2 S_r1 = S_(r1 r2)
    group_law = True
    for r1, r2 in ((0.5, 0.5), (0.25, 0.5)):
        twice = rescale_empp(rescale_empp(points, r1, 2.0), r2, 2.0)
        once = rescale_empp(points, r1 * r2, 2.0)
        group_law = group_law and (
            np.array_equal(twice.locations, once.locations)
            and np.array_equal(twice.marks, once.marks)
            and twice.window == once.window
        )

    # survival is monotone non-increasing in T on every ensemble
    summaries = [bm_ensemble, fbm_battery_ensemble, rosenblatt_ensemble]
    summaries.extend(fbm_ensembles.values())
    monotone = all(
        bool(np.all(np.diff(_survival_curve(s).survival) <= 0.0))
        for s in summaries
    )

    # identical configs give identical output checksums for any worker count
    raw = {
        "schema_version": 1,
        "process": {"family": "fbm", "hurst": 0.5, "horizon": 8.0,
                    "grid_size": 1024},
        "n_paths": 32,
        "master_seed": 7,
    }
    manifests = [
        run_experiment(ExperimentConfig.from_dict(raw),
                       out_dir=str(tmp_path / f"workers{w}"), workers=w)
        for w in (1, 2)
    ]
    deterministic = manifests[0].outputs == manifests[1].outputs

    ok = round_trip and group_law and monotone and deterministic
    _verdict(
        verdicts, 7, ok,
        f"round_trip={round_trip} group_law={group_law} "
        f"monotone={monotone} worker_determinism={deterministic}",
    )


def test_criterion_8_ks_level_calibration(verdicts):
    rejects = {"self_similarity": 0, "stationarity": 0, "bi_scale": 0}
    t = np.arange(257) / 256
    for i in range(100):
        rng = np.random.default_rng(9000 + i)

        profiles = []
        for _ in range(800):
            amp = rng.exponential(2.0)
            profiles.append(LocalTimeProfile.from_cumulative(
                path_ref=0, epsilon=0.1, delta=1 / 256,
                cumulative=amp * t**0.5))
        rejects["self_similarity"] += (
            self_similarity_test(profiles, 0.5, 0.5).p_value < 0.01
        )

        jump_functions = []
        for _ in range(800):
            n = rng.poisson(80.0)
            locs = np.unique(rng.random(n) * 2.0)
            jump_functions.append(JumpFunction(
                locations=locs, sizes=rng.exponential(0.1, len(locs)),
                drift=0.05, total_mass_cap=2.0))
        rejects["stationarity"] += (
            stationarity_test(jump_functions, 0.5, 0.5).p_value < 0.01
        )

        point_sets = []
        for _ in range(600):
            n = rng.poisson(60.0)
            locs = np.unique(rng.random(n))
            point_sets.append(MarkedPointSet(
                locations=locs, marks=rng.random(len(locs)) ** -2.0,
                window=(0.0, 1.0)))
        rejects["bi_scale"] += (
            bi_scale_test(point_sets, 0.5, 0.5, m0=8.0).p_value < 0.01
        )

    ok = all(v <= CALIBRATION_MAX_REJECTS for v in rejects.values())
    _verdict(
        verdicts, 8, ok,
        "null rejections per 100: "
        + ", ".join(f"{k} {v}" for k, v in rejects.items())
        + f" (allowed {CALIBRATION_MAX_REJECTS})",
    )
