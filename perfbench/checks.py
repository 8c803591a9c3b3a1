"""Correctness checks on the output directories of a run's rounds.

Every expected value is computed here, in plain Python, apart from the
program: the Brownian running-maximum law with the discrete-monitoring
correction, the literal persistence exponent 1 - H and the count ratio
4^(1 - H).

``check_round`` makes the exact checks on one round.  ``check_statistics``
makes the statistical checks once per run, on the rounds pooled: the
running-maximum counts are summed, the exponent is the precision-weighted
mean of the rounds' fits and the count ratio is taken over the summed
counts.  A statistical check accepts a deviation of Z standard errors plus
a discretisation allowance per workload, which is the bias measured at the
workload's own settings (see the README).  A run makes at most 9
statistical comparisons (the 9 horizons of the BM running-maximum curve;
2 for the other workloads).  At Z = 4.5 one comparison fails by chance
with probability 6.8e-6, so a sound run fails one of them with
probability below 6.1e-5.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os

Z = 4.5
# Broadie-Glasserman-Kou continuity correction for a maximum monitored on a
# grid of step delta: the discrete maximum of BM stays below b about as
# often as the continuous one stays below b + BGK_BETA * sqrt(delta).
BGK_BETA = 0.5826
# O(delta) remainder of that correction at delta = 1/64: 65536 paths of
# bm-g12-w2 matched it to within 0.0018 (one standard error) at every T,
# so the remainder is below about two standard errors of that measurement
BGK_ALLOWANCE = 0.004
# Points cluster within paths, so the counts above r and 4r scatter more
# than binomial counts: over 16 rounds the ratio scattered 1.26x its
# binomial standard error for fBM and 0.77x for Rosenblatt.  The check
# widens the binomial standard error by this factor, which leaves room for
# the +-18% sampling error of a scatter measured on 16 rounds.
RATIO_SE_INFLATION = 1.5


def load_strict_json(path: str):
    """Parse a JSON file, rejecting NaN and +-Infinity."""

    def reject(constant):
        raise ValueError(f"non-finite number {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def read_curve(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {k: (int(v) if k in ("count", "n_paths") else float(v)) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


def check_strict_json(run_dir: str) -> list[str]:
    failures = []
    for path in sorted(glob.glob(os.path.join(run_dir, "*.json"))):
        try:
            load_strict_json(path)
        except ValueError as exc:
            failures.append(f"{os.path.basename(path)} is not strict JSON: {exc}")
    return failures


def check_curve_shape(rows: list[dict], name: str) -> list[str]:
    """Survival values lie in [0, 1], match their counts and never increase."""
    failures = []
    for row in rows:
        s = row["survival"]
        if not 0.0 <= s <= 1.0:
            failures.append(f"{name}: survival {s} at T={row['T']} outside [0, 1]")
        elif row["count"] != round(s * row["n_paths"]):
            failures.append(f"{name}: survival {s} at T={row['T']} disagrees with its count")
    for prev, row in zip(rows, rows[1:]):
        if not row["T"] > prev["T"]:
            failures.append(f"{name}: T grid not increasing at T={row['T']}")
        if row["survival"] > prev["survival"]:
            failures.append(f"{name}: survival increases from T={prev['T']} to T={row['T']}")
    return failures


def bgk_max_survival(T: float, delta: float, level: float = 1.0) -> float:
    """P(max of BM over the grid k*delta <= T stays <= level), BGK-corrected."""
    return math.erf((level + BGK_BETA * math.sqrt(delta)) / math.sqrt(2.0 * T))


def check_bgk(rows: list[dict], delta: float) -> list[str]:
    """Running-maximum survival against the reflection principle with BGK."""
    failures = []
    for row in rows:
        law = bgk_max_survival(row["T"], delta)
        se = math.sqrt(law * (1.0 - law) / row["n_paths"])
        tol = Z * se + BGK_ALLOWANCE
        if abs(row["survival"] - law) > tol:
            failures.append(
                f"maxcurve at T={row['T']}: {row['survival']:.5f} vs law {law:.5f} "
                f"(tolerance {tol:.5f})"
            )
    return failures


def check_kappa(fit: dict, hurst: float, allowance: float) -> list[str]:
    """Persistence exponent against the literal 1 - H."""
    target = 1.0 - hurst
    tol = Z * fit["stderr_kappa"] + allowance
    if not abs(fit["kappa_hat"] - target) <= tol:
        return [f"kappa_hat {fit['kappa_hat']:.4f} vs 1-H = {target:.4f} (tolerance {tol:.4f})"]
    return []


def check_ratio(ratio: dict, hurst: float, rel_allowance: float) -> list[str]:
    """Count ratio at thresholds (r, 4r) against 4^(1 - H).

    The counts are nested (every point above 4r is above r), so the share
    p = high / low would be binomial given low if the points were
    independent.  The ratio's standard error is that of 1 / p at the
    expected share p0 = 4^-(1 - H), as in a test of that value, widened by
    RATIO_SE_INFLATION.
    """
    expected = 4.0 ** (1.0 - hurst)
    low = ratio["ratio"] * ratio["n_points_high"]
    p0 = 1.0 / expected
    se = RATIO_SE_INFLATION * math.sqrt(p0 * (1.0 - p0) / low) / p0**2
    tol = Z * se + rel_allowance * expected
    if not abs(ratio["ratio"] - expected) <= tol:
        return [f"count ratio {ratio['ratio']:.4f} vs 4^(1-H) = {expected:.4f} (tolerance {tol:.4f})"]
    return []


def pool_curves(curves: list[list[dict]]) -> list[dict]:
    """Curves of rounds on one T grid, as one curve over all their paths."""
    rows = []
    for same_t in zip(*curves):
        count = sum(row["count"] for row in same_t)
        n = sum(row["n_paths"] for row in same_t)
        rows.append({"T": same_t[0]["T"], "survival": count / n, "count": count, "n_paths": n})
    return rows


def pool_fits(fits: list[dict]) -> dict:
    """Precision-weighted mean of the rounds' exponent fits."""
    weights = [fit["stderr_kappa"] ** -2 for fit in fits]
    kappa = sum(w * fit["kappa_hat"] for w, fit in zip(weights, fits)) / sum(weights)
    return {"kappa_hat": kappa, "stderr_kappa": sum(weights) ** -0.5}


def pool_ratios(ratios: list[dict]) -> dict:
    """Count ratio over the rounds' summed counts above r and above 4r."""
    high = sum(r["n_points_high"] for r in ratios)
    low = sum(round(r["ratio"] * r["n_points_high"]) for r in ratios)
    return {"ratio": low / high, "n_points_high": high}


def check_empp(path: str) -> list[str]:
    """Point locations strictly increase within each path; marks are positive."""
    failures = []
    last: dict[int, float] = {}
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.DictReader(fh), start=2):
            pid, x, m = int(row["path_id"]), float(row["x"]), float(row["m"])
            if pid in last and not x > last[pid]:
                failures.append(f"empp.csv line {line}: location {x} of path {pid} not increasing")
            if not m > 0.0:
                failures.append(f"empp.csv line {line}: mark {m} not positive")
            last[pid] = x
            if len(failures) >= 5:
                break
    return failures


def check_invariance(payload: dict) -> list[str]:
    """p-values are probabilities and each Bonferroni flag follows from its p-value.

    Whether a test rejects is not checked.  The battery's null holds only
    in the limit of fine grids; at the workloads' grids it rejects far
    more often than its nominal level (see the README), so a verdict on it would
    depend on the seed rather than on the program.
    """
    failures = []
    battery = payload["battery"]
    if len(battery) != payload["n_tests"]:
        failures.append(f"invariance: n_tests {payload['n_tests']} but {len(battery)} results")
    cut = payload["level"] / payload["n_tests"] if battery else 0.0
    for entry in battery:
        p = entry["p_value"]
        if not 0.0 <= p <= 1.0:
            failures.append(f"invariance {entry['name']}: p-value {p} outside [0, 1]")
        elif entry["reject_bonferroni"] != (p < cut):
            failures.append(f"invariance {entry['name']}: Bonferroni flag disagrees with p={p}")
    return failures


def check_round(run_dir: str) -> tuple[int, list[str], list[str]]:
    """The exact checks of one round.

    Returns (analyses attempted, analyses that returned an error payload,
    check failures).
    """
    failures = check_strict_json(run_dir)
    if failures:
        return 0, [], failures

    def load(name):
        return load_strict_json(os.path.join(run_dir, name))

    fit, maxfit, tail, inv = load("fit.json"), load("maxfit.json"), load("tailfit.json"), load("invariance.json")
    payloads = {
        "fit": fit, "maxfit": maxfit, "hill": tail["hill"], "loglog": tail["loglog"],
        "ratio": tail["ratio"], "heavy_counts": tail["heavy_counts"],
    }
    errors = [f"{name}: {p['error']}" for name, p in payloads.items() if "error" in p]
    errors += [f"invariance {name}: {msg}" for name, msg in inv["errors"].items()]
    attempted = len(payloads) + len(inv["battery"]) + len(inv["errors"])

    failures += check_curve_shape(read_curve(os.path.join(run_dir, "curve.csv")), "curve.csv")
    failures += check_curve_shape(read_curve(os.path.join(run_dir, "maxcurve.csv")), "maxcurve.csv")
    failures += check_empp(os.path.join(run_dir, "empp.csv"))
    failures += check_invariance(inv)
    return attempted, errors, failures


def check_statistics(run_dirs: list[str], workload) -> list[str]:
    """The statistical checks of a run, on its rounds pooled.

    Call it only on rounds that passed ``check_round`` without an error
    payload.
    """

    def load(run_dir, name):
        return load_strict_json(os.path.join(run_dir, name))

    process = load(run_dirs[0], "manifest.json")["config"]["process"]
    hurst = process["hurst"]
    failures = []
    if workload.bgk_check:
        maxcurve = pool_curves([read_curve(os.path.join(d, "maxcurve.csv")) for d in run_dirs])
        failures += check_bgk(maxcurve, process["horizon"] / process["grid_size"])
    if workload.kappa_allowance is not None:
        fit = pool_fits([load(d, "fit.json") for d in run_dirs])
        failures += check_kappa(fit, hurst, workload.kappa_allowance)
    if workload.ratio_rel_allowance is not None:
        ratio = pool_ratios([load(d, "tailfit.json")["ratio"] for d in run_dirs])
        failures += check_ratio(ratio, hurst, workload.ratio_rel_allowance)
    return failures
