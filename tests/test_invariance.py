import numpy as np
import pytest

from zeroset import (
    JumpFunction,
    LocalTimeProfile,
    MarkedPointSet,
    TestReport,
    bonferroni,
    ks_two_sample,
    bi_scale_test,
    stationarity_test,
    self_similarity_test,
)
from zeroset.errors import InsufficientMassError
from zeroset.invariance import (
    bi_scale_test_from_counts,
    self_similarity_masses,
    self_similarity_test_from_values,
    stationarity_increments,
    stationarity_test_from_values,
)


def _cp_L(rng, rate=40.0, cap=2.0):
    """Compound-Poisson jump function: stationary independent increments."""
    n = rng.poisson(rate * cap)
    locs = np.unique(rng.random(n) * cap)
    sizes = rng.exponential(0.1, len(locs))
    return JumpFunction(locations=locs, sizes=sizes, drift=0.05, total_mass_cap=cap)


def _ss_profile(rng, hurst=0.5, n=256):
    """Deterministic shape A * t^(1-H): exactly self-similar in law."""
    amp = rng.exponential(2.0)
    t = np.arange(n + 1) / n
    return LocalTimeProfile(
        path_ref=0, epsilon=0.1, delta=1.0 / n, cumulative=amp * t ** (1.0 - hurst)
    )


def _pareto_pp(rng, rate=60.0, kappa=0.5, window=1.0):
    """Poisson locations with Pareto marks: invariant under the bi-scale map."""
    n = rng.poisson(rate * window)
    locs = np.unique(rng.random(n) * window)
    marks = rng.random(len(locs)) ** (-1.0 / kappa)
    return MarkedPointSet(locations=locs, marks=marks, window=(0.0, window))


# ---------------------------------------------------------------------------
# KS wrapper
# ---------------------------------------------------------------------------


def test_ks_identical_samples():
    a = np.arange(10.0)
    rep = ks_two_sample(a, a.copy())
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0
    assert rep.reject_at_01 is False
    assert rep.n1 == rep.n2 == 10


def test_ks_disjoint_samples():
    rep = ks_two_sample(np.zeros(200), np.ones(200))
    assert rep.statistic == 1.0
    assert rep.p_value < 1e-10
    assert rep.reject_at_01 is True


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample(np.array([]), np.ones(3))


def test_ks_report_name():
    rep = ks_two_sample(np.zeros(3), np.ones(3), name="my-check")
    assert isinstance(rep, TestReport)
    assert rep.name == "my-check"


# ---------------------------------------------------------------------------
# increment stationarity
# ---------------------------------------------------------------------------


def test_stationarity_null_accepts():
    rng = np.random.default_rng(6)
    ens = [_cp_L(rng) for _ in range(600)]
    rep = stationarity_test(ens, x0=0.5, h=0.5)
    assert rep.p_value > 0.01
    assert rep.n1 == 300 and rep.n2 == 300


def test_stationarity_detects_clustering():
    # jump locations pushed toward the cap break increment stationarity
    rng = np.random.default_rng(6)

    def clustered(rng, cap=2.0):
        n = rng.poisson(30 * cap)
        locs = np.unique((rng.random(n) ** 0.4) * cap)
        sizes = rng.exponential(0.1, len(locs))
        return JumpFunction(locations=locs, sizes=sizes, drift=0.05, total_mass_cap=cap)

    ens = [clustered(rng) for _ in range(600)]
    rep = stationarity_test(ens, x0=0.5, h=0.5)
    assert rep.p_value < 1e-6
    assert rep.reject_at_01 is True


def test_stationarity_excludes_short_paths_up_to_the_cap():
    rng = np.random.default_rng(7)
    good = [_cp_L(rng) for _ in range(500)]
    short = [
        JumpFunction(locations=[0.1], sizes=[1.0], drift=0.0, total_mass_cap=0.5)
        for _ in range(50)
    ]
    rep = stationarity_test(good + short, x0=0.5, h=0.5)
    assert rep.n1 + rep.n2 == 500
    too_many_short = good + short * 3
    with pytest.raises(InsufficientMassError):
        stationarity_test(too_many_short, x0=0.5, h=0.5)


def test_stationarity_increments_hand_case():
    L = JumpFunction(locations=[0.25, 0.75, 1.25], sizes=[1.0, 2.0, 4.0],
                     drift=0.5, total_mass_cap=1.5)
    # L(0.5) = 1.25, L(1.0) = 3.5, L(1.5) = 7.75
    assert stationarity_increments(L, x0=0.5, h=0.5) == (2.25, 4.25)
    assert stationarity_increments(L, x0=0.0, h=0.75) == (3.375, 4.375)
    assert stationarity_increments(L, x0=0.5, h=0.51) is None
    with pytest.raises(ValueError):
        stationarity_increments(L, x0=-0.1, h=0.5)
    with pytest.raises(ValueError):
        stationarity_increments(L, x0=0.5, h=0.0)


def test_stationarity_validation():
    rng = np.random.default_rng(8)
    ens = [_cp_L(rng) for _ in range(10)]
    with pytest.raises(ValueError):
        stationarity_test(ens, x0=-0.1, h=0.5)
    with pytest.raises(ValueError):
        stationarity_test(ens, x0=0.5, h=0.0)


# ---------------------------------------------------------------------------
# profile self-similarity
# ---------------------------------------------------------------------------


def test_self_similarity_null_accepts():
    rng = np.random.default_rng(6)
    profs = [_ss_profile(rng) for _ in range(1600)]
    rep = self_similarity_test(profs, r=0.5, hurst=0.5)
    assert rep.p_value > 0.01


def test_self_similarity_rejects_wrong_hurst():
    rng = np.random.default_rng(6)
    profs = [_ss_profile(rng, hurst=0.5) for _ in range(1600)]
    rep = self_similarity_test(profs, r=0.5, hurst=0.8)
    assert rep.p_value < 0.01
    assert rep.reject_at_01 is True


def test_self_similarity_masses_hand_case():
    prof = LocalTimeProfile(path_ref=0, epsilon=0.5, delta=1.0,
                            cumulative=[0.0, 1.0, 1.0, 2.0, 3.0])
    assert self_similarity_masses(prof, 0.5) == (1.0, 3.0)
    assert self_similarity_masses(prof, 0.75) == (2.0, 3.0)
    for r in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            self_similarity_masses(prof, r)


def test_self_similarity_validation():
    with pytest.raises(ValueError):
        self_similarity_test([], r=0.5, hurst=0.5)
    with pytest.raises(ValueError):
        self_similarity_test_from_values(np.ones(4), np.ones(4), r=1.5, hurst=0.5)
    with pytest.raises(ValueError):
        self_similarity_test_from_values(np.ones(4), np.ones(4), r=0.5, hurst=1.0)


# ---------------------------------------------------------------------------
# bi-scale invariance
# ---------------------------------------------------------------------------


def test_bi_scale_null_accepts():
    # Poisson-Pareto with kappa = 1 - H is a fixed point of the rescaling,
    # provided every threshold it touches stays inside the power range
    rng = np.random.default_rng(6)
    pps = [_pareto_pp(rng) for _ in range(800)]
    rep = bi_scale_test(pps, r=0.5, hurst=0.5, m0=8.0)
    assert rep.p_value > 0.01


def test_bi_scale_wrong_beta_rejects():
    rng = np.random.default_rng(6)
    pps = [_pareto_pp(rng) for _ in range(800)]
    rep = bi_scale_test(pps, r=0.5, hurst=0.5, m0=8.0, beta=1.0)
    assert rep.p_value < 1e-10
    assert rep.reject_at_01 is True


def test_bi_scale_resolution_floor_guard():
    rng = np.random.default_rng(9)
    pps = [_pareto_pp(rng) for _ in range(20)]
    # m0 * r^beta = 8 * 0.25 = 2 sits below a floor of 3
    with pytest.raises(ValueError):
        bi_scale_test(pps, r=0.5, hurst=0.5, m0=8.0, resolution_floor=3.0)
    bi_scale_test(pps, r=0.5, hurst=0.5, m0=8.0, resolution_floor=1.0)


def test_bi_scale_validation():
    rng = np.random.default_rng(9)
    pps = [_pareto_pp(rng) for _ in range(20)]
    with pytest.raises(ValueError):
        bi_scale_test(pps, r=1.5, hurst=0.5, m0=8.0)
    with pytest.raises(ValueError):
        bi_scale_test(pps, r=0.5, hurst=1.0, m0=8.0)
    with pytest.raises(ValueError):
        bi_scale_test(pps, r=0.5, hurst=0.5, m0=0.0)


# ---------------------------------------------------------------------------
# array layer and bonferroni
# ---------------------------------------------------------------------------


def test_array_layer_matches_object_layer():
    rng = np.random.default_rng(21)
    ens = [_cp_L(rng) for _ in range(400)]
    via_objects = stationarity_test(ens, x0=0.5, h=0.5)
    incr = np.array([L.evaluate(1.0) - L.evaluate(0.5) for L in ens])
    ref = np.array([L.evaluate(1.5) - L.evaluate(1.0) for L in ens])
    via_arrays = stationarity_test_from_values(incr, ref, np.ones(400, dtype=bool))
    assert via_objects.statistic == via_arrays.statistic
    assert via_objects.p_value == via_arrays.p_value


def test_bi_scale_count_layer_level():
    # identical Poisson laws on both sides stay quiet
    rng = np.random.default_rng(30)
    raw = rng.poisson(8.0, 1000).astype(float)
    scaled = rng.poisson(8.0, 1000).astype(float)
    rep = bi_scale_test_from_counts(raw, scaled, np.ones(1000, dtype=bool))
    assert rep.p_value > 0.01
    rep = bi_scale_test_from_counts(raw, rng.poisson(16.0, 1000).astype(float),
                                    np.ones(1000, dtype=bool))
    assert rep.reject_at_01 is True


def test_bonferroni_flags():
    def rep(p):
        return TestReport(name="x", statistic=0.1, p_value=p, n1=10, n2=10,
                          reject_at_01=p < 0.01)

    flags = bonferroni([rep(0.004), rep(0.5), rep(0.2)])
    assert flags == [False, False, False]  # 0.004 > 0.01 / 3
    flags = bonferroni([rep(0.003), rep(0.5), rep(0.2)])
    assert flags == [True, False, False]
    assert bonferroni([rep(0.005)]) == [True]
    with pytest.raises(ValueError):
        bonferroni([rep(0.5)], level=0.0)


def test_null_rejection_rate_is_calibrated():
    """Exact-null KS at level 0.01 over 60 seeded replicates; more than 3
    rejections would flag a broken p-value computation."""
    rejections = 0
    for rep_seed in range(60):
        rng = np.random.default_rng(1000 + rep_seed)
        a = rng.exponential(1.0, 400)
        b = rng.exponential(1.0, 400)
        if ks_two_sample(a, b).reject_at_01:
            rejections += 1
    assert rejections <= 3
