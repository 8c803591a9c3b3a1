import math
import tracemalloc

import numpy as np
import pytest

from zeroset import (
    Family,
    FitMethod,
    JumpFunction,
    MarkedPointSet,
    ProcessSpec,
    count_heavy_subintervals,
    empp_to_jumps,
    estimate_local_time,
    hill_tail_index,
    intensity_ratio_test,
    invert_profile,
    jumps_to_empp,
    loglog_count_fit,
    rescale_empp,
    sample,
)
from zeroset.errors import InsufficientDataError
from zeroset.pointprocess import (
    intensity_ratio_from_counts,
    window_exceedance_counts,
)


def _hand_L(drift=0.0, cap=4.0):
    return JumpFunction(
        locations=[0.25, 0.6], sizes=[3.0, 0.5], drift=drift, total_mass_cap=cap
    )


def _pareto_marks(rng, size, alpha):
    # P(m > x) = x^-alpha for x >= 1
    return rng.random(size) ** (-1.0 / alpha)


def _poisson_pareto_L(rng, rate=60.0, alpha=0.5, cap=1.0):
    n_pts = rng.poisson(rate)
    locs = np.unique(rng.random(n_pts) * cap)
    sizes = _pareto_marks(rng, len(locs), alpha)
    return JumpFunction(locations=locs, sizes=sizes, drift=0.0, total_mass_cap=cap)


# ---------------------------------------------------------------------------
# representation round trip
# ---------------------------------------------------------------------------


def test_round_trip_is_bit_exact_on_a_simulated_path():
    spec = ProcessSpec(family=Family.FBM, hurst=0.6, horizon=8.0, grid_size=4096)
    L = invert_profile(estimate_local_time(sample(spec, 21)))
    assert L.n_jumps > 0
    points = jumps_to_empp(L, (0.0, L.total_mass_cap))
    back = empp_to_jumps(points)
    np.testing.assert_array_equal(back.locations, L.locations)
    np.testing.assert_array_equal(back.sizes, L.sizes)
    assert back.drift == 0.0
    assert back.total_mass_cap == L.total_mass_cap


def test_window_restricts_points():
    L = _hand_L()
    points = jumps_to_empp(L, (0.3, 4.0))
    np.testing.assert_allclose(points.locations, [0.6])
    np.testing.assert_allclose(points.marks, [0.5])
    assert points.n_points == 1
    assert points.window == (0.3, 4.0)
    # both ends are inclusive
    assert jumps_to_empp(L, (0.25, 0.6)).locations.tolist() == [0.25, 0.6]


def test_window_validation():
    L = _hand_L(cap=4.0)
    with pytest.raises(ValueError):
        jumps_to_empp(L, (0.0, 5.0))
    with pytest.raises(ValueError):
        jumps_to_empp(L, (2.0, 1.0))
    with pytest.raises(ValueError):
        jumps_to_empp(L, (-1.0, 2.0))


def test_duplicate_locations_are_rejected_at_construction():
    with pytest.raises(ValueError):
        MarkedPointSet(locations=[0.5, 0.5], marks=[1.0, 2.0], window=(0.0, 1.0))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("bad", [_NAN, _INF, -_INF])
def test_point_set_refuses_a_non_finite_location(bad):
    for locations in ([0.1, bad], [bad, 0.2], [bad]):
        with pytest.raises(ValueError):
            MarkedPointSet(locations=locations, marks=[1.0] * len(locations), window=(0.0, 1.0))


@pytest.mark.parametrize("bad", [_NAN, _INF, -_INF])
def test_point_set_refuses_a_non_finite_mark(bad):
    for marks in ([bad, 1.0], [1.0, bad]):
        with pytest.raises(ValueError):
            MarkedPointSet(locations=[0.1, 0.2], marks=marks, window=(0.0, 1.0))


@pytest.mark.parametrize("window", [(0.0, _NAN), (_NAN, 1.0), (0.0, _INF), (-_INF, 1.0)])
def test_point_set_refuses_a_non_finite_window(window):
    with pytest.raises(ValueError):
        MarkedPointSet(locations=[0.5], marks=[1.0], window=window)


def test_count_hand_case():
    points = jumps_to_empp(_hand_L(), (0.0, 4.0))
    assert points.count(1.0, 0.0) == 2
    assert points.count(1.0, 0.5) == 1
    assert points.count(1.0, 3.0) == 0
    assert points.count(0.5, 0.0) == 1  # location 0.6 outside (0, 0.5]
    assert points.count(0.6, 0.0) == 2  # the right end is inclusive
    assert points.count(0.0, 0.0) == 0 and points.count(-1.0, 0.0) == 0
    with pytest.raises(ValueError):
        points.count(float("nan"), 0.0)
    at_zero = MarkedPointSet(locations=[0.0, 0.5], marks=[1.0, 1.0], window=(0.0, 1.0))
    assert at_zero.count(1.0, 0.0) == 1  # the left end is exclusive


def test_count_refuses_a_nan_mark_threshold():
    points = jumps_to_empp(_hand_L(), (0.0, 4.0))
    block = jumps_to_empp([_hand_L(), _hand_L()], (0.0, 4.0))
    for P in (points, block):
        with pytest.raises(ValueError, match="mark_gt"):
            P.count(1.0, float("nan"))
        with pytest.raises(ValueError, match="x_hi"):
            P.count(float("nan"), 0.0)


def test_block_of_point_sets_counts_set_by_set():
    short = JumpFunction(locations=[0.1], sizes=[5.0], drift=0.0, total_mass_cap=1.0)
    empty = JumpFunction(locations=[], sizes=[], drift=0.0, total_mass_cap=2.0)
    block = jumps_to_empp([_hand_L(), empty, short], (0.0, 1.0))
    assert block.offsets.tolist() == [0, 2, 2, 3]
    assert block.locations.tolist() == [0.25, 0.6, 0.1]
    counts = block.count(1.0, 0.4)
    assert counts.dtype == np.int64 and counts.tolist() == [2, 0, 1]
    scaled = rescale_empp(block, 0.5, 2.0)
    assert scaled.offsets is block.offsets
    assert scaled.count(1.0, 2.0).tolist() == [1, 0, 1]
    assert jumps_to_empp([], (0.0, 1.0)).count(1.0, 0.0).tolist() == []
    with pytest.raises(ValueError):
        empp_to_jumps(block)
    # the short path's cap misses the window, as for a single function
    with pytest.raises(ValueError, match=r"L\[2\]"):
        jumps_to_empp([_hand_L(), empty, short], (0.0, 1.5))


def test_block_of_point_sets_is_checked_set_by_set():
    # a set may start below the end of the set before it
    MarkedPointSet(locations=[0.5, 0.9, 0.1], marks=[1.0] * 3, window=(0.0, 1.0),
                   offsets=[0, 2, 3])
    for locations, offsets in (([0.5, 0.5, 0.1], [0, 2, 3]), ([0.5, 0.9, 0.1], [0, 3])):
        with pytest.raises(ValueError, match="increasing"):
            MarkedPointSet(locations=locations, marks=[1.0] * 3, window=(0.0, 1.0),
                           offsets=offsets)
    for offsets in ([0, 2], [1, 3], [0, 2, 1, 3], [[0, 3]]):
        with pytest.raises(ValueError, match="offsets"):
            MarkedPointSet(locations=[0.5, 0.9, 0.1], marks=[1.0] * 3, window=(0.0, 1.0),
                           offsets=offsets)
    with pytest.raises(ValueError, match="inside the window"):
        MarkedPointSet(locations=[0.5, 0.9, 1.5], marks=[1.0] * 3, window=(0.0, 1.0),
                       offsets=[0, 2, 3])
    with pytest.raises(ValueError, match="marks"):
        MarkedPointSet(locations=[0.5, 0.9, 0.1], marks=[1.0, 1.0, float("nan")],
                       window=(0.0, 1.0), offsets=[0, 2, 3])


def test_count_is_monotone_in_the_mark_threshold():
    rng = np.random.default_rng(4)
    points = jumps_to_empp(_poisson_pareto_L(rng), (0.0, 1.0))
    thresholds = np.linspace(0.0, 10.0, 50)
    counts = [points.count(1.0, t) for t in thresholds]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


def test_rescale_hand_case():
    points = MarkedPointSet(locations=[0.5, 1.0], marks=[2.0, 8.0], window=(0.0, 2.0))
    scaled = rescale_empp(points, r=0.5, beta=2.0)
    np.testing.assert_allclose(scaled.locations, [1.0, 2.0])
    np.testing.assert_allclose(scaled.marks, [8.0, 32.0])
    assert scaled.window == (0.0, 4.0)


def test_rescale_group_law_exact_for_dyadic_scales():
    """r then s must equal r * s in one step, bit for bit, when the scales
    are powers of two and beta = 2 (every factor is then a power of two)."""
    rng = np.random.default_rng(10)
    L = _poisson_pareto_L(rng)
    points = jumps_to_empp(L, (0.0, 1.0))
    two_step = rescale_empp(rescale_empp(points, 0.5, 2.0), 0.25, 2.0)
    one_step = rescale_empp(points, 0.125, 2.0)
    np.testing.assert_array_equal(two_step.locations, one_step.locations)
    np.testing.assert_array_equal(two_step.marks, one_step.marks)
    assert two_step.window == one_step.window


def test_rescale_identity_at_unit_scale():
    points = MarkedPointSet(locations=[0.5], marks=[2.0], window=(0.0, 1.0))
    same = rescale_empp(points, 1.0, beta=2.0)
    np.testing.assert_array_equal(same.locations, points.locations)
    np.testing.assert_array_equal(same.marks, points.marks)
    with pytest.raises(ValueError):
        rescale_empp(points, 0.0, beta=2.0)
    with pytest.raises(ValueError):
        rescale_empp(points, float("nan"), beta=2.0)


# ---------------------------------------------------------------------------
# subinterval counting
# ---------------------------------------------------------------------------


def test_count_heavy_subintervals_hand_case():
    L = _hand_L()
    assert count_heavy_subintervals(L, 4, 1.0) == 1
    assert count_heavy_subintervals(L, 4, 0.4) == 2
    assert count_heavy_subintervals(L, 4, 4.0) == 0
    assert count_heavy_subintervals(L, 1, 1.0) == 1


def test_count_heavy_subintervals_stabilises():
    # once the mesh separates the jumps the count equals the number of
    # jumps above the threshold, for every finer mesh
    rng = np.random.default_rng(17)
    for _ in range(20):
        L = _poisson_pareto_L(rng, rate=30.0)
        r = 1.5
        min_gap = float(np.min(np.diff(L.locations))) if L.n_jumps > 1 else 1.0
        n = 1 << max(12, int(math.ceil(math.log2(2.0 / min_gap))))
        exact = int(np.count_nonzero(L.sizes > r))
        assert count_heavy_subintervals(L, n, r) == exact
        assert count_heavy_subintervals(L, 4 * n, r) == exact


def test_count_heavy_subintervals_validation():
    L = _hand_L(cap=0.5)
    with pytest.raises(ValueError):
        count_heavy_subintervals(L, 4, 1.0)  # cap below the unit interval
    with pytest.raises(ValueError):
        count_heavy_subintervals(_hand_L(), 0, 1.0)
    with pytest.raises(ValueError):
        count_heavy_subintervals(_hand_L(), 4, 0.0)
    with pytest.raises(ValueError):
        count_heavy_subintervals(_hand_L(), 4, float("nan"))
    with pytest.raises(ValueError):
        count_heavy_subintervals(_hand_L(), [4, 0], 1.0)
    with pytest.raises(ValueError):
        count_heavy_subintervals(_hand_L(), 2.5, 1.0)
    with pytest.raises(ValueError):
        count_heavy_subintervals(_hand_L(), [[4]], 1.0)
    with pytest.raises(ValueError):
        count_heavy_subintervals(_hand_L(), np.array([], dtype=np.int64), 1.0)


def test_count_heavy_subintervals_sequence_form():
    L = _hand_L()
    counts = count_heavy_subintervals(L, [4, 1, 4096], 0.4)
    assert counts.dtype == np.int64 and counts.tolist() == [2, 1, 2]
    assert count_heavy_subintervals(L, np.array([4]), 1.0).tolist() == [1]
    assert type(count_heavy_subintervals(L, np.int64(4), 1.0)) is int


def test_count_heavy_subintervals_block_form():
    drift_only = JumpFunction(locations=[], sizes=[], drift=10.0, total_mass_cap=1.0)
    block = [_hand_L(), drift_only]
    counts = count_heavy_subintervals(block, [4, 16], 0.4)
    assert counts.dtype == np.int64 and counts.tolist() == [[2, 2], [4, 16]]
    assert count_heavy_subintervals(block, 4, 1.0).tolist() == [1, 4]
    assert count_heavy_subintervals([], [4, 16], 1.0).shape == (0, 2)
    with pytest.raises(ValueError, match=r"L\[1\]"):
        count_heavy_subintervals([_hand_L(), _hand_L(cap=0.5)], 4, 1.0)


def test_count_heavy_subintervals_counts_drift_only_subintervals():
    # the drift alone lifts every quarter by 2.5: no subinterval holds a
    # jump, so all four must be evaluated
    L = JumpFunction(locations=[], sizes=[], drift=10.0, total_mass_cap=1.0)
    assert count_heavy_subintervals(L, 4, 1.0) == 4
    assert count_heavy_subintervals(L, [4, 8, 16], 1.0).tolist() == [4, 8, 0]
    # a jump at level 0 belongs to L(0) and lifts no subinterval
    L = JumpFunction(locations=[0.0, 0.5], sizes=[5.0, 2.0], drift=0.0, total_mass_cap=1.0)
    assert count_heavy_subintervals(L, [1, 2, 3], 1.0).tolist() == [1, 1, 1]


# ---------------------------------------------------------------------------
# tail fitting
# ---------------------------------------------------------------------------


def test_hill_hand_case():
    # marks e^2, e, 1 with k = 2: mean log ratio is 3/2, so the index is 2/3
    fit = hill_tail_index([math.e**2, 1.0, math.e], k=2)
    assert fit.exponent == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert fit.stderr == pytest.approx((2.0 / 3.0) / math.sqrt(2.0), rel=1e-12)
    assert fit.constant == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert fit.k_used == 2
    assert fit.method is FitMethod.HILL


def test_hill_validation():
    with pytest.raises(InsufficientDataError):
        hill_tail_index([1.0, 2.0], k=2)
    with pytest.raises(InsufficientDataError):
        hill_tail_index([1.0, 2.0, 3.0], k=3)
    with pytest.raises(InsufficientDataError):
        hill_tail_index([1.0, 2.0, 3.0, 4.0], k=1)
    with pytest.raises(InsufficientDataError):
        hill_tail_index([5.0, 5.0, 5.0, 5.0], k=2)
    with pytest.raises(ValueError):
        hill_tail_index([1.0, -2.0, 3.0], k=2)


def test_hill_on_the_top_of_a_larger_pool():
    # the k + 1 largest of n_marks marks give the full pool's fit, with
    # k / n_marks in the constant and n_marks in the checks
    fit = hill_tail_index([math.e**2, 1.0, math.e], k=2, n_marks=6)
    assert fit.exponent == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert fit.constant == pytest.approx(1.0 / 3.0, rel=1e-12)
    full = hill_tail_index([0.5, math.e**2, 0.25, 1.0, math.e, 0.5], k=2)
    assert hill_tail_index([math.e**2, 1.0, math.e], k=2, n_marks=6) == full
    with pytest.raises(InsufficientDataError, match="at least 3 marks, got 2"):
        hill_tail_index([1.0, 2.0], k=2, n_marks=2)
    with pytest.raises(InsufficientDataError, match="n_marks = 6, got 6"):
        hill_tail_index([1.0, 2.0, 3.0], k=6, n_marks=6)
    with pytest.raises(ValueError, match="the k \\+ 1 = 4 largest marks are needed, got 3"):
        hill_tail_index([1.0, 2.0, 3.0], k=3, n_marks=6)
    with pytest.raises(ValueError, match="largest marks are needed, got 0"):
        hill_tail_index([], k=2, n_marks=6)
    with pytest.raises(ValueError, match="n_marks = 2 is less than the 3 marks"):
        hill_tail_index([1.0, 2.0, 3.0], k=2, n_marks=2)


def test_hill_refuses_nan_and_infinite_marks():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            hill_tail_index([bad, 1.0, 2.0, 3.0, 4.0], k=2)


def test_hill_sums_the_log_ratios_in_descending_order():
    # the in-place log keeps the element order, so the mean (and every
    # tailfit.json written from it) is bit-identical to the plain formula
    rng = np.random.default_rng(11)
    marks = _pareto_marks(rng, 5000, 0.6)
    k = 1700
    ordered = np.sort(marks)[::-1]
    expected = 1.0 / float(np.mean(np.log(ordered[:k] / ordered[k])))
    assert hill_tail_index(marks, k=k).exponent == expected


def test_hill_working_set_is_one_sorted_copy():
    # the ratios live in the sorted copy; a second k-element array would
    # add k / n_marks to the peak of the excursions stage
    rng = np.random.default_rng(12)
    marks = _pareto_marks(rng, 200_000, 0.6)
    tracemalloc.start()
    try:
        hill_tail_index(marks, k=90_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * marks.nbytes


def test_hill_recovers_pareto_index():
    rng = np.random.default_rng(3)
    for alpha in (0.5, 0.7):
        marks = _pareto_marks(rng, 20000, alpha)
        fit = hill_tail_index(marks, k=2000)
        # about 2.2 percent standard error at k = 2000
        assert abs(fit.exponent - alpha) < 0.05, f"alpha={alpha}"
        assert abs(fit.constant - 1.0) < 0.15


def test_loglog_fit_exact_on_power_law_input():
    alpha, c = 0.5, 2.0
    thresholds = np.array([0.1, 0.2, 0.4, 0.8])
    counts = (c / alpha) * thresholds**-alpha
    fit = loglog_count_fit(counts, thresholds)
    assert fit.exponent == pytest.approx(alpha, rel=1e-10)
    assert fit.constant == pytest.approx(c, rel=1e-10)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    assert fit.method is FitMethod.LOGLOG_COUNTS


def test_loglog_fit_validation():
    with pytest.raises(InsufficientDataError):
        loglog_count_fit(np.array([1.0]), np.array([1.0]))
    with pytest.raises(InsufficientDataError):
        loglog_count_fit(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        loglog_count_fit(np.array([1.0, 2.0]), np.array([[1.0, 2.0]]))


def test_loglog_fit_refuses_nan_and_infinities():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            loglog_count_fit(np.array([bad, 1.0, 0.5]), np.array([1.0, 2.0, 4.0]))
        with pytest.raises(ValueError, match="finite"):
            loglog_count_fit(np.array([2.0, 1.0, 0.5]), np.array([1.0, 2.0, bad]))


# ---------------------------------------------------------------------------
# exceedance counting and the ratio statistic
# ---------------------------------------------------------------------------


def test_window_exceedance_counts_hand_case():
    L = _hand_L()
    counts = window_exceedance_counts(L, 1.0, thresholds=[0.4, 1.0, 4.0])
    np.testing.assert_array_equal(counts, [2, 1, 0])
    # only the first jump sits inside (0, 0.5]
    counts = window_exceedance_counts(L, 0.5, thresholds=[0.4, 1.0, 4.0])
    np.testing.assert_array_equal(counts, [1, 1, 0])
    with pytest.raises(ValueError):
        window_exceedance_counts(L, float("nan"), thresholds=[0.4])


def test_window_exceedance_counts_refuse_a_nan_threshold():
    for L in (_hand_L(), [_hand_L(), _hand_L(cap=0.5)]):
        with pytest.raises(ValueError, match="thresholds"):
            window_exceedance_counts(L, 1.0, [0.4, float("nan")])
        with pytest.raises(ValueError, match="thresholds"):
            window_exceedance_counts(L, 1.0, float("nan"))


def test_window_exceedance_counts_block_form():
    block = [_hand_L(), JumpFunction(locations=[], sizes=[], drift=0.0, total_mass_cap=0.0)]
    counts = window_exceedance_counts(block, 1.0, [0.4, 1.0, 4.0])
    assert counts.dtype == np.int64 and counts.tolist() == [[2, 1, 0], [0, 0, 0]]
    assert window_exceedance_counts([], 1.0, [0.4]).shape == (0, 1)
    with pytest.raises(TypeError):
        window_exceedance_counts([_hand_L(), None], 1.0, [0.4])


def test_intensity_ratio_from_counts():
    assert intensity_ratio_from_counts(400, 100) == pytest.approx(4.0)
    with pytest.raises(InsufficientDataError):
        intensity_ratio_from_counts(50, 99)


def test_intensity_ratio_recovers_power_law():
    """Pooled exceedance ratio at (r, 4r) estimates 4^alpha for Pareto marks."""
    rng = np.random.default_rng(12)
    alpha = 0.5
    ensemble = [_poisson_pareto_L(rng, rate=80.0, alpha=alpha) for _ in range(400)]
    ratio = intensity_ratio_test(ensemble, r=2.0)
    assert ratio == pytest.approx(4.0**alpha, rel=0.08)


def test_intensity_ratio_skips_short_paths():
    # paths whose cap misses the window contribute nothing
    rng = np.random.default_rng(13)
    good = [_poisson_pareto_L(rng, rate=80.0) for _ in range(300)]
    short = [
        JumpFunction(locations=[0.1], sizes=[50.0], drift=0.0, total_mass_cap=0.5)
        for _ in range(300)
    ]
    with_short = intensity_ratio_test(good + short, r=2.0)
    without = intensity_ratio_test(good, r=2.0)
    assert with_short == without


def test_intensity_ratio_refuses_nan():
    L = [_hand_L()]
    with pytest.raises(ValueError):
        intensity_ratio_test(L, r=float("nan"))
    with pytest.raises(ValueError):
        intensity_ratio_test(L, r=1.0, x_window=float("nan"))
