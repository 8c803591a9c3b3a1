import os
import subprocess
import sys

import numpy as np
import pytest

import zeroset
from zeroset import (
    Family,
    PersistenceCurve,
    ProcessSpec,
    bm_exact_persistence,
    derive_path_seed,
    estimate_local_time,
    fit_exponent,
    max_persistence_indicator,
    persistence_indicator,
    sample,
    survival_curve,
    survival_from_events,
)
from zeroset.errors import FitRangeError
from zeroset.generators import SamplePath


# ---------------------------------------------------------------------------
# exact reference law
# ---------------------------------------------------------------------------


def test_bm_exact_persistence_frozen_values():
    # erf(1 / sqrt(2 T)) evaluated independently
    assert bm_exact_persistence(1.0) == pytest.approx(0.6826894921370859, rel=1e-12)
    assert bm_exact_persistence(4.0) == pytest.approx(0.3829249225480261, rel=1e-12)
    assert bm_exact_persistence(16.0) == pytest.approx(0.19741265136584743, rel=1e-12)
    assert bm_exact_persistence(64.0) == pytest.approx(0.09947644966022577, rel=1e-12)
    assert bm_exact_persistence(1.0, a=2.0) == pytest.approx(0.9544997361036416, rel=1e-12)


def test_bm_exact_persistence_is_scipy_erf_loaded_on_first_use():
    # in a fresh interpreter: the package alone loads no scipy.special, and
    # the oracle that loads it returns scipy's erf to the bit (math.erf
    # differs from it in the last bit at T = 4 and T = 64)
    src = os.path.dirname(os.path.dirname(os.path.abspath(zeroset.__file__)))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from zeroset import bm_exact_persistence\n"
        "assert 'scipy.special' not in sys.modules\n"
        "cases = [(1.0, 1.0), (4.0, 1.0), (16.0, 1.0), (64.0, 1.0), (1.0, 2.0)]\n"
        "got = [bm_exact_persistence(T, a) for T, a in cases]\n"
        "assert 'scipy.special' in sys.modules\n"
        "from scipy.special import erf\n"
        "want = [float(erf(a / np.sqrt(2.0 * T))) for T, a in cases]\n"
        "bits = lambda x: int(np.float64(x).view(np.uint64))\n"
        "assert [bits(x) for x in got] == [bits(x) for x in want], (got, want)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_bm_exact_persistence_limits_and_validation():
    assert bm_exact_persistence(1e-12) == pytest.approx(1.0, abs=1e-12)
    # T -> inf decays like sqrt(2 / (pi T))
    big = 1e8
    assert bm_exact_persistence(big) == pytest.approx(
        np.sqrt(2.0 / (np.pi * big)), rel=1e-4
    )
    with pytest.raises(ValueError):
        bm_exact_persistence(0.0)
    with pytest.raises(ValueError):
        bm_exact_persistence(1.0, a=0.0)


def test_bm_exact_persistence_refuses_nan():
    with pytest.raises(ValueError, match="T must be positive"):
        bm_exact_persistence(np.nan)
    with pytest.raises(ValueError, match="a must be positive"):
        bm_exact_persistence(1.0, np.nan)


# ---------------------------------------------------------------------------
# survival curves
# ---------------------------------------------------------------------------


def test_survival_from_events_hand_case():
    events = np.array([
        [True, True, False],
        [True, False, False],
        [True, True, True],
        [False, False, False],
    ])
    curve = survival_from_events(events, [1.0, 2.0, 4.0], a=1.0)
    np.testing.assert_array_equal(curve.counts, [3, 2, 1])
    np.testing.assert_allclose(curve.survival, [0.75, 0.5, 0.25])
    assert curve.n_paths == 4
    assert curve.a == 1.0


def test_survival_from_events_validation():
    with pytest.raises(ValueError):
        survival_from_events(np.zeros((4, 2), dtype=bool), [1.0, 2.0, 4.0], a=1.0)


def test_curve_must_be_non_increasing():
    with pytest.raises(ValueError):
        PersistenceCurve(
            T_grid=[1.0, 2.0], survival=[0.25, 0.5], counts=[1, 2], n_paths=4, a=1.0
        )


@pytest.mark.parametrize("override", [
    dict(T_grid=[np.nan, 2.0]), dict(T_grid=[1.0, np.nan]), dict(T_grid=[1.0, np.inf]),
    dict(T_grid=[np.nan], survival=[0.75], counts=[3]),
    dict(survival=[np.nan, 0.5]), dict(survival=[0.5, np.nan]), dict(a=np.nan),
])
def test_curve_refuses_nan(override):
    fields = dict(T_grid=[1.0, 2.0], survival=[0.75, 0.5], counts=[3, 2], n_paths=4, a=1.0)
    with pytest.raises(ValueError):
        PersistenceCurve(**{**fields, **override})


def test_standard_error_formula():
    curve = PersistenceCurve(
        T_grid=[1.0], survival=[0.25], counts=[25], n_paths=100, a=1.0
    )
    assert curve.standard_error()[0] == pytest.approx(np.sqrt(0.25 * 0.75 / 100))


def test_wilson_interval_frozen_values():
    curve = PersistenceCurve(
        T_grid=[1.0], survival=[0.5], counts=[50], n_paths=100, a=1.0
    )
    lo, hi = curve.wilson_interval()
    assert lo[0] == pytest.approx(0.40382982859014716, rel=1e-12)
    assert hi[0] == pytest.approx(0.5961701714098528, rel=1e-12)
    # degenerate estimates stay inside (0, 1)
    curve = PersistenceCurve(T_grid=[1.0], survival=[1.0], counts=[9], n_paths=9, a=1.0)
    lo, hi = curve.wilson_interval()
    assert 0.0 < lo[0] < 1.0
    assert hi[0] <= 1.0 + 1e-12


def test_survival_curve_from_profiles():
    spec = ProcessSpec(family=Family.BM, hurst=0.5, horizon=8.0, grid_size=2048)
    profiles = [estimate_local_time(sample(spec, derive_path_seed(5, i))) for i in range(50)]
    curve = survival_curve(profiles, [1.0, 2.0, 4.0, 8.0], a=1.0)
    assert curve.n_paths == 50
    assert np.all(np.diff(curve.survival) <= 0.0)
    for i, T in enumerate([1.0, 2.0, 4.0, 8.0]):
        expected = sum(persistence_indicator(p, T, 1.0) for p in profiles)
        assert curve.counts[i] == expected


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------


def test_fit_exponent_recovers_exact_power_law():
    # survival 1/T keeps every count an integer at 1024 paths
    T_grid = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    survival = np.array([1.0 / T for T in T_grid])
    counts = (survival * 1024).astype(np.int64)
    curve = PersistenceCurve(
        T_grid=T_grid, survival=survival, counts=counts, n_paths=1024, a=1.0
    )
    fit = fit_exponent(curve)
    assert fit.kappa_hat == pytest.approx(1.0, rel=1e-10)
    assert fit.c_hat == pytest.approx(1.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr_kappa > 0.0
    assert fit.fit_range == (1.0, 16.0)  # default window of T_max = 64
    assert fit.n_points == 5


def test_fit_exponent_explicit_range():
    T_grid = [1.0, 4.0, 16.0, 64.0]
    survival = np.array([1.0, 0.5, 0.25, 0.125])
    curve = PersistenceCurve(
        T_grid=T_grid, survival=survival, counts=(survival * 1024).astype(int),
        n_paths=1024, a=1.0,
    )
    fit = fit_exponent(curve, 1.0, 64.0)
    assert fit.kappa_hat == pytest.approx(0.5, rel=1e-10)
    assert fit.n_points == 4


def test_fit_exponent_range_errors():
    T_grid = [1.0, 4.0, 16.0, 64.0]
    survival = np.array([1.0, 0.5, 0.25, 0.125])
    curve = PersistenceCurve(
        T_grid=T_grid, survival=survival, counts=(survival * 8).astype(int),
        n_paths=8, a=1.0,
    )
    with pytest.raises(FitRangeError):
        fit_exponent(curve)  # default window [1, 16] holds only 3 points
    with pytest.raises(FitRangeError):
        fit_exponent(curve, 16.0, 4.0)
    survival = np.array([0.5, 0.25, 0.125, 0.0])
    curve = PersistenceCurve(
        T_grid=T_grid, survival=survival, counts=(survival * 8).astype(int),
        n_paths=8, a=1.0,
    )
    with pytest.raises(FitRangeError):
        fit_exponent(curve, 1.0, 64.0)  # zero survival inside the range


def test_fit_exponent_rejects_flat_curve():
    # a constant curve has slope 0, outside the plausible exponent range
    T_grid = [1.0, 2.0, 4.0, 8.0]
    curve = PersistenceCurve(
        T_grid=T_grid, survival=[0.5] * 4, counts=[8] * 4, n_paths=16, a=1.0
    )
    with pytest.raises(ValueError):
        fit_exponent(curve, 1.0, 8.0)


def test_fit_weights_favour_high_survival_points():
    """Noise on a low-count tail point must perturb the fit less than the
    same noise on a well-estimated point; this is what the weights are for."""
    T_grid = [1.0, 2.0, 4.0, 8.0, 16.0]
    base = np.array([0.8, 0.8 / 2**0.5, 0.4, 0.4 / 2**0.5, 0.2])
    n = 10000

    def kappa_with(survival):
        counts = np.round(np.asarray(survival) * n).astype(int)
        curve = PersistenceCurve(
            T_grid=T_grid, survival=counts / n, counts=counts, n_paths=n, a=1.0
        )
        return fit_exponent(curve, 1.0, 16.0).kappa_hat

    clean = kappa_with(base)
    bumped_tail = base.copy()
    bumped_tail[-1] *= 0.8
    bumped_head = base.copy()
    bumped_head[0] *= 0.8
    # relative distortion of the same size moves the estimate more when it
    # hits the first point only if the weights are backwards
    assert abs(kappa_with(bumped_tail) - clean) < abs(kappa_with(bumped_head) - clean)


# ---------------------------------------------------------------------------
# simulated Brownian ensemble against the exact law
# ---------------------------------------------------------------------------


def test_bm_survival_matches_exact_law():
    spec = ProcessSpec(family=Family.BM, hurst=0.5, horizon=16.0, grid_size=8192)
    T_grid = [1.0, 4.0, 16.0]
    events = np.zeros((1500, len(T_grid)), dtype=bool)
    for i in range(1500):
        prof = estimate_local_time(sample(spec, derive_path_seed(88, i)))
        events[i] = [persistence_indicator(prof, T, 1.0) for T in T_grid]
    curve = survival_from_events(events, T_grid, 1.0)
    se = curve.standard_error()
    for i, T in enumerate(T_grid):
        oracle = bm_exact_persistence(T)
        tol = 0.10 * oracle + 4.0 * se[i]
        assert abs(curve.survival[i] - oracle) < tol, f"T={T}"


# ---------------------------------------------------------------------------
# running-maximum event
# ---------------------------------------------------------------------------


def test_max_persistence_indicator_hand_case():
    spec = ProcessSpec(family=Family.FBM, hurst=0.5, horizon=4.0, grid_size=4)
    path = SamplePath(spec=spec, seed=0, values=np.array([0.0, 0.5, 0.9, 1.5, -2.0]))
    assert max_persistence_indicator(path, 2.0) is True
    assert max_persistence_indicator(path, 3.0) is False
    assert max_persistence_indicator(path, 4.0) is False
    with pytest.raises(ValueError):
        max_persistence_indicator(path, 5.0)
    events = max_persistence_indicator(path, [1.0, 2.0, 3.0, 4.0])
    assert events.dtype == bool
    assert events.tolist() == [True, True, False, False]
    with pytest.raises(ValueError):
        max_persistence_indicator(path, [1.0, 5.0])


def test_max_persistence_survival_matches_exact_law():
    """P(max of BM on [0, T] <= 1) equals the level-1 law of |B_T|, which is
    the same erf as the local-time event; 1000 paths give a loose gate."""
    spec = ProcessSpec(family=Family.BM, hurst=0.5, horizon=16.0, grid_size=8192)
    T_grid = [4.0, 16.0]
    hits = np.zeros(len(T_grid))
    n = 1000
    for i in range(n):
        path = sample(spec, derive_path_seed(99, i))
        hits += [max_persistence_indicator(path, T) for T in T_grid]
    for j, T in enumerate(T_grid):
        oracle = bm_exact_persistence(T)
        se = np.sqrt(oracle * (1 - oracle) / n)
        assert abs(hits[j] / n - oracle) < 0.10 * oracle + 4.0 * se, f"T={T}"
