import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from zeroset import (
    Family,
    ProcessSpec,
    derive_path_seed,
    fbm_covariance,
    fgn_covariance,
    sample,
    sample_fbm,
    sample_rosenblatt,
)
from zeroset import generators
from zeroset.generators import (
    _BUFFERS,
    _circulant_sqrt_eig,
    _embedding_size,
    _fgn_sqrt_eig,
    _rosenblatt_sqrt_eig,
    _stationary_gaussian,
    rosenblatt_calibration,
)


def _spec(family=Family.FBM, hurst=0.5, horizon=1.0, n=64, mf=16):
    return ProcessSpec(family=family, hurst=hurst, horizon=horizon,
                       grid_size=n, micro_factor=mf)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_hurst():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            _spec(hurst=bad)


def test_spec_bm_pins_hurst():
    with pytest.raises(ValueError):
        _spec(family=Family.BM, hurst=0.7)
    _spec(family=Family.BM, hurst=0.5)  # fine


def test_spec_rosenblatt_needs_upper_half():
    for bad in (0.3, 0.5):
        with pytest.raises(ValueError):
            _spec(family=Family.ROSENBLATT, hurst=bad)
    _spec(family=Family.ROSENBLATT, hurst=0.75)


def test_spec_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        _spec(horizon=0.0)
    with pytest.raises(ValueError):
        _spec(n=0)
    with pytest.raises(ValueError):
        _spec(family=Family.ROSENBLATT, hurst=0.75, mf=0)


def test_spec_delta():
    assert _spec(horizon=16.0, n=64).delta == 0.25


# ---------------------------------------------------------------------------
# covariance functions (closed-form values worked out by hand)
# ---------------------------------------------------------------------------


def test_fbm_covariance_values():
    # H = 3/4, s = 1, t = 2: (1 + 2^1.5 - 1) / 2 = sqrt(2)
    assert fbm_covariance(0.75, 1.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # H = 1/2 reduces to min(s, t)
    assert fbm_covariance(0.5, 0.3, 1.7) == pytest.approx(0.3, rel=1e-14)
    assert fbm_covariance(0.5, 2.0, 0.5) == pytest.approx(0.5, rel=1e-14)
    # variance at t: t^2H
    assert fbm_covariance(0.7, 3.0, 3.0) == pytest.approx(3.0**1.4, rel=1e-14)


def test_fgn_covariance_values():
    assert fgn_covariance(0.75, 0) == pytest.approx(1.0, rel=1e-14)
    assert fgn_covariance(0.75, 1) == pytest.approx(0.41421356237309515, rel=1e-12)
    assert fgn_covariance(0.3, 1) == pytest.approx(-0.242141716744801, rel=1e-12)
    # H = 1/2 noise is white
    for k in (1, 2, 7):
        assert fgn_covariance(0.5, k) == 0.0
    # symmetric in the lag
    assert fgn_covariance(0.7, -3) == fgn_covariance(0.7, 3)


def test_fgn_covariance_sums_to_selfsimilar_variance():
    """Var(sum of n unit-lag increments) must telescope to n^2H."""
    for hurst in (0.3, 0.5, 0.7):
        n = 10
        total = n * fgn_covariance(hurst, 0)
        total += 2.0 * sum((n - k) * fgn_covariance(hurst, k) for k in range(1, n))
        assert total == pytest.approx(n ** (2.0 * hurst), rel=1e-10)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


def test_derive_path_seed_frozen_values():
    assert derive_path_seed(0, 0) == 12035550249420947055
    assert derive_path_seed(12345, 678) == 7655433675965778312


def test_derive_path_seed_is_injective_over_many_indices():
    seeds = {derive_path_seed(99, i) for i in range(10000)}
    assert len(seeds) == 10000
    for s in list(seeds)[:100]:
        assert 0 <= s < 2**64


def test_derive_path_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_path_seed(1, -1)


# ---------------------------------------------------------------------------
# circulant embedding
# ---------------------------------------------------------------------------


def test_embedding_size_powers_of_two():
    assert _embedding_size(2) == 2
    assert _embedding_size(3) == 4
    assert _embedding_size(5) == 8
    assert _embedding_size(64) == 128
    assert _embedding_size(65) == 128
    assert _embedding_size(66) == 256


def _real_row_sqrt_eig(acov, m):
    """The roots from a real row and an out-of-place FFT, the reference."""
    row = np.concatenate([acov, acov[-2:0:-1]])
    return np.sqrt(np.clip(np.fft.fft(row).real[: m // 2 + 1], 0.0, None))


@pytest.mark.parametrize("n", [2, 3, 17, 1024, 2**13 + 1])
@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_fgn_roots_equal_the_real_row_reference(monkeypatch, hurst, n):
    monkeypatch.setattr(generators, "_EIG_CACHE", {})
    m, sqrt_lam = _fgn_sqrt_eig(hurst, n)
    lags = np.arange(m // 2 + 1, dtype=np.float64)
    two_h = 2.0 * hurst
    acov = 0.5 * (np.abs(lags + 1) ** two_h - 2.0 * lags**two_h + np.abs(lags - 1) ** two_h)
    np.testing.assert_array_equal(sqrt_lam, _real_row_sqrt_eig(acov, m))


@pytest.mark.parametrize("n", [2, 16, 17, 2**13 + 1])
@pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
def test_rosenblatt_roots_equal_the_real_row_reference(monkeypatch, hurst, n):
    monkeypatch.setattr(generators, "_EIG_CACHE", {})
    m, sqrt_lam = _rosenblatt_sqrt_eig(hurst, n)
    lags = np.arange(m // 2 + 1, dtype=np.float64)
    acov = (1.0 + lags) ** (-(1.0 - hurst))
    np.testing.assert_array_equal(sqrt_lam, _real_row_sqrt_eig(acov, m))


@pytest.mark.parametrize("build", [_fgn_sqrt_eig, _rosenblatt_sqrt_eig])
def test_eigen_setup_holds_one_complex_row(monkeypatch, build):
    """numpy's traced peak while the roots are built: the complex row of
    16 m bytes and the roots or the covariance of 4 m, within 24 m."""
    monkeypatch.setattr(generators, "_EIG_CACHE", {})
    n = 2**16
    m = _embedding_size(n)
    assert m == 2**17
    tracemalloc.start()
    try:
        build(0.75, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * m


def test_non_definite_embedding_is_refused():
    # a row 0.5, 1, 0, ..., 0, 1 has the eigenvalues 0.5 + 2 cos(2 pi k / m)
    def acov_at(lags):
        return np.where(lags == 0, 0.5, np.where(lags == 1, 1.0, 0.0))

    with pytest.raises(RuntimeError, match="not non-negative definite"):
        _circulant_sqrt_eig(64, acov_at)


def _complex_synthesis(n, acov, m, seed):
    """Full-spectrum complex-FFT synthesis, the reference for the sampler.

    The eigenvalues are all m of the embedding's spectrum, and the spectrum
    is built Hermitian by hand from the same m normals in the same order.
    """
    row = np.concatenate([acov, acov[-2:0:-1]])
    sqrt_lam = np.sqrt(np.clip(np.fft.fft(row).real, 0.0, None))
    half = m // 2
    w = np.random.default_rng(seed).standard_normal(m)
    z = np.empty(m, dtype=np.complex128)
    z[0] = w[0]
    z[half] = w[1]
    re = w[2 : half + 1] * math.sqrt(0.5)
    im = w[half + 1 :] * math.sqrt(0.5)
    z[1:half] = re + 1j * im
    z[half + 1 :] = (re - 1j * im)[::-1]
    return np.fft.ifft(sqrt_lam * z).real[:n] * math.sqrt(m)


@pytest.mark.parametrize("n", [1, 2, 3, 128, 2**12])
@pytest.mark.parametrize("kind", ["fgn", "rosenblatt"])
def test_half_spectrum_synthesis_matches_complex_reference(kind, n):
    if kind == "fgn":
        m, sqrt_lam = _fgn_sqrt_eig(0.3, n)
        acov = np.array([fgn_covariance(0.3, k) for k in range(m // 2 + 1)])
    else:
        m, sqrt_lam = _rosenblatt_sqrt_eig(0.75, n)
        acov = (1.0 + np.arange(m // 2 + 1)) ** -0.25
    assert len(sqrt_lam) == m // 2 + 1
    for seed in (1, 2, 3):
        got = _stationary_gaussian(n, sqrt_lam, m, np.random.default_rng(seed))
        assert got.shape == (n,)
        np.testing.assert_allclose(got, _complex_synthesis(n, acov, m, seed),
                                   rtol=0.0, atol=1e-12)


def test_drawn_paths_survive_later_draws():
    fbm, fbm_other = _spec(hurst=0.3, n=256), _spec(hurst=0.3, n=1000)
    ros = _spec(family=Family.ROSENBLATT, hurst=0.75, n=16, mf=16)
    first = [sample(fbm, 1), sample(ros, 1)]
    kept = [p.values.copy() for p in first]
    for spec in (fbm, fbm_other, ros, fbm):  # same m, then other m
        sample(spec, 2)
        for path, values in zip(first, kept):
            np.testing.assert_array_equal(path.values, values)
            assert not any(np.shares_memory(path.values, b) for b in _BUFFERS.slot)


def test_concurrent_threads_draw_the_serial_paths():
    jobs = [(spec, seed)
            for spec in (_spec(hurst=0.3, n=4096), _spec(hurst=0.7, n=300),
                         _spec(family=Family.ROSENBLATT, hurst=0.75, n=64, mf=16))
            for seed in range(6)]
    serial = [sample(spec, seed).values for spec, seed in jobs]
    results: dict[int, dict] = {}

    def draw(worker):
        # each thread starts at another job, so the threads interleave sizes
        order = list(range(worker, len(jobs))) + list(range(worker))
        results[worker] = {i: sample(*jobs[i]).values for i in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for worker in range(4):
        for i, values in enumerate(serial):
            np.testing.assert_array_equal(results[worker][i], values)


# ---------------------------------------------------------------------------
# fbm sampler
# ---------------------------------------------------------------------------


def test_sample_fbm_shape_and_start():
    path = sample_fbm(_spec(n=32), 7)
    assert len(path.values) == 33
    assert path.values[0] == 0.0
    assert path.seed == 7
    assert path.calibration == 1.0
    np.testing.assert_allclose(path.times, np.arange(33) / 32.0)


def test_sample_fbm_reproducible():
    spec = _spec(hurst=0.7, n=128)
    a = sample_fbm(spec, 31415)
    b = sample_fbm(spec, 31415)
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_fbm(spec, 31416)
    assert not np.array_equal(a.values, c.values)


def test_bm_dispatch_matches_fbm_at_half():
    seed = 2024
    a = sample(_spec(family=Family.BM, hurst=0.5, n=64), seed)
    b = sample(_spec(family=Family.FBM, hurst=0.5, n=64), seed)
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("n", [2, 64, 4096, 2**16])
def test_white_noise_embedding_is_flat(monkeypatch, n):
    """At H = 1/2 every eigenvalue of the embedding is exactly 1: the fact
    that lets the sampler use n normals as the increments."""
    monkeypatch.setattr(generators, "_EIG_CACHE", {})
    m, sqrt_lam = _fgn_sqrt_eig(0.5, n)
    assert len(sqrt_lam) == m // 2 + 1
    assert np.all(sqrt_lam == 1.0)


@pytest.mark.parametrize("family", [Family.FBM, Family.BM])
@pytest.mark.parametrize("n, horizon", [(1, 1.0), (64, 1.0), (1000, 8.0), (2**12, 64.0)])
def test_half_draws_the_increments_directly(monkeypatch, family, n, horizon):
    monkeypatch.setattr(generators, "_EIG_CACHE", {})
    monkeypatch.setattr(generators, "_BUFFERS", threading.local())
    spec = _spec(family=family, hurst=0.5, horizon=horizon, n=n)
    for seed in (0, 7, 2**63 + 5):
        steps = np.random.default_rng(seed).standard_normal(n) * spec.delta**0.5
        expected = np.concatenate([[0.0], np.cumsum(steps)])
        np.testing.assert_array_equal(sample_fbm(spec, seed).values, expected)
    # no embedding is built and no synthesis buffer is made
    assert generators._EIG_CACHE == {}
    assert not hasattr(generators._BUFFERS, "slot")


def test_sample_fbm_rejects_wrong_family():
    with pytest.raises(ValueError):
        sample_fbm(_spec(family=Family.ROSENBLATT, hurst=0.75), 1)


def test_fbm_terminal_variance_matches_selfsimilarity():
    """Sample variance of X(1) over 2000 paths should sit near 1 = 1^2H.

    The tolerance 0.15 is about 4.7 standard errors of a Gaussian sample
    variance at this ensemble size.
    """
    for hurst in (0.3, 0.5, 0.75):
        spec = _spec(hurst=hurst, n=64)
        terminal = np.array([sample_fbm(spec, 1000 + i).values[-1] for i in range(2000)])
        assert abs(terminal.var(ddof=1) - 1.0) < 0.15, f"hurst={hurst}"


def test_fbm_increment_correlation_matches_fgn():
    # pooled lag-1 correlation of the increments; about 6 standard errors
    for hurst in (0.3, 0.75):
        spec = _spec(hurst=hurst, n=64)
        vals = np.array([sample_fbm(spec, 3000 + i).values for i in range(2000)])
        inc = np.diff(vals, axis=1)
        corr = np.corrcoef(inc[:, :-1].ravel(), inc[:, 1:].ravel())[0, 1]
        assert abs(corr - fgn_covariance(hurst, 1)) < 0.02, f"hurst={hurst}"


def test_fbm_two_point_covariance():
    spec = _spec(hurst=0.7, n=64)
    vals = np.array([sample_fbm(spec, 5000 + i).values for i in range(2000)])
    emp = float(np.cov(vals[:, 32], vals[:, 64])[0, 1])
    assert abs(emp - fbm_covariance(0.7, 0.5, 1.0)) < 0.08


def test_fbm_scales_with_horizon():
    # doubling the horizon at fixed n scales the whole path by 2^H
    seed = 99
    a = sample_fbm(_spec(hurst=0.7, horizon=1.0, n=64), seed)
    b = sample_fbm(_spec(hurst=0.7, horizon=2.0, n=64), seed)
    np.testing.assert_allclose(b.values, 2.0**0.7 * a.values, rtol=1e-12)


# ---------------------------------------------------------------------------
# rosenblatt sampler
# ---------------------------------------------------------------------------


def test_rosenblatt_calibration_against_brute_force():
    """The cached closed form must agree with the O(N^2) double sum."""
    hurst, big_n = 0.75, 256
    rho = (1.0 + np.arange(big_n)) ** (-(1.0 - hurst))
    var = 0.0
    for i in range(big_n):
        for j in range(big_n):
            var += 2.0 * rho[abs(i - j)] ** 2
    brute = 1.0 / math.sqrt(var / big_n ** (2.0 * hurst))
    assert rosenblatt_calibration(hurst, big_n) == pytest.approx(brute, rel=1e-12)


def test_rosenblatt_calibration_frozen_values():
    assert rosenblatt_calibration(0.75, 256) == pytest.approx(0.4529899421637502, rel=1e-12)
    assert rosenblatt_calibration(0.6, 256) == pytest.approx(0.31297983444073585, rel=1e-12)


def test_rosenblatt_shape_and_reproducibility():
    spec = _spec(family=Family.ROSENBLATT, hurst=0.75, n=32, mf=8)
    a = sample_rosenblatt(spec, 555)
    b = sample(spec, 555)
    assert len(a.values) == 33
    assert a.values[0] == 0.0
    assert 0.0 < a.calibration < 1.0
    np.testing.assert_array_equal(a.values, b.values)


def test_rosenblatt_rejects_wrong_family():
    with pytest.raises(ValueError):
        sample_rosenblatt(_spec(family=Family.FBM, hurst=0.75), 1)


def test_rosenblatt_quadratic_sum_variance_formula():
    """Monte Carlo variance of the centred quadratic sum vs the closed form.

    This pins the calibration identity at the micro-sequence level, where
    the estimator noise is mild (0.5 percent observed at this size), rather
    than through the heavy-tailed terminal marginal.
    """
    hurst, big_n = 0.75, 256
    m, sqrt_lam = _rosenblatt_sqrt_eig(hurst, big_n)
    rng = np.random.default_rng(1)
    sums = np.array([
        float(np.sum(_stationary_gaussian(big_n, sqrt_lam, m, rng) ** 2 - 1.0))
        for _ in range(4000)
    ])
    k = np.arange(big_n, dtype=np.float64)
    rho2 = (1.0 + k) ** (-2.0 * (1.0 - hurst))
    formula = 2.0 * (big_n * rho2[0] + 2.0 * np.sum((big_n - k[1:]) * rho2[1:]))
    assert sums.var(ddof=1) == pytest.approx(formula, rel=0.07)


def test_rosenblatt_terminal_law():
    # terminal variance matches horizon^2H by calibration; the marginal is
    # right-skewed, unlike every Gaussian family here
    spec = _spec(family=Family.ROSENBLATT, hurst=0.75, horizon=4.0, n=32, mf=8)
    terminal = np.array([sample_rosenblatt(spec, 9000 + i).values[-1] for i in range(1500)])
    target = 4.0**1.5
    assert abs(terminal.var(ddof=1) / target - 1.0) < 0.3
    skew = float(np.mean((terminal - terminal.mean()) ** 3) / terminal.std() ** 3)
    assert skew > 0.5
