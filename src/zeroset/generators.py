"""Exact and approximate samplers for H-self-similar processes.

Three families are supported.  Fractional Brownian motion is sampled
exactly through circulant embedding of the increment covariance: the
stationary Gaussian increments are synthesised in the Fourier domain and
cumulated.  At hurst = 1/2 (plain Brownian motion, or FBM at 1/2) the
increments are white and the embedding's spectrum is flat, so the draw is
n standard normals, used directly as the increments.  The Rosenblatt
process, which is non-Gaussian and only defined for hurst in (1/2, 1), is
approximated by normalised partial sums of squared long-memory Gaussians
on a micro-lattice finer than the output grid.

All sampling is driven by a caller-supplied 64-bit seed.  Identical
(spec, seed) pairs reproduce bit-identical paths; nothing here touches the
wall clock or OS entropy.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Family",
    "ProcessSpec",
    "SamplePath",
    "fbm_covariance",
    "fgn_covariance",
    "derive_path_seed",
    "rosenblatt_calibration",
    "sample_fbm",
    "sample_rosenblatt",
    "sample",
]

# Relative tolerance for negative circulant eigenvalues.  Anything more
# negative than -NEG_EIG_TOL * max(eig) aborts the draw; smaller wiggles are
# rounding noise and are clipped to zero.
NEG_EIG_TOL = 1e-10

_MASK64 = (1 << 64) - 1


class Family(enum.Enum):
    FBM = "fbm"
    BM = "bm"
    ROSENBLATT = "rosenblatt"


@dataclass(frozen=True)
class ProcessSpec:
    """Parameters identifying the law and discretisation of one process.

    Attributes
    ----------
    family : Family
        Which process to sample.
    hurst : float
        Self-similarity index H in (0, 1).  BM pins it to 1/2 and the
        Rosenblatt process requires H in (1/2, 1).
    horizon : float
        Right end T_max of the simulation interval [0, T_max].
    grid_size : int
        Number n of time steps; paths carry n + 1 values.
    micro_factor : int
        Rosenblatt only: micro-lattice refinement per output step.
    """

    family: Family
    hurst: float
    horizon: float
    grid_size: int
    micro_factor: int = 16

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise ValueError(f"family must be a Family member, got {self.family!r}")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.family is Family.BM and self.hurst != 0.5:
            raise ValueError("BM requires hurst = 0.5")
        if self.family is Family.ROSENBLATT and not 0.5 < self.hurst < 1.0:
            raise ValueError("the Rosenblatt process requires hurst in (1/2, 1)")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be at least 1, got {self.grid_size}")
        if self.micro_factor < 1:
            raise ValueError(f"micro_factor must be at least 1, got {self.micro_factor}")

    @property
    def delta(self) -> float:
        """Grid step T_max / n."""
        return self.horizon / self.grid_size


@dataclass
class SamplePath:
    """One realised path on the uniform grid k * delta, k = 0..n.

    ``values[0]`` is exactly 0.  ``calibration`` records the variance-matching
    constant applied by the Rosenblatt scheme (1.0 for the exact families).
    """

    spec: ProcessSpec
    seed: int
    values: np.ndarray
    calibration: float = 1.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or len(self.values) != self.spec.grid_size + 1:
            raise ValueError("values must be a 1-d array of length grid_size + 1")
        if self.values[0] != 0.0:
            raise ValueError("paths must start at zero")

    @property
    def delta(self) -> float:
        return self.spec.delta

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.spec.grid_size + 1) * self.spec.delta


def fbm_covariance(hurst: float, s: float, t: float) -> float:
    """Covariance of fractional Brownian motion at times s, t.

    Equals (|s|^2H + |t|^2H - |t - s|^2H) / 2 for a process normalised to
    unit variance at time 1.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    two_h = 2.0 * hurst
    return 0.5 * (abs(s) ** two_h + abs(t) ** two_h - abs(t - s) ** two_h)


def fgn_covariance(hurst: float, k: int) -> float:
    """Autocovariance of unit-spacing fractional Gaussian noise at lag k."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    two_h = 2.0 * hurst
    k = abs(k)
    return 0.5 * (abs(k + 1) ** two_h - 2.0 * k**two_h + abs(k - 1) ** two_h)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """Per-path seed derived from a master seed by avalanche mixing.

    Every finalisation step of the SplitMix mix is a bijection on 64-bit
    words, so for a fixed master seed the map index -> seed is injective as
    long as fewer than 2^64 indices are used.
    """
    if path_index < 0:
        raise ValueError("path_index must be non-negative")
    return _splitmix64((_splitmix64(master_seed & _MASK64) + path_index) & _MASK64)


# ---------------------------------------------------------------------------
# circulant embedding machinery
# ---------------------------------------------------------------------------

# (kind, hurst, n) -> (m, roots of the eigenvalues at nodes 0..m/2); shared
# across paths of one run.
_EIG_CACHE: dict[tuple, tuple[int, np.ndarray]] = {}

# per-thread synthesis buffers for the last m drawn: the normals, which the
# synthesised sequence then overwrites, and the half spectrum
_BUFFERS = threading.local()


def _embedding_size(n: int) -> int:
    """Smallest power of two >= 2 (n - 1), at least 2."""
    return 1 << max(1, int(math.ceil(math.log2(max(2, 2 * (n - 1))))))


def _circulant_sqrt_eig(m: int, acov_at) -> np.ndarray:
    """Eigenvalue square roots of the circulant embedding of a covariance.

    ``acov_at(lags)`` gives the autocovariance at the lags 0..m/2 (a float
    array) as a new array.  It is written with its mirror into the real
    part of one zeroed complex row of length m, which the FFT then
    transforms in place; the lags and the covariance are dropped before
    the transform, so the row is the only array of size m alive during
    it.  Raises if any of the m eigenvalues is negative beyond rounding
    noise.  The spectrum of a symmetric row is symmetric, so only the
    roots at nodes 0..m/2 are returned.
    """
    half = m // 2
    lags = np.arange(half + 1, dtype=np.float64)
    acov = acov_at(lags)
    del lags
    row = np.zeros(m, dtype=np.complex128)
    row.real[: half + 1] = acov
    row.real[half + 1 :] = acov[-2:0:-1]
    del acov
    np.fft.fft(row, out=row)
    lam = row.real
    lam_max = lam.max()
    if lam.min() < -NEG_EIG_TOL * lam_max:
        raise RuntimeError(
            f"circulant embedding is not non-negative definite "
            f"(min eigenvalue {lam.min():.3e}, max {lam_max:.3e})"
        )
    lam = lam[: half + 1]
    np.clip(lam, 0.0, None, out=lam)
    return np.sqrt(lam)


def _buffers(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The calling thread's buffers for embedding size m.

    One pair per thread, made anew when m changes: a run draws a single m,
    and a thread keeps no buffers for sizes it no longer draws.
    """
    slot = getattr(_BUFFERS, "slot", None)
    if slot is None or slot[0].size != m:
        slot = _BUFFERS.slot = (np.empty(m), np.empty(m // 2 + 1, dtype=np.complex128))
    return slot


def _stationary_gaussian(n: int, sqrt_lam: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values of the stationary Gaussian sequence fixed by sqrt_lam.

    ``sqrt_lam`` holds the eigenvalue roots at the nodes 0..m/2 of the
    length-m circulant embedding.  Synthesis is on the half spectrum: a
    standard normal is put on each node (real at node 0 and at the Nyquist
    node m/2, complex with variance 1/2 per part in between), shaped by the
    roots and taken back with a real inverse FFT.  The node values mirror
    to a Hermitian spectrum, so this is the full-spectrum complex synthesis
    without its redundant half.  The draw order (one block of m standard
    normals: node 0, the Nyquist node, then the real parts at nodes
    1..m/2-1, then their imaginary parts) is part of the reproducibility
    contract and must not be reordered.  At H = 1/2 ``sample_fbm`` does not
    come here: its draw is one block of n standard normals, the increments
    in time order.

    The result is a view into a buffer of the calling thread that the next
    call with the same m overwrites: use it, or copy it, before drawing
    again on the same thread.
    """
    half = m // 2
    w, spectrum = _buffers(m)
    rng.standard_normal(out=w)
    spectrum[0] = w[0] * sqrt_lam[0]
    spectrum[half] = w[1] * sqrt_lam[half]
    np.multiply(w[2 : half + 1], sqrt_lam[1:half], out=spectrum.real[1:half])
    np.multiply(w[half + 1 :], sqrt_lam[1:half], out=spectrum.imag[1:half])
    spectrum[1:half] *= math.sqrt(0.5)
    # the orthonormal inverse scales by 1/sqrt(m): the 1/m of the inverse
    # times the sqrt(m) that gives the sequence unit-scaled covariance
    np.fft.irfft(spectrum, m, norm="ortho", out=w)
    return w[:n]


def _fgn_sqrt_eig(hurst: float, n: int) -> tuple[int, np.ndarray]:
    key = ("fgn", hurst, n)
    hit = _EIG_CACHE.get(key)
    if hit is not None:
        return hit
    m = _embedding_size(n)
    two_h = 2.0 * hurst

    def acov_at(lags):
        return 0.5 * (np.abs(lags + 1) ** two_h - 2.0 * lags**two_h + np.abs(lags - 1) ** two_h)

    out = (m, _circulant_sqrt_eig(m, acov_at))
    _EIG_CACHE[key] = out
    return out


def _rosenblatt_sqrt_eig(hurst: float, n: int) -> tuple[int, np.ndarray]:
    key = ("ros", hurst, n)
    hit = _EIG_CACHE.get(key)
    if hit is not None:
        return hit
    m = _embedding_size(n)
    out = (m, _circulant_sqrt_eig(m, lambda lags: (1.0 + lags) ** (-(1.0 - hurst))))
    _EIG_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample_fbm(spec: ProcessSpec, seed: int) -> SamplePath:
    """Exact fractional (or plain) Brownian motion path.

    Unit-variance fractional Gaussian noise is drawn through the circulant
    embedding, scaled by delta^H and cumulated.  The embedding reproduces the
    target covariance exactly, so each path is a draw from the true
    finite-dimensional law on the grid.

    At H = 1/2 the noise is white: its autocovariance is (1, 0, 0, ...) and
    every eigenvalue of the embedding is exactly 1, so the n increments are
    drawn as n standard normals, straight into the path, for FBM and BM
    alike.
    """
    if spec.family not in (Family.FBM, Family.BM):
        raise ValueError(f"sample_fbm handles FBM and BM, got {spec.family}")
    n = spec.grid_size
    rng = np.random.default_rng(seed)
    values = np.empty(n + 1, dtype=np.float64)
    values[0] = 0.0
    if spec.hurst == 0.5:
        increments = values[1:]
        rng.standard_normal(out=increments)
    else:
        m, sqrt_lam = _fgn_sqrt_eig(spec.hurst, n)
        increments = _stationary_gaussian(n, sqrt_lam, m, rng)
    increments *= spec.delta**spec.hurst
    np.cumsum(increments, out=values[1:])
    return SamplePath(spec=spec, seed=seed, values=values)


_CALIB_CACHE: dict[tuple[float, int], float] = {}


def rosenblatt_calibration(hurst: float, micro_points: int) -> float:
    """Variance-matching constant of the Hermite-rank-2 lattice scheme.

    The raw statistic S = N^-H sum_{i<N} (xi_i^2 - 1) built from a Gaussian
    sequence with autocovariance rho(k) = (1 + k)^-(1-H) has second moment

        Var S = 2 N^-2H sum_{|k| < N} (N - |k|) rho(k)^2,

    available in closed form, so the constant 1 / sqrt(Var S) that enforces
    unit variance at t = 1 is computed exactly rather than estimated.  It
    depends on the total micro-lattice size N, and is cached per (H, N).
    """
    key = (hurst, micro_points)
    hit = _CALIB_CACHE.get(key)
    if hit is not None:
        return hit
    k = np.arange(micro_points, dtype=np.float64)
    rho2 = (1.0 + k) ** (-2.0 * (1.0 - hurst))
    weights = micro_points - k
    var_raw = 2.0 * (weights[0] * rho2[0] + 2.0 * np.sum(weights[1:] * rho2[1:]))
    out = 1.0 / math.sqrt(var_raw / micro_points ** (2.0 * hurst))
    _CALIB_CACHE[key] = out
    return out


def sample_rosenblatt(spec: ProcessSpec, seed: int) -> SamplePath:
    """Approximate Rosenblatt path via quadratic partial sums.

    A long-memory standard Gaussian sequence xi with autocovariance
    rho(k) = (1 + k)^-(1-H) is drawn on the micro-lattice of
    N = grid_size * micro_factor points, the centred squares xi^2 - 1 are
    cumulated, and every micro_factor-th partial sum is kept.  Normalising by
    N^H and the exact calibration constant gives unit variance at t = 1;
    horizon^H rescales to the requested interval.  The scheme converges to
    the Rosenblatt law as the micro-lattice refines but carries finite-N
    bias, which is why downstream tolerances for this family are wider.
    """
    if spec.family is not Family.ROSENBLATT:
        raise ValueError(f"sample_rosenblatt handles ROSENBLATT, got {spec.family}")
    n = spec.grid_size
    total = n * spec.micro_factor
    m, sqrt_lam = _rosenblatt_sqrt_eig(spec.hurst, total)
    rng = np.random.default_rng(seed)
    xi = _stationary_gaussian(total, sqrt_lam, m, rng)
    np.multiply(xi, xi, out=xi)
    xi -= 1.0
    partial = np.cumsum(xi, out=xi)
    calib = rosenblatt_calibration(spec.hurst, total)
    scale = spec.horizon**spec.hurst * calib / total**spec.hurst
    values = np.empty(n + 1, dtype=np.float64)
    values[0] = 0.0
    np.multiply(partial[spec.micro_factor - 1 :: spec.micro_factor], scale, out=values[1:])
    return SamplePath(spec=spec, seed=seed, values=values, calibration=calib)


def sample(spec: ProcessSpec, seed: int) -> SamplePath:
    """Dispatch to the sampler for spec.family."""
    if spec.family is Family.ROSENBLATT:
        return sample_rosenblatt(spec, seed)
    return sample_fbm(spec, seed)
