"""Distributional invariance checks for the simulated local-time objects.

Each check reduces a structural property (stationary increments of the
inverse, self-similarity of the profile, bi-scale invariance of the point
process) to a two-sample Kolmogorov-Smirnov comparison between statistics
drawn from disjoint halves of an ensemble.  Splitting the ensemble keeps
the two samples independent, which the KS null distribution requires;
statistics from the same path would be strongly dependent.

Each test is split in two.  A per-path function reduces one path to its
statistics (``self_similarity_masses``, ``stationarity_increments``; the
bi-scale counts come from ``MarkedPointSet.count`` and ``rescale_empp``),
and a ``*_from_values`` function compares the ensemble's statistics.  The
object-level tests chain the two; the experiment driver calls the same
per-path functions on every path and feeds its columns to the same
``*_from_values`` functions.  Exclusion of paths that lack the required
local-time mass happens before the ensemble is split, so both halves face
the same selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kolmogorov import ks_2samp_asymp
from .errors import InsufficientMassError
from .localtime import JumpBlock, JumpFunction, LocalTimeProfile
from .pointprocess import MarkedPointSet, rescale_empp

__all__ = [
    "TestReport",
    "ks_two_sample",
    "self_similarity_masses",
    "stationarity_increments",
    "stationarity_test_from_values",
    "self_similarity_test_from_values",
    "bi_scale_test_from_counts",
    "stationarity_test",
    "self_similarity_test",
    "bi_scale_test",
    "bonferroni",
]

REJECT_LEVEL = 0.01
MAX_EXCLUDED_FRACTION = 0.2


@dataclass
class TestReport:
    """Outcome of one two-sample comparison."""

    __test__ = False  # not a pytest item, despite the name

    name: str
    statistic: float
    p_value: float
    n1: int
    n2: int
    reject_at_01: bool


def ks_two_sample(a, b, name: str = "two-sample-ks") -> TestReport:
    """Two-sample KS test with the two-sided p-value of the Kolmogorov law.

    The p-value is that of ``scipy.stats.ks_2samp(method="asymp")``: the
    finite-n Kolmogorov survival function at n = round(n1 n2 / (n1 + n2)).
    Identical samples give statistic 0 and p-value 1; disjoint supports give
    statistic 1.  One value per sample rounds n to 0, where the law is
    undefined, so that split is an error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    if len(a) == 1 and len(b) == 1:
        raise ValueError("one value per sample gives no KS p-value")
    statistic, pvalue = ks_2samp_asymp(a, b)
    p = min(float(pvalue), 1.0)
    return TestReport(
        name=name,
        statistic=float(statistic),
        p_value=p,
        n1=len(a),
        n2=len(b),
        reject_at_01=p < REJECT_LEVEL,
    )


def _filter_and_split(valid: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the two ensemble halves after mass exclusion."""
    total = len(valid)
    if total == 0:
        raise ValueError("empty ensemble")
    kept = np.flatnonzero(valid)
    excluded = total - len(kept)
    if excluded > MAX_EXCLUDED_FRACTION * total:
        raise InsufficientMassError(
            f"{excluded} of {total} paths excluded ({what}); "
            f"allowed fraction is {MAX_EXCLUDED_FRACTION}"
        )
    first, second = kept[0::2], kept[1::2]
    if len(first) == 0 or len(second) == 0:
        raise ValueError("ensemble too small to split into halves")
    return first, second


def self_similarity_masses(profile: LocalTimeProfile, r: float) -> tuple[float, float]:
    """Profile mass at r * T_max and at T_max, the pair self-similarity relates."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    return float(profile.mass_at(int(round(r * profile.grid_size)))), profile.total_mass


def stationarity_increments(L: JumpFunction | Sequence[JumpFunction], x0: float, h: float):
    """(L(x0 + h) - L(x0), L(x0 + 2h) - L(x0 + h)) for one path.

    None when the path's mass cap stops below the top level, so that it
    cannot supply both increments.  A sequence of jump functions gives a
    (k, 2) array of the pairs, with a row of NaN for each path that cannot
    supply them.
    """
    if not x0 >= 0.0:
        raise ValueError(f"x0 must be non-negative, got {x0}")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    top = x0 + 2.0 * h
    block = JumpBlock(L)
    levels = np.array([x0, x0 + h, top])
    path = np.flatnonzero(block.caps >= top)
    values = block.values(path[:, None], levels, block.ranks(levels)[path])
    pairs = np.full((len(block), 2), np.nan)
    pairs[path] = values[:, 1:] - values[:, :-1]
    if block.single:
        return tuple(pairs[0].tolist()) if len(path) else None
    return pairs


def stationarity_test_from_values(
    increments: np.ndarray, references: np.ndarray, valid: np.ndarray
) -> TestReport:
    """KS of the tested increments (first half) vs the references (second half)."""
    increments = np.asarray(increments, dtype=np.float64)
    references = np.asarray(references, dtype=np.float64)
    first, second = _filter_and_split(np.asarray(valid, dtype=bool), "insufficient mass")
    return ks_two_sample(
        increments[first], references[second], name="L-increment-stationarity"
    )


def self_similarity_test_from_values(
    short_mass: np.ndarray, terminal_mass: np.ndarray, r: float, hurst: float
) -> TestReport:
    """KS of profile mass at r * T_max vs r^(1-H) * mass at T_max."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if hurst >= 1.0:
        raise ValueError(f"hurst hypothesis must be below 1, got {hurst}")
    short_mass = np.asarray(short_mass, dtype=np.float64)
    terminal_mass = np.asarray(terminal_mass, dtype=np.float64)
    valid = np.ones(len(short_mass), dtype=bool)
    first, second = _filter_and_split(valid, "no exclusion")
    return ks_two_sample(
        short_mass[first],
        r ** (1.0 - hurst) * terminal_mass[second],
        name="profile-self-similarity",
    )


def bi_scale_test_from_counts(
    raw_counts: np.ndarray, scaled_counts: np.ndarray, valid: np.ndarray
) -> TestReport:
    """KS of raw exceedance counts vs counts after bi-scale rescaling."""
    raw_counts = np.asarray(raw_counts, dtype=np.float64)
    scaled_counts = np.asarray(scaled_counts, dtype=np.float64)
    first, second = _filter_and_split(np.asarray(valid, dtype=bool), "window not covered")
    return ks_two_sample(
        raw_counts[first], scaled_counts[second], name="empp-bi-scale-invariance"
    )


def stationarity_test(
    L_ensemble: Sequence[JumpFunction], x0: float, h: float
) -> TestReport:
    """KS comparison of {L(x0 + h) - L(x0)} against {L(x0 + 2h) - L(x0 + h)}.

    Stationary increments of the inverse local time make adjacent interior
    increments equal in law.  Both windows sit away from zero because the
    path is pinned at an atypical zero there: L(0) carries the censored
    leading stretch, and for correlated increments the first excursions out
    of a pinned origin are systematically shorter than their stationary
    counterparts.  Paths that cannot supply both increments (see
    ``stationarity_increments``) are excluded before the split; more than
    MAX_EXCLUDED_FRACTION exclusions abort the test as unanswerable.
    """
    pairs = stationarity_increments(L_ensemble, x0, h)
    return stationarity_test_from_values(pairs[:, 0], pairs[:, 1], ~np.isnan(pairs[:, 0]))


def self_similarity_test(
    profile_ensemble: Sequence[LocalTimeProfile], r: float, hurst: float
) -> TestReport:
    """KS comparison of profile mass at r * T_max against the rescaled mass.

    (1 - H)-self-similarity of the local time equates the law of
    cumulative(r T_max) with r^(1-H) * cumulative(T_max).  One half of the
    ensemble supplies the left side, the other half the right side.  The
    hurst argument is the hypothesis under test, so deliberately wrong
    values are legitimate inputs (power checks).
    """
    if len(profile_ensemble) == 0:
        raise ValueError("empty ensemble")
    short, terminal = np.array(
        [self_similarity_masses(p, r) for p in profile_ensemble]
    ).T
    return self_similarity_test_from_values(short, terminal, r, hurst)


def bi_scale_test(
    empp_ensemble: Sequence[MarkedPointSet],
    r: float,
    hurst: float,
    m0: float,
    x_window: float = 1.0,
    beta: float | None = None,
    resolution_floor: float | None = None,
) -> TestReport:
    """KS comparison of exceedance counts before and after bi-scale rescaling.

    The statistic per path is the number of points with level in
    (0, x_window] and mark above m0.  With beta = 1 / (1 - hurst) (the
    default) the rescaled point process is invariant in law, so counts from
    rescaled sets on one half of the ensemble match raw counts on the other
    half.  Passing a different beta turns the test into a power check.

    When ``resolution_floor`` is given, the mark threshold that the
    rescaled count implies in original units, m0 * r^beta, must stay above
    it; otherwise the comparison would silently involve marks the
    discretised inverse cannot represent.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if hurst >= 1.0:
        raise ValueError(f"hurst hypothesis must be below 1, got {hurst}")
    if not m0 > 0.0:
        raise ValueError(f"m0 must be positive, got {m0}")
    if not x_window > 0.0:
        raise ValueError(f"x_window must be positive, got {x_window}")
    if beta is None:
        beta = 1.0 / (1.0 - hurst)
    if resolution_floor is not None and m0 * r**beta < resolution_floor:
        raise ValueError(
            f"rescaled mark threshold {m0 * r ** beta:.3g} sits below the "
            f"resolution floor {resolution_floor:.3g}; increase m0"
        )
    valid = np.array([P.window[1] >= x_window for P in empp_ensemble], dtype=bool)
    raw = np.array(
        [P.count(x_window, m0) if ok else 0 for P, ok in zip(empp_ensemble, valid)],
        dtype=np.float64,
    )
    scaled = np.array(
        [rescale_empp(P, r, beta).count(x_window, m0) if ok else 0
         for P, ok in zip(empp_ensemble, valid)],
        dtype=np.float64,
    )
    return bi_scale_test_from_counts(raw, scaled, valid)


def bonferroni(reports: Sequence[TestReport], level: float = REJECT_LEVEL) -> list[bool]:
    """Family-wise rejection flags at the Bonferroni-corrected level."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    k = len(reports)
    return [rep.p_value < level / k for rep in reports]
