"""Property tests of the per-path kernels that the library and the driver share.

Profiles are drawn as cumulative sums of random non-negative increments,
horizons as grid multiples, thresholds either at random or at a value the
profile takes, where the event's non-strict inequality matters.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroset import (
    Family,
    LocalTimeProfile,
    ProcessSpec,
    SamplePath,
    inverse_time,
    invert_profile,
    max_persistence_indicator,
    persistence_indicator,
)

# few examples, fixed draws: the suite stays fast and reproducible
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

_deltas = st.floats(min_value=1e-3, max_value=4.0)
_increments = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
    min_size=1, max_size=300,
)


def _profile(delta, increments) -> LocalTimeProfile:
    cumulative = np.concatenate([[0.0], np.cumsum(increments)])
    return LocalTimeProfile(path_ref=0, epsilon=0.5, delta=delta, cumulative=cumulative)


@st.composite
def _profile_horizons_threshold(draw):
    profile = _profile(draw(_deltas), draw(_increments))
    n = profile.grid_size
    steps = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=12))
    a = draw(st.one_of(
        st.floats(min_value=1e-6, max_value=1.5 * profile.total_mass + 1.0),
        st.sampled_from(profile.cumulative[profile.cumulative > 0.0].tolist() or [1.0]),
    ))
    return profile, np.asarray(steps) * profile.delta, a


@_SETTINGS
@given(_profile_horizons_threshold())
def test_persistence_indicator_array_form(case):
    profile, T, a = case
    events = persistence_indicator(profile, T, a)
    assert events.shape == T.shape and events.dtype == bool
    assert events.tolist() == [persistence_indicator(profile, float(t), a) for t in T]
    assert events.tolist() == [inverse_time(profile, a) > t for t in T]


@_SETTINGS
@given(
    _deltas,
    st.lists(
        st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.just(1.0)),
        min_size=1, max_size=200,
    ),
    st.data(),
)
def test_max_persistence_indicator_array_form(delta, tail, data):
    n = len(tail)
    spec = ProcessSpec(family=Family.FBM, hurst=0.5, horizon=n * delta, grid_size=n)
    path = SamplePath(spec=spec, seed=0, values=[0.0, *tail])
    steps = data.draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=12))
    events = max_persistence_indicator(path, np.asarray(steps) * delta)
    assert events.dtype == bool
    assert events.tolist() == [bool(np.max(path.values[: k + 1]) <= 1.0) for k in steps]


@_SETTINGS
@given(_deltas, _increments, st.integers(min_value=1, max_value=4))
def test_invert_profile_balances_time(delta, increments, min_jump_steps):
    profile = _profile(delta, increments)
    occupied = np.flatnonzero(np.diff(profile.cumulative) > 0.0)
    L = invert_profile(profile, min_jump_steps)
    if len(occupied) == 0:
        assert L.n_jumps == 0 and L.total_mass_cap == 0.0
        return
    t_last = (occupied[-1] + 1) * delta
    balance = np.sum(L.sizes) + L.drift * profile.total_mass
    assert abs(balance - t_last) <= 1e-12 * t_last


@_SETTINGS
@given(
    _deltas,
    _increments,
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=50),
)
def test_jump_function_evaluate_is_non_decreasing(delta, increments, fractions):
    L = invert_profile(_profile(delta, increments))
    x = np.sort(fractions) * L.total_mass_cap
    values = L.evaluate(x)
    assert np.all(np.diff(values) >= 0.0)
    assert values.tolist() == [L.evaluate(float(v)) for v in x]


def _invert_profile_loop(profile, min_jump_steps):
    """The per-jump loop that ``invert_profile`` replaced, kept as its reference."""
    increments = np.diff(profile.cumulative)
    occupied = np.flatnonzero(increments > 0.0)
    if len(occupied) == 0:
        return np.asarray([]), np.asarray([]), 0.0, 0.0
    delta = profile.delta
    t_last = (occupied[-1] + 1) * delta
    gaps = np.diff(occupied) - 1
    lead = int(occupied[0])
    locations, sizes = [], []
    if lead >= min_jump_steps:
        locations.append(0.0)
        sizes.append(lead * delta)
    for j in np.flatnonzero(gaps >= min_jump_steps):
        locations.append(float(profile.cumulative[occupied[j] + 1]))
        sizes.append(float(gaps[j] * delta))
    drift = max(0.0, (t_last - float(np.sum(sizes))) / profile.total_mass)
    return np.asarray(locations), np.asarray(sizes), drift, profile.total_mass


@_SETTINGS
@given(
    _deltas,
    st.integers(min_value=0, max_value=6),
    st.one_of(_increments, st.lists(st.just(0.0), min_size=1, max_size=20)),
    st.integers(min_value=1, max_value=4),
)
@example(0.5, 0, [0.0, 0.0, 0.0], 1)  # never visited
@example(0.5, 3, [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], 2)  # leading stretch kept
@example(0.5, 1, [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], 2)  # leading stretch folded
def test_invert_profile_matches_the_loop(delta, lead, body, min_jump_steps):
    profile = _profile(delta, [0.0] * lead + body)
    locations, sizes, drift, cap = _invert_profile_loop(profile, min_jump_steps)
    L = invert_profile(profile, min_jump_steps)
    assert L.locations.dtype == L.sizes.dtype == np.float64
    assert L.locations.tobytes() == locations.tobytes()
    assert L.sizes.tobytes() == sizes.tobytes()
    assert L.drift == drift and L.total_mass_cap == cap
