"""Property tests of the per-path kernels that the library and the driver share.

Profiles are drawn as cumulative sums of random non-negative increments,
horizons as grid multiples, thresholds either at random or at a value the
profile takes, where the event's non-strict inequality matters.  Configs
are drawn over every key of the schema.
"""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from zeroset import (
    ExperimentConfig,
    Family,
    JumpFunction,
    LocalTimeProfile,
    ProcessSpec,
    SamplePath,
    atom_diagnostic,
    estimate_local_time,
    inverse_time,
    invert_profile,
    max_persistence_indicator,
    persistence_indicator,
    sample,
    support_diagnostic,
)
from zeroset.errors import ConfigError, InsufficientDataError
from zeroset.invariance import self_similarity_masses, stationarity_increments
from zeroset.orchestration import (
    HILL_FLOOR_MULTIPLE,
    MAX_GRID_SIZE,
    MAX_LATTICE_POINTS,
    MAX_N_PATHS,
    MAX_WORKERS,
    _compute_block,
)
from zeroset.pointprocess import (
    MarkedPointSet,
    count_heavy_subintervals,
    hill_tail_index,
    jumps_to_empp,
    rescale_empp,
    window_exceedance_counts,
)

# few examples, fixed draws: the suite stays fast and reproducible
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

_deltas = st.floats(min_value=1e-3, max_value=4.0)
_increments = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
    min_size=1, max_size=300,
)


def _cumulative(increments) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(increments)])


def _profile(delta, increments) -> LocalTimeProfile:
    cumulative = _cumulative(increments)
    return LocalTimeProfile.from_cumulative(
        path_ref=0, epsilon=0.5, delta=delta, cumulative=cumulative)


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


def _invert_profile_loop(cumulative, delta, min_jump_steps):
    """The per-jump loop that ``invert_profile`` replaced, on the profile's
    value at every grid point; kept as its reference."""
    increments = np.diff(cumulative)
    occupied = np.flatnonzero(increments > 0.0)
    if len(occupied) == 0:
        return np.asarray([]), np.asarray([]), 0.0, 0.0
    t_last = (occupied[-1] + 1) * delta
    gaps = np.diff(occupied) - 1
    lead = int(occupied[0])
    locations, sizes = [], []
    if lead >= min_jump_steps:
        locations.append(0.0)
        sizes.append(lead * delta)
    for j in np.flatnonzero(gaps >= min_jump_steps):
        locations.append(float(cumulative[occupied[j] + 1]))
        sizes.append(float(gaps[j] * delta))
    total_mass = float(cumulative[-1])
    drift = max(0.0, (t_last - float(np.sum(sizes))) / total_mass)
    return np.asarray(locations), np.asarray(sizes), drift, total_mass


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
    increments = [0.0] * lead + body
    profile = _profile(delta, increments)
    locations, sizes, drift, cap = _invert_profile_loop(
        _cumulative(increments), delta, min_jump_steps)
    L = invert_profile(profile, min_jump_steps)
    assert L.locations.dtype == L.sizes.dtype == np.float64
    assert L.locations.tobytes() == locations.tobytes()
    assert L.sizes.tobytes() == sizes.tobytes()
    assert L.drift == drift and L.total_mass_cap == cap


def _dense_inverse_time(cumulative, delta, x):
    idx = int(np.searchsorted(cumulative, x, side="right"))
    return float("inf") if idx == len(cumulative) else idx * delta


def _bits(x):
    return np.asarray(x).dtype.str, np.asarray(x).tobytes()


def _assert_matches_dense(profile, cumulative, steps, thresholds, r_values):
    """Every reader of the sparse profile against the dense reference, bit for bit.

    ``cumulative`` is the profile's value at every grid point, as the
    profile was stored before it became sparse.
    """
    delta, n = profile.delta, profile.grid_size
    assert n == len(cumulative) - 1
    assert _bits(profile.cumulative) == _bits(cumulative)
    assert _bits(profile.total_mass) == _bits(float(cumulative[-1]))
    assert _bits(atom_diagnostic(profile)) == _bits(float(np.max(np.diff(cumulative))))
    assert _bits(support_diagnostic(profile)) == _bits(float(np.mean(np.diff(cumulative) > 0.0)))
    T = np.asarray(steps) * delta
    for a in thresholds:
        assert persistence_indicator(profile, T, a).tolist() == (cumulative[steps] <= a).tolist()
    for x in [*thresholds, -1.0, 0.0]:
        assert _bits(inverse_time(profile, x)) == _bits(_dense_inverse_time(cumulative, delta, x))
    for r in r_values:
        dense = (float(cumulative[int(round(r * n))]), float(cumulative[-1]))
        assert _bits(self_similarity_masses(profile, r)) == _bits(dense)
    for min_jump_steps in (1, 2, 3):
        L = invert_profile(profile, min_jump_steps)
        locations, sizes, drift, cap = _invert_profile_loop(cumulative, delta, min_jump_steps)
        assert _bits(L.locations) == _bits(locations) and _bits(L.sizes) == _bits(sizes)
        assert _bits(L.drift) == _bits(drift) and _bits(L.total_mass_cap) == _bits(cap)


@_SETTINGS
@given(_deltas, _increments, st.data())
def test_sparse_profile_matches_the_dense_reference(delta, increments, data):
    cumulative = _cumulative(increments)
    profile = _profile(delta, increments)
    n = profile.grid_size
    steps = data.draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=12))
    thresholds = data.draw(st.lists(
        st.one_of(
            st.floats(min_value=1e-6, max_value=1.5 * profile.total_mass + 1.0),
            st.sampled_from(cumulative[cumulative > 0.0].tolist() or [1.0]),
        ),
        min_size=1, max_size=6,
    ))
    r_values = data.draw(st.lists(st.floats(min_value=1e-3, max_value=0.999), max_size=4))
    _assert_matches_dense(profile, cumulative, steps, thresholds, r_values)


@pytest.mark.parametrize(
    "family, hurst", [(Family.FBM, 0.3), (Family.BM, 0.5), (Family.ROSENBLATT, 0.75)]
)
def test_sampled_profiles_match_the_dense_reference(family, hurst):
    n = 2**12
    spec = ProcessSpec(family=family, hurst=hurst, horizon=64.0, grid_size=n)
    for seed in (3, 4):
        path = sample(spec, seed)
        profile = estimate_local_time(path)
        # the profile as a running sum over every cell
        hits = np.abs(path.values[1:]) < profile.epsilon
        quantum = profile.delta / (2.0 * profile.epsilon)
        cumulative = np.concatenate([[0.0], np.cumsum(quantum * hits)])
        assert len(profile.occupied) > 0
        steps = [1, 7, 100, 1000, 2048, n - 1, n]
        thresholds = [0.25, 1.0, 4.0, *cumulative[profile.occupied[::37] + 1]]
        _assert_matches_dense(profile, cumulative, steps, thresholds, [0.25, 0.5, 0.9])
        running_max = np.maximum.accumulate(path.values)
        T = np.asarray(steps[::-1]) * profile.delta
        expected = running_max[steps[::-1]] <= 1.0
        assert max_persistence_indicator(path, T).tolist() == expected.tolist()


@_SETTINGS
@given(st.data())
def test_window_exceedance_counts_match_a_brute_force_count(data):
    locations = sorted(set(data.draw(
        st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)), max_size=60)
    )))
    sizes = data.draw(st.lists(
        st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(min_value=1e-3, max_value=5.0)),
        min_size=len(locations), max_size=len(locations),
    ))
    L = JumpFunction(locations=locations, sizes=sizes, drift=0.0, total_mass_cap=11.0)
    # the window's right end and the thresholds also fall on a jump, where
    # the inclusive level bound and the strict size bound matter
    x_window = data.draw(st.one_of(
        st.floats(min_value=1e-3, max_value=12.0),
        st.sampled_from([x for x in locations if x > 0.0] or [1.0]),
    ))
    thresholds = data.draw(st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=6.0), st.sampled_from(sizes or [1.0])),
        max_size=8,
    ))
    counts = window_exceedance_counts(L, x_window, thresholds)
    brute = [
        sum(1 for x, m in zip(locations, sizes) if 0.0 < x <= x_window and m > t)
        for t in thresholds
    ]
    assert counts.dtype == np.int64 and counts.tolist() == brute


def _dense_heavy_count(L, n, r):
    """The heavy-subinterval count over the full level grid: the reference."""
    return int(np.count_nonzero(np.diff(L.evaluate(np.arange(n + 1, dtype=np.float64) / n)) > r))


_subdivisions = st.one_of(st.integers(min_value=1, max_value=8), st.sampled_from([1024, 4096]))


@st.composite
def _jump_functions_on_the_unit_interval(draw):
    """Jumps anywhere in [0, 1.5], at level 0 and on grid points k/n, and
    drifts up to 50, so that 2 drift / n reaches the threshold for small n."""
    n = draw(_subdivisions)
    locations = sorted(set(draw(st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1.5),
            st.integers(min_value=0, max_value=2 * n).map(lambda k: k / n),
        ),
        max_size=40,
    ))))
    sizes = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0),
                          min_size=len(locations), max_size=len(locations)))
    drift = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)))
    cap = max([1.0, *locations])
    return JumpFunction(locations=locations, sizes=sizes, drift=drift, total_mass_cap=cap)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_jump_functions_on_the_unit_interval(), st.lists(_subdivisions, min_size=1, max_size=4),
       st.data())
def test_count_heavy_subintervals_matches_the_dense_reference(L, ns, data):
    increments = np.diff(L.evaluate(np.arange(ns[0] + 1) / ns[0]))
    # thresholds at random, at an increment itself (where the strict bound
    # matters) and at the drift bound 2 drift / n that selects the candidates
    r = data.draw(st.one_of(
        st.floats(min_value=1e-6, max_value=20.0),
        st.sampled_from(increments[increments > 0.0].tolist() or [1.0]),
        st.sampled_from([2.0 * L.drift / n for n in ns if L.drift > 0.0] or [1.0]),
    ))
    dense = [_dense_heavy_count(L, n, r) for n in ns]
    counts = count_heavy_subintervals(L, ns, r)
    assert counts.dtype == np.int64 and counts.tolist() == dense
    assert [count_heavy_subintervals(L, n, r) for n in ns] == dense


@st.composite
def _ragged_blocks(draw):
    """Blocks of up to six jump functions as the driver forms them: empty
    paths, jumps at level 0 and on grid points k/n, drifts up to 50 (the
    dense heavy-count branch for small n), and mass caps on both sides of
    the window, of level 1 and of the stationarity levels."""
    n = draw(_subdivisions)
    block = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        locations = sorted(set(draw(st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=1.5),
                st.integers(min_value=0, max_value=2 * n).map(lambda k: k / n),
            ),
            max_size=12,
        ))))
        sizes = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0),
                              min_size=len(locations), max_size=len(locations)))
        drift = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)))
        cap = max([0.0, *locations]) + draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]))
        block.append(JumpFunction(locations=locations, sizes=sizes, drift=drift,
                                  total_mass_cap=cap))
    return n, block


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ragged_blocks(), st.data())
def test_block_calls_equal_a_loop_of_single_calls(case, data):
    n, block = case
    jump_levels = sorted({x for L in block for x in L.locations.tolist() if x > 0.0})
    x_window = data.draw(st.one_of(
        st.floats(min_value=1e-3, max_value=2.0), st.sampled_from(jump_levels or [1.0])))
    thresholds = data.draw(st.lists(st.floats(min_value=0.0, max_value=6.0), max_size=8))
    m0 = data.draw(st.floats(min_value=1e-3, max_value=6.0))
    r = data.draw(st.one_of(st.floats(min_value=1e-6, max_value=20.0),
                            st.sampled_from([2.0 * L.drift / n for L in block if L.drift > 0.0]
                                            or [1.0])))
    r_t = data.draw(st.floats(min_value=0.05, max_value=0.95))
    beta = data.draw(st.floats(min_value=1.0, max_value=10.0))
    x0 = data.draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)))
    h = data.draw(st.floats(min_value=1e-3, max_value=1.0))
    ns = [n, 2 * n]

    counts = window_exceedance_counts(block, x_window, thresholds)
    singles = [window_exceedance_counts(L, x_window, thresholds) for L in block]
    expected = np.array(singles, dtype=np.int64).reshape(len(block), len(thresholds))
    assert _same_bits(counts, expected)

    pairs = stationarity_increments(block, x0, h)
    singles = [stationarity_increments(L, x0, h) for L in block]
    expected = [(math.nan, math.nan) if p is None else p for p in singles]
    assert _same_bits(pairs, np.array(expected, dtype=np.float64).reshape(len(block), 2))

    covering = [L for L in block if L.total_mass_cap >= x_window]
    points = jumps_to_empp(covering, (0.0, x_window))
    singles = [jumps_to_empp(L, (0.0, x_window)) for L in covering]
    scaled = [rescale_empp(p, r_t, beta) for p in singles]
    for P, parts in ((points, singles), (rescale_empp(points, r_t, beta), scaled)):
        if parts:
            assert P.window == parts[0].window
        assert _same_bits(P.offsets, np.cumsum([0] + [p.n_points for p in parts]))
        assert _same_bits(P.locations, np.concatenate([p.locations for p in parts] or [[]]))
        assert _same_bits(P.marks, np.concatenate([p.marks for p in parts] or [[]]))
        assert _same_bits(P.count(x_window, m0),
                          np.array([p.count(x_window, m0) for p in parts], dtype=np.int64))

    units = [L for L in block if L.total_mass_cap >= 1.0]
    heavy = count_heavy_subintervals(units, ns, r)
    singles = [count_heavy_subintervals(L, ns, r) for L in units]
    assert _same_bits(heavy, np.array(singles, dtype=np.int64).reshape(len(units), 2))
    assert _same_bits(count_heavy_subintervals(units, n, r), heavy[:, 0])
    note(f"{len(block)} paths, {len(covering)} cover the window, {len(units)} reach 1")


@pytest.mark.parametrize(
    "family, hurst", [(Family.FBM, 0.3), (Family.BM, 0.5), (Family.ROSENBLATT, 0.75)]
)
def test_sampled_heavy_counts_match_the_dense_reference(family, hurst):
    spec = ProcessSpec(family=family, hurst=hurst, horizon=64.0, grid_size=2**12)
    ns = [1, 7, 1024, 4096]
    covered = 0
    for seed in range(12):
        L = invert_profile(estimate_local_time(sample(spec, seed)))
        if L.total_mass_cap < 1.0:
            continue
        covered += 1
        floor = 2.0 * spec.delta
        for r in (floor, 10.0 * floor, 0.3125, 1.0, *L.sizes[::5]):
            dense = [_dense_heavy_count(L, n, r) for n in ns]
            assert count_heavy_subintervals(L, ns, r).tolist() == dense
            assert [count_heavy_subintervals(L, n, r) for n in ns] == dense
    assert covered >= 3


@_SETTINGS
@given(
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=30, unique=True),
    st.data(),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1.0, max_value=10.0),
)
def test_rescale_group_law_holds_to_rounding(ticks, data, r1, r2, beta):
    locations = np.sort(np.asarray(ticks, dtype=np.float64)) / 10**6
    marks = data.draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                               min_size=len(ticks), max_size=len(ticks)))
    points = MarkedPointSet(locations=locations, marks=marks, window=(0.0, 1.0))
    two_step = rescale_empp(rescale_empp(points, r1, beta), r2, beta)
    one_step = rescale_empp(points, r1 * r2, beta)
    eps = np.finfo(np.float64).eps
    # two roundings per side for levels; for marks also the power, and beta
    # times the rounding of r1 * r2
    np.testing.assert_allclose(two_step.locations, one_step.locations, rtol=4 * eps, atol=0)
    np.testing.assert_allclose(two_step.window, one_step.window, rtol=4 * eps, atol=0)
    np.testing.assert_allclose(two_step.marks, one_step.marks, rtol=(8 + beta) * eps, atol=0)


_positive = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _raw_configs(draw):
    family = draw(st.sampled_from(["fbm", "bm", "rosenblatt"]))
    hurst = {
        "fbm": st.floats(min_value=0.01, max_value=0.99),
        "bm": st.just(0.5),
        "rosenblatt": st.floats(min_value=0.51, max_value=0.99),
    }[family]
    horizon = draw(_positive)
    fit_lo = draw(_positive)
    optional = {
        "epsilon": st.fixed_dictionaries({}, optional={
            "c": _positive, "exponent_is_hurst": st.booleans()}),
        "t_grid": st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=10)
        .map(lambda f: sorted({x * horizon for x in f})),
        "threshold": _positive,
        "fit_range": st.one_of(st.none(), _positive.map(lambda d: [fit_lo, fit_lo + d])),
        "analysis": st.fixed_dictionaries({}, optional={
            "mark_floor_factor": _positive,
            "hill_k": st.one_of(st.none(), st.integers(min_value=2, max_value=10**6)),
            "ratio_r": st.one_of(st.none(), _positive),
            "x_window": _positive,
            "m0": st.one_of(st.none(), _positive),
            "test_r": st.floats(min_value=1e-3, max_value=0.999),
            "test_x0": st.floats(min_value=0.0, max_value=1e3),
            "test_h": _positive,
            "heavy_subdivisions": st.lists(
                st.integers(min_value=1, max_value=2**16), min_size=2, max_size=2),
        }),
        "tests": st.lists(
            st.sampled_from(["self_similarity", "increment_stationarity", "bi_scale"]),
            unique=True),
        "workers": st.integers(min_value=1, max_value=64),
        "out_dir": st.one_of(st.none(), st.text(max_size=12)),
    }
    return {
        "schema_version": 1,
        "process": {
            "family": family, "hurst": draw(hurst), "horizon": horizon,
            "grid_size": draw(st.integers(min_value=1, max_value=2**20)),
            "micro_factor": draw(st.integers(min_value=1, max_value=64)),
        },
        "n_paths": draw(st.integers(min_value=1, max_value=10**6)),
        "master_seed": draw(st.integers(min_value=0, max_value=2**64 - 1)),
        **draw(st.fixed_dictionaries({}, optional=optional)),
    }


@_SETTINGS
@given(_raw_configs())
def test_config_round_trips_through_its_dict(raw):
    config = ExperimentConfig.from_dict(raw)
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


# Values that every config field must refuse with ConfigError, by field:
# wrong types, NaN, infinities (10**400 is a JSON integer that no float
# holds), booleans and values outside the field's range.  null is listed
# only where the field has no null meaning.
_WRONG_TYPES = ("1", [1.0], {"x": 1.0})
_NON_FINITE = (math.nan, math.inf, -math.inf, 10**400)
_BOOLS = (True, False)


def _bad_numbers(*out_of_range, nullable=False):
    return _WRONG_TYPES + _NON_FINITE + _BOOLS + out_of_range + (() if nullable else (None,))


def _bad_integers(*out_of_range, nullable=False):
    return _WRONG_TYPES + _NON_FINITE[:3] + _BOOLS + (1.5,) + out_of_range + (
        () if nullable else (None,))


_BAD_FIELDS = {
    ("schema_version",): _WRONG_TYPES + _NON_FINITE + _BOOLS + (None, 0, 2, 1.5),
    ("process",): ("x", [], None, 1.0, True),
    ("process", "family"): ("FBM", "gauss", "", None, 1, True, math.nan, ["fbm"]),
    ("process", "hurst"): _bad_numbers(0.0, 1.0, -0.5, 1.5),
    ("process", "horizon"): _bad_numbers(0.0, -1.0),
    ("process", "grid_size"): _bad_integers(0, -1, MAX_GRID_SIZE + 1, 10**400),
    ("process", "micro_factor"): _bad_integers(0, -1, MAX_LATTICE_POINTS + 1, 10**400),
    ("n_paths",): _bad_integers(0, -1, MAX_N_PATHS + 1, 10**30),
    ("master_seed",): _bad_integers(-1, 2**64, 10**400),
    ("epsilon",): ("x", [], None, 1.0, True),
    ("epsilon", "c"): _bad_numbers(0.0, -0.5),
    ("epsilon", "exponent_is_hurst"): (0, 1, 0.0, "true", None, math.nan, [True], {}),
    ("t_grid",): (5, 1.5, True, math.nan, "x", {"1": 1.0}, [], [2.0, 1.0], [1.0, 1.0])
    + tuple([bad] for bad in (math.nan, math.inf, 10**400, True, "1", None, -1.0, 0.0, 1e300)),
    ("threshold",): _bad_numbers(0.0, -1.0),
    ("fit_range",): ("x", 5, True, math.nan, {}, [1.0], [1.0, 2.0, 3.0])
    + tuple([bad, 2.0] for bad in (math.nan, math.inf, 10**400, True, "1", None))
    + ([1.0, math.inf], [2.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0]),
    ("analysis",): ("x", [], None, 1.0, True),
    ("analysis", "mark_floor_factor"): _bad_numbers(0.0, -1.0),
    ("analysis", "hill_k"): _bad_integers(1, 0, -5, nullable=True),
    ("analysis", "ratio_r"): _bad_numbers(0.0, -1.0, nullable=True),
    ("analysis", "x_window"): _bad_numbers(0.0, -1.0),
    ("analysis", "m0"): _bad_numbers(0.0, -1.0, nullable=True),
    ("analysis", "test_r"): _bad_numbers(0.0, 1.0, -0.5, 1.5),
    ("analysis", "test_x0"): _bad_numbers(-1e-3, -1.0),
    ("analysis", "test_h"): _bad_numbers(0.0, -1.0),
    ("analysis", "heavy_subdivisions"): (5, True, math.nan, None, "x", {"1": 1, "2": 2})
    + tuple([bad, 4] for bad in (0, -1, 1.5, math.nan, math.inf, True, "1", None))
    + ([4], [4, 4, 4], []),
    ("tests",): ("self_similarity", 5, True, math.nan, None, {})
    + (["nope"], [1], [True], [None], [["bi_scale"]], ["bi_scale", "bi_scale"]),
    ("workers",): _bad_integers(0, -1, MAX_WORKERS + 1, 1_000_000),
    ("out_dir",): (5, 1.5, True, math.nan, [], {}, ["run"]),
}


def test_bad_values_are_listed_for_every_config_field():
    """_BAD_FIELDS names each field's JSON path, each section and the schema
    version: a field declared without bad values fails here."""
    paths = {tuple(f.metadata["path"].split(".")) for f in fields(ExperimentConfig)}
    sections = {path[:1] for path in paths if len(path) > 1}
    assert set(_BAD_FIELDS) == paths | sections | {("schema_version",)}


@pytest.mark.parametrize("field", sorted(_BAD_FIELDS), ids=".".join)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(raw=_raw_configs())
def test_config_refuses_every_bad_field_value(field, raw):
    ExperimentConfig.from_dict(raw)
    *parents, key = field
    for bad in _BAD_FIELDS[field]:
        mutated = json.loads(json.dumps(raw))
        owner = mutated
        for name in parents:
            owner = owner.setdefault(name, {})
        owner[key] = bad
        note(f"{'.'.join(field)} = {bad!r}")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(mutated)


_POOL_RAW = {
    "schema_version": 1,
    "process": {"family": "bm", "hurst": 0.5, "horizon": 8.0, "grid_size": 64},
    "n_paths": 1,
    "master_seed": 1,
}


@st.composite
def _ragged_marks(draw):
    """The jump functions of a block of up to six paths, and the Hill floor
    tau of their config: empty paths, paths with no mark at or below tau,
    marks tied at tau and with each other, and a censored jump at level 0
    that stays out of the pool."""
    hill_k = draw(st.one_of(st.none(), st.integers(min_value=2, max_value=80)))
    config = ExperimentConfig.from_dict({**_POOL_RAW, "analysis": {"hill_k": hill_k}})
    tau = HILL_FLOOR_MULTIPLE * config.mark_floor
    tied = st.sampled_from([tau, tau / 2.0, 2.0 * tau])
    block = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if draw(st.booleans()):
            marks = st.one_of(tied, st.floats(min_value=1e-3, max_value=5.0))
        else:
            marks = st.one_of(st.just(2.0 * tau), st.floats(min_value=tau, max_value=5.0,
                                                            exclude_min=True))
        sizes = draw(st.lists(marks, max_size=30))
        start = draw(st.sampled_from([0, 1]))
        locations = 0.01 * np.arange(start, start + len(sizes))
        block.append(JumpFunction(locations=locations, sizes=sizes, drift=0.0,
                                  total_mass_cap=float(locations[-1]) if sizes else 0.0))
    return config, tau, block


def _hill_outcome(*args):
    try:
        fit = hill_tail_index(*args)
    except (InsufficientDataError, ValueError) as exc:
        return type(exc), str(exc)
    return np.array([fit.exponent, fit.constant, fit.stderr]).tobytes(), fit.k_used


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ragged_marks())
def test_the_pooled_marks_give_the_full_pools_hill_fit(case):
    """The driver pools, per path, the marks above the Hill floor and one
    copy of the largest of the others (every mark with an explicit hill_k); the fit on
    that pool is the full pool's, bit for bit, or fails alike."""
    config, tau, block = case
    columns = _compute_block(config, list(range(len(block))), block)
    pool, n_marks = columns["marks_pool"], columns["n_marks"]
    full = np.concatenate([L.sizes[L.locations > 0.0] for L in block] or [[]])
    assert _same_bits(n_marks, np.array([np.count_nonzero(L.locations > 0.0) for L in block],
                                        dtype=np.int64))
    # the rule is per path: a block pools what its paths pool alone
    alone = [_compute_block(config, [0], [L])["marks_pool"] for L in block]
    assert _same_bits(pool, np.concatenate(alone or [[]]))
    if config.hill_k is None:
        # of the marks at or below tau, a path pools at most one
        assert all(np.count_nonzero(m <= tau) <= 1 for m in alone)
        assert len(pool) <= np.count_nonzero(full > tau) + len(block)
        k, k_full = (int(np.count_nonzero(m > tau)) for m in (pool, full))
        assert k == k_full
    else:
        assert _same_bits(pool, full)
        k = k_full = config.hill_k
    note(f"{len(block)} paths, {len(full)} marks, {len(pool)} pooled, k = {k}")
    assert _hill_outcome(pool, k, int(n_marks.sum())) == _hill_outcome(full, k_full)
