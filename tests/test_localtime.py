import math

import numpy as np
import pytest

from zeroset import (
    Family,
    JumpFunction,
    LocalTimeProfile,
    ProcessSpec,
    atom_diagnostic,
    default_epsilon,
    estimate_local_time,
    inverse_time,
    invert_profile,
    persistence_indicator,
    sample,
    support_diagnostic,
)
from zeroset.generators import SamplePath


def _path_from_values(values, horizon=None, hurst=0.5):
    n = len(values) - 1
    spec = ProcessSpec(
        family=Family.FBM, hurst=hurst,
        horizon=float(n) if horizon is None else horizon, grid_size=n,
    )
    return SamplePath(spec=spec, seed=0, values=np.asarray(values, dtype=float))


# Hand-worked example used throughout: unit grid step, epsilon = 1/2, so the
# quantum is delta / (2 eps) = 1.  Window hits at steps 1, 4, 5, 7.
_VALUES = [0.0, 0.1, 5.0, -5.0, 0.05, -0.02, 3.0, -0.1, 9.0]
_CUMULATIVE = [0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.0]


def _hand_profile():
    return estimate_local_time(_path_from_values(_VALUES), epsilon=0.5)


# ---------------------------------------------------------------------------
# epsilon rule
# ---------------------------------------------------------------------------


def test_default_epsilon_values():
    assert default_epsilon(0.01, 0.5) == pytest.approx(0.05, rel=1e-14)
    assert default_epsilon(0.01, 0.5, c_epsilon=2.0) == pytest.approx(0.2, rel=1e-14)
    # H -> 0 window approaches the constant c
    assert default_epsilon(1e-6, 0.25, c_epsilon=0.5) == pytest.approx(
        0.5 * 1e-6**0.25, rel=1e-12
    )


def test_default_epsilon_rejects_bad_args():
    with pytest.raises(ValueError):
        default_epsilon(0.0, 0.5)
    with pytest.raises(ValueError):
        default_epsilon(0.01, 0.5, c_epsilon=-1.0)


# ---------------------------------------------------------------------------
# profile estimation
# ---------------------------------------------------------------------------


def test_estimate_local_time_hand_case():
    prof = _hand_profile()
    np.testing.assert_allclose(prof.cumulative, _CUMULATIVE, rtol=0, atol=0)
    assert prof.grid_size == 8
    assert prof.horizon == 8.0
    assert prof.total_mass == 4.0
    assert prof.epsilon == 0.5
    assert prof.path_ref == 0


def test_estimate_increments_are_zero_or_quantum():
    # cells outside the window add literal 0.0, which the cumulative sum
    # preserves exactly (flat-run detection depends on that); occupied cells
    # add the quantum up to accumulated rounding
    spec = ProcessSpec(family=Family.BM, hurst=0.5, horizon=4.0, grid_size=2048)
    prof = estimate_local_time(sample(spec, 11))
    quantum = prof.delta / (2.0 * prof.epsilon)
    inc = np.diff(prof.cumulative)
    positive = inc[inc != 0.0]
    assert len(positive) > 0
    np.testing.assert_allclose(positive, quantum, rtol=1e-9)


def test_estimate_uses_default_rule_from_spec():
    spec = ProcessSpec(family=Family.FBM, hurst=0.7, horizon=2.0, grid_size=256)
    prof = estimate_local_time(sample(spec, 5))
    assert prof.epsilon == pytest.approx(0.5 * (2.0 / 256) ** 0.7, rel=1e-14)


def test_estimate_zero_path_fills_every_cell():
    prof = estimate_local_time(_path_from_values([0.0] * 9), epsilon=0.5)
    np.testing.assert_allclose(prof.cumulative, np.arange(9, dtype=float))
    assert support_diagnostic(prof) == 1.0


def test_profile_validation():
    with pytest.raises(ValueError):
        LocalTimeProfile(path_ref=0, epsilon=0.0, delta=1.0, cumulative=[0.0, 1.0])
    with pytest.raises(ValueError):
        LocalTimeProfile(path_ref=0, epsilon=0.5, delta=1.0, cumulative=[1.0, 2.0])
    with pytest.raises(ValueError):
        estimate_local_time(_path_from_values(_VALUES), epsilon=-0.5)


# ---------------------------------------------------------------------------
# inverse evaluation and the persistence event
# ---------------------------------------------------------------------------


def test_inverse_time_hand_case():
    prof = _hand_profile()
    assert inverse_time(prof, 0.0) == 1.0
    assert inverse_time(prof, 1.0) == 4.0
    assert inverse_time(prof, 3.9) == 7.0
    assert inverse_time(prof, 4.0) == math.inf


def test_persistence_indicator_hand_case():
    prof = _hand_profile()
    assert persistence_indicator(prof, T=4.0, a=2.0) is True
    assert persistence_indicator(prof, T=4.0, a=1.9) is False
    assert persistence_indicator(prof, T=8.0, a=4.0) is True


def test_persistence_indicator_validation():
    prof = _hand_profile()
    with pytest.raises(ValueError):
        persistence_indicator(prof, T=4.0, a=0.0)
    with pytest.raises(ValueError):
        persistence_indicator(prof, T=9.0, a=1.0)
    with pytest.raises(ValueError):
        persistence_indicator(prof, T=[2.0, 9.0], a=1.0)
    with pytest.raises(ValueError):
        persistence_indicator(prof, T=[0.0, 2.0], a=1.0)
    with pytest.raises(ValueError):
        persistence_indicator(prof, T=float("nan"), a=1.0)


def test_persistence_indicator_sequence_of_horizons():
    prof = _hand_profile()
    T_grid = [1.0, 3.0, 4.0, 4.4, 4.6, 8.0]
    events = persistence_indicator(prof, T_grid, 2.0)
    assert events.dtype == bool
    # cumulative at grid points 1, 3, 4, 4, 5, 8 is 1, 1, 2, 2, 3, 4
    assert events.tolist() == [True, True, True, True, False, False]
    assert events.tolist() == [persistence_indicator(prof, T, 2.0) for T in T_grid]


def test_indicator_agrees_with_inverse_route():
    """The two event encodings must agree exactly, not just approximately.

    {accrued mass by T <= a} and {first time the profile exceeds a is past T}
    are the same event by monotonicity; this runs both on a simulated path
    over a grid of thresholds and horizons.
    """
    spec = ProcessSpec(family=Family.FBM, hurst=0.6, horizon=8.0, grid_size=4096)
    prof = estimate_local_time(sample(spec, 77))
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = float(rng.uniform(0.01, prof.total_mass * 1.2))
        T = float(rng.choice([1.0, 2.0, 4.0, 8.0]))
        via_profile = persistence_indicator(prof, T, a)
        via_inverse = inverse_time(prof, a) > T
        assert via_profile == via_inverse, (a, T)


# ---------------------------------------------------------------------------
# inversion into a jump function
# ---------------------------------------------------------------------------


def test_invert_profile_hand_case():
    # cells 1-2 form the only above-resolution stretch: a jump of size 2 at
    # level 1; the single-cell stretch at cell 5 folds into the drift,
    # as does everything up to the last increase at time 7
    prof = _hand_profile()
    L = invert_profile(prof)
    np.testing.assert_allclose(L.locations, [1.0])
    np.testing.assert_allclose(L.sizes, [2.0])
    assert L.drift == pytest.approx((7.0 - 2.0) / 4.0, rel=1e-14)
    assert L.total_mass_cap == 4.0
    assert L.n_jumps == 1


def test_invert_profile_time_balance():
    # L at the cap recovers the time of the last increase exactly
    prof = _hand_profile()
    L = invert_profile(prof)
    assert L.evaluate(L.total_mass_cap) == pytest.approx(7.0, rel=1e-14)


def test_invert_profile_leading_run():
    prof = LocalTimeProfile(
        path_ref=0, epsilon=0.5, delta=1.0, cumulative=[0.0, 0.0, 0.0, 1.0, 2.0]
    )
    L = invert_profile(prof)
    np.testing.assert_allclose(L.locations, [0.0])
    np.testing.assert_allclose(L.sizes, [2.0])
    assert L.evaluate(0.0) == 2.0
    assert L.drift == pytest.approx(1.0, rel=1e-14)


def test_invert_profile_trailing_run_is_censored():
    prof = LocalTimeProfile(
        path_ref=0, epsilon=0.5, delta=1.0,
        cumulative=[0.0, 1.0, 2.0, 2.0, 2.0, 2.0],
    )
    L = invert_profile(prof)
    assert L.n_jumps == 0
    assert L.total_mass_cap == 2.0
    assert L.drift == pytest.approx(1.0, rel=1e-14)


def test_invert_profile_empty():
    prof = LocalTimeProfile(
        path_ref=0, epsilon=0.5, delta=1.0, cumulative=[0.0, 0.0, 0.0]
    )
    L = invert_profile(prof)
    assert L.n_jumps == 0
    assert L.total_mass_cap == 0.0
    assert L.drift == 0.0
    assert L.evaluate(0.0) == 0.0


def test_invert_profile_min_jump_steps():
    prof = _hand_profile()
    L1 = invert_profile(prof, min_jump_steps=1)
    # with the resolution floor at one cell, the single-cell stretch at
    # cell 5 becomes a jump too (level 3, size 1)
    np.testing.assert_allclose(L1.locations, [1.0, 3.0])
    np.testing.assert_allclose(L1.sizes, [2.0, 1.0])
    with pytest.raises(ValueError):
        invert_profile(prof, min_jump_steps=0)


def test_invert_profile_rejects_decreasing():
    prof = LocalTimeProfile(
        path_ref=0, epsilon=0.5, delta=1.0, cumulative=[0.0, 1.0, 2.0]
    )
    prof.cumulative = np.array([0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        invert_profile(prof)


def test_jump_function_validation():
    with pytest.raises(ValueError):
        JumpFunction(locations=[1.0, 1.0], sizes=[1.0, 1.0], drift=0.0, total_mass_cap=2.0)
    with pytest.raises(ValueError):
        JumpFunction(locations=[1.0], sizes=[-1.0], drift=0.0, total_mass_cap=2.0)
    with pytest.raises(ValueError):
        JumpFunction(locations=[1.0], sizes=[1.0], drift=-0.1, total_mass_cap=2.0)
    with pytest.raises(ValueError):
        JumpFunction(locations=[-1.0], sizes=[1.0], drift=0.0, total_mass_cap=2.0)


def test_jump_function_evaluate_vectorised():
    L = JumpFunction(locations=[1.0, 2.0], sizes=[3.0, 0.5], drift=0.1, total_mass_cap=4.0)
    out = L.evaluate(np.array([0.0, 0.99, 1.0, 2.0, 4.0]))
    np.testing.assert_allclose(out, [0.0, 0.099, 3.1, 3.7, 3.9])
    assert L.evaluate(1.0) == pytest.approx(3.1)
    np.testing.assert_allclose(L.jumps, [[1.0, 3.0], [2.0, 0.5]])


# ---------------------------------------------------------------------------
# refinement diagnostics
# ---------------------------------------------------------------------------


def test_atom_diagnostic_hand_case():
    assert atom_diagnostic(_hand_profile()) == 1.0


def test_atom_diagnostic_decays_deterministically():
    """Under the adapted epsilon rule the largest increment is exactly the
    quantum delta^(1-H), so a 4-fold grid refinement scales it by 4^-(1-H)."""
    for hurst in (0.5, 0.7):
        spec_c = ProcessSpec(family=Family.FBM, hurst=hurst, horizon=8.0, grid_size=1024)
        spec_f = ProcessSpec(family=Family.FBM, hurst=hurst, horizon=8.0, grid_size=4096)
        atom_c = atom_diagnostic(estimate_local_time(sample(spec_c, 42)))
        atom_f = atom_diagnostic(estimate_local_time(sample(spec_f, 43)))
        assert atom_c == pytest.approx((8.0 / 1024) ** (1.0 - hurst), rel=1e-12)
        assert atom_f / atom_c == pytest.approx(4.0 ** -(1.0 - hurst), rel=1e-12)


def test_support_diagnostic_decays_like_box_count():
    # mean occupied fraction drops by about 4^-H over a 4-fold refinement
    for hurst in (0.5, 0.7):
        coarse, fine = [], []
        for i in range(100):
            spec_c = ProcessSpec(family=Family.FBM, hurst=hurst, horizon=8.0, grid_size=1024)
            spec_f = ProcessSpec(family=Family.FBM, hurst=hurst, horizon=8.0, grid_size=4096)
            coarse.append(support_diagnostic(estimate_local_time(sample(spec_c, 100 + i))))
            fine.append(support_diagnostic(estimate_local_time(sample(spec_f, 5000 + i))))
        ratio = np.mean(fine) / np.mean(coarse)
        assert ratio == pytest.approx(4.0**-hurst, rel=0.15), f"hurst={hurst}"
