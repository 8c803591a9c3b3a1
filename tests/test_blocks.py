"""Block forms of the per-path steps against their single forms, bit for bit.

The driver runs every step after the draw on a block of paths: the
running maxima and the occupied cells on the paths' values, then the
masses, diagnostics and inversion on their profiles.  Each block form must
give, path by path, the bits of the single form, on every family, across
block boundaries and at blocks of one path.  The grid step 7 / 3000 is not
a dyadic rational, so sums of jump sizes taken in another order than the
single form's round differently there.
"""

from dataclasses import fields

import numpy as np
import pytest

from zeroset import (
    EnsembleSummary,
    ExperimentConfig,
    SamplePath,
    atom_diagnostic,
    derive_path_seed,
    estimate_local_time,
    invert_profile,
    max_persistence_indicator,
    run_paths,
    sample,
    support_diagnostic,
)
from zeroset.invariance import self_similarity_masses
from zeroset.localtime import JumpBlock, ProfileBlock, grid_index

PROCESSES = {
    "fbm": {"family": "fbm", "hurst": 0.3, "horizon": 7.0, "grid_size": 3000},
    "bm": {"family": "bm", "hurst": 0.5, "horizon": 7.0, "grid_size": 3000},
    "rosenblatt": {"family": "rosenblatt", "hurst": 0.75, "horizon": 7.0,
                   "grid_size": 3000, "micro_factor": 4},
}
# path 2 never enters the window and path 4 starts with a jump
NO_CELL, LEADING = 2, 4


def _config(process: str, n_paths: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict({"schema_version": 1, "process": PROCESSES[process],
                                       "n_paths": n_paths, "master_seed": 3})


def _sampler(config: ExperimentConfig):
    """The sampler, with a path that has no occupied cell and one that starts with a jump."""
    seeds = {derive_path_seed(config.master_seed, i): i for i in (NO_CELL, LEADING)}

    def draw(spec, seed):
        path = sample(spec, seed)
        if seeds.get(seed) == NO_CELL:
            path.values[1:] = 10.0
        elif seeds.get(seed) == LEADING:
            path.values[1:4] = 10.0
            path.values[4] = 0.0
        return path

    return draw


def _drift(profile, L) -> float:
    """The drift by time balance, the jump mass summed as numpy sums one path's sizes."""
    if not len(profile.occupied):
        return 0.0
    t_last = (profile.occupied[-1] + 1) * profile.delta
    return max(0.0, (t_last - float(np.sum(L.sizes))) / profile.total_mass)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("process", sorted(PROCESSES))
def test_block_forms_equal_the_single_forms(process):
    config = _config(process, 9)
    spec, draw = config.spec(), _sampler(config)
    seeds = [derive_path_seed(config.master_seed, i) for i in range(config.n_paths)]
    paths = [draw(spec, seed) for seed in seeds]
    block = SamplePath(spec, np.array(seeds, dtype=np.uint64),
                       np.stack([path.values for path in paths]))
    k = grid_index(config.t_grid, config.delta, config.grid_size)

    profiles = estimate_local_time(block, config.epsilon)
    Ls = invert_profile(profiles)
    assert isinstance(profiles, ProfileBlock) and isinstance(Ls, JumpBlock)
    maxima = max_persistence_indicator(block, config.t_grid)
    pairs = self_similarity_masses(profiles, config.test_r)
    masses, atoms = profiles.mass_at(k), atom_diagnostic(profiles)
    supports = support_diagnostic(profiles)
    singles = []
    for p, path in enumerate(paths):
        profile = estimate_local_time(path, config.epsilon)
        L = invert_profile(profile)
        singles.append(L)
        a, b = profiles.offsets[p], profiles.offsets[p + 1]
        assert profiles.path_refs[p] == profile.path_ref
        assert _same(profiles.occupied[a:b], profile.occupied)
        assert _same(profiles.levels[a:b], profile.levels)
        assert _same(masses[p], profile.mass_at(k))
        assert _same(maxima[p], max_persistence_indicator(path, config.t_grid))
        assert tuple(pairs[p].tolist()) == self_similarity_masses(profile, config.test_r)
        assert _same(atoms[p], np.float64(atom_diagnostic(profile)))
        assert _same(supports[p], np.float64(support_diagnostic(profile)))
        a, b = Ls.offsets[p], Ls.offsets[p + 1]
        assert _same(Ls.locations[a:b], L.locations)
        assert _same(Ls.sizes[a:b], L.sizes)
        assert _same(Ls.drifts[p], np.float64(L.drift))
        assert L.drift == _drift(profile, L)
        assert _same(Ls.caps[p], np.float64(L.total_mass_cap))
        assert _same(Ls._cum[a + p : b + p + 1], L._cum)
        alone = Ls.function(p)
        assert _same(alone._cum, L._cum) and (alone.drift, alone.total_mass_cap) == (
            L.drift, L.total_mass_cap)
    assert Ls.caps[NO_CELL] == 0.0 and Ls.offsets[NO_CELL] == Ls.offsets[NO_CELL + 1]
    assert singles[LEADING].locations[0] == 0.0
    assert singles[LEADING].sizes[0] == 3 * config.delta
    # the block of the single functions has the same arrays
    listed = JumpBlock.of(singles)
    for attr in ("offsets", "locations", "sizes", "drifts", "caps", "_cum", "jump_mass"):
        assert _same(getattr(listed, attr), getattr(Ls, attr)), attr


def test_a_block_refuses_what_a_single_form_refuses():
    spec = _config("bm", 1).spec()
    values = np.zeros((2, spec.grid_size + 1))
    with pytest.raises(ValueError, match="one seed per row"):
        SamplePath(spec, np.arange(3, dtype=np.uint64), values)
    values[1, 0] = 1.0
    with pytest.raises(ValueError, match="start at zero"):
        SamplePath(spec, np.arange(2, dtype=np.uint64), values)
    good = dict(path_refs=[0, 1], epsilon=0.5, delta=1.0, grid_size=4, offsets=[0, 2, 3],
                occupied=[1, 3, 0], levels=[1.0, 2.0, 1.0])
    ProfileBlock(**good)
    for change in (dict(occupied=[3, 1, 0]), dict(occupied=[1, 4, 0]),
                   dict(levels=[1.0, 1.0, 1.0]), dict(levels=[1.0, 2.0, np.nan]),
                   dict(offsets=[0, 3, 2]), dict(path_refs=[0])):
        with pytest.raises(ValueError):
            ProfileBlock(**(good | change))
    good = dict(offsets=[0, 2, 3], locations=[0.5, 1.0, 0.0], sizes=[1.0, 2.0, 3.0],
                drifts=[0.0, 0.1], caps=[2.0, 1.0])
    JumpBlock(**good)
    for change in (dict(locations=[1.0, 0.5, 0.0]), dict(locations=[0.5, np.inf, 0.0]),
                   dict(sizes=[1.0, -2.0, 3.0]), dict(sizes=[1e308, 1e308, 3.0]),
                   dict(drifts=[0.0, np.nan]), dict(caps=[2.0, -1.0]), dict(caps=[2.0])):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            JumpBlock(**(good | change))


def _columns(summary: EnsembleSummary) -> dict:
    return {f.name: getattr(summary, f.name) for f in fields(EnsembleSummary)
            if f.name not in ("config", "failures")}


@pytest.mark.parametrize("process", sorted(PROCESSES))
def test_every_block_size_gives_the_single_forms(monkeypatch, process):
    """Blocks of one path, of three and of the default size, with blocks of
    profiles that end at every block of paths or hold the whole chunk."""
    import zeroset.orchestration as orch

    config = _config(process, 40 if process == "rosenblatt" else 120)
    draw = _sampler(config)
    monkeypatch.setattr(orch, "sample", draw)
    runs = []
    for points, cells in ((1, 1), (3 * config.grid_size, 1), (orch.BLOCK_POINTS, 10**9)):
        monkeypatch.setattr(orch, "BLOCK_POINTS", points)
        monkeypatch.setattr(orch, "BLOCK_CELLS", cells)
        runs.append(_columns(run_paths(config, workers=1)))
    for name, column in runs[0].items():
        for run in runs[1:]:
            assert _same(run[name], column), name
    columns = runs[0]
    assert columns["ok"].all()
    k = grid_index(config.t_grid, config.delta, config.grid_size)
    for i in range(config.n_paths):
        path = draw(config.spec(), derive_path_seed(config.master_seed, i))
        profile = estimate_local_time(path, config.epsilon)
        L = invert_profile(profile)
        assert _same(columns["drifts"][i], np.float64(_drift(profile, L))), i
        assert _same(columns["caps"][i], np.float64(L.total_mass_cap)), i
        assert columns["n_jumps"][i] == L.n_jumps
        assert _same(columns["masses"][i], profile.mass_at(k)), i
        assert _same(columns["atoms"][i], np.float64(atom_diagnostic(profile))), i
    assert columns["caps"][NO_CELL] == 0.0


def test_a_path_that_fails_inside_a_block_fails_alone(monkeypatch):
    """A block step that raises is run again path by path: only the
    offending path fails, and every column equals that of a run in which
    the same path failed in the sampler."""
    import zeroset.orchestration as orch

    config = _config("bm", 200)
    size = orch.BLOCK_POINTS // config.grid_size
    bad = size + size // 2  # inside the second block of paths
    bad_seed = derive_path_seed(config.master_seed, bad)
    real_sample, real_estimate = orch.sample, orch.estimate_local_time

    def sample_failing(spec, seed):
        if seed == bad_seed:
            raise RuntimeError("synthetic failure")
        return real_sample(spec, seed)

    def estimate(paths, epsilon):
        if bad_seed in paths.seed:
            raise RuntimeError("synthetic block failure")
        return real_estimate(paths, epsilon)

    monkeypatch.setattr(orch, "sample", sample_failing)
    reference = run_paths(config, workers=1)
    monkeypatch.setattr(orch, "sample", real_sample)
    monkeypatch.setattr(orch, "estimate_local_time", estimate)
    summary = run_paths(config, workers=1)
    assert summary.failures == [(bad, "RuntimeError: synthetic block failure")]
    for name, column in _columns(summary).items():
        assert _same(column, getattr(reference, name)), name
