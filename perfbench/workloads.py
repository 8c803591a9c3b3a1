"""The benchmark's workloads: one fixed ``zeroset`` config each.

A round of a workload is one ``run_experiment`` call (all three stages, as
the CLI runs them) on the workload's config, with a master seed derived
from the benchmark seed and the round number.  Each config is sized so
that one round gives every stage analysis enough data to return a result
rather than an ``error`` payload on any seed; the README records how, and
BENCHMARK.json says why each workload is there.

This module imports nothing from numpy or zeroset, so the launcher can use
it before the measurement process starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def sqrt2_ladder(t_max: float, n_halvings: int = 12) -> list[float]:
    """Geometric time grid with ratio sqrt(2), ending exactly at t_max."""
    return sorted(t_max / 2 ** (j / 2) for j in range(n_halvings + 1))


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # allowances of the statistical checks (see checks.py); None skips a check
    kappa_allowance: float | None
    ratio_rel_allowance: float | None
    bgk_check: bool

    @property
    def workers(self) -> int:
        return int(self.config.get("workers", 1))

    def raw_config(self, seed: int, round_index: int) -> dict:
        """The config of one round, as a JSON object."""
        return dict(self.config, master_seed=round_seed(self.name, seed, round_index))


def round_seed(workload: str, seed: int, round_index: int) -> int:
    """Master seed of one round: a hash of workload, benchmark seed and round."""
    digest = hashlib.sha256(f"{workload}:{seed}:{round_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fbm-h03-g16",
            config={
                "schema_version": 1,
                "process": {"family": "fbm", "hurst": 0.3, "horizon": 1024.0,
                            "grid_size": 2**16},
                # the paths run to 1024, the curves stop at 256: H=0.3 decays
                # fast, and at T=1024 too few paths survive for the
                # running-maximum fit on [T_max/8, T_max] to run on every seed
                "t_grid": sqrt2_ladder(256.0, 8),
                # survival at T=128 is about 2.7%, so ~35 of 1280 paths are
                # left at the top of the fit window.  1280 paths give
                # stderr_kappa ~0.062, small enough that kappa = H fails
                # the check in a run of one round.
                "fit_range": [16.0, 128.0],
                "n_paths": 1280,
                "workers": 1,
            },
            # 16 rounds of this config (20480 paths) measured the bias of
            # kappa_hat at -0.001 +- 0.011 and of the ratio at +1.0% +- 0.9%;
            # each allowance is |bias| + 2 standard errors
            kappa_allowance=0.025,
            ratio_rel_allowance=0.03,
            bgk_check=False,
        ),
        Workload(
            name="rosenblatt-h075-g14",
            config={
                "schema_version": 1,
                "process": {"family": "rosenblatt", "hurst": 0.75, "horizon": 1024.0,
                            "grid_size": 2**14, "micro_factor": 16},
                "t_grid": sqrt2_ladder(1024.0),
                # The ratio test needs 100 points above 4r in the level window
                # (0, 1].  At the default r = 10 mark floors a path gives ~0.2
                # of them; at r = 2.5 floors ~0.39, so 400 paths give ~155.
                # Local time comes in quanta of 0.5 at this grid, and ~15% of
                # paths stay at or below mass 1 up to T=1024 (the persistence
                # probability itself).  The stationarity test needs mass 1.5
                # on 80% of paths, which a round misses on some seeds, so it
                # runs on the other two workloads only.
                "analysis": {"ratio_r": 0.3125},
                "tests": ["self_similarity", "bi_scale"],
                "n_paths": 400,
                "workers": 1,
            },
            # 16 rounds of this config (6400 paths) measured the bias of
            # kappa_hat at -0.035 +- 0.008 and of the ratio at -2.4% +- 0.7%;
            # each allowance is |bias| + 2 standard errors
            kappa_allowance=0.05,
            ratio_rel_allowance=0.04,
            bgk_check=False,
        ),
        Workload(
            name="bm-g12-w2",
            config={
                "schema_version": 1,
                "process": {"family": "bm", "hurst": 0.5, "horizon": 64.0,
                            "grid_size": 2**12},
                # 32 chunks of 256 paths: pool start and set-up are a small
                # share of a round
                "n_paths": 8192,
                "workers": 2,
            },
            kappa_allowance=None,
            ratio_rel_allowance=None,
            bgk_check=True,
        ),
    )
}
