"""Measurement process of the benchmark; run.py starts it in a fresh interpreter.

Untraced (``--trace 0``): parse the config of round ``--round``, compute
one untimed warm-up path at the workload's worker count (this fills the
circulant-eigenvalue and calibration caches and starts the process pool
where there is one), print ``setup-done``, time that round's
``run_experiment`` call, make the exact checks on its outputs and print
one JSON line with the results.  With ``--setup-only`` it exits after
``setup-done``.  Each round runs in a fresh process, as a CLI call does: a
process that has already run a round reuses heap pages that a fresh one
must fault in, and runs its next round 10-25% faster.

Traced (``--trace 1``): time the import and the first sample, run the
same paths through ``run_paths`` at 1 worker untraced, at 1 worker traced
and at 2 workers untraced, interleaved in blocks, then run one full round
for the stage timings and the checks, and print the per-layer metrics as
one JSON line.  The statistical checks are made by the launcher, on all
rounds of a run together.
"""

import time

_T0 = time.perf_counter()
import zeroset  # noqa: E402  (first import: its cost is the import time)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from zeroset import (  # noqa: E402
    ExperimentConfig,
    RunManifest,
    derive_path_seed,
    run_experiment,
    run_paths,
    sample,
)

import checks  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


TRACE_BLOCKS = 4
# untimed paths that warm up the traced run and size its blocks
WARM_PATHS = 16


def parse_config(workload, seed: int, round_index: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict(workload.raw_config(seed, round_index))


def cpu_seconds() -> float:
    """User and kernel CPU time of this process and its waited-for workers."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_round(config: ExperimentConfig, out_dir: str) -> tuple[RunManifest, float, float]:
    """One round: (manifest, wall seconds, CPU seconds)."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    manifest = run_experiment(config, out_dir=out_dir)
    return manifest, time.perf_counter() - t0, cpu_seconds() - c0


def check_round(run_dir: str) -> dict:
    attempted, errors, failures = checks.check_round(run_dir)
    rejected = 0
    if not failures:
        battery = checks.load_strict_json(os.path.join(run_dir, "invariance.json"))["battery"]
        rejected = sum(entry["reject_bonferroni"] for entry in battery)
    name = os.path.basename(run_dir)
    return {"run_dir": run_dir, "analyses_attempted": attempted,
            "analysis_errors": [f"{name}: {m}" for m in errors],
            "check_failures": [f"{name}: {m}" for m in failures],
            "invariance_rejections": rejected}


def timed(workload, seed: int, round_index: int, out: str, setup_only: bool) -> dict:
    config = parse_config(workload, seed, round_index)
    run_paths(config.replace(n_paths=1))
    print("setup-done", flush=True)
    if setup_only:
        return {}

    run_dir = os.path.join(out, f"round-{round_index}")
    manifest, wall, cpu = run_round(config, run_dir)
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "paths_ok": manifest.counters["n_ok"],
        "paths_attempted": manifest.counters["n_paths"],
        "paths_failed": manifest.counters["n_failed"],
        "wall_s": wall,
        "cpu_s": cpu,
        # pool workers are alike, so workers x the largest worker peak
        "peak_rss_mib": (self_kib + workload.workers * worker_kib) / 1024.0,
        **check_round(run_dir),
    }


def traced(workload, seed: int, seconds: float, out: str) -> dict:
    config = parse_config(workload, seed, 0)
    t0 = time.perf_counter()
    sample(config.spec(), derive_path_seed(config.master_seed, 0))
    first_sample_s = time.perf_counter() - t0

    # The run_paths passes come before the full round, in the heap state of
    # a timed round.  Freeing a round's large aggregate arrays raises
    # glibc's mmap threshold; after that, the sampler's temporaries reuse
    # heap pages instead of faulting in fresh ones, and an fBM path runs
    # about twice as fast as in a fresh process.
    #
    # The three passes see the same paths, interleaved block by block, so
    # that a drift in machine speed falls on all three alike.  Each
    # 1-worker pass takes about seconds/4 in all.  An untimed block warms
    # up first and sizes the blocks, and the two 1-worker passes swap
    # places from block to block, so that neither gains from the other.
    t0 = time.perf_counter()
    run_paths(parse_config(workload, seed, 1).replace(n_paths=WARM_PATHS), workers=1)
    per_path_1w = (time.perf_counter() - t0) / WARM_PATHS
    n_block = max(4, min(config.n_paths, round(seconds / 4.0 / TRACE_BLOCKS / per_path_1w)))
    n = TRACE_BLOCKS * n_block
    tracer = layertrace.Tracer()
    untraced_1w = traced_1w = untraced_2w = 0.0
    for b in range(TRACE_BLOCKS):
        block = parse_config(workload, seed, b + 1).replace(n_paths=n_block)
        for traced_pass in ((False, True) if b % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced_pass:
                with layertrace.installed(tracer):
                    tracer.wrap("orchestration.run_paths", run_paths)(block, workers=1)
                traced_1w += time.perf_counter() - t0
            else:
                run_paths(block, workers=1)
                untraced_1w += time.perf_counter() - t0
        t0 = time.perf_counter()
        run_paths(block, workers=2)
        untraced_2w += time.perf_counter() - t0

    run_dir = os.path.join(out, "round-0")
    manifest, _, _ = run_round(config, run_dir)
    written = sum(os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir))

    self_s = tracer.self_times()
    timings = manifest.timings

    def per_path_ms(name):
        return 1000.0 * self_s.get(name, 0.0) / n

    metrics = {
        "generators.sample_ms": (per_path_ms("generators.sample"), "ms"),
        "generators.sample_minor_faults": (tracer.sums("generators.sample", layertrace.MINFLT) / n, "count"),
        "generators.sample_sys_ms": (1000.0 * tracer.sums("generators.sample", layertrace.STIME) / n, "ms"),
        "generators.fft_bytes_computed": (tracer.fft_bytes / n, "bytes"),
        "generators.first_sample_s": (first_sample_s, "s"),
        "orchestration.import_s": (IMPORT_S, "s"),
        "localtime.estimate_ms": (per_path_ms("localtime.estimate"), "ms"),
        "localtime.invert_ms": (per_path_ms("localtime.invert"), "ms"),
        "localtime.jumps_per_path": (sum(tracer.jumps) / n, "count"),
        "pointprocess.analysis_ms": (per_path_ms("pointprocess.analysis"), "ms"),
        "orchestration.driver_self_ms": (per_path_ms("orchestration.run_paths"), "ms"),
        "orchestration.parallel_efficiency": (untraced_1w / (2.0 * untraced_2w), "ratio"),
        "orchestration.stage_persist_s": (timings["persist"], "s"),
        "orchestration.stage_excursions_s": (timings["excursions"], "s"),
        "orchestration.stage_invariants_s": (timings["invariants"], "s"),
        "orchestration.bytes_written": (written, "bytes"),
        "trace.overhead_ratio": (traced_1w / untraced_1w, "ratio"),
    }
    return {
        "traced_paths": n,
        "paths_attempted": manifest.counters["n_paths"],
        "paths_failed": manifest.counters["n_failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **check_round(run_dir),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--round", type=int, default=0, help="round to time (untraced)")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after the set-up (untraced)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    src = os.path.abspath("src")
    if not os.path.abspath(zeroset.__file__).startswith(src + os.sep):
        print(f"zeroset was imported from {zeroset.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced(workload, args.seed, args.seconds, args.out)
    else:
        result = timed(workload, args.seed, args.round, args.out, args.setup_only)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
