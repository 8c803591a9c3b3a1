"""Benchmark of the zeroset ensemble pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fbm-h03-g16 --seed 1 --seconds 25 --trace 0

The launcher byte-compiles ``src/zeroset`` and runs the measurement
program (measure.py) with ``src`` on its path, once per round, each time
in a fresh interpreter.  It times set-up in each of them, from the moment
it starts the process to the moment the process reports its first path
done, adds set-up-only processes until it has SETUP_SAMPLES of these cold
set-ups, and reports their median.  It makes the statistical checks on the
rounds pooled.  It prints a human-readable summary and, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Paths are the operations counted in
``attempted`` and ``failed``; an analysis that returns an ``error`` payload,
or a failed check, makes the run incorrect.  Outputs go to
``.perfbench_out/`` in the checkout.  The exit code is 0 only when a result
was printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# the measurement process is killed after this long, so that the benchmark
# ends within its 180 s limit
TIMEOUT_S = 170.0
# cold set-ups timed per run, each in its own fresh interpreter
SETUP_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="zeroset ensemble pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure(args: argparse.Namespace, src: str, out: str, round_index: int,
            setup_only: bool = False) -> tuple[float | None, dict | None, int]:
    """Run measure.py once; return (set-up seconds, its result, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--round", str(round_index), "--out", out,
    ] + (["--setup-only"] if setup_only else [])
    setup_s = result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    watchdog = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "setup-done":
                setup_s = time.perf_counter() - t0
            elif line.startswith("{"):
                result = json.loads(line)
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return setup_s, result, code


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind through measure()'s cleanup, which kills the
    # measurement process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "zeroset", "__init__.py")):
        print(f"no zeroset sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(src, "zeroset"), quiet=1):
        print("byte-compiling src/zeroset failed", file=sys.stderr)
        return 2
    out = os.path.join(os.path.abspath(OUT_DIR), f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    if args.trace:
        _, result, code = measure(args, src, out, 0)
        if code != 0 or result is None:
            print(f"measurement process failed (exit code {code})", file=sys.stderr)
            return 1
        metrics = result["metrics"]
        rounds = [result]
        print(f"traced {result['traced_paths']} paths")
    else:
        # whole rounds, each in a fresh process: start another while half a
        # mean round more would still end within --seconds of round time
        rounds, setups = [], []
        while not rounds or sum(r["wall_s"] for r in rounds) * (1.0 + 0.5 / len(rounds)) < args.seconds:
            setup, result, code = measure(args, src, out, len(rounds))
            if code != 0 or result is None or setup is None:
                print(f"measurement process failed (exit code {code})", file=sys.stderr)
                return 1
            print(f"round {len(rounds)}: {result['paths_ok']} paths in {result['wall_s']:.3f} s, "
                  f"CPU {result['cpu_s']:.3f} s, set-up {setup:.3f} s")
            rounds.append(result)
            setups.append(setup)
        while len(setups) < SETUP_SAMPLES:
            setup, _, code = measure(args, src, out, len(rounds) + len(setups), setup_only=True)
            if code != 0 or setup is None:
                print(f"set-up process failed (exit code {code})", file=sys.stderr)
                return 1
            print(f"set-up only: {setup:.3f} s")
            setups.append(setup)
        n_ok = sum(r["paths_ok"] for r in rounds)
        metrics = {
            "paths_per_s": {"value": n_ok / sum(r["wall_s"] for r in rounds), "unit": "paths/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": max(r["peak_rss_mib"] for r in rounds), "unit": "MiB"},
        }

    result = {key: sum(r[key] for r in rounds)
              for key in ("paths_attempted", "paths_failed", "analyses_attempted",
                          "invariance_rejections")}
    for key in ("analysis_errors", "check_failures"):
        result[key] = [m for r in rounds for m in r[key]]
    if not result["analysis_errors"] and not result["check_failures"]:
        result["check_failures"] = checks.check_statistics([r["run_dir"] for r in rounds],
                                                          WORKLOADS[args.workload])
    result["rounds"] = len(rounds)

    errors, failures = result["analysis_errors"], result["check_failures"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['rounds']} round(s)")
    print(f"paths attempted {result['paths_attempted']}, failed {result['paths_failed']}; "
          f"analyses attempted {result['analyses_attempted']}, failed {len(errors)}")
    print(f"invariance tests rejected at the Bonferroni level: "
          f"{result['invariance_rejections']} (reported, not checked)")
    for message in errors + failures:
        print(f"FAIL {message}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not errors and not failures,
        "attempted": result["paths_attempted"],
        "failed": result["paths_failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
