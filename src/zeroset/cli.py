"""Command line entry point.

Subcommands map to the run stages: ``simulate`` dumps raw trajectories,
``persist`` / ``excursions`` / ``invariants`` run the ensemble and write
that stage's outputs (plus a manifest), and ``report`` assembles a summary
document from one or more finished run directories.

Exit codes: 0 on success, 1 when a run aborts (too many failed paths, or
a worker process died), 2 on configuration errors, 3 when ``report
--check`` finds a failing check.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .orchestration import dump_paths, load_config, report, run_experiment

__all__ = ["main"]


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed from the config")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the worker count from the config")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config out_dir)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroset",
        description="Simulate self-similar paths, estimate zero-set local "
                    "time, and verify persistence and excursion asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="dump simulated sample paths as CSV")
    _add_run_args(p)

    p = sub.add_parser("persist", help="survival curve and exponent fit")
    _add_run_args(p)

    p = sub.add_parser("excursions", help="point-process dump and tail fits")
    _add_run_args(p)

    p = sub.add_parser("invariants", help="distributional invariance battery")
    _add_run_args(p)

    p = sub.add_parser("report", help="assemble a summary from run directories")
    p.add_argument("run_dirs", nargs="+", help="finished run directories")
    p.add_argument("--out", required=True, help="directory for summary.md")
    p.add_argument("--check", action="store_true",
                   help="exit with code 3 if any check fails")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            summary_path, ok = report(args.run_dirs, args.out, check=args.check)
            print(f"wrote {summary_path}")
            if args.check and not ok:
                print("some checks FAILED")
                return 3
            return 0

        config = load_config(args.config)
        if args.seed is not None:
            config = config.replace(master_seed=args.seed)
        if args.workers is not None:
            config = config.replace(workers=args.workers)

        if args.command == "simulate":
            manifest = dump_paths(config, out_dir=args.out)
        else:
            manifest = run_experiment(config, stages=(args.command,), out_dir=args.out)
        print(f"wrote {manifest.path()}")
        for name, digest in sorted(manifest.outputs.items()):
            print(f"  {name}  sha256:{digest[:16]}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
