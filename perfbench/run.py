"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` runs the workload again with spans around every layer
call and reports the per-layer metrics instead.  The last line of
standard output is the JSON result; lines before it, each starting with
``#``, repeat the metrics for people, with sample counts and the run's
stamp.  The exit code is nonzero when any output was wrong.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import ALL_WORKLOADS, BenchmarkError, check_root, emit, stamp  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_root()
        if args.workload == "cli-oneshot":
            from perfbench import cli_oneshot as workload
        elif args.workload == "batch-suite":
            from perfbench import batch_suite as workload
        else:
            from perfbench import serve_mixed as workload
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    emit(
        stamp(args.workload, args.seed, args.seconds, bool(args.trace), **result["info"]),
        result["metrics"], result["catalogue"], result["attempted"],
        result["failed"], result["mismatches"], result["samples"],
    )
    return 1 if result["mismatches"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
