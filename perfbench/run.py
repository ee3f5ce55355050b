"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-knt --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ./src of the
checkout this file sits in; without it the run fails with exit code 2.  The
last stdout line is the result, one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds run information
(seed, Python version, CPU count, git commit, reference-task time).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="knt-power, cli-knt, verify-large or search")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds of wall clock; whole rounds of "
                             "jobs run until they are spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import radiolabel
    except ImportError as exc:
        print(f"error: cannot import radiolabel from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(radiolabel.__file__).startswith(src + os.sep):
        print(f"error: radiolabel was imported from {radiolabel.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    from perfbench import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    info, result = harness.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
