"""Record reference outputs of the current program for the given seeds.

    python3 perfbench/record.py --workload run-2d --seeds 1000 1 2

Run from the repository root.  Each seed's execution must pass the
invariant checks before its reference is written to ``reference/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import checks
import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()

    bench = run.Bench(os.getcwd())
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    status = 0
    for seed in args.seeds:
        execution = bench.execution(args.workload, seed, trace=False)
        result = execution["result"]
        failed = [name for name, ok in checks.check(
            args.workload, result, execution["stderr"], None) if not ok]
        if failed:
            print(f"seed {seed}: not recorded, failed {failed}", file=sys.stderr)
            status = 1
            continue
        path = checks.reference_path(args.workload, seed)
        with open(path, "w") as fh:
            json.dump({k: result[k] for k in ("exit_code", "verdicts", "numbers")},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"seed {seed}: exit {result['exit_code']}, wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
