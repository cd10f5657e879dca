"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Set-up is what a user pays before the first command: importing
`billiards.cli` (numpy and scipy with it), writing, loading and validating
the tables, and drawing the seeded inputs. Prints one JSON line with
`setup_s` and `kernel_s`, the median of five reference kernels timed
right after the set-up (see speed.py). Run under `python3 -X importtime`
it also lets the caller read per-module import times from stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads
from speed import reference_kernel

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import billiards.cli  # noqa: F401  (the entry point's import is timed)
    workloads.setup(workloads.WORKLOADS[args.workload], args.seed,
                    ROOT / "perfbench" / "out" / "specs")
    setup_s = time.perf_counter() - start
    kernel_s = sorted(reference_kernel() for _ in range(5))[2]
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
