"""Table `jet` calls per step and block fallback solves of `conjugate_scan`.

    python3 scripts/scan_counts.py [--src DIR]

The package is imported from `DIR`, by default the `src/` of the checkout
that holds this script, so one version of the script can count two trees
(say, `git archive` exports of a parent commit and of a change).
For each table of the benchmark (`perfbench/workloads.py`) and each step
count `N` of 100, 1000 and 10000 it scans the 256 seed-42 `scan_starts`
cold, as the tests of `tests/test_beam.py` do, and prints:

- `jets/step`: table `jet` calls of a scan of `N + 1` steps, less those of
  its cold first step, per step after it (the steps are counted at the
  scan's per-step seam `beam._scan_step`, which a block passes once per
  bounce); the calls are counted by wrapping the table class's `jet`;
- `fallback`: the float `forward_map_batch` solves made inside
  `beam._block_step` by entries that fell back, and their table `jet`
  calls per solve;
- `detected`: the starts that detect within the `N + 1` steps.

For the mode-6 table it then prints, for each `N`, the fallback solves
grouped by the step at which their block starts (`step:solves`, a block
at step `s` solving the bounces of steps `s + 1` on).  Last it prints the
scan's traced peak per start, as `test_scan_peak_memory_per_start`
measures it: 4096 seed-42 starts of the ellipse table, 40 steps, its
tracemalloc peak over the second of two runs.

Counts do not depend on the machine's speed, only on the numerics; the
peak depends on them and on numpy's allocations.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import TABLE_SPECS  # noqa: E402

STARTS, SEED = 256, 42
STEPS = (100, 1000, 10000)
BY_BLOCK = "mode6"      # the table whose fallbacks are grouped by block
PEAK_TABLE, PEAK_STARTS, PEAK_STEPS = "ellipse", 4096, 40   # memory gate


def counts(spec, steps: int) -> dict[str, float]:
    import numpy as np

    from billiards import beam
    from billiards.fourperiodic import table_profile
    from billiards.sampling import scan_starts

    _, _, p, phi = scan_starts(spec, table_profile(spec), STARTS, SEED)
    jets = [0]
    seen = [0]
    inside = [False]
    fallback = [0, 0]       # float solves in blocks, their jet calls
    by_block = Counter()    # float solves per step at which a block starts
    block_at = [0]
    cls = type(spec)
    jet, step, block, solve = (cls.jet, beam._scan_step, beam._block_step,
                               beam.forward_map_batch)

    def counted_jet(self, psi):
        jets[0] += 1
        return jet(self, psi)

    def counted_step(phi, guess):
        seen[0] += 1

    def counted_block(*args):
        inside[0] = True
        block_at[0] = seen[0]
        try:
            return block(*args)
        finally:
            inside[0] = False

    def counted_solve(*args):
        if not inside[0]:
            return solve(*args)
        before = jets[0]
        try:
            return solve(*args)
        finally:
            fallback[0] += 1
            fallback[1] += jets[0] - before
            by_block[block_at[0]] += 1

    cls.jet = counted_jet
    beam._scan_step, beam._block_step, beam.forward_map_batch = (
        counted_step, counted_block, counted_solve)
    try:
        beam.conjugate_scan(spec, p, phi, 1)
        cold = jets[0]
        jets[0] = seen[0] = 0
        fallback[:] = [0, 0]
        by_block.clear()
        detections = beam.conjugate_scan(spec, p, phi, steps + 1)
    finally:
        cls.jet = jet
        beam._scan_step, beam._block_step, beam.forward_map_batch = (
            step, block, solve)
    return {"jets": (jets[0] - cold) / (seen[0] - 1),
            "solves": fallback[0],
            "per_solve": fallback[1] / fallback[0] if fallback[0] else 0.0,
            "detected": int(np.sum(detections >= 0)),
            "by_block": sorted(by_block.items())}


def peak_per_start(spec) -> float:
    """Traced peak bytes per start of the memory gate's scan, after one
    untraced run of it."""
    from billiards import beam
    from billiards.fourperiodic import table_profile
    from billiards.sampling import scan_starts

    _, delta, p, phi = scan_starts(spec, table_profile(spec), PEAK_STARTS,
                                   SEED)
    beam.conjugate_scan(spec, p, phi, PEAK_STEPS, phi + 2.0 * delta)
    tracemalloc.start()
    try:
        beam.conjugate_scan(spec, p, phi, PEAK_STEPS, phi + 2.0 * delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / PEAK_STARTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the billiards package "
                             "(default: this checkout's src/)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from billiards.supportfn import table_from_dict

    print(f"{'table':10s} {'steps':>6s} {'jets/step':>9s} {'fallback':>8s} "
          f"{'jets/solve':>10s} {'detected':>8s}")
    by_block = {}
    for name, data in TABLE_SPECS.items():
        spec = table_from_dict(data)
        for steps in STEPS:
            c = counts(spec, steps)
            print(f"{name:10s} {steps:6d} {c['jets']:9.3f} {c['solves']:8d} "
                  f"{c['per_solve']:10.2f} {c['detected']:8d}")
            if name == BY_BLOCK:
                by_block[steps] = c["by_block"]
    print(f"\n{BY_BLOCK} fallback solves by block start step (step:solves)")
    for steps, groups in by_block.items():
        print(f"{steps:6d} " + " ".join(f"{at}:{n}" for at, n in groups))
    peak = peak_per_start(table_from_dict(TABLE_SPECS[PEAK_TABLE]))
    print(f"\ntraced peak per start, {PEAK_TABLE} {PEAK_STARTS} starts x "
          f"{PEAK_STEPS} steps: {peak:.0f} B")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
