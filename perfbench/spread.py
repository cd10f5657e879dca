"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workloads scan-mode6 --seeds 1-10 \
        [--trace 0|1] [--seconds S] [--save NAME] [--compare NAME]

Runs one after another, never in parallel. For every end-to-end metric it
prints the median, the quartiles (`statistics.quantiles(values, n=4)`)
and the distance between them as a share of the median, next to the
metric's bound in BENCHMARK.json. `--save` keeps the results in
`perfbench/out/spread-NAME.json`; `--compare` checks a saved set against
this one: medians within the bounds and, for traced runs, every counted
per-layer metric equal seed by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
COUNT_UNITS = ("count", "count/call")
COUNT_RATIOS = ("beam.live_fraction",)


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, workload, seed, seconds, trace) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def counted(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS or k in COUNT_RATIOS}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results: dict[str, dict[str, dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = results.setdefault(workload, {})
        for seed in args.seeds:
            runs[str(seed)] = res = run(bench, workload, seed, seconds, args.trace)
            ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        if args.trace:
            continue
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs.values()]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread < spec["bound"] / 3 else \
                ("  over bound/3" if spread <= spec["bound"] else "  OVER BOUND")
            ok &= spread <= spec["bound"]
            print(f"  {name:<22} median {q2:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} bound {spec['bound']}"
                  f"{flag}")

    if args.save:
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"spread-{args.save}.json").write_text(json.dumps(results))
    if args.compare:
        old = json.loads((OUT / f"spread-{args.compare}.json").read_text())
        for workload, runs in results.items():
            for seed, res in runs.items():
                before = old.get(workload, {}).get(seed)
                if args.trace and before and counted(before) != counted(res):
                    ok = False
                    print(f"{workload} seed {seed}: counts differ")
            if args.trace:
                continue
            for name, spec in bounds.items():
                first = statistics.median(
                    r["metrics"][name]["value"] for r in old[workload].values())
                second = statistics.median(
                    r["metrics"][name]["value"] for r in runs.values())
                change = (second - first) / first
                worse = change if spec["better"] == "lower" else -change
                ok &= worse <= spec["bound"]
                print(f"  {workload} {name:<22} {first:.6g} -> {second:.6g} "
                      f"({change:+.2%}){'  WORSE THAN BOUND' if worse > spec['bound'] else ''}")
    print("all within bounds" if ok else "NOT all within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
