"""Benchmark of the `billiards` library and its `billiard` CLI.

    python3 perfbench/run.py --workload scan-integrable|scan-mode6|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from `src/`, and
a missing `src/billiards` is an error (exit 1, no result). One client in
one process runs the workload's cycle of commands back to back (a closed
loop) through the in-process `billiards.cli.main` and checks every output.
Set-up is timed in fresh interpreters, the timed phase for `--seconds`.

With `--trace 0` the last line of stdout holds the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced run, whose
spans are written to `perfbench/out/`. See `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from speed import REFERENCE_KERNEL_S, reference_kernel

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SPEC_DIR = OUT / "specs"
PROBE = ROOT / "perfbench" / "setup_probe.py"
SETUP_REPEATS = 8        # fresh-interpreter set-ups before and again after
                         # the timed phase, after one warm-up
IMPORT_PROBES = 3        # `-X importtime` set-ups per traced run
TRACED_SETUPS = 3        # in-process set-ups per traced run
TAIL_PERCENTILE = 90.0   # every run has 100+ commands, so 10+ lie beyond it
PROBE_TIMEOUT_S = 120

perf = time.perf_counter


# --- the program under test -------------------------------------------------------


def import_cli():
    src = ROOT / "src"
    if not (src / "billiards" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src / 'billiards'}; run the "
                         "benchmark from the root of a checkout")
    sys.path.insert(0, str(src))
    import billiards.cli
    if Path(billiards.__file__).resolve().parent != (src / "billiards").resolve():
        raise SystemExit(f"error: imported billiards from {billiards.__file__}, "
                         f"not from {src}")
    return billiards.cli


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "BILLIARD_THREADS": os.environ.get("BILLIARD_THREADS", "unset")}


def probe_setup(workload: str, seed: int, importtime: bool) -> tuple[dict, str]:
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, str(PROBE), "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    times = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[1].strip().isdigit():
            times[parts[2].strip()] = int(parts[1]) * 1e-6
    return times


# --- commands and cycles ------------------------------------------------------------


class Client:
    """Runs commands one after another, checks each output, and times each
    command raw and at the reference speed."""

    def __init__(self, cli, checker, tracer=None):
        self.cli = cli
        self.checker = checker
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.kernels = [reference_kernel()]

    def run(self, op) -> tuple[float, float]:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("op." + op.kind) if self.tracer \
            else contextlib.nullcontext()
        code = None
        start = perf()
        try:
            with span, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse exits before main's own handler
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crash
            problems = ["traceback:\n" + traceback.format_exc()]
        elapsed = perf() - start
        self.kernels.append(reference_kernel())
        speed = 2.0 * REFERENCE_KERNEL_S / (self.kernels[-2] + self.kernels[-1])
        if code is not None:
            paused = self.tracer.paused() if self.tracer \
                else contextlib.nullcontext()
            try:
                with paused:
                    problems = self.checker.check(op, code, out.getvalue())
            except Exception:  # unreadable output fails the command
                problems = ["check raised:\n" + traceback.format_exc()]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(op.argv)}: {'; '.join(problems)}\n"
                  f"{err.getvalue()}", file=sys.stderr)
        return elapsed, elapsed * speed

    def cycle(self, ops) -> dict:
        """Runs the ops; `wall_s` leaves out the reference kernels."""
        first = len(self.kernels) - 1
        start = perf()
        times = [(op, *self.run(op)) for op in ops]
        kernels = self.kernels[first:]
        raw = perf() - start - sum(kernels[1:])
        return {"raw_wall_s": raw, "ops": times,
                "wall_s": raw * REFERENCE_KERNEL_S / statistics.fmean(kernels)}


# --- end-to-end metrics ----------------------------------------------------------------


def tail(values: list[float]) -> float:
    """The TAIL_PERCENTILE of the values, interpolated between neighbours."""
    ordered = sorted(values)
    pos = TAIL_PERCENTILE / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(cycles: list[dict], setup_s: float) -> tuple[dict, dict]:
    def median_over_cycles(kind, rate):
        values = []
        for c in cycles:
            mine = [(op, t) for op, _, t in c["ops"] if op.kind == kind]
            seconds = sum(t for _, t in mine)
            values.append(sum(op.units for op, _ in mine) / seconds if rate
                          else seconds / len(mine))
        return statistics.median(values)

    op_times = [t for c in cycles for _, _, t in c["ops"]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(c["wall_s"] for c in cycles), "s"),
        "start_steps_per_s": (median_over_cycles("beam-scan", True), "1/s"),
        "scan_s_p50": (median_over_cycles("beam-scan", False), "s"),
        "orbit_bounces_per_s": (median_over_cycles("orbit", True), "1/s"),
        "verify_s_p50": (median_over_cycles("verify", False), "s"),
        "integral_s_p50": (median_over_cycles("integral", False), "s"),
        "op_s_tail": (tail(op_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    raw_scans = [raw for c in cycles for op, raw, _ in c["ops"]
                 if op.kind == "beam-scan"]
    return metrics, {"op_s_tail_percentile": TAIL_PERCENTILE,
                     "op_s_tail_samples": len(op_times),
                     "cycles": len(cycles),
                     "raw_wall_s_p50": statistics.median(
                         c["raw_wall_s"] for c in cycles),
                     "raw_scan_s_p50": statistics.median(raw_scans)}


def probe_setups(wl, args) -> list[float]:
    """SETUP_REPEATS set-ups at the reference speed."""
    probes = [probe_setup(wl.name, args.seed, importtime=False)[0]
              for _ in range(SETUP_REPEATS)]
    return [p["setup_s"] * REFERENCE_KERNEL_S / p["kernel_s"] for p in probes]


def timed_run(cli, wl, args, checker) -> tuple[dict, dict, Client]:
    """Set-ups are probed both before and after the timed phase, so that a
    slow phase of the shared CPU that lasts seconds meets only some."""
    probe_setup(wl.name, args.seed, importtime=False)    # warm-up, not timed
    setups = probe_setups(wl, args)
    tables = workloads.setup(wl, args.seed, SPEC_DIR)
    ops = workloads.cycle(wl, args.seed, tables)
    client = Client(cli, checker)
    client.cycle(ops)                                    # warm-up, not timed
    cycles = []
    start = perf()
    while not cycles or perf() - start < args.seconds:
        cycles.append(client.cycle(ops))
    setups += probe_setups(wl, args)
    metrics, notes = end_to_end(cycles, statistics.median(setups))
    notes["setup_repeats"] = len(setups)
    return metrics, notes, client


# --- per-layer metrics -------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(setups, cycles, imports, overhead) -> dict:
    """The metrics mapped to `start_steps_per_s` count only what runs inside
    `beam-scan` commands (`op.beam-scan/` keys), since every cycle also
    runs verify, integral and orbit, which call `jet` and `geometric_reflect`
    one line at a time."""
    first = cycles[0]
    calls, counts = first["calls"], first["counts"]
    scan = tracing.SCAN_COMMAND + "/"

    def per_cycle(field, name):
        return statistics.fmean(c[field].get(name, 0.0) for c in cycles)

    def in_setup(name):
        return statistics.median(s["total_s"].get(name, 0.0) for s in setups)

    def jets_per_call(name, scope=""):
        return _ratio(counts[scope + "jets_under:" + name], calls[scope + name])

    cli_self = statistics.fmean(
        sum(v for k, v in c["self_s"].items() if k.startswith("cli."))
        for c in cycles)
    cli_main = statistics.fmean(_ratio(c["total_s"].get("cli.main", 0.0),
                                       c["calls"]["cli.main"]) for c in cycles)
    return {
        "supportfn.jet.calls": (calls[scan + "supportfn.jet"], "count"),
        "supportfn.jet.points": (counts[scan + "supportfn.jet.points"], "count"),
        "supportfn.jet.self_s": (per_cycle("self_s", scan + "supportfn.jet"), "s"),
        "supportfn.import_s": (imports["supportfn"], "s"),
        "supportfn.validate_table.s": (in_setup("supportfn.validate_table"), "s"),
        "profiles.jet.calls": (calls[scan + "profiles.jet"], "count"),
        "profiles.jet.self_s": (per_cycle("self_s", scan + "profiles.jet"), "s"),
        "billmap.forward_map_batch.calls":
            (calls[scan + "billmap.forward_map_batch"], "count"),
        "billmap.forward_map_batch.self_s":
            (per_cycle("self_s", scan + "billmap.forward_map_batch"), "s"),
        "billmap.forward_map_batch.jet_calls_per_call":
            (jets_per_call("billmap.forward_map_batch", scan), "count/call"),
        "billmap.s_derivatives.self_s":
            (per_cycle("self_s", scan + "billmap.s_derivatives"), "s"),
        "billmap.geometric_reflect.calls":
            (calls["billmap.geometric_reflect"], "count"),
        "billmap.geometric_reflect.self_s":
            (per_cycle("self_s", "billmap.geometric_reflect"), "s"),
        "billmap.geometric_reflect.jet_calls_per_call":
            (jets_per_call("billmap.geometric_reflect"), "count/call"),
        "billmap.chart_to_line.self_s":
            (per_cycle("self_s", "billmap.chart_to_line"), "s"),
        "billmap.jacobian_check_batch.s":
            (per_cycle("total_s", "billmap.jacobian_check_batch"), "s"),
        "billmap.solver_errors": (counts["billmap.solver_errors"], "count"),
        "beam.conjugate_scan.self_s":
            (per_cycle("self_s", scan + "beam.conjugate_scan"), "s"),
        "beam.batch_steps": (counts["beam.batch_steps"], "count"),
        "beam.live_fraction": (_ratio(counts["beam.live_start_steps"],
                                      counts["beam.computed_start_steps"]),
                               "ratio"),
        "fourperiodic.verify_parallelogram.calls":
            (calls["fourperiodic.verify_parallelogram"], "count"),
        "fourperiodic.verify_parallelogram.s":
            (per_cycle("total_s", "fourperiodic.verify_parallelogram"), "s"),
        "fourperiodic.verify_orthoptic.s":
            (per_cycle("total_s", "fourperiodic.verify_orthoptic"), "s"),
        "fourperiodic.verify_d_h_relations.s":
            (per_cycle("total_s", "fourperiodic.verify_d_h_relations"), "s"),
        "wirtinger.reduction_chain.self_s":
            (per_cycle("self_s", "wirtinger.reduction_chain"), "s"),
        "wirtinger.integrand_U.s":
            (per_cycle("total_s", "wirtinger.integrand_U"), "s"),
        "wirtinger.spectral_gap.s":
            (per_cycle("total_s", "wirtinger.spectral_gap"), "s"),
        "sampling.scan_starts.s": (in_setup("sampling.scan_starts"), "s"),
        "sampling.random_interior_lines.s":
            (per_cycle("total_s", "sampling.random_interior_lines"), "s"),
        "cli.import_s": (imports["cli"], "s"),
        "cli.main.s": (cli_main, "s"),
        "cli.self_s": (cli_self, "s"),
        "trace.overhead_s": (overhead[0], "s"),
        "trace.overhead_frac": (overhead[1], "ratio"),
    }


def layer_summary(cycles: list[dict]) -> dict:
    """Per layer and span name: calls, self and inclusive seconds per cycle,
    over the whole cycle (the per-command `op.*/` aggregates left out)."""
    names = sorted({n for c in cycles for n in c["calls"] if "/" not in n})
    layers: dict[str, dict] = {}
    for name in names:
        layer = name.split(".", 1)[0]
        layers.setdefault(layer, {})[name] = {
            "calls": cycles[0]["calls"][name],
            "self_s": statistics.fmean(c["self_s"].get(name, 0.0) for c in cycles),
            "total_s": statistics.fmean(c["total_s"].get(name, 0.0) for c in cycles),
        }
    return layers


def traced_run(cli, wl, args, checker) -> tuple[dict, dict, Client]:
    probes = [import_times(probe_setup(wl.name, args.seed, True)[1])
              for _ in range(IMPORT_PROBES)]
    imports = {
        "supportfn": statistics.median(p["billiards.supportfn"] for p in probes),
        "cli": statistics.median(p["billiards.cli"] for p in probes),
    }
    tables = workloads.setup(wl, args.seed, SPEC_DIR)
    ops = workloads.cycle(wl, args.seed, tables)
    tracer = tracing.Tracer()
    client = Client(cli, checker, tracer)
    client.cycle(ops)                                    # warm-up, not timed
    start = perf()
    untraced = []
    while not untraced or perf() - start < args.seconds / 3:
        untraced.append(client.cycle(ops)["wall_s"])

    tracer.install()
    tracer.recording = True
    setups, cycles, walls = [], [], []
    try:
        for _ in range(TRACED_SETUPS):
            before = tracer.snapshot()
            with tracer.span("bench.setup"):
                workloads.setup(wl, args.seed, SPEC_DIR)
            setups.append(tracing.difference(tracer.snapshot(), before))
        while len(cycles) < 2 or perf() - start < args.seconds:
            before = tracer.snapshot()
            with tracer.span("bench.cycle"):
                walls.append(client.cycle(ops)["wall_s"])
            cycles.append(tracing.difference(tracer.snapshot(), before))
    finally:
        tracer.recording = False
        tracer.uninstall()

    base = statistics.median(untraced)
    extra = statistics.median(walls) - base
    metrics = per_layer(setups, cycles, imports, (extra, extra / base))
    repeat = all(c["calls"] == cycles[0]["calls"]
                 and c["counts"] == cycles[0]["counts"] for c in cycles)
    if not repeat:
        print("FAILED layer counts differ between cycles", file=sys.stderr)
    summary = layer_summary(cycles)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed,
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": tracer.spans, "spans_dropped": tracer.spans_dropped,
        "layers": summary}), encoding="utf-8")
    for layer, names in summary.items():
        print(f"layer {layer}: self {sum(v['self_s'] for v in names.values()):.6f} s"
              " per cycle")
        for name, v in names.items():
            print(f"  {name:<42} calls {v['calls']:>8}  self {v['self_s']:.6f} s"
                  f"  total {v['total_s']:.6f} s")
    notes = {"counts_repeat": repeat, "traced_cycles": len(cycles),
             "untraced_cycles": len(untraced), "untraced_cycle_s": base,
             "spans_file": str(spans_path.relative_to(ROOT)),
             "spans_kept": len(tracer.spans),
             "spans_dropped": tracer.spans_dropped}
    return metrics, notes, client


# --- entry point -----------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cli = import_cli()
    env = environment()
    wl = workloads.WORKLOADS[args.workload]
    checker = workloads.Checker(wl, args.seed, ROOT)
    run = traced_run if args.trace else timed_run
    metrics, notes, client = run(cli, wl, args, checker)
    correct = client.failed == 0 and notes.get("counts_repeat", True)
    failed_frac = client.failed / client.attempted

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:.6g} {unit}")
    if "op_s_tail_samples" in notes:
        print(f"  op_s_tail is p{notes['op_s_tail_percentile']:g} of "
              f"{notes['op_s_tail_samples']} commands")
    print(f"{'failed_frac':<46} {failed_frac:.6g} "
          f"({client.failed} of {client.attempted} commands)")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": client.attempted, "failed": client.failed,
              "failed_frac": failed_frac, "notes": notes,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": client.attempted,
                      "failed": client.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
