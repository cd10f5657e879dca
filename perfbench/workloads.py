"""Workloads of the benchmark: tables, seeded inputs, one cycle of commands,
and the checks on every command's output.

A workload is a fixed cycle of `billiard` commands run in-process through
`billiards.cli.main`. Every input (scan seed, orbit start, verify seed)
derives from the workload seed, so a run repeats the same cycle and every
repeat of a command must give the same bytes.

Nothing here imports `billiards` at module level: the set-up probe times
that import itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

STARTS = 256            # the CLI's default scan width
ORACLE_TOL = 1e-9       # orbit rows against the generating-function map
DRIFT_TOL = 1e-9        # confocal caustic drift on ellipse tables
ORBIT_SAMPLES = 8       # orbit rows checked against billmap.forward_map

TABLE_SPECS = {
    "circle": {"type": "ellipse", "a": 1.0, "b": 1.0},
    "ellipse": {"type": "ellipse", "a": 2.0, "b": 1.0},
    "profile-a": {"type": "profile", "R": 1.0, "d_modes": [[2, 0.1, 0.0]]},
    "mode6": {"type": "profile", "R": 1.0,
              "d_modes": [[2, 0.1, 0.0], [6, 0.02, 0.0]]},
}
INTEGRABLE = ("circle", "ellipse")   # a scan must detect nothing here
ARCHIVE_TABLE = "mode6"              # the table of the archived scan
ARCHIVE_SEED = 42


@dataclass(frozen=True)
class Workload:
    """Tables and command sizes of one workload.

    Each cycle runs, per table, one `beam-scan`, one `verify --suite all`,
    one `integral` and one `orbit`. The sizes decide which of them
    dominates: the scans in the scan workloads, the scalar orbit, verify
    and integral paths in `certify`.
    """

    name: str
    tables: tuple[str, ...]
    scan_steps: int
    orbit_bounces: int
    integral_n: int


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("scan-integrable", ("ellipse",), scan_steps=100,
                 orbit_bounces=200, integral_n=4096),
        Workload("scan-mode6", ("mode6",), scan_steps=100,
                 orbit_bounces=200, integral_n=4096),
        Workload("certify", ("circle", "ellipse", "profile-a", "mode6"),
                 scan_steps=16, orbit_bounces=2000, integral_n=65536),
    )
}


@dataclass(frozen=True)
class Table:
    name: str
    path: Path
    spec: object
    psi0: float
    delta0: float


@dataclass(frozen=True)
class Op:
    kind: str
    table: Table
    argv: tuple[str, ...]
    units: int          # start*steps of a scan, bounces of an orbit, else 1


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def setup(wl: Workload, seed: int, spec_dir: Path) -> dict[str, Table]:
    """Write, load and validate the tables and derive the seeded inputs.

    The scan starts are drawn here so that set-up time covers them, as it
    would for a caller of the library; `beam-scan` draws the same starts
    again from the same seed. Orbit starts sit at a seeded psi0 and
    a seeded share, between 1/4 and 3/4, of the invariant-curve angle
    d(psi0), clear of the grazing floor for every seed.
    """
    from billiards.fourperiodic import table_profile
    from billiards.sampling import SplitMix64, scan_starts
    from billiards.supportfn import load_table, validate_table

    spec_dir.mkdir(parents=True, exist_ok=True)
    rng = SplitMix64(seed)
    tables = {}
    for name in wl.tables:
        path = spec_dir / f"{name}.json"
        path.write_text(json.dumps(TABLE_SPECS[name]), encoding="utf-8")
        spec = load_table(path)
        validate_table(spec)
        profile = table_profile(spec)
        scan_starts(spec, profile, STARTS, seed)
        psi0 = 2.0 * math.pi * rng.next_float()
        delta0 = profile.jet(psi0)[0] * (0.25 + 0.5 * rng.next_float())
        tables[name] = Table(name, path, spec, psi0, delta0)
    return tables


def cycle(wl: Workload, seed: int, tables: dict[str, Table]) -> list[Op]:
    ops = []
    for name in wl.tables:
        t = tables[name]
        path = str(t.path)
        ops.append(Op("beam-scan", t, (
            "beam-scan", path, "--starts", str(STARTS),
            "--max-steps", str(wl.scan_steps), "--seed", str(seed)),
            STARTS * wl.scan_steps))
        ops.append(Op("verify", t, (
            "verify", path, "--suite", "all", "--seed", str(seed)), 1))
        ops.append(Op("integral", t, (
            "integral", path, "--n", str(wl.integral_n)), 1))
        ops.append(Op("orbit", t, (
            "orbit", path, "--psi0", _fmt(t.psi0), "--delta0", _fmt(t.delta0),
            "--steps", str(wl.orbit_bounces)), wl.orbit_bounces))
    return ops


class Checker:
    """Output checks; `check` returns a list of problems, empty when fine."""

    def __init__(self, wl: Workload, seed: int, root: Path):
        self.wl = wl
        self.seed = seed
        self.first_output: dict[tuple[str, str], str] = {}
        self.archive = None
        if seed == ARCHIVE_SEED and ARCHIVE_TABLE in wl.tables:
            path = root / "reports" / "conjugate_scan_mode6.json"
            archived = json.loads(path.read_text(encoding="utf-8"))
            self.archive = [d for d in archived["detections"]
                            if d["step"] <= wl.scan_steps]

    def check(self, op: Op, code: int, out: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        key = (op.kind, op.table.name)
        first = self.first_output.setdefault(key, out)
        problems = [] if out == first else ["output bytes differ between repeats"]
        return problems + getattr(self, "_" + op.kind.replace("-", "_"))(op, out)

    def _beam_scan(self, op: Op, out: str) -> list[str]:
        report = json.loads(out)
        count = report["detection_count"]
        problems = []
        if count != len(report["detections"]):
            problems.append("detection_count disagrees with detections")
        if op.table.name in INTEGRABLE and count != 0:
            problems.append(f"{count} detections on an integrable table")
        if op.table.name == ARCHIVE_TABLE and count < 1:
            problems.append("no detection on the mode-6 table")
        if self.archive is not None and op.table.name == ARCHIVE_TABLE \
                and report["detections"] != self.archive:
            problems.append("detections differ from the archived scan prefix")
        return problems

    def _verify(self, op: Op, out: str) -> list[str]:
        report = json.loads(out)
        return [] if report["pass"] is True else ["verify did not pass"]

    def _integral(self, op: Op, out: str) -> list[str]:
        report = json.loads(out)
        return [f"{key} is false" for key in ("identity_ok", "stepwise_ok")
                if report[key] is not True]

    def _orbit(self, op: Op, out: str) -> list[str]:
        from billiards.billmap import LineCoord, forward_map

        lines = out.splitlines()
        if lines[0] != "step,psi,delta,p,phi,x,y":
            return ["orbit CSV header"]
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        bounces = self.wl.orbit_bounces
        if len(rows) != bounces + 1:
            return [f"orbit has {len(rows)} rows, want {bounces + 1}"]
        problems = []
        if op.table.name in INTEGRABLE:
            footer = lines[-1]
            if not footer.startswith("# caustic "):
                problems.append("missing caustic footer")
            elif not float(footer.rsplit("drift=", 1)[1]) <= DRIFT_TOL:
                problems.append(f"caustic drift {footer}")
        worst = 0.0
        for k in range(ORBIT_SAMPLES):
            i = k * (bounces - 1) // (ORBIT_SAMPLES - 1)
            p, phi = float(rows[i][3]), float(rows[i][4])
            image = forward_map(op.table.spec, LineCoord(p, phi))
            worst = max(worst, abs(image.p - float(rows[i + 1][3])),
                        abs(image.phi - float(rows[i + 1][4])))
        if not worst <= ORACLE_TOL:
            problems.append(f"orbit row differs from forward_map by {worst:.3g}")
        return problems
