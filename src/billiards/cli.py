"""Command-line surface.

Machine output (JSON reports, CSV traces) goes to stdout or --out and is
byte-deterministic for a fixed configuration; human-readable notes go to
stderr.  Exit codes: 0 success / all checks pass, 1 validation or check
failure, 2 parse or usage error (e.g. a grid or start count above
MAX_POINTS), 3 grazing ray mid-orbit, 4 unsupported table representation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .beam import conjugate_scan
from .billmap import DELTA_MIN, _chart_line, _gamma, _reflect, \
    jacobian_check_batch, s_derivatives
from .errors import BilliardError, CurvatureViolation, GrazingRay, SpecError
from .fourperiodic import table_profile, verify_d_h_relations, verify_orthoptic, \
    verify_parallelogram
from .profiles import ellipse_profile, validate_profile
from .sampling import random_interior_lines, scan_starts
from .supportfn import EllipseTable, ProfileTable, is_centrally_symmetric, \
    load_table, symmetry_defect, table_to_dict, validate_table
from .wirtinger import reduction_chain


# largest --grid, --n or --starts: a run at this size peaks near 1 GB
# (beam-scan, about 1 KB per start), well inside an 8 GB machine
MAX_POINTS = 2**20


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# one orbit row, step,psi,delta,p,phi,x,y: the bytes of _fmt per field
# joined by commas, from one format call
_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class RunConfig:
    """One command invocation; invalid grids/tolerances never reach the
    numerics, and the seed travels into every seeded output."""

    command: str
    spec_path: str
    grid: int = 1024
    tol: float = 1e-8
    steps: int = 0
    starts: int = 0
    max_steps: int = 0
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        if not _is_pow2(self.grid):
            raise ValueError(f"grid size {self.grid} must be a power of two")
        if self.command == "integral" and self.grid < 64:
            raise ValueError(f"grid size {self.grid} must be a power of two "
                             ">= 64")
        if self.grid > MAX_POINTS:
            raise ValueError(f"grid size {self.grid} exceeds {MAX_POINTS}")
        if self.starts > MAX_POINTS:
            raise ValueError(f"starts {self.starts} exceeds {MAX_POINTS}")
        if not self.tol > 0.0:
            raise ValueError(f"tolerance {self.tol} must be positive")
        for name in ("steps", "starts", "max_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data: dict, out_path) -> None:
    _emit(json.dumps(data, sort_keys=True, separators=(",", ": "),
                     indent=2) + "\n", out_path)


def _load(path):
    try:
        return load_table(path)
    except (json.JSONDecodeError, OSError, KeyError, TypeError,
            SpecError) as exc:
        print(f"error: cannot parse table spec: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _config(args, **fields) -> "RunConfig":
    try:
        return RunConfig(command=args.command, spec_path=args.spec, **fields)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


# --- table validate ----------------------------------------------------------


def cmd_table_validate(args) -> int:
    cfg = _config(args, grid=args.grid)
    spec = _load(args.spec)
    failed = False

    if isinstance(spec, ProfileTable):
        # mode admissibility is structural, so reaching here means the mode
        # list parsed; still report the range check on d
        try:
            validate_profile(spec.profile)
            print("mode-admissibility: PASS (all harmonics n = 2 mod 4, "
                  "d within (0, pi/2))")
        except ValueError as exc:
            print(f"mode-admissibility: FAIL ({exc})")
            failed = True

    try:
        stats = validate_table(spec, grid_n=cfg.grid)
        print(f"rho-positivity: PASS (min rho = {stats['min_rho']:.6g} "
              f"on {stats['grid']}-grid)")
    except (CurvatureViolation, ValueError) as exc:
        print(f"rho-positivity: FAIL ({exc})")
        failed = True

    defect = symmetry_defect(spec)
    if is_centrally_symmetric(spec):
        print(f"central-symmetry: PASS (defect {defect:.3g})")
    else:
        print(f"central-symmetry: FAIL (|h(psi+pi) - h(psi)| reaches "
              f"{defect:.3g})")
        failed = True

    return 1 if failed else 0


# --- orbit trace ---------------------------------------------------------------


def cmd_orbit(args) -> int:
    cfg = _config(args, steps=args.steps, out=args.out)
    if not (math.isfinite(args.psi0) and math.isfinite(args.delta0)):
        print("error: --psi0 and --delta0 must be finite", file=sys.stderr)
        return 2
    if math.ulp(args.psi0) > DELTA_MIN:
        # |psi0| >= 2^23: the lift cannot resolve the grazing floor
        print(f"error: --psi0 {args.psi0:g} is too large a lift: its spacing "
              f"{math.ulp(args.psi0):.3g} exceeds the grazing floor "
              f"{DELTA_MIN:g}", file=sys.stderr)
        return 2
    spec = _load(args.spec)
    validate_table(spec)
    rows = ["step,psi,delta,p,phi,x,y"]
    grazed = False
    psi, delta = args.psi0, args.delta0
    ellipse = isinstance(spec, EllipseTable)
    if ellipse:
        a2, b2 = spec.a**2, spec.b**2
    lams = []
    for step in range(cfg.steps + 1):
        try:
            jet = spec.jet(psi)     # one jet of h per bounce
            p, phi = _chart_line(jet, psi, delta)
        except BilliardError:
            grazed = True
            break
        if not (DELTA_MIN <= delta <= math.pi - DELTA_MIN):
            grazed = True
            break
        point = _gamma(jet, psi, math)   # the row's point, the chord's start
        rows.append(_ROW % (step, psi, delta, p, phi, *point))
        if ellipse:
            lams.append(a2 * math.cos(phi)**2 + b2 * math.sin(phi)**2
                        - p**2)
        if step == cfg.steps:
            break
        try:
            psi, delta = _reflect(spec, point, psi, delta)
        except GrazingRay:
            grazed = True
            break
    text = "\n".join(rows) + "\n"
    if ellipse and lams and not grazed:
        drift = max(abs(l - lams[0]) for l in lams)
        text += f"# caustic lambda0={_fmt(lams[0])} drift={_fmt(drift)}\n"
    _emit(text, cfg.out)
    if grazed:
        print("error: grazing ray, orbit aborted with partial output",
              file=sys.stderr)
        return 3
    return 0


# --- verification suites --------------------------------------------------------


def _check_twist(spec, grid):
    psi = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    delta = (np.arange(grid) + 1.0) * math.pi / (grid + 1)
    psis, deltas = np.meshgrid(psi, delta)
    s12 = s_derivatives(spec, psis - deltas, psis + deltas).s12
    min_s12 = float(np.min(s12))
    return {"check": "twist", "grid": grid,
            "max_residual": max(0.0, -min_s12), "pass": min_s12 > 0.0,
            "tolerance": 0.0, "min_s12": min_s12}


def _check_symplectic(spec, seed, tol):
    tol = max(tol, 1e-6)  # finite differences floor the achievable accuracy
    p, phi = random_interior_lines(spec, 1000, seed)
    dets = jacobian_check_batch(spec, p, phi)
    residual = float(np.max(np.abs(dets - 1.0)))
    return {"check": "symplectic", "grid": 1000, "max_residual": residual,
            "pass": residual <= tol, "tolerance": tol, "seed": seed}


def _check_poncelet(spec, profile, tol):
    starts = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    quad = verify_parallelogram(spec, profile, starts, tol)
    worst = float(np.max(quad.max_residual))
    return {"check": "poncelet", "grid": 64, "max_residual": worst,
            "pass": worst <= tol, "tolerance": tol}


def _check_orthoptic(spec, grid, tol):
    r_squared, deviation = verify_orthoptic(spec, grid)
    return {"check": "orthoptic", "grid": grid, "max_residual": deviation,
            "pass": deviation <= tol, "tolerance": tol,
            "r_squared": r_squared}


def _check_relations(spec, profile, grid, tol):
    res_h, res_dh = verify_d_h_relations(spec, profile, grid)
    residual = max(res_h, res_dh)
    return {"check": "relations", "grid": grid, "max_residual": residual,
            "pass": residual <= tol, "tolerance": tol}


def cmd_verify(args) -> int:
    cfg = _config(args, grid=args.grid, tol=args.tol, seed=args.seed,
                  out=args.out)
    spec = _load(args.spec)
    profile = table_profile(spec)
    wanted = ["twist", "symplectic", "poncelet", "orthoptic", "relations"] \
        if args.suite == "all" else [args.suite]
    checks = []
    for name in wanted:
        if name == "twist":
            checks.append(_check_twist(spec, min(cfg.grid, 128)))
        elif name == "symplectic":
            checks.append(_check_symplectic(spec, cfg.seed, cfg.tol))
        elif name == "orthoptic":
            checks.append(_check_orthoptic(spec, cfg.grid, cfg.tol))
        elif name in ("poncelet", "relations"):
            if profile is None:
                checks.append({"check": name, "grid": 0,
                               "max_residual": math.inf, "pass": False,
                               "tolerance": cfg.tol,
                               "error": "table has no 4-periodic profile"})
            elif name == "poncelet":
                checks.append(_check_poncelet(spec, profile, cfg.tol))
            else:
                checks.append(_check_relations(spec, profile, cfg.grid,
                                               cfg.tol))
    report = {"table": table_to_dict(spec), "suite": args.suite,
              "grid": cfg.grid, "tol": cfg.tol, "seed": cfg.seed,
              "threads": 1,    # single-threaded; the report format keeps the key
              "checks": checks,
              "pass": all(c["pass"] for c in checks)}
    _emit_json(report, cfg.out)
    return 0 if report["pass"] else 1


# --- integral report -------------------------------------------------------------


def cmd_integral(args) -> int:
    cfg = _config(args, grid=args.n, out=args.out)
    spec = _load(args.spec)
    if isinstance(spec, ProfileTable):
        profile, radius = spec.profile, spec.radius
    elif isinstance(spec, EllipseTable):
        profile = ellipse_profile(spec.a, spec.b)
        radius = math.sqrt(spec.a**2 + spec.b**2)
    else:
        print("error: integral pipeline needs a table with an angle profile "
              "(ellipse or profile type)", file=sys.stderr)
        return 4
    try:
        report = reduction_chain(profile, radius, cfg.grid)
    except CurvatureViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for label, ok, res in (
            ("int U == int P", report.identity_ok, report.residual_UP),
            ("int U == int W", report.residual_UW <= 1e-8 * max(1.0, radius**4),
             report.residual_UW),
            ("stepwise int Uj == int Vj == int Wj", report.stepwise_ok,
             max(report.stepwise_UV + report.stepwise_VW)),
            ("wirtinger gap >= 0", report.I_P >= -1e-9 * radius**4,
             report.I_P)):
        print(f"{'PASS' if ok else 'FAIL'}  {label}  (residual {res:.3e})",
              file=sys.stderr)
    data = report.to_dict()
    data["table"] = table_to_dict(spec)
    data["threads"] = 1
    _emit_json(data, cfg.out)
    return 0


# --- conjugate beam scan -----------------------------------------------------------


def cmd_beam_scan(args) -> int:
    cfg = _config(args, starts=args.starts, max_steps=args.max_steps,
                  seed=args.seed, out=args.out)
    spec = _load(args.spec)
    validate_table(spec)
    profile = table_profile(spec)
    _, _, p, phi = scan_starts(spec, profile, cfg.starts, cfg.seed)
    detected = conjugate_scan(spec, p, phi, cfg.max_steps)
    detections = [{"start_index": int(i), "step": int(step)}
                  for i, step in enumerate(detected) if step >= 0]
    report = {"table": table_to_dict(spec), "starts": cfg.starts,
              "max_steps": cfg.max_steps, "seed": cfg.seed,
              "threads": 1, "detections": detections,
              "detection_count": len(detections)}
    _emit_json(report, cfg.out)
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiard",
        description="Convex billiards from support functions: orbits, "
                    "verification suites, integral identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="table spec utilities")
    table_sub = p_table.add_subparsers(dest="table_command", required=True)
    p_validate = table_sub.add_parser("validate",
                                      help="check curvature, symmetry, modes")
    p_validate.add_argument("spec")
    p_validate.add_argument("--grid", type=int, default=512)
    p_validate.set_defaults(func=cmd_table_validate)

    p_orbit = sub.add_parser("orbit", help="trace an orbit to CSV")
    p_orbit.add_argument("spec")
    p_orbit.add_argument("--psi0", type=float, required=True)
    p_orbit.add_argument("--delta0", type=float, required=True)
    p_orbit.add_argument("--steps", type=int, required=True)
    p_orbit.add_argument("--out", default=None)
    p_orbit.set_defaults(func=cmd_orbit)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("spec")
    p_verify.add_argument("--suite", default="all",
                          choices=["twist", "symplectic", "poncelet",
                                   "orthoptic", "relations", "all"])
    p_verify.add_argument("--grid", type=int, default=1024,
                          help="grid size (power of two)")
    p_verify.add_argument("--tol", type=float, default=1e-8,
                          help="residual tolerance for the algebraic checks; "
                               "symplectic is floored at 1e-6 (FD noise)")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_integral = sub.add_parser("integral",
                                help="run the integral reduction chain")
    p_integral.add_argument("spec")
    p_integral.add_argument("--n", type=int, default=1024,
                            help="quadrature grid (power of two)")
    p_integral.add_argument("--out", default=None)
    p_integral.set_defaults(func=cmd_integral)

    p_scan = sub.add_parser("beam-scan",
                            help="scan for conjugate points from seeded starts")
    p_scan.add_argument("spec")
    p_scan.add_argument("--starts", type=int, default=256)
    p_scan.add_argument("--max-steps", type=int, default=10000)
    p_scan.add_argument("--seed", type=int, default=42)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_beam_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BilliardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
