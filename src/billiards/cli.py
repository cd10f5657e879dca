"""Command-line surface.

Machine output (JSON reports, CSV traces) goes to stdout or --out and is
byte-deterministic for a fixed configuration; human-readable notes go to
stderr.  Exit codes: 0 success / all checks pass, 1 validation or check
failure, 2 parse or usage error (e.g. a grid below MIN_GRID, a grid or
start count above MAX_POINTS, or an --out that cannot be opened), 3
grazing ray (an orbit start or bounce off the floor), 4 unsupported table
representation.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import stat
import sys

import numpy as np

# every command needs these; each command imports the modules it runs,
# so a process loads only those (billmap, fourperiodic, sampling, beam and
# wirtinger are most of the package's import time)
from . import __version__
from .errors import BilliardError, CurvatureViolation, GrazingRay, SpecError
from .profiles import validate_profile
from .supportfn import EllipseTable, ProfileTable, load_table, \
    symmetry_check, table_to_dict, validate_table


# largest --grid, --n or --starts: a run at this size peaks near 1.8 GB
# (beam-scan: 1.7 KB per start by tracemalloc, 16384 ellipse starts and
# 40 steps), well inside an 8 GB machine
MAX_POINTS = 2**20
# smallest --grid or --n: the integral chain refuses fewer points, and on
# a few points the grid checks are vacuous (at 1 the orthoptic check
# compares one sample with its own mean and passes any table)
MIN_GRID = 64


# one orbit row, step,psi,delta,p,phi,x,y: the bytes of f"{v:.17g}" per
# field joined by commas, from one format call
_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"


class UsageError(Exception):
    """An option out of range or a spec that does not parse (exit 2)."""


def _usage(args) -> None:
    """Refuse the first out-of-range option; a command that lacks an
    option takes a value that passes."""
    grid = getattr(args, "grid", 1024)
    if not (grid > 0 and grid & (grid - 1) == 0):
        raise UsageError(f"grid size {grid} must be a power of two")
    if grid < MIN_GRID:
        raise UsageError(f"grid size {grid} must be a power of two "
                         f">= {MIN_GRID}")
    if grid > MAX_POINTS:
        raise UsageError(f"grid size {grid} exceeds {MAX_POINTS}")
    if getattr(args, "starts", 0) > MAX_POINTS:
        raise UsageError(f"starts {args.starts} exceeds {MAX_POINTS}")
    if not getattr(args, "tol", 1.0) > 0.0:
        raise UsageError(f"tolerance {args.tol} must be positive")
    for name in ("steps", "starts", "max_steps"):
        if getattr(args, name, 0) < 0:
            raise UsageError(f"{name} must be nonnegative")
    if getattr(args, "out", None):
        _check_out(args.out)


def _unwritable(path, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _check_out(path) -> None:
    """Refuse, before any work and without creating a file, an --out that
    open would refuse for its path alone: a parent that is missing or not
    a directory, or a directory (a trailing separator names one).  The
    reason is open's.  Any other refusal, such as a permission, comes from
    _emit."""
    parent = os.path.dirname(path.rstrip(os.sep)) or "."
    try:
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if path.endswith(os.sep) or os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            f = open(out_path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise _unwritable(out_path, exc) from exc
        with f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(spec, fields: dict, out_path) -> None:
    """The command's fields, the table and a thread count of 1 as JSON
    (single threaded; the report format keeps the key)."""
    report = {**fields, "table": table_to_dict(spec), "threads": 1}
    _emit(json.dumps(report, sort_keys=True, separators=(",", ": "),
                     indent=2) + "\n", out_path)


def _load(path):
    try:
        return load_table(path)
    except (OSError, KeyError, TypeError, SpecError) as exc:
        raise UsageError(f"cannot parse table spec: {exc}") from exc


# --- table validate ----------------------------------------------------------


def cmd_table_validate(args) -> int:
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
        stats = validate_table(spec, grid_n=args.grid)
        print(f"rho-positivity: PASS (min rho = {stats['min_rho']:.6g} "
              f"on {stats['grid']}-grid)")
    except (CurvatureViolation, ValueError) as exc:
        print(f"rho-positivity: FAIL ({exc})")
        failed = True

    defect, symmetric = symmetry_check(spec)
    if symmetric:
        print(f"central-symmetry: PASS (defect {defect:.3g})")
    else:
        print(f"central-symmetry: FAIL (|h(psi+pi) - h(psi)| reaches "
              f"{defect:.3g})")
        failed = True

    return 1 if failed else 0


# --- orbit trace ---------------------------------------------------------------


def cmd_orbit(args) -> int:
    from .billmap import DELTA_MIN, oracle_orbit

    if not (math.isfinite(args.psi0) and math.isfinite(args.delta0)):
        raise UsageError("--psi0 and --delta0 must be finite")
    if math.ulp(args.psi0) > DELTA_MIN:
        # |psi0| >= 2^23: the lift cannot resolve the grazing floor
        raise UsageError(f"--psi0 {args.psi0:g} is too large a lift: its "
                         f"spacing {math.ulp(args.psi0):.3g} exceeds the "
                         f"grazing floor {DELTA_MIN:g}")
    spec = _load(args.spec)
    validate_table(spec)
    rows = ["step,psi,delta,p,phi,x,y"]
    ellipse = isinstance(spec, EllipseTable)
    if ellipse:
        a2, b2 = spec.a**2, spec.b**2
    try:
        # range first, so the bounce after the last row is never computed
        for step, (psi, delta, p, point) in zip(
                range(args.steps + 1),
                oracle_orbit(spec, args.psi0, args.delta0)):
            phi = psi + delta
            rows.append(_ROW % (step, psi, delta, p, phi, *point))
            if ellipse:
                lam = a2 * math.cos(phi)**2 + b2 * math.sin(phi)**2 - p**2
                if step == 0:
                    lam0, drift = lam, 0.0
                drift = max(drift, abs(lam - lam0))
        grazed = False
    except GrazingRay:
        grazed = True
    text = "\n".join(rows) + "\n"
    if ellipse and not grazed:    # then step 0 ran and set lam0
        text += f"# caustic lambda0={lam0:.17g} drift={drift:.17g}\n"
    _emit(text, args.out)
    if grazed:
        print("error: grazing ray, orbit aborted with partial output",
              file=sys.stderr)
        return 3
    return 0


# --- verification suites --------------------------------------------------------


def _check(name, grid, residual, tol, passed=None, **extra) -> dict:
    """One check entry; it passes when residual <= tol unless told."""
    return {"check": name, "grid": grid, "max_residual": residual,
            "pass": residual <= tol if passed is None else passed,
            "tolerance": tol, **extra}


def _check_twist(spec, profile, grid, tol, seed):
    from .billmap import twist_grid

    grid = min(grid, 128)
    psi = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    delta = (np.arange(grid) + 1.0) * math.pi / (grid + 1)
    s12 = twist_grid(spec, psi, delta[:, None])
    min_s12 = float(np.min(s12))
    return _check("twist", grid, max(0.0, -min_s12), 0.0,
                  passed=min_s12 > 0.0, min_s12=min_s12)


def _check_symplectic(spec, profile, grid, tol, seed):
    from .billmap import jacobian_check_batch
    from .sampling import random_interior_lines

    tol = max(tol, 1e-6)  # finite differences floor the achievable accuracy
    p, phi = random_interior_lines(spec, 1000, seed)
    dets = jacobian_check_batch(spec, p, phi)
    return _check("symplectic", 1000, float(np.max(np.abs(dets - 1.0))), tol,
                  seed=seed)


def _check_poncelet(spec, profile, grid, tol, seed):
    from .fourperiodic import verify_parallelogram

    starts = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    quad = verify_parallelogram(spec, profile, starts, tol)
    return _check("poncelet", 64, float(np.max(quad.max_residual)), tol)


def _check_orthoptic(spec, profile, grid, tol, seed):
    from .fourperiodic import verify_orthoptic

    r_squared, deviation = verify_orthoptic(spec, grid)
    return _check("orthoptic", grid, deviation, tol, r_squared=r_squared)


def _check_relations(spec, profile, grid, tol, seed):
    from .fourperiodic import verify_d_h_relations

    res_h, res_dh = verify_d_h_relations(spec, profile, grid)
    return _check("relations", grid, max(res_h, res_dh), tol)


# the --suite choices besides "all", in the report order of "all"; each
# check takes (spec, profile, grid, tol, seed)
CHECKS = {"twist": _check_twist, "symplectic": _check_symplectic,
          "poncelet": _check_poncelet, "orthoptic": _check_orthoptic,
          "relations": _check_relations}
NEEDS_PROFILE = ("poncelet", "relations")


def cmd_verify(args) -> int:
    from .fourperiodic import table_profile

    spec = _load(args.spec)
    validate_table(spec)
    profile = table_profile(spec)
    checks = [_check(name, 0, math.inf, args.tol, passed=False,
                     error="table has no 4-periodic profile")
              if profile is None and name in NEEDS_PROFILE
              else CHECKS[name](spec, profile, args.grid, args.tol, args.seed)
              for name in (CHECKS if args.suite == "all" else [args.suite])]
    passed = all(c["pass"] for c in checks)
    _emit_report(spec, {"suite": args.suite, "grid": args.grid,
                        "tol": args.tol, "seed": args.seed, "checks": checks,
                        "pass": passed}, args.out)
    return 0 if passed else 1


# --- integral report -------------------------------------------------------------


def cmd_integral(args) -> int:
    from .fourperiodic import table_profile
    from .wirtinger import reduction_chain

    spec = _load(args.spec)
    profile = table_profile(spec)
    if profile is None:
        print("error: integral pipeline needs a table with an angle profile "
              "(ellipse or profile type)", file=sys.stderr)
        return 4
    radius = spec.radius if isinstance(spec, ProfileTable) \
        else math.sqrt(spec.a**2 + spec.b**2)
    report = reduction_chain(profile, radius, args.grid)
    verdicts = report.verdicts()
    for label, ok, res in verdicts:
        print(f"{'PASS' if ok else 'FAIL'}  {label}  (residual {res:.3e})",
              file=sys.stderr)
    _emit_report(spec, report.to_dict(), args.out)
    return 0 if all(ok for _, ok, _ in verdicts) else 1


# --- conjugate beam scan -----------------------------------------------------------


def cmd_beam_scan(args) -> int:
    from .beam import conjugate_scan
    from .fourperiodic import table_profile
    from .sampling import scan_starts

    spec = _load(args.spec)
    validate_table(spec)
    _, delta, p, phi = scan_starts(spec, table_profile(spec), args.starts,
                                   args.seed)
    detected = conjugate_scan(spec, p, phi, args.max_steps, phi + 2.0 * delta)
    detections = [{"start_index": int(i), "step": int(step)}
                  for i, step in enumerate(detected) if step >= 0]
    _emit_report(spec, {"starts": args.starts, "max_steps": args.max_steps,
                        "seed": args.seed, "detections": detections,
                        "detection_count": len(detections)}, args.out)
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiard",
        description="Convex billiards from support functions: orbits, "
                    "verification suites, integral identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    spec_arg = argparse.ArgumentParser(add_help=False)
    spec_arg.add_argument("spec")

    p_table = sub.add_parser("table", help="table spec utilities")
    table_sub = p_table.add_subparsers(dest="table_command", required=True)
    p_validate = table_sub.add_parser("validate", parents=[spec_arg],
                                      help="check curvature, symmetry, modes")
    p_validate.add_argument("--grid", type=int, default=512)
    p_validate.set_defaults(func=cmd_table_validate)

    p_orbit = sub.add_parser("orbit", parents=[spec_arg],
                             help="trace an orbit to CSV")
    p_orbit.add_argument("--psi0", type=float, required=True)
    p_orbit.add_argument("--delta0", type=float, required=True)
    p_orbit.add_argument("--steps", type=int, required=True)
    p_orbit.set_defaults(func=cmd_orbit)

    p_verify = sub.add_parser("verify", parents=[spec_arg],
                              help="run a verification suite")
    p_verify.add_argument("--suite", default="all", choices=[*CHECKS, "all"])
    p_verify.add_argument("--grid", type=int, default=1024,
                          help="grid size (power of two)")
    p_verify.add_argument("--tol", type=float, default=1e-8,
                          help="residual tolerance for the algebraic checks; "
                               "symplectic is floored at 1e-6 (FD noise)")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.set_defaults(func=cmd_verify)

    p_integral = sub.add_parser("integral", parents=[spec_arg],
                                help="run the integral reduction chain")
    p_integral.add_argument("--n", type=int, default=1024, dest="grid",
                            metavar="N", help="quadrature grid (power of two)")
    p_integral.set_defaults(func=cmd_integral)

    p_scan = sub.add_parser("beam-scan", parents=[spec_arg],
                            help="scan for conjugate points from seeded starts")
    p_scan.add_argument("--starts", type=int, default=256)
    p_scan.add_argument("--max-steps", type=int, default=10000)
    p_scan.add_argument("--seed", type=int, default=42)
    p_scan.set_defaults(func=cmd_beam_scan)

    # --out last among each command's options, where help lists it; a
    # parent parser would list it first
    for command in (p_orbit, p_verify, p_integral, p_scan):
        command.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _usage(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BilliardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
