"""SHA-256 digests of the numerical outputs, to compare two checkouts.

    python3 scripts/output_digest.py [--src DIR]

The package is imported from `DIR`, by default the `src/` of the checkout
that holds this script, so one version of the script can digest two trees
(say, `git archive` exports of a parent commit and of a change).
For each table of the benchmark (`perfbench/workloads.py`), and for one
Fourier table after them, it prints ten digests:

- `starts`: the raw `psi`, `delta`, `p` and `phi` bytes of the 256
  `scan_starts` at seeds 42 and 7, the start lines of `beam-scan`; the
  `maps` stream sees only the seed-42 `p` and `phi`, and only through
  the steps it takes from them.
- `maps`: the `p`/`phi` bytes of 200 cold `forward_map_batch` steps from
  the 256 seed-42 `scan_starts`, then `jacobian_check_batch` on 1000
  `random_interior_lines` (seed 100 for the first table, 101 for the next,
  and so on). A solve that fails ends that table's stream with the error
  text, which is hashed too.
- `integral`: the stdout bytes of `billiard integral` at `--n` 64, 1024,
  4096 and 65536; at 64 the half-grid checks sum 32 samples.
- `orbit`: the stdout bytes of `billiard orbit` from `--psi0 0.3
  --delta0 0.7`, 500 steps.
- `orbit2000`: the same from `--psi0 2.5 --delta0 0.5`, 2000 steps, the
  orbit length of the benchmark's `certify` workload; its lifts reach
  about 2000.
- `verify`: the stdout bytes of `billiard verify --suite all` at
  `--seed` 42 and 7, two draws of the symplectic check's interior lines.
- `validate`: the stdout bytes of `billiard table validate`.
- `scan`: the stdout bytes of `billiard beam-scan --max-steps 500` (256
  seed-42 starts).
- `poncelet`: the raw `points`, `psis` and `momenta` bytes of
  `verify_parallelogram` on the 64 array starts of `verify`'s Poncelet
  check, every vertex of the geometric oracle on arrays; `verify` itself
  prints only their worst residual.
- `chart`: the float64 bytes of `perimeter`, of `arclength_of_psi` at
  `psi` = -1, 0.5, 7.5 and 20, and of `chart_change_determinant` at
  `(psi, delta)` = (0.4, 0.9) and (2.2, 1.7), all float calls. A
  `SolverError` ends the stream as in `maps`.

The Fourier table has no angle profile: its `verify` exits 1 with the
no-profile entries of `poncelet` and `relations`, its `integral` exits 4,
its `poncelet` line reads `(no angle profile)`, and its `jet` is the
Fourier series, which no benchmark table uses.
Every command is covered; the archived scan
`reports/conjugate_scan_mode6.json` covers `beam-scan` at full length
(`cmp` its output). A change that leaves the numerics alone prints the
same lines on the parent and on the change. The bits depend on the numpy
and libm build, so compare two checkouts on one machine; this is a script
and not a test for that reason.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import TABLE_SPECS  # noqa: E402

STARTS, STEPS, SCAN_SEED = 256, 200, 42
START_SEEDS = (42, 7)
LINES, LINE_SEED = 1000, 100
INTEGRAL_N = (64, 1024, 4096, 65536)
ORBIT_ARGS = ("--psi0", "0.3", "--delta0", "0.7", "--steps", "500")
LONG_ORBIT_ARGS = ("--psi0", "2.5", "--delta0", "0.5", "--steps", "2000")
SCAN_ARGS = ("--max-steps", "500")
VERIFY_SEEDS = (42, 7)
PONCELET_STARTS = 64
CHART_PSIS = (-1.0, 0.5, 7.5, 20.0)
CHART_POINTS = ((0.4, 0.9), (2.2, 1.7))
TABLES = {**TABLE_SPECS,
          "fourier": {"type": "fourier", "c0": 1.0,
                      "cos": [0.0, 0.1, 0.0, 0.02], "sin": [0.0, 0.03]}}


def starts_digest(spec) -> str:
    from billiards.fourperiodic import table_profile
    from billiards.sampling import scan_starts

    digest = hashlib.sha256()
    for seed in START_SEEDS:
        for array in scan_starts(spec, table_profile(spec), STARTS, seed):
            digest.update(array.tobytes())
    return digest.hexdigest()


def maps_digest(spec, line_seed: int) -> str:
    from billiards.billmap import forward_map_batch, jacobian_check_batch
    from billiards.errors import SolverError
    from billiards.fourperiodic import table_profile
    from billiards.sampling import random_interior_lines, scan_starts

    digest = hashlib.sha256()
    try:
        _, _, p, phi = scan_starts(spec, table_profile(spec), STARTS, SCAN_SEED)
        for _ in range(STEPS):
            p, phi = forward_map_batch(spec, p, phi)[:2]
            digest.update(p.tobytes())
            digest.update(phi.tobytes())
        p, phi = random_interior_lines(spec, LINES, line_seed)
        digest.update(jacobian_check_batch(spec, p, phi).tobytes())
    except SolverError as exc:
        digest.update(f"SolverError: {exc}".encode())
        return f"{digest.hexdigest()} (SolverError: {exc})"
    return digest.hexdigest()


def poncelet_digest(spec) -> str:
    from billiards.errors import GrazingRay, SolverError
    from billiards.fourperiodic import table_profile, verify_parallelogram

    profile = table_profile(spec)
    if profile is None:
        return "(no angle profile)"
    digest = hashlib.sha256()
    starts = np.linspace(0.0, 2.0 * math.pi, PONCELET_STARTS, endpoint=False)
    try:
        quad = verify_parallelogram(spec, profile, starts)
    except (GrazingRay, SolverError) as exc:
        digest.update(f"{type(exc).__name__}: {exc}".encode())
        return f"{digest.hexdigest()} ({type(exc).__name__}: {exc})"
    for values in (*quad.points, quad.psis, quad.momenta):
        for array in values:
            digest.update(array.tobytes())
    return digest.hexdigest()


def chart_values(spec):
    from billiards.billmap import BoundaryCoord, chart_change_determinant
    from billiards.supportfn import arclength_of_psi, perimeter

    yield perimeter(spec)
    for psi in CHART_PSIS:
        yield arclength_of_psi(spec, psi)
    for point in CHART_POINTS:
        yield chart_change_determinant(spec, BoundaryCoord(*point))


def chart_digest(spec) -> str:
    from billiards.errors import SolverError

    digest = hashlib.sha256()
    try:
        for value in chart_values(spec):
            digest.update(np.float64(value).tobytes())
    except SolverError as exc:
        digest.update(f"SolverError: {exc}".encode())
        return f"{digest.hexdigest()} (SolverError: {exc})"
    return digest.hexdigest()


def cli_digest(*argvs: list[str]) -> str:
    """Digest of the exit codes and stdout bytes of `billiard` commands."""
    from billiards.cli import main as cli_main

    digest = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        digest.update(f"exit {code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the billiards package "
                             "(default: this checkout's src/)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from billiards.supportfn import table_from_dict

    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, data) in enumerate(TABLES.items()):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            spec = table_from_dict(data)
            print(f"{name:10s} starts    {starts_digest(spec)}")
            print(f"{name:10s} maps      {maps_digest(spec, LINE_SEED + i)}")
            integral = cli_digest(*(["integral", str(path), "--n", str(n)]
                                    for n in INTEGRAL_N))
            print(f"{name:10s} integral  {integral}")
            print(f"{name:10s} orbit     "
                  f"{cli_digest(['orbit', str(path), *ORBIT_ARGS])}")
            print(f"{name:10s} orbit2000 "
                  f"{cli_digest(['orbit', str(path), *LONG_ORBIT_ARGS])}")
            verify = cli_digest(*(["verify", str(path), "--suite", "all",
                                   "--seed", str(seed)]
                                  for seed in VERIFY_SEEDS))
            print(f"{name:10s} verify    {verify}")
            print(f"{name:10s} validate  "
                  f"{cli_digest(['table', 'validate', str(path)])}")
            print(f"{name:10s} scan      "
                  f"{cli_digest(['beam-scan', str(path), *SCAN_ARGS])}")
            print(f"{name:10s} poncelet  {poncelet_digest(spec)}")
            print(f"{name:10s} chart     {chart_digest(spec)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
