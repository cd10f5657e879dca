"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the ledger lines.
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from billiards.beam import conjugate_scan
from billiards.billmap import (LineCoord, forward_map, forward_map_batch,
                               geometric_reflect, jacobian_check_batch,
                               s_derivatives)
from billiards.cli import main
from billiards.errors import CurvatureViolation
from billiards.fourperiodic import (verify_d_h_relations, verify_orthoptic,
                                    verify_parallelogram, verify_rectangle)
from billiards.profiles import AngleProfile, ellipse_profile
from billiards.sampling import random_interior_lines, scan_starts
from billiards.supportfn import (ProfileTable, ellipse_support,
                                 table_from_profile)
from billiards.wirtinger import (equality_reconstruct, hopf_identity_ellipse,
                                 reduction_chain)

REPORTS = Path(__file__).resolve().parent.parent / "reports"

CIRCLE = ellipse_support(1.0, 1.0)
ELLIPSE = ellipse_support(2.0, 1.0)
PROFILE_A = AngleProfile(((2, 0.1, 0.0),))
PROFILE_B = AngleProfile(((2, 0.1, 0.0), (6, 0.02, 0.0)))

VALID_PROFILES = [
    (ellipse_profile(2.0, 1.0), math.sqrt(5.0)),
    (PROFILE_A, 1.0),
    (PROFILE_B, 1.0),
    (AngleProfile(((2, 0.05, 0.02),)), 2.0),
    (AngleProfile(((2, 0.05, 0.0), (10, 0.005, 0.0))), 1.0),
    (AngleProfile(((6, 0.02, 0.0),)), 1.5),
]


@pytest.fixture(scope="module")
def tables():
    # built on first use, not at import: a fault in validation then fails
    # the criteria that need these tables instead of the whole file
    return {
        "circle": (CIRCLE, ellipse_profile(1.0, 1.0)),
        "ellipse": (ELLIPSE, ellipse_profile(2.0, 1.0)),
        "profile-a": (table_from_profile(PROFILE_A, 1.0), PROFILE_A),
        "profile-b": (table_from_profile(PROFILE_B, 1.0), PROFILE_B),
    }


def report(num, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>3} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def interior_grid(n):
    psi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    delta = (np.arange(n) + 1.0) * math.pi / (n + 1)
    psis, deltas = np.meshgrid(psi, delta)
    return psis.ravel(), deltas.ravel()


def test_criterion_01_twist_positivity(tables):
    start = time.perf_counter()
    psis, deltas = interior_grid(128)
    min_s12 = math.inf
    for spec, _ in tables.values():
        s12 = s_derivatives(spec, psis - deltas, psis + deltas).s12
        min_s12 = min(min_s12, float(np.min(s12)))
    elapsed = time.perf_counter() - start
    report(1, "twist positivity on 128x128 grids", min_s12 > 0.0 and elapsed < 1.0,
           f"min S12 {min_s12:.3e}, {elapsed:.2f} s")


def test_criterion_02_map_against_closed_form_and_oracle(tables):
    # circle solver vs the exact rotation, step by step; the lift is rebased
    # each iterate because at lift ~2e4 the double grid for phi is itself
    # coarser than the tolerance
    line = LineCoord(math.cos(math.pi / 3), 0.0)
    worst = 0.0
    for _ in range(10000):
        image = forward_map(CIRCLE, line)
        delta = math.acos(min(1.0, max(-1.0, line.p)))
        worst = max(worst, abs(image.p - line.p),
                    abs(image.phi - (line.phi + 2.0 * delta)))
        line = LineCoord(image.p, image.phi % (2.0 * math.pi))
    circle_ok = worst <= 1e-12

    # geometric oracle vs generating-function map on all tables
    psis, deltas = interior_grid(64)
    oracle_worst = 0.0
    for spec, _ in tables.values():
        jet = spec.jet(psis)
        p = jet.h * np.cos(deltas) + jet.dh * np.sin(deltas)
        p1, phi1, _ = forward_map_batch(spec, p, psis + deltas)
        psi1, delta1 = geometric_reflect(spec, psis, deltas)
        jet1 = spec.jet(psi1)
        p1_geo = jet1.h * np.cos(delta1) + jet1.dh * np.sin(delta1)
        oracle_worst = max(oracle_worst,
                           float(np.max(np.abs(p1 - p1_geo))),
                           float(np.max(np.abs(phi1 - (psi1 + delta1)))))
    report(2, "map vs closed form and geometric oracle",
           circle_ok and oracle_worst <= 1e-9,
           f"circle dev {worst:.2e}, oracle dev {oracle_worst:.2e}")


def test_criterion_03_symplecticity(tables):
    worst = 0.0
    for i, (spec, _) in enumerate(tables.values()):
        p, phi = random_interior_lines(spec, 1000, seed=100 + i)
        dets = jacobian_check_batch(spec, p, phi)
        worst = max(worst, float(np.max(np.abs(dets - 1.0))))
    report(3, "jacobian determinant 1 +/- 1e-6 on 1000 lines/table",
           worst <= 1e-6, f"max |det-1| {worst:.2e}")


def test_criterion_04_four_periodic_suite_on_ellipse():
    start = time.perf_counter()
    profile = ellipse_profile(2.0, 1.0)
    closure = rectangle = 0.0
    for psi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        quad = verify_parallelogram(ELLIPSE, profile, float(psi))
        closure = max(closure, quad.closure, *quad.central_symmetry,
                      *quad.half_turn)
        rectangle = max(rectangle,
                        verify_rectangle(ELLIPSE, profile, float(psi)))
    r_squared, ortho_dev = verify_orthoptic(ELLIPSE, 1024)
    res_h, res_dh = verify_d_h_relations(ELLIPSE, profile, 1024)
    elapsed = time.perf_counter() - start
    ok = (closure <= 1e-9 and rectangle <= 1e-9
          and abs(r_squared - 5.0) <= 1e-10 and ortho_dev <= 1e-10
          and res_h <= 1e-9 and res_dh <= 1e-9 and elapsed < 5.0)
    report(4, "4-periodic structure suite on the (2,1) ellipse", ok,
           f"closure {closure:.1e}, rect {rectangle:.1e}, "
           f"R^2 {r_squared:.12f}, relations {max(res_h, res_dh):.1e}, "
           f"{elapsed:.2f} s")


def closed_form_rho(modes, radius, psi):
    """rho = R [sin d (1 - d'^2) + cos d d''] of h = R sin d, written out
    from the mode rows of d = pi/4 + sum (a cos n psi + b sin n psi)."""
    d, dp, ddp = math.pi / 4 + 0.0 * psi, 0.0 * psi, 0.0 * psi
    for n, a, b in modes:
        c, s = np.cos(n * psi), np.sin(n * psi)
        d = d + a * c + b * s
        dp = dp + n * (b * c - a * s)
        ddp = ddp - n * n * (a * c + b * s)
    return radius * (np.sin(d) * (1.0 - dp * dp) + np.cos(d) * ddp)


def closed_form_minimum(modes, radius, grid_n=512):
    """(min rho, psi) of the closed form on the validation grid, printed
    to the 6 significant digits that CurvatureViolation reports."""
    psi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    rho = closed_form_rho(modes, radius, psi)
    return f"{rho.min():.6g}", f"{psi[np.argmin(rho)]:.6g}"


def refusal(modes, radius):
    """(min rho, psi) parsed from the CurvatureViolation that
    table_from_profile raises, or None when the table validates."""
    try:
        table_from_profile(AngleProfile(modes), radius)
    except CurvatureViolation as exc:
        return re.search(r"reaches (\S+) at psi = (\S+) on a", str(exc)).groups()
    return None


def test_criterion_05_constructive_converse_as_stated():
    # d = pi/4 + 0.1 cos 2psi + 0.03 cos 6psi, R = 1: the stated table.
    # At psi = 0, d' = 0 and d'' = -0.4 - 1.08, so
    # rho(0) = sin d(0) - 1.48 cos d(0) = -0.109 < 0 for every R > 0: the
    # curve is not convex and validation must refuse it (see the README,
    # "Install and test").  What does not need convexity still holds.
    modes = ((2, 0.1, 0.0), (6, 0.03, 0.0))
    expected = closed_form_minimum(modes, 1.0)
    refused = refusal(modes, 1.0)

    table = ProfileTable(AngleProfile(modes), 1.0)
    r_squared, ortho_dev = verify_orthoptic(table, 1024)
    relations = max(verify_d_h_relations(table, table.profile, 1024))

    # the convexity threshold of the mode-6 amplitude, from the closed form
    fine = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    lo, hi = 0.02, 0.03
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if closed_form_rho(((2, 0.1, 0.0), (6, mid, 0.0)), 1.0, fine).min() > 0.0:
            lo = mid
        else:
            hi = mid
    inside = ((2, 0.1, 0.0), (6, 0.98 * lo, 0.0))
    outside = ((2, 0.1, 0.0), (6, 1.02 * lo, 0.0))
    boundary_ok = (refusal(inside, 1.0) is None
                   and refusal(outside, 1.0) == closed_form_minimum(outside, 1.0))

    ok = (refused == expected and expected == ("-0.109218", "0")
          and abs(r_squared - 1.0) <= 1e-12 and ortho_dev <= 1e-12
          and relations <= 1e-10 and boundary_ok)
    report(5, "stated 0.03 table is not convex and is refused", ok,
           f"refusal {refused}, closed form {expected}, R^2 {r_squared:.15f}, "
           f"orthoptic dev {ortho_dev:.1e}, relations {relations:.1e}, "
           f"threshold a* {lo:.6f} (0.98 a* accepted, 1.02 a* refused: "
           f"{boundary_ok})")


def test_criterion_05b_constructive_converse_valid_amplitude():
    # a convex variant of the same construction: the mode-6 amplitude
    # 0.03 -> 0.02, below the closed-form convexity limit a* ~ 0.0246
    table = table_from_profile(PROFILE_B, 1.0)
    worst = 0.0
    for psi in np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False):
        quad = verify_parallelogram(table, PROFILE_B, float(psi))
        worst = max(worst, quad.closure)
    report("5b", "constructive converse at amplitude 0.02 (256 starts)",
           worst <= 1e-8, f"max closure {worst:.2e}")


def test_criterion_06_reduction_chain_conservation():
    start = time.perf_counter()
    ok = True
    worst_identity = worst_step = worst_conv = 0.0
    for profile, radius in VALID_PROFILES:
        rep = reduction_chain(profile, radius, 1024)
        scale = max(1.0, radius**4)
        identity = rep.residual_UP / (1.0 + abs(rep.I_U_direct))
        stepwise = max(rep.stepwise_UV + rep.stepwise_VW)
        conv = max(rep.conv_delta_U, rep.conv_delta_P)
        worst_identity = max(worst_identity, identity)
        worst_step = max(worst_step, stepwise / scale)
        worst_conv = max(worst_conv, conv / scale)
        ok &= identity <= 1e-6 and stepwise <= 1e-8 * scale and conv <= 1e-8 * scale
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(6, f"endpoint identity and stepwise conservation on {len(VALID_PROFILES)} profiles",
           ok, f"identity {worst_identity:.1e}, stepwise {worst_step:.1e}, "
               f"doubling {worst_conv:.1e}, {elapsed:.2f} s")


def test_criterion_07_wirtinger_equality_and_gap():
    ok = True
    for a, b in ((2.0, 1.0), (1.5, 1.0), (1.0, 1.0)):
        radius = math.sqrt(a * a + b * b)
        rep = reduction_chain(ellipse_profile(a, b), radius, 1024)
        ok &= abs(rep.I_P) <= 1e-8 * radius**4

    # the stated mode-6 profile is not convex, but the identity chain and
    # the spectral gap are properties of the profile alone
    stated = AngleProfile(((2, 0.1, 0.0), (6, 0.03, 0.0)))
    rep_stated = reduction_chain(stated, 1.0, 1024, require_convex=False)
    gap_rel = abs(rep_stated.I_P - rep_stated.gap_spectral) \
        / max(rep_stated.I_P, 1e-12)
    ok &= rep_stated.I_P > 0.0 and gap_rel <= 1e-6

    rep_valid = reduction_chain(PROFILE_B, 1.0, 1024)
    gap_rel_valid = abs(rep_valid.I_P - rep_valid.gap_spectral) \
        / max(rep_valid.I_P, 1e-12)
    ok &= rep_valid.I_P > 0.0 and gap_rel_valid <= 1e-6
    report(7, "wirtinger equality case and positive mode-6 gap", ok,
           f"stated gap {rep_stated.I_P:.4e} (rel dev {gap_rel:.1e}), "
           f"valid gap {rep_valid.I_P:.4e}")


def test_criterion_08_hopf_equality_on_ellipse():
    count, worst_defect, worst_nu = 0, 0.0, 0.0
    rng_state = 0x9E3779B97F4A7C15
    while count < 100:
        rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        phi = 2.0 * math.pi * ((rng_state >> 11) / float(1 << 53))
        rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        lam = 0.05 + 0.9 * ((rng_state >> 11) / float(1 << 53))
        p = math.sqrt(4.0 * math.cos(phi) ** 2 + math.sin(phi) ** 2 - lam)
        result = hopf_identity_ellipse(2.0, 1.0, LineCoord(p, phi))
        worst_defect = max(worst_defect, abs(result.defect),
                           abs(result.amgm_defect))
        worst_nu = max(worst_nu, abs(result.nu1 - result.p_ratio))
        count += 1
    report(8, "pointwise equality identity on 100 caustic lines",
           worst_defect <= 1e-8 and worst_nu <= 1e-9,
           f"defect {worst_defect:.2e}, |nu1 - p1/p| {worst_nu:.2e}")


def test_criterion_09_conjugate_point_contrast(tmp_path):
    detections = {}
    for name, spec in (("circle", CIRCLE), ("ellipse", ELLIPSE)):
        profile = ellipse_profile(spec.a, spec.b)
        _, _, p, phi = scan_starts(spec, profile, 256, seed=42)
        found = conjugate_scan(spec, p, phi, 10000)
        detections[name] = int(np.sum(found >= 0))

    archived = REPORTS / "conjugate_scan_mode6.json"
    fresh = tmp_path / "scan.json"
    spec_path = tmp_path / "mode6.json"
    spec_path.write_text(json.dumps(
        {"type": "profile", "R": 1.0, "d_modes": [[2, 0.1, 0], [6, 0.02, 0]]}))
    code = main(["beam-scan", str(spec_path), "--starts", "256",
                 "--max-steps", "10000", "--seed", "42", "--out", str(fresh)])
    fresh_report = json.loads(fresh.read_text())
    # the whole report, byte for byte, not only its parsed detections
    archive_match = fresh.read_bytes() == archived.read_bytes()
    ok = (detections["circle"] == 0 and detections["ellipse"] == 0
          and code == 0
          and fresh_report["detection_count"] >= 1
          and archive_match)
    report(9, "conjugate contrast: integrable none, mode-6 table detects", ok,
           f"circle {detections['circle']}, ellipse {detections['ellipse']}, "
           f"mode-6 {fresh_report['detection_count']}/256 "
           f"(archive match {archive_match})")


def test_criterion_10_equality_reconstruction():
    a, b = equality_reconstruct(0.6, math.sqrt(5.0))
    axes_ok = abs(min(a, b) - 1.0) <= 1e-12 and abs(max(a, b) - 2.0) <= 1e-12
    ref = ellipse_support(2.0, 1.0)
    worst = 0.0
    for psi in np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False):
        h_rec = math.sqrt(a * a * math.cos(psi) ** 2
                          + b * b * math.sin(psi) ** 2)
        worst = max(worst, abs(h_rec - ref.jet(psi + math.pi / 2).h))
    report(10, "equality-case reconstruction of the (2,1) ellipse",
           axes_ok and worst <= 1e-10,
           f"axes ({a:.12f}, {b:.12f}), support dev {worst:.2e}")
