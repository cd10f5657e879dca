import math

import numpy as np
import pytest

from billiards.beam import (TangentVector, conjugate_scan, monotone_bounds,
                            orbit_lines, push_tangent, riccati_step)
from billiards.billmap import (BoundaryCoord, LineCoord, SDerivatives,
                               chart_to_line, forward_map, forward_map_batch,
                               s_derivatives)
from billiards.errors import MonotonicityBreak
from billiards.fourperiodic import invariant_curve_state
from billiards.sampling import scan_starts
from billiards.supportfn import EllipseTable


def caustic_line(lam, phi, a=2.0, b=1.0):
    p = math.sqrt(a * a * math.cos(phi) ** 2 + b * b * math.sin(phi) ** 2 - lam)
    return LineCoord(p, phi)


def caustic_slope(line, a=2.0, b=1.0):
    return (b * b - a * a) * math.sin(2.0 * line.phi) / (2.0 * line.p)


CIRCLE_SD = SDerivatives(s11=-0.5, s12=0.5, s22=-0.5)  # r = 1, delta = pi/2


def test_riccati_fixed_point_on_circle():
    omega_next, nu1 = riccati_step(CIRCLE_SD, 0.0)
    assert nu1 == pytest.approx(1.0, abs=1e-15)
    assert omega_next == pytest.approx(0.0, abs=1e-15)


def test_riccati_monotonicity_break_at_boundary():
    with pytest.raises(MonotonicityBreak):
        riccati_step(CIRCLE_SD, 0.5)  # omega = -S11 makes nu1 = 0
    with pytest.raises(MonotonicityBreak):
        riccati_step(CIRCLE_SD, 0.7)


def test_nu_reversal_identity(ellipse21):
    # nu_{-1}(T(M)) = 1 / nu1(M), with both factors computed from the
    # closed-form caustic slopes rather than from the recursion
    lam = 0.3
    line = caustic_line(lam, 0.7)
    image = forward_map(ellipse21, line)
    sd = s_derivatives(ellipse21, line.phi, image.phi)
    nu1 = (-sd.s11 - caustic_slope(line)) / sd.s12
    nu_minus_at_image = (caustic_slope(image) - sd.s22) / sd.s12
    assert nu_minus_at_image == pytest.approx(1.0 / nu1, rel=1e-10)


def test_push_tangent_circle_vertical(circle):
    delta = 0.9
    line = chart_to_line(circle, BoundaryCoord(0.2, delta))
    image = push_tangent(circle, TangentVector(1.0, 0.0, line))
    assert image.dphi == pytest.approx(-2.0 / math.sin(delta), rel=1e-10)
    assert image.dp == pytest.approx(1.0, rel=1e-10)


def test_push_tangent_matches_finite_differences(ellipse21):
    line = LineCoord(0.8, 0.5)
    eps = 1e-6
    up = forward_map(ellipse21, LineCoord(line.p + eps, line.phi))
    dn = forward_map(ellipse21, LineCoord(line.p - eps, line.phi))
    image = push_tangent(ellipse21, TangentVector(1.0, 0.0, line))
    assert image.dp == pytest.approx((up.p - dn.p) / (2 * eps), rel=1e-6)
    assert image.dphi == pytest.approx((up.phi - dn.phi) / (2 * eps), rel=1e-6)


def test_push_tangent_linear_and_symplectic(ellipse21):
    line = LineCoord(0.6, 1.1)
    v = push_tangent(ellipse21, TangentVector(1.0, 0.0, line))
    w = push_tangent(ellipse21, TangentVector(0.0, 1.0, line))
    mixed = push_tangent(ellipse21, TangentVector(2.0, -3.0, line))
    assert mixed.dp == pytest.approx(2 * v.dp - 3 * w.dp, rel=1e-12, abs=1e-12)
    assert mixed.dphi == pytest.approx(2 * v.dphi - 3 * w.dphi,
                                       rel=1e-12, abs=1e-12)
    det = v.dp * w.dphi - w.dp * v.dphi
    assert det == pytest.approx(1.0, abs=1e-9)


def test_riccati_equals_renormalized_push(ellipse21):
    # pushing (omega, 1) and rescaling dphi to 1 reproduces the recursion;
    # the rescaling factor is nu1
    line = caustic_line(0.3, 0.9)
    omega = caustic_slope(line)
    image = forward_map(ellipse21, line)
    sd = s_derivatives(ellipse21, line.phi, image.phi)
    omega_next, nu1 = riccati_step(sd, omega)
    pushed = push_tangent(ellipse21, TangentVector(omega, 1.0, line))
    assert pushed.dphi == pytest.approx(nu1, rel=1e-10)
    assert pushed.dp / pushed.dphi == pytest.approx(omega_next, rel=1e-10,
                                                    abs=1e-12)


def test_riccati_tracks_caustic_slope_long_run(ellipse21):
    lam = 0.35
    cur = caustic_line(lam, 0.3)
    omega = caustic_slope(cur)
    drift = 0.0
    for _ in range(100000):
        nxt = forward_map(ellipse21, cur)
        sd = s_derivatives(ellipse21, cur.phi, nxt.phi)
        omega, nu1 = riccati_step(sd, omega)
        assert nu1 > 0.0
        drift = max(drift, abs(omega - caustic_slope(nxt)))
        cur = nxt
    assert drift <= 1e-7


def test_nu_cocycle_over_4_periodic_cycle(ellipse21, ellipse21_profile,
                                          mode6_table, mode6_profile):
    # product of nu1 factors over one cycle equals the derivative of the
    # identity circle map, i.e. 1
    for spec, profile in ((ellipse21, ellipse21_profile),
                          (mode6_table, mode6_profile)):
        for psi in (0.15, 1.2, 3.9):
            state = invariant_curve_state(spec, profile, psi)
            line, omega = state.line, state.omega
            product = 1.0
            for _ in range(4):
                image = forward_map(spec, line)
                sd = s_derivatives(spec, line.phi, image.phi)
                omega, nu1 = riccati_step(sd, omega)
                product *= nu1
                line = image
            assert line.phi == pytest.approx(
                chart_to_line(spec, BoundaryCoord(
                    psi, profile.jet(psi)[0])).phi + 2 * math.pi, abs=1e-9)
            assert product == pytest.approx(1.0, abs=1e-8)


def test_monotone_bounds_circle(circle):
    # delta = pi/2 orbit: bounds are (-1/2, 1/2)
    line = chart_to_line(circle, BoundaryCoord(0.0, math.pi / 2))
    lines = orbit_lines(circle, line, 2)
    lower, upper = monotone_bounds(circle, *lines)
    assert lower == pytest.approx(-0.5, abs=1e-12)
    assert upper == pytest.approx(0.5, abs=1e-12)


def test_monotone_bounds_shrink_with_delta(circle):
    for delta in (1e-2, 1e-3):
        line = chart_to_line(circle, BoundaryCoord(0.0, delta))
        lines = orbit_lines(circle, line, 2)
        lower, upper = monotone_bounds(circle, *lines)
        assert abs(lower) < 2 * delta
        assert abs(upper) < 2 * delta


def test_caustic_slope_within_bounds(ellipse21):
    lam = 0.3
    lines = orbit_lines(ellipse21, caustic_line(lam, 0.2), 1001)
    for i in range(1, 1000):
        lower, upper = monotone_bounds(ellipse21, lines[i - 1], lines[i],
                                       lines[i + 1])
        omega = caustic_slope(lines[i])
        assert lower < omega < upper


def test_detect_conjugate_none_on_circle(circle):
    line = chart_to_line(circle, BoundaryCoord(0.3, 0.6))
    assert conjugate_scan(circle, line.p, line.phi, 10000) == -1


def test_detect_conjugate_none_on_ellipse_region(ellipse21,
                                                 ellipse21_profile):
    _, _, p, phi = scan_starts(ellipse21, ellipse21_profile, 100, seed=9)
    detections = conjugate_scan(ellipse21, p, phi, 2000)
    assert np.all(detections < 0)


def test_conjugate_scan_warm_steps_stay_cheap(ellipse21, ellipse21_profile,
                                             monkeypatch):
    # each scan step warm-starts the solver at the delta-conserving guess;
    # a fall back to cold bracketing would cost 16 or more jets per step
    calls = [0]
    jet = EllipseTable.jet

    def counted(self, psi):
        calls[0] += 1
        return jet(self, psi)

    monkeypatch.setattr(EllipseTable, "jet", counted)
    _, _, p, phi = scan_starts(ellipse21, ellipse21_profile, 256, seed=42)
    conjugate_scan(ellipse21, p, phi, 1)
    cold = calls[0]
    calls[0] = 0
    detections = conjugate_scan(ellipse21, p, phi, 101)
    assert np.all(detections < 0)
    assert (calls[0] - cold) / 100 <= 10


def test_detect_conjugate_found_on_mode6_table(mode6_table, mode6_profile):
    _, _, p, phi = scan_starts(mode6_table, mode6_profile, 64, seed=9)
    detections = conjugate_scan(mode6_table, p, phi, 2000)
    assert np.any(detections >= 0)
    # a float start gives the same step as its entry of the array scan
    idx = int(np.argmax(detections >= 0))
    step = conjugate_scan(mode6_table, float(p[idx]), float(phi[idx]), 2000)
    assert step == detections[idx]


def test_conjugate_scan_entries_equal_float_scans(mode6_table, mode6_profile):
    # each start, detected or not, gets the step its own float scan gives
    _, _, p, phi = scan_starts(mode6_table, mode6_profile, 64, seed=9)
    detections = conjugate_scan(mode6_table, p, phi, 200)
    assert np.any(detections >= 0) and np.any(detections < 0)
    singles = [conjugate_scan(mode6_table, float(p[i]), float(phi[i]), 200)
               for i in range(64)]
    assert detections.tolist() == singles


@pytest.mark.parametrize("table, profile", [
    ("mode6_table", "mode6_profile"), ("ellipse21", "ellipse21_profile"),
])
def test_conjugate_scan_steps_only_live_starts(table, profile, request,
                                               monkeypatch):
    # a start that has detected leaves the batch: the map is computed for
    # exactly the steps up to each start's detection (max_steps if none)
    spec = request.getfixturevalue(table)
    widths = []

    def counted(spec, p, phi, guess=None):
        widths.append(p.size)
        return forward_map_batch(spec, p, phi, guess)

    monkeypatch.setattr("billiards.beam.forward_map_batch", counted)
    max_steps = 100
    _, _, p, phi = scan_starts(spec, request.getfixturevalue(profile), 64,
                               seed=42)
    detections = conjugate_scan(spec, p, phi, max_steps)
    live_steps = sum(int(s) if s >= 0 else max_steps for s in detections)
    assert sum(widths) == live_steps
    if table == "ellipse21":
        assert live_steps == 64 * max_steps
    else:
        assert np.any(detections >= 0)


def test_circle_vertical_never_returns(circle):
    # dphi_n = -2n / sin(delta): monotone, one sign for all n
    delta = 0.8
    line = chart_to_line(circle, BoundaryCoord(0.0, delta))
    v = TangentVector(1.0, 0.0, line)
    for n in range(1, 30):
        v = push_tangent(circle, v)
        assert v.dphi == pytest.approx(-2.0 * n / math.sin(delta), rel=1e-9)
        v = TangentVector(v.dp, v.dphi, v.line)
