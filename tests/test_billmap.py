import math

import numpy as np
import pytest

from billiards.billmap import (BoundaryCoord, LineCoord, boundary_point,
                               chart_change_determinant, chart_to_line,
                               forward_map, forward_map_batch, generating_S,
                               geometric_reflect, half_turn, inverse_map,
                               jacobian_check_batch, line_to_chart, p_of,
                               s_derivatives)
from billiards.errors import GrazingRay, OutsideCylinder, SolverError
from billiards.profiles import ellipse_profile
from billiards.sampling import SplitMix64, random_interior_lines


def caustic_line(a, b, lam, phi):
    p = math.sqrt(a * a * math.cos(phi) ** 2 + b * b * math.sin(phi) ** 2 - lam)
    return LineCoord(p, phi)


# --- generating function and its derivatives ---------------------------------


def test_generating_S_circle_diameter(circle):
    assert generating_S(circle, 0.0, math.pi) == pytest.approx(2.0, abs=1e-15)


def test_generating_S_ellipse_minor_chord(ellipse21):
    # 2 h(pi/2) sin(pi/2) = 2, the minor-axis chord
    assert generating_S(ellipse21, 0.0, math.pi) == pytest.approx(2.0, abs=1e-14)


def test_generating_S_equals_chord_on_centered_circle(circle):
    # for the circle the chord cut by the line (p, phi) has length
    # 2 sqrt(1 - p^2) = 2 h sin delta
    for phi, phi1 in ((0.0, 1.0), (0.5, 2.7), (1.0, 4.0)):
        line = LineCoord(p_of(circle, phi, phi1)[0], phi)
        src = line_to_chart(circle, line)
        exit_psi = 0.5 * (phi + phi1)
        p0 = np.array(boundary_point(circle, src.psi))
        p1 = np.array(boundary_point(circle, exit_psi))
        chord = float(np.hypot(*(p1 - p0)))
        assert generating_S(circle, phi, phi1) == pytest.approx(chord, abs=1e-9)


def test_generating_S_out_of_range(circle):
    with pytest.raises(ValueError):
        generating_S(circle, 0.0, 0.0)
    with pytest.raises(ValueError):
        generating_S(circle, 0.0, 2 * math.pi)


def test_s_derivatives_circle_right_angle(circle):
    sd = s_derivatives(circle, 0.0, math.pi)
    assert sd.s11 == pytest.approx(-0.5, abs=1e-15)
    assert sd.s22 == pytest.approx(-0.5, abs=1e-15)
    assert sd.s12 == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table"])
def test_s_derivatives_match_finite_differences(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    e = 1e-4
    for phi, phi1 in ((0.1, 1.3), (2.0, 4.4), (0.5, 3.0)):
        sd = s_derivatives(spec, phi, phi1)
        s = lambda x, y: generating_S(spec, x, y)
        fd12 = (s(phi + e, phi1 + e) - s(phi + e, phi1 - e)
                - s(phi - e, phi1 + e) + s(phi - e, phi1 - e)) / (4 * e * e)
        fd11 = (s(phi + e, phi1) - 2 * s(phi, phi1) + s(phi - e, phi1)) / (e * e)
        fd22 = (s(phi, phi1 + e) - 2 * s(phi, phi1) + s(phi, phi1 - e)) / (e * e)
        assert sd.s12 == pytest.approx(fd12, rel=1e-5)
        assert sd.s11 == pytest.approx(fd11, rel=1e-5, abs=1e-7)
        assert sd.s22 == pytest.approx(fd22, rel=1e-5, abs=1e-7)


def test_s_derivatives_vanish_linearly_at_zero_separation(ellipse21):
    # at psi with h'(psi) = 0 all three derivatives scale with sin delta
    psi = math.pi / 2
    for delta in (1e-3, 1e-4):
        sd = s_derivatives(ellipse21, psi - delta, psi + delta)
        assert abs(sd.s11) < 3 * delta * 3
        assert abs(sd.s12) < 3 * delta * 3
        assert abs(sd.s22) < 3 * delta * 3


def test_p_of_circle(circle):
    for phi, phi1 in ((0.0, 1.0), (1.0, 3.5)):
        delta = 0.5 * (phi1 - phi)
        p, p1 = p_of(circle, phi, phi1)
        assert p == pytest.approx(math.cos(delta), abs=1e-15)
        assert p1 == pytest.approx(math.cos(delta), abs=1e-15)


def test_p_of_ellipse_center_chord(ellipse21):
    p, p1 = p_of(ellipse21, 0.0, math.pi)
    assert p == pytest.approx(0.0, abs=1e-14)
    assert p1 == pytest.approx(0.0, abs=1e-14)


def test_p_of_sign_identity(ellipse21, mode6_table):
    for spec in (ellipse21, mode6_table):
        for phi, phi1 in ((0.2, 1.7), (1.0, 4.2), (3.0, 5.9)):
            psi = 0.5 * (phi + phi1)
            delta = 0.5 * (phi1 - phi)
            dh = spec.jet(psi).dh
            p, p1 = p_of(spec, phi, phi1)
            assert p1 - p == pytest.approx(2 * dh * math.sin(delta),
                                           abs=1e-14, rel=1e-13)


# --- forward and inverse map ---------------------------------------------------


def test_forward_map_circle_closed_form(circle):
    line = forward_map(circle, LineCoord(math.cos(math.pi / 3), 0.0))
    assert line.p == pytest.approx(math.cos(math.pi / 3), abs=1e-13)
    assert line.phi == pytest.approx(2 * math.pi / 3, abs=1e-13)


def test_forward_map_preserves_confocal_caustic(ellipse21):
    lam = 0.4
    line = caustic_line(2.0, 1.0, lam, 0.3)
    drift = 0.0
    for _ in range(100):
        line = forward_map(ellipse21, line)
        lam_now = (4.0 * math.cos(line.phi) ** 2 + math.sin(line.phi) ** 2
                   - line.p ** 2)
        drift = max(drift, abs(lam_now - lam))
    assert drift <= 1e-8


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table"])
def test_inverse_undoes_forward(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    rng = SplitMix64(11)
    for _ in range(50):
        p, phi = random_interior_lines(spec, 1, rng.next_u64())
        start = LineCoord(float(p[0]), float(phi[0]))
        image = forward_map(spec, start)
        back = inverse_map(spec, image)
        assert back.p == pytest.approx(start.p, abs=1e-10)
        assert back.phi == pytest.approx(start.phi, abs=1e-10)


def test_inverse_map_circle_closed_form(circle):
    line = inverse_map(circle, LineCoord(math.cos(math.pi / 3),
                                         2 * math.pi / 3))
    assert line.p == pytest.approx(math.cos(math.pi / 3), abs=1e-13)
    assert line.phi == pytest.approx(0.0, abs=1e-13)


def test_forward_map_rejects_outside_lines(ellipse21):
    with pytest.raises(OutsideCylinder):
        forward_map(ellipse21, LineCoord(2.5, 0.0))
    with pytest.raises(OutsideCylinder):
        forward_map(ellipse21, LineCoord(-2.5, 0.0))


def test_grazing_floor(ellipse21):
    # operations accept delta >= 1e-9 only
    with pytest.raises(GrazingRay):
        geometric_reflect(ellipse21, 0.0, 1e-10)
    with pytest.raises(GrazingRay):
        geometric_reflect(ellipse21, 0.0, math.pi - 1e-10)


@pytest.mark.parametrize("bad", [math.nan, 1e-10, math.pi - 1e-10])
def test_grazing_floor_on_arrays(ellipse21, bad):
    # one entry off the floor (or NaN) refuses the whole array
    psi = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    delta = np.full(8, 0.9)
    delta[3] = bad
    with pytest.raises(GrazingRay):
        geometric_reflect(ellipse21, psi, delta)
    with pytest.raises(GrazingRay):
        geometric_reflect(ellipse21, float(psi[3]), bad)


def test_monotone_residual_single_sign_change(ellipse21):
    # the implicit residual phi1 -> p + S1(phi, phi1) decreases strictly
    p, phi = 0.7, 0.4
    phis = np.linspace(phi + 1e-6, phi + 2 * math.pi - 1e-6, 2000)
    delta = 0.5 * (phis - phi)
    jet = ellipse21.jet(0.5 * (phi + phis))
    g = jet.h * np.cos(delta) - jet.dh * np.sin(delta)
    assert np.all(np.diff(g) < 0.0)
    signs = np.sign(p - g)
    assert np.count_nonzero(np.diff(signs) != 0.0) == 1


# --- boundary chart and oracle ---------------------------------------------------


def test_boundary_point_trivials(circle, ellipse21):
    assert boundary_point(circle, 0.0) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert boundary_point(ellipse21, 0.0) == pytest.approx((2.0, 0.0), abs=1e-15)
    assert boundary_point(ellipse21, math.pi / 2) == pytest.approx(
        (0.0, 1.0), abs=1e-15)


def test_geometric_reflect_circle(circle):
    nxt = geometric_reflect(circle, 0.0, math.pi / 2)
    assert nxt.psi == pytest.approx(math.pi, abs=1e-12)
    assert nxt.delta == pytest.approx(math.pi / 2, abs=1e-12)
    # square orbit
    nxt = geometric_reflect(circle, 0.0, math.pi / 4)
    assert nxt.psi == pytest.approx(math.pi / 2, abs=1e-12)


def test_geometric_reflect_ellipse_vertex(ellipse21):
    d0 = ellipse_profile(2.0, 1.0).jet(0.0)[0]
    assert math.cos(2 * d0) == pytest.approx(-0.6, abs=1e-15)
    nxt = geometric_reflect(ellipse21, 0.0, d0)
    assert nxt.psi == pytest.approx(math.pi / 2, abs=1e-11)
    assert nxt.delta == pytest.approx(math.pi / 2 - d0, abs=1e-11)


def test_chart_to_line_circle(circle):
    lc = chart_to_line(circle, BoundaryCoord(0.3, 0.8))
    assert lc.p == pytest.approx(math.cos(0.8), abs=1e-15)
    assert lc.phi == pytest.approx(1.1, abs=1e-15)


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table"])
def test_chart_round_trip(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    rng = SplitMix64(5)
    for _ in range(1000):
        psi = 2 * math.pi * rng.next_float()
        # stay clear of the tangential corner, where delta reconstruction
        # from p is ill-conditioned by a factor 1/sin(delta)
        delta = 0.01 + (math.pi - 0.02) * rng.next_float()
        line = chart_to_line(spec, BoundaryCoord(psi, delta))
        back = line_to_chart(spec, line)
        assert back.psi == pytest.approx(psi, abs=1e-10)
        assert back.delta == pytest.approx(delta, abs=1e-10)


def test_chart_change_determinant_is_one(ellipse21, mode6_table):
    for spec in (ellipse21, mode6_table):
        for bc in (BoundaryCoord(0.4, 0.9), BoundaryCoord(2.2, 1.7)):
            det = chart_change_determinant(spec, bc)
            assert det == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table",
                                       "mode2_table"])
def test_oracle_equivalence_on_grid(spec_name, request):
    # forward_map . chart_to_line == chart_to_line . geometric_reflect
    spec = request.getfixturevalue(spec_name)
    n = 64
    psi = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    delta = (np.arange(n) + 1.0) * math.pi / (n + 1)
    psis, deltas = np.meshgrid(psi, delta)
    psis, deltas = psis.ravel(), deltas.ravel()
    jet = spec.jet(psis)
    p = jet.h * np.cos(deltas) + jet.dh * np.sin(deltas)
    phi = psis + deltas
    p1, phi1 = forward_map_batch(spec, p, phi)
    psi1, delta1 = geometric_reflect(spec, psis, deltas)
    jet1 = spec.jet(psi1)
    p1_oracle = jet1.h * np.cos(delta1) + jet1.dh * np.sin(delta1)
    phi1_oracle = psi1 + delta1
    assert np.max(np.abs(p1 - p1_oracle)) <= 1e-9
    assert np.max(np.abs(phi1 - phi1_oracle)) <= 1e-9


def test_batch_matches_scalar(ellipse21):
    # floats and arrays run one solver, so each entry is bit for bit the
    # float result, cold or warm started
    p, phi = random_interior_lines(ellipse21, 32, 3)
    p1, phi1 = forward_map_batch(ellipse21, p, phi)
    guess = phi + np.linspace(0.5, 5.5, 32)
    p1_warm, phi1_warm = forward_map_batch(ellipse21, p, phi, guess)
    for i in range(32):
        scalar = forward_map(ellipse21, LineCoord(p[i], phi[i]))
        assert (p1[i], phi1[i]) == (scalar.p, scalar.phi)
        warm = forward_map_batch(ellipse21, float(p[i]), float(phi[i]),
                                 float(guess[i]))
        assert (p1_warm[i], phi1_warm[i]) == warm
    assert np.max(np.abs(phi1_warm - phi1)) <= 1e-9


def test_forward_map_batch_off_cylinder_entry_raises(ellipse21):
    # p = 3 exceeds h <= 2 on the (2,1) ellipse: that entry's residual
    # never meets the floor, so the iteration cap surfaces as SolverError
    p, phi = random_interior_lines(ellipse21, 8, 3)
    p[5] = 3.0
    with pytest.raises(SolverError):
        forward_map_batch(ellipse21, p, phi)
    with pytest.raises(SolverError):
        forward_map_batch(ellipse21, 3.0, float(phi[5]))


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table"])
def test_geometric_reflect_float_matches_array(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    psi = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    delta = (np.arange(32) + 1.0) * math.pi / 33.0
    psi1, delta1 = geometric_reflect(spec, psi, delta)
    for i in range(32):
        scalar = geometric_reflect(spec, float(psi[i]), float(delta[i]))
        assert (psi1[i], delta1[i]) == (scalar.psi, scalar.delta)


# --- symplecticity ---------------------------------------------------------------


def test_jacobian_circle(circle):
    assert jacobian_check_batch(circle, 0.3, 0.7) == pytest.approx(
        1.0, abs=1e-6)


def test_map_on_asymmetric_convex_table():
    # odd harmonics are allowed in the curve kernel; only the operations
    # that assume central symmetry reject them
    from billiards.supportfn import FourierTable, validate_table
    table = FourierTable(1.0, cos_coeffs=(0.05, 0.1))
    validate_table(table)
    p, phi = random_interior_lines(table, 64, seed=23)
    dets = jacobian_check_batch(table, p, phi)
    assert np.max(np.abs(dets - 1.0)) <= 1e-6
    psi = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    delta = np.full(32, 0.9)
    jet = table.jet(psi)
    p0 = jet.h * np.cos(delta) + jet.dh * np.sin(delta)
    p1, phi1 = forward_map_batch(table, p0, psi + delta)
    psi1, delta1 = geometric_reflect(table, psi, delta)
    jet1 = table.jet(psi1)
    assert np.max(np.abs(p1 - (jet1.h * np.cos(delta1)
                               + jet1.dh * np.sin(delta1)))) <= 1e-9
    assert np.max(np.abs(phi1 - (psi1 + delta1))) <= 1e-9


@pytest.mark.parametrize("spec_name", ["ellipse21", "mode6_table"])
def test_jacobian_batch_random_lines(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    p, phi = random_interior_lines(spec, 100, 17)
    dets = jacobian_check_batch(spec, p, phi)
    assert np.max(np.abs(dets - 1.0)) <= 1e-6


def test_twist_positive_on_grid(ellipse21, mode6_table):
    for spec in (ellipse21, mode6_table):
        psi = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
        delta = (np.arange(128) + 1.0) * math.pi / 129.0
        psis, deltas = np.meshgrid(psi, delta)
        sd = s_derivatives(spec, psis - deltas, psis + deltas)
        assert np.min(sd.s12) > 0.0


def test_half_turn():
    line = half_turn(LineCoord(0.25, 1.0))
    assert line == (0.25, 1.0 + math.pi)
