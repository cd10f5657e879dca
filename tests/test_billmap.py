import ast
import math
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import billiards
from billiards.billmap import (BoundaryCoord, LineCoord, boundary_point,
                               chart_change_determinant, chart_to_line,
                               forward_map, forward_map_batch, generating_S,
                               geometric_reflect, half_turn, inverse_map,
                               jacobian_check_batch, line_to_chart,
                               oracle_orbit, p_of, s_derivatives,
                               twist_grid)
from billiards import billmap
from billiards.errors import GrazingRay, OutsideCylinder, SolverError
from billiards.fourperiodic import table_profile
from billiards.profiles import AngleProfile, ellipse_profile
from billiards.sampling import SplitMix64, random_interior_lines, scan_starts
from billiards.supportfn import (EllipseTable, FourierTable, ProfileTable,
                                 table_from_profile)


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
        # the start as drawn and lifted by 1, 100 and 1000 turns
        for turns in (0, 1, 100, 1000):
            start = LineCoord(float(p[0]), float(phi[0]) + 2 * math.pi * turns)
            image = forward_map(spec, start)
            back = inverse_map(spec, image)
            assert back.p == pytest.approx(start.p, abs=1e-10)
            assert back.phi == pytest.approx(start.phi, abs=1e-10)
            assert image.phi - 2 * math.pi < back.phi < image.phi


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


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table"])
def test_forward_map_batch_returns_bounce_record(spec_name, request):
    # the S-derivatives that come with the image are those of the bounce
    # (phi, phi1), bit for bit, for floats and for array entries
    spec = request.getfixturevalue(spec_name)
    p, phi = random_interior_lines(spec, 64, 29)
    p1, phi1, sd = forward_map_batch(spec, p, phi)
    expected = s_derivatives(spec, phi, phi1)
    for got, want in zip(sd, expected):
        assert np.array_equal(got, want)
    assert np.array_equal(p1, p_of(spec, phi, phi1)[1])
    for i in range(0, 64, 7):
        p1_i, phi1_i, sd_i = forward_map_batch(spec, float(p[i]),
                                               float(phi[i]))
        assert sd_i == s_derivatives(spec, float(phi[i]), phi1_i)
        assert sd_i == tuple(float(x[i]) for x in sd)
        assert (p1_i, phi1_i) == (p1[i], phi1[i])


# --- one table in two representations -------------------------------------------


def _ellipse_both_ways(a, b):
    # the closed-form ellipse and h = R sin d from its 4-periodic profile
    return (EllipseTable(a, b),
            table_from_profile(ellipse_profile(a, b), math.hypot(a, b)))


def _one_step_gap(first, second, p, phi):
    p1, phi1, _ = forward_map_batch(first, p, phi)
    q1, psi1, _ = forward_map_batch(second, p, phi)
    return float(np.max(np.abs(p1 - q1))), float(np.max(np.abs(phi1 - psi1)))


def test_ellipse_as_profile_table_steps_alike(ellipse21_profile):
    # measured over the 256 seed-42 starts: 3.5e-13 in p, 4.7e-13 in phi
    ellipse, profiled = _ellipse_both_ways(2.0, 1.0)
    _, _, p, phi = scan_starts(ellipse, ellipse21_profile, 256, seed=42)
    gap_p, gap_phi = _one_step_gap(ellipse, profiled, p, phi)
    assert gap_p <= 1e-11 and gap_phi <= 1e-11


@settings(max_examples=30, deadline=None)
@given(st.floats(0.5, 4.0), st.floats(0.2, 1.0), st.integers(0, 2**32 - 1))
def test_random_ellipse_as_profile_table_steps_alike(a, ratio, seed):
    # measured at most 6e-14 over 30 draws and the corners of the box
    ellipse, profiled = _ellipse_both_ways(a, a * ratio)
    p, phi = random_interior_lines(ellipse, 16, seed)
    gap_p, gap_phi = _one_step_gap(ellipse, profiled, p, phi)
    assert gap_p <= 1e-11 and gap_phi <= 1e-11


def test_circle_steps_alike_in_three_representations():
    # an ellipse, a Fourier series and the empty profile: h = 1 and
    # h' = h'' = 0 to the bit, so the step and its S-derivatives agree
    # bit for bit
    ellipse = EllipseTable(1.0, 1.0)
    p, phi = random_interior_lines(ellipse, 256, 3)
    want = forward_map_batch(ellipse, p, phi)
    for other in (FourierTable(1.0), ProfileTable(AngleProfile(()),
                                                  math.sqrt(2.0))):
        got = forward_map_batch(other, p, phi)
        assert [v.tobytes() for v in (got[0], got[1], *got[2])] == \
            [v.tobytes() for v in (want[0], want[1], *want[2])]


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
    p1, phi1, _ = forward_map_batch(spec, p, phi)
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
    p1, phi1, _ = forward_map_batch(ellipse21, p, phi)
    guess = phi + np.linspace(0.5, 5.5, 32)
    p1_warm, phi1_warm, _ = forward_map_batch(ellipse21, p, phi, guess)
    for i in range(32):
        scalar = forward_map(ellipse21, LineCoord(p[i], phi[i]))
        assert (p1[i], phi1[i]) == (scalar.p, scalar.phi)
        warm = forward_map_batch(ellipse21, float(p[i]), float(phi[i]),
                                 float(guess[i]))
        assert (p1_warm[i], phi1_warm[i]) == warm[:2]
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


_BENCHMARK_TABLES = ["circle", "ellipse21", "profile_a_table", "mode6_table"]


def _jet_sizes(spec, monkeypatch):
    """The sizes of the point arrays passed to the table class's jet."""
    sizes = []
    jet = type(spec).jet

    def counted(self, psi):
        sizes.append(np.size(psi))
        return jet(self, psi)

    monkeypatch.setattr(type(spec), "jet", counted)
    return sizes


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("table", _BENCHMARK_TABLES)
def test_compacted_solve_keeps_every_entry_bits(table, warm, request,
                                                monkeypatch):
    # a 4096-entry solve drops its frozen entries; its 16 slices of 256
    # stay below the floor and carry them along, so both give every entry
    # the steps, and the bits, of its own solve
    assert 256 < billmap.COMPACT_SIZE <= 4096
    spec = request.getfixturevalue(table)
    p, phi = random_interior_lines(spec, 4096, 23)
    guess = None
    if warm:
        # near the root, at the midpoint-to-root scale, and outside the
        # bracket (taken as absent), so the entries freeze at many steps
        rng = np.random.default_rng(5)
        cold = forward_map_batch(spec, p, phi)[1]
        guess = cold + rng.choice([0.0, 1e-9, 1e-4, 1e-2, 10.0], 4096) \
            * rng.uniform(-1.0, 1.0, 4096)
    sizes = _jet_sizes(spec, monkeypatch)
    whole = forward_map_batch(spec, p, phi, guess)
    assert min(sizes) < 4096          # the solve compacted
    # a transposed 64 x 64 grid: F-ordered operands give an F-ordered x,
    # and the compacted output must still take every entry's root
    grid = [a.reshape(64, 64).T for a in (p, phi)]
    grid = forward_map_batch(spec, *grid, None if guess is None
                             else guess.reshape(64, 64).T)
    for k, field in enumerate(("p1", "phi1")):
        assert grid[k].T.tobytes() == whole[k].tobytes(), field
    sizes.clear()
    parts = [forward_map_batch(spec, p[i:i + 256], phi[i:i + 256],
                               None if guess is None else guess[i:i + 256])
             for i in range(0, 4096, 256)]
    assert set(sizes) == {256}        # the slices did not
    for k, field in enumerate(("p1", "phi1")):
        got = np.concatenate([part[k] for part in parts])
        assert got.tobytes() == whole[k].tobytes(), field
    for k, field in enumerate(whole[2]._fields):
        got = np.concatenate([part[2][k] for part in parts])
        assert got.tobytes() == whole[2][k].tobytes(), field


@pytest.mark.parametrize("table", _BENCHMARK_TABLES)
def test_compacted_jacobian_check_keeps_every_entry_bits(table, request,
                                                         monkeypatch):
    # verify's symplectic check: 1000 lines, 4000 stacked stencil solves
    spec = request.getfixturevalue(table)
    p, phi = random_interior_lines(spec, 1000, 1)
    sizes = _jet_sizes(spec, monkeypatch)
    whole = jacobian_check_batch(spec, p, phi)
    assert min(sizes) < 4000
    sizes.clear()
    parts = [jacobian_check_batch(spec, p[i:i + 250], phi[i:i + 250])
             for i in range(0, 1000, 250)]
    assert set(sizes) == {1000}
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("table", _BENCHMARK_TABLES[1:])
def test_compacted_oracle_keeps_every_entry_bits(table, request,
                                                 monkeypatch):
    # the oracle's chord solves compact too (on the circle every entry
    # freezes at once); a vertex reuses the last chord evaluation only
    # when it covered every entry
    spec = request.getfixturevalue(table)
    psi = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    delta = 0.2 + np.linspace(0.0, 2.6, 4096) ** 2 / 2.6

    def vertices(psi, delta):
        return [np.concatenate([psi, delta, p1, *point]) for psi, delta, p1,
                point in islice(oracle_orbit(spec, psi, delta), 4)]

    sizes = _jet_sizes(spec, monkeypatch)
    whole = vertices(psi, delta)
    assert min(sizes) < 4096
    parts = [vertices(psi[i:i + 256], delta[i:i + 256])
             for i in range(0, 4096, 256)]
    for k, vertex in enumerate(whole):
        got = np.concatenate([part[k].reshape(5, 256) for part in parts],
                             axis=1)
        assert got.tobytes() == vertex.tobytes(), k


def test_compacted_solve_off_cylinder_entry_raises(ellipse21, monkeypatch):
    # the entry that never freezes outlives every compaction
    p, phi = random_interior_lines(ellipse21, 4096, 3)
    p[2049] = 3.0
    with pytest.raises(SolverError) as alone:
        forward_map_batch(ellipse21, 3.0, float(phi[2049]))
    sizes = _jet_sizes(ellipse21, monkeypatch)
    with pytest.raises(SolverError) as among:
        forward_map_batch(ellipse21, p, phi)
    assert len(sizes) == billmap.MAX_ITERATIONS and sizes[-1] == 1
    # the same residual: the message reads the live entries alone
    assert str(among.value) == str(alone.value)


# seed-42 scan start 149 on the mode-6 table after 42 cold steps: plain
# Newton alternated between phi1 - phi = 0.52 and 1.97, both steps inside
# the bracket, and stalled at residual 0.173; the true image is at 1.218
MODE6_TWO_CYCLE = LineCoord(0.4466252710111893, 41.94930601494838)


def test_forward_map_breaks_newton_two_cycle(mode6_table):
    image = forward_map(mode6_table, MODE6_TWO_CYCLE)
    bc = line_to_chart(mode6_table, MODE6_TWO_CYCLE)
    oracle = chart_to_line(mode6_table,
                           geometric_reflect(mode6_table, bc.psi, bc.delta))
    assert abs(image.p - oracle.p) <= 1e-9
    assert abs(image.phi - oracle.phi) <= 1e-9
    assert image.phi - MODE6_TWO_CYCLE.phi == pytest.approx(1.2183, abs=1e-4)
    # as one entry of an array the witness gives the same bits
    p, phi = random_interior_lines(mode6_table, 8, 3)
    p[5], phi[5] = MODE6_TWO_CYCLE
    p1, phi1, _ = forward_map_batch(mode6_table, p, phi)
    assert (p1[5], phi1[5]) == image


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table"])
def test_geometric_reflect_float_matches_array(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    psi = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    delta = (np.arange(32) + 1.0) * math.pi / 33.0
    psi1, delta1 = geometric_reflect(spec, psi, delta)
    for i in range(32):
        scalar = geometric_reflect(spec, float(psi[i]), float(delta[i]))
        assert (psi1[i], delta1[i]) == (scalar.psi, scalar.delta)


# the tables of the certify benchmark workload, in its order, and the
# measured table jet calls per oracle bounce over 2000 bounces from its
# seed-42 orbit starts; each vertex reuses the solver's last chord
# evaluation when the root is that point (without reuse: 2.00, 6.00,
# 5.61 and 6.28)
CERTIFY_JETS_PER_BOUNCE = [("circle", 1.001), ("ellipse21", 5.215),
                           ("profile_a_table", 4.841), ("mode6_table", 5.594)]


@pytest.mark.parametrize("spec_name, bound", CERTIFY_JETS_PER_BOUNCE)
def test_oracle_orbit_jets_per_bounce(spec_name, bound, request, monkeypatch):
    spec = request.getfixturevalue(spec_name)
    # the benchmark's orbit start of this table: a seeded psi0 and a seeded
    # share, 1/4 to 3/4, of d(psi0), two draws per table in table order
    index = [name for name, _ in CERTIFY_JETS_PER_BOUNCE].index(spec_name)
    rng = SplitMix64(42)
    draws = [rng.next_float() for _ in range(2 * index + 2)]
    psi0 = 2.0 * math.pi * draws[-2]
    delta0 = table_profile(spec).jet(psi0)[0] * (0.25 + 0.5 * draws[-1])
    calls = 0
    jet = type(spec).jet

    def counted(self, psi):
        nonlocal calls
        calls += 1
        return jet(self, psi)

    monkeypatch.setattr(type(spec), "jet", counted)
    vertices = list(islice(oracle_orbit(spec, psi0, delta0), 2001))
    assert calls / 2000 <= bound
    # a reused vertex has the bits of a fresh evaluation at its psi
    for psi, delta, p1, point in vertices:
        assert point == boundary_point(spec, psi)
        assert p1 == chart_to_line(spec, BoundaryCoord(psi, delta)).p


# --- symplecticity ---------------------------------------------------------------


def test_jacobian_circle(circle):
    assert jacobian_check_batch(circle, 0.3, 0.7) == pytest.approx(
        1.0, abs=1e-6)


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21",
                                       "profile_a_table", "mode6_table"])
def test_jacobian_check_batch_equals_four_solves(spec_name, request):
    # the stacked stencils give the bits of four separate solves, and a
    # float call the value of its array entry
    spec = request.getfixturevalue(spec_name)
    p, phi = random_interior_lines(spec, 64, 31)
    eps = 1e-6
    pp_p, pf_p, _ = forward_map_batch(spec, p + eps, phi)
    pp_m, pf_m, _ = forward_map_batch(spec, p - eps, phi)
    fp_p, ff_p, _ = forward_map_batch(spec, p, phi + eps)
    fp_m, ff_m, _ = forward_map_batch(spec, p, phi - eps)
    expected = ((pp_p - pp_m) * (ff_p - ff_m) - (fp_p - fp_m) * (pf_p - pf_m)) \
        / (4 * eps * eps)
    dets = jacobian_check_batch(spec, p, phi)
    assert dets.shape == (64,)
    assert dets.tobytes() == expected.tobytes()
    for i in range(0, 64, 9):
        assert jacobian_check_batch(spec, float(p[i]), float(phi[i])) \
            == dets[i]


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
    p1, phi1, _ = forward_map_batch(table, p0, psi + delta)
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


def _grid_axes(grid):
    # verify's twist grid: psi varies along each row, delta down each column
    psi = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    delta = (np.arange(grid) + 1.0) * math.pi / (grid + 1)
    return psi, delta[:, None]


def _assert_grid_form_bits(spec, psi, delta):
    # the twist check's grid form of the S-derivatives, S12 alone
    psis, deltas = np.broadcast_arrays(psi, delta)
    want = s_derivatives(spec, psis - deltas, psis + deltas).s12
    twist = twist_grid(spec, psi, delta)
    assert twist.shape == want.shape
    assert twist.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [64, 128])
@pytest.mark.parametrize("table", ["circle", "ellipse21", "profile_a_table",
                                   "mode6_table", "fourier"])
def test_s_derivatives_grid_is_s_derivatives_bit_for_bit(table, grid,
                                                         request):
    # the whole grid as raw bytes, not only the twist check's minimum: on
    # the (2,1) ellipse, profile-a and mode-6, a jet at psi in place of
    # the rounded midpoint changes thousands of entries but not the minimum
    spec = (FourierTable(1.0, (0.0, 0.1, 0.0, 0.02), (0.0, 0.03))
            if table == "fourier" else request.getfixturevalue(table))
    _assert_grid_form_bits(spec, *_grid_axes(grid))


def test_s_derivatives_grid_non_square_broadcast(mode6_table):
    # lifted angles on a 24 x 40 grid, psi as a column this time
    rng = np.random.default_rng(7)
    psi = rng.uniform(-40.0, 40.0, (24, 1))
    delta = rng.uniform(0.01, math.pi - 0.01, 40)
    _assert_grid_form_bits(mode6_table, psi, delta)


def test_s_derivatives_grid_checks_separation(ellipse21):
    psi, delta = _grid_axes(64)
    with pytest.raises(ValueError, match="outside"):
        twist_grid(ellipse21, psi, delta + math.pi)


def test_half_turn():
    line = half_turn(LineCoord(0.25, 1.0))
    assert line == (0.25, 1.0 + math.pi)


# --- module boundaries -------------------------------------------------------


def _module_tree(module):
    path = Path(billiards.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"))


# every private name billmap defines at module level: the bounce record's,
# the oracle's and the solver's internals
_BILLMAP_INTERNALS = {
    name for node in _module_tree("billmap").body
    for name in ([t.id for t in node.targets if isinstance(t, ast.Name)]
                 if isinstance(node, ast.Assign)
                 else [getattr(node, "name", "")])
    if name.startswith("_")}
# the internals another module may import: beam's cylinder check of a
# float start and its blocks' stopping test
_BILLMAP_SHARED = {"beam": {"_check_inside", "_done"}}


def test_billmap_internals_are_found():
    assert {"_incoming", "_bounce", "_gamma", "_twist", "_FLOOR",
            "_solve_increasing", "_check_inside", "_done",
            "_fd_det"} <= _BILLMAP_INTERNALS


@pytest.mark.parametrize("module", ["cli", "fourperiodic", "sampling", "beam",
                                    "wirtinger"])
def test_only_billmap_reaches_its_internals(module):
    imported = {alias.name for node in ast.walk(_module_tree(module))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "billmap"
                for alias in node.names}
    assert imported & _BILLMAP_INTERNALS <= _BILLMAP_SHARED.get(module, set())
