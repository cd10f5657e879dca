import math

import numpy as np
import pytest

from billiards.billmap import BoundaryCoord, boundary_point, chart_to_line, \
    forward_map, half_turn
from billiards.fourperiodic import (invariant_curve_state, table_profile,
                                    verify_d_h_relations, verify_orthoptic,
                                    verify_parallelogram, verify_rectangle)
from billiards.profiles import AngleProfile, ellipse_profile, validate_profile
from billiards.supportfn import FourierTable, table_from_profile


def test_profile_eval_constant():
    d, dp, ddp = AngleProfile(()).jet(0.7)
    assert (d, dp, ddp) == (math.pi / 4, 0.0, 0.0)


def test_profile_eval_single_mode():
    eps = 0.05
    prof = AngleProfile(((2, eps, 0.0),))
    d, dp, ddp = prof.jet(0.0)
    assert d == pytest.approx(math.pi / 4 + eps, abs=1e-15)
    assert dp == pytest.approx(0.0, abs=1e-15)
    assert ddp == pytest.approx(-4 * eps, abs=1e-15)


def test_profile_quarter_turn_symmetry(mode6_profile):
    rng = np.random.default_rng(3)
    for psi in rng.uniform(0.0, 2 * math.pi, 1000):
        d0 = mode6_profile.jet(psi)[0]
        d1 = mode6_profile.jet(psi + math.pi / 2)[0]
        assert d0 + d1 == pytest.approx(math.pi / 2, abs=1e-14)


def test_inadmissible_modes_rejected():
    for n in (1, 3, 4, 5, 8, 12):
        with pytest.raises(ValueError):
            AngleProfile(((n, 0.1, 0.0),))


def test_profile_range_validation():
    with pytest.raises(ValueError):
        validate_profile(AngleProfile(((2, 0.9, 0.0),)))


def test_ellipse_profile_circle_limit():
    prof = ellipse_profile(1.0, 1.0)
    for psi in (0.0, 0.9, 3.3):
        assert prof.jet(psi)[0] == pytest.approx(math.pi / 4,
                                                           abs=1e-15)


def test_ellipse_profile_closed_form():
    prof = ellipse_profile(2.0, 1.0)
    d0 = prof.jet(0.0)[0]
    assert d0 == pytest.approx(0.5 * math.acos(-0.6), abs=1e-15)
    # R sin d(0) recovers the major semi-axis
    assert math.sqrt(5.0) * math.sin(d0) == pytest.approx(2.0, abs=1e-14)
    assert prof.jet(math.pi / 4)[0] == pytest.approx(math.pi / 4,
                                                               abs=1e-15)


def test_ellipse_profile_derivatives_by_finite_differences():
    prof = ellipse_profile(2.0, 1.0)
    e = 1e-5
    for psi in (0.2, 1.0, 2.5):
        d, dp, ddp = prof.jet(psi)
        fd1 = (prof.jet(psi + e)[0] - prof.jet(psi - e)[0]) / (2 * e)
        fd2 = (prof.jet(psi + e)[0] - 2 * d + prof.jet(psi - e)[0]) / e**2
        assert dp == pytest.approx(fd1, rel=1e-8, abs=1e-9)
        assert ddp == pytest.approx(fd2, rel=1e-4, abs=1e-5)


def test_parallelogram_circle_square(circle):
    quad = verify_parallelogram(circle, ellipse_profile(1.0, 1.0), 0.0)
    assert quad.passed and quad.tolerance == 1e-8
    assert quad.closure <= 1e-10
    assert max(quad.central_symmetry) <= 1e-10
    assert max(quad.half_turn) <= 1e-10
    assert quad.points[0] == pytest.approx((1.0, 0.0), abs=1e-12)
    assert quad.points[1] == pytest.approx((0.0, 1.0), abs=1e-12)


def test_parallelogram_ellipse_64_starts(ellipse21, ellipse21_profile):
    for psi in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
        quad = verify_parallelogram(ellipse21, ellipse21_profile, float(psi))
        assert quad.closure <= 1e-9
        assert max(quad.central_symmetry) <= 1e-9
        assert max(quad.half_turn) <= 1e-9


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21",
                                       "profile_a_table", "mode6_table"])
def test_parallelogram_array_launch_equals_float_launches(spec_name, request):
    # verify's 64 Poncelet starts as one array launch: every entry has the
    # bits of its own float launch, field by field
    spec = request.getfixturevalue(spec_name)
    profile = table_profile(spec)
    starts = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    batch = verify_parallelogram(spec, profile, starts)
    assert batch.tolerance == 1e-8
    for i, psi in enumerate(starts.tolist()):
        quad = verify_parallelogram(spec, profile, psi)
        assert quad.psis == tuple(a[i] for a in batch.psis)
        assert quad.deltas == tuple(a[i] for a in batch.deltas)
        assert quad.points == tuple((x[i], y[i]) for x, y in batch.points)
        assert quad.momenta == tuple(a[i] for a in batch.momenta)
        assert quad.closure == batch.closure[i]
        assert quad.central_symmetry == tuple(
            a[i] for a in batch.central_symmetry)
        assert quad.half_turn == tuple(a[i] for a in batch.half_turn)
        assert quad.max_residual == batch.max_residual[i]
        assert quad.passed == batch.passed[i]


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21",
                                       "profile_a_table", "mode6_table"])
def test_parallelogram_array_vertices_are_boundary_points(spec_name, request):
    # a vertex the array launch takes from the solver's last chord
    # evaluation has the bits of a fresh evaluation at its psi
    spec = request.getfixturevalue(spec_name)
    starts = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    quad = verify_parallelogram(spec, table_profile(spec), starts)
    for (x, y), psi in zip(quad.points, quad.psis):
        x_fresh, y_fresh = boundary_point(spec, psi)
        assert np.array_equal(x, x_fresh) and np.array_equal(y, y_fresh)


def test_parallelogram_mode6_table(mode6_table, mode6_profile):
    # the constructed invariant curve really consists of 4-periodic orbits
    for psi in np.linspace(0.0, 2 * math.pi, 32, endpoint=False):
        quad = verify_parallelogram(mode6_table, mode6_profile, float(psi))
        assert quad.closure <= 1e-8


def test_rectangle_residuals(circle, ellipse21, ellipse21_profile):
    assert verify_rectangle(circle, ellipse_profile(1.0, 1.0), 0.0) <= 1e-10
    for psi in (0.0, 0.5, 2.0, 4.4):
        assert verify_rectangle(ellipse21, ellipse21_profile, psi) <= 1e-9


def test_half_period_and_line_symmetry(ellipse21, ellipse21_profile):
    # second iteration maps a line to its point reflection: T^2 = half turn
    for psi in (0.1, 1.3):
        d = ellipse21_profile.jet(psi)[0]
        line = chart_to_line(ellipse21, BoundaryCoord(psi, d))
        twice = forward_map(ellipse21, forward_map(ellipse21, line))
        mirrored = half_turn(line)
        assert twice.p == pytest.approx(mirrored.p, abs=1e-9)
        assert twice.phi == pytest.approx(mirrored.phi, abs=1e-9)


def test_orthoptic_ellipse(ellipse21):
    r_squared, deviation = verify_orthoptic(ellipse21)
    assert r_squared == pytest.approx(5.0, abs=1e-10)
    assert deviation <= 1e-10


def test_orthoptic_circle(circle):
    r_squared, deviation = verify_orthoptic(circle)
    assert r_squared == pytest.approx(2.0, abs=1e-12)
    assert deviation <= 1e-12


def test_orthoptic_profile_table():
    # h = R sin d forces h^2 + h^2(psi + pi/2) = R^2 exactly
    table = table_from_profile(AngleProfile(((2, 0.2, 0.0),)), 1.0)
    r_squared, deviation = verify_orthoptic(table)
    assert r_squared == pytest.approx(1.0, abs=1e-12)
    assert deviation <= 1e-10


def test_orthoptic_asymmetric_table_deviates():
    asym = FourierTable(1.0, cos_coeffs=(0.05, 0.1))
    _, deviation = verify_orthoptic(asym)
    assert deviation > 1e-3


def test_d_h_relations(circle, ellipse21, ellipse21_profile, mode6_table,
                       mode6_profile):
    res_h, res_dh = verify_d_h_relations(ellipse21, ellipse21_profile)
    assert res_h <= 1e-9 and res_dh <= 1e-9
    res_h, res_dh = verify_d_h_relations(circle, ellipse_profile(1.0, 1.0))
    assert res_h <= 1e-12
    assert res_dh == 0.0  # h' vanishes identically, second identity skipped
    res_h, res_dh = verify_d_h_relations(mode6_table, mode6_profile)
    assert res_h <= 1e-10 and res_dh <= 1e-10


def test_table_profile_dispatch(circle, ellipse21, mode6_table):
    assert table_profile(FourierTable(1.0)) is None
    assert table_profile(mode6_table) is mode6_table.profile
    prof = table_profile(ellipse21)
    assert prof.jet(0.0)[0] == pytest.approx(0.5 * math.acos(-0.6))


def test_invariant_curve_slope_matches_finite_differences(ellipse21,
                                                          ellipse21_profile):
    # omega on the curve is dp/dphi of its graph
    e = 1e-6
    for psi in (0.3, 1.7):
        state = invariant_curve_state(ellipse21, ellipse21_profile, psi)
        up = invariant_curve_state(ellipse21, ellipse21_profile, psi + e).line
        dn = invariant_curve_state(ellipse21, ellipse21_profile, psi - e).line
        fd = (up.p - dn.p) / (up.phi - dn.phi)
        assert state.omega == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_construction_self_consistency(profile_zoo):
    # any admissible profile with a convex table launches 4-periodic orbits
    for profile, radius in profile_zoo:
        table = table_from_profile(profile, radius)
        for psi in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            quad = verify_parallelogram(table, profile, float(psi))
            assert quad.closure <= 1e-8
