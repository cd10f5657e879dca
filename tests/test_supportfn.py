import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from billiards.errors import CurvatureViolation, SolverError
from billiards.profiles import AngleProfile, ellipse_profile
from billiards.supportfn import (FourierTable, Jet2, arclength_of_psi,
                                 ellipse_support, is_centrally_symmetric,
                                 perimeter, symmetry_check, table_from_dict,
                                 table_from_profile, table_to_dict,
                                 validate_table)

ELLIPSE21_PERIMETER = 9.688448220547675  # independent quadrature, frozen


def central_diff(f, x, step=1e-5):
    return (f(x + step) - f(x - step)) / (2 * step)


def second_diff(f, x, step=1e-5):
    return (f(x + step) - 2 * f(x) + f(x - step)) / step**2


def test_ellipse_jet_at_vertex(ellipse21):
    jet = ellipse21.jet(0.0)
    assert jet.h == pytest.approx(2.0, abs=1e-14)
    assert jet.dh == pytest.approx(0.0, abs=1e-14)
    # differentiating the closed form twice gives h'' = (b^2 - a^2)/a
    assert jet.ddh == pytest.approx(-1.5, abs=1e-12)
    assert jet.rho == pytest.approx(0.5, abs=1e-12)


def test_unit_circle_fourier_jet(fourier_circle):
    for psi in (0.0, 0.3, 2.0, 5.5):
        jet = fourier_circle.jet(psi)
        assert jet == (1.0, 0.0, 0.0)
        assert jet.rho == 1.0
        assert jet.curvature == 1.0


def test_constant_profile_is_circle():
    table = table_from_profile(AngleProfile(()), math.sqrt(2.0))
    for psi in (0.0, 1.0, 4.0):
        jet = table.jet(psi)
        assert jet.h == pytest.approx(1.0, abs=1e-15)
        assert jet.dh == 0.0
        assert jet.ddh == 0.0


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table",
                                       "mode2_table"])
def test_derivatives_match_finite_differences(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    h = lambda psi: spec.jet(psi).h
    for psi in np.linspace(0.1, 2 * math.pi, 17):
        jet = spec.jet(psi)
        fd1 = central_diff(h, psi)
        fd2 = second_diff(h, psi)
        assert jet.dh == pytest.approx(fd1, rel=1e-6, abs=1e-9)
        assert jet.ddh == pytest.approx(fd2, rel=1e-4, abs=1e-6)


def test_ellipse_support_values(ellipse21):
    assert ellipse21.jet(0.0).h == pytest.approx(2.0, abs=1e-15)
    assert ellipse21.jet(math.pi / 2).h == pytest.approx(1.0, abs=1e-15)
    # support at pi/4 from the closed form
    assert ellipse21.jet(math.pi / 4).h == pytest.approx(
        math.sqrt(2.5), abs=1e-15)


def test_ellipse_support_rejects_bad_axes():
    with pytest.raises(ValueError):
        ellipse_support(1.0, 2.0)
    with pytest.raises(ValueError):
        ellipse_support(2.0, 0.0)
    with pytest.raises(ValueError):
        ellipse_support(-2.0, -1.0)


def test_profile_table_reproduces_ellipse(ellipse21):
    # cos 2d = -(3/5) cos 2psi with R = sqrt(5) is the (2,1) ellipse
    table = table_from_profile(ellipse_profile(2.0, 1.0), math.sqrt(5.0))
    psi = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    assert np.max(np.abs(table.jet(psi).h
                         - ellipse21.jet(psi).h)) <= 1e-10


def test_wild_profile_fails_curvature_check():
    wild = AngleProfile(((2, 0.4, 0.0), (6, 0.3, 0.0)))
    with pytest.raises(CurvatureViolation):
        table_from_profile(wild, 1.0)


def test_validate_grid_default_512(ellipse21):
    stats = validate_table(ellipse21)
    assert stats["grid"] == 512
    assert stats["min_rho"] == pytest.approx(0.5, rel=1e-4)


def test_arclength_circle(circle):
    assert arclength_of_psi(circle, math.pi) == pytest.approx(math.pi, abs=1e-10)


def test_ellipse_perimeter_against_independent_quadrature(ellipse21):
    # parametric speed integral, independent of the rho route
    oracle = quad(lambda t: math.hypot(2.0 * math.sin(t), math.cos(t)),
                  0.0, 2 * math.pi, limit=200, epsabs=1e-13)[0]
    value = perimeter(ellipse21)
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(ELLIPSE21_PERIMETER, abs=1e-9)


@pytest.fixture
def ellipse101():
    return ellipse_support(10.0, 1.0)


@pytest.fixture
def digest_fourier():
    # the Fourier table of scripts/output_digest.py
    return FourierTable(1.0, (0.0, 0.1, 0.0, 0.02), (0.0, 0.03))


@pytest.fixture
def cos62():
    # the 64-point grid folds harmonic 62 onto 2, below its top quarter
    return FourierTable(1.0, (0.0,) * 61 + (1e-4,))


@pytest.fixture
def sin32():
    # sin 32 psi vanishes on the 64-point grid in h and in rho; only h'
    # shows it there
    return FourierTable(1.0, (), (0.0,) * 31 + (1e-4,))


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "ellipse101",
                                       "profile_a_table", "mode6_table",
                                       "digest_fourier", "cos62", "sin32"])
def test_arclength_matches_quadrature_of_rho(spec_name, request):
    # quad of rho is independent of the Fourier route; the angles include
    # lifts on both sides of [0, 2pi]. An array of them, -0.0 added, has
    # the bits of the float calls entry by entry
    spec = request.getfixturevalue(spec_name)
    psis = (-1.0, 0.5, 2.0, math.pi, 5.0, 2 * math.pi + 1.0, 7.5, 20.0)
    for psi in psis:
        oracle = quad(lambda t: spec.jet(t).rho, 0.0, psi, limit=200,
                      epsabs=3e-14, epsrel=3e-14)[0]
        assert arclength_of_psi(spec, psi) == pytest.approx(oracle, rel=1e-13)
    psis += (-0.0,)
    floats = np.array([arclength_of_psi(spec, psi) for psi in psis])
    array = arclength_of_psi(spec, np.array(psis))
    assert np.array_equal(array.view(np.uint64), floats.view(np.uint64))


@pytest.mark.parametrize("make", [
    # quad returned a perimeter of 625628 here with only a warning; the
    # series needs some 10^7 harmonics
    lambda: ellipse_support(1e6, 1.0),
    # a harmonic above the 2^20 grid's Nyquist 2^19, which the 64-point
    # grid folds onto k = 2
    lambda: table_from_profile(AngleProfile(
        ((2, 0.1, 0.0), (600002, 1e-13, 0.0))), 1.0),
], ids=["ellipse_1e6", "unresolved_profile"])
def test_arclength_unresolved_series_raises(make):
    with pytest.raises(SolverError, match="on 1048576 points"):
        perimeter(make())


@pytest.mark.parametrize("harmonic", [64, 128])
def test_perimeter_sees_harmonic_aliased_onto_mean(harmonic):
    # cos k psi is 1 on every grid of k or k/2 points, where h looks like
    # the constant 1 + 1e-4; the weights k and 1 - k^2 of h' and rho give
    # it away. The term integrates to 0 over a period.
    spec = FourierTable(1.0, (0.0,) * (harmonic - 1) + (1e-4,))
    assert perimeter(spec) == pytest.approx(2 * math.pi, rel=1e-13)


def test_arclength_monotone_and_symmetric(ellipse21):
    psis = np.linspace(0.2, 2 * math.pi, 8)
    values = [arclength_of_psi(ellipse21, p) for p in psis]
    assert all(b > a for a, b in zip(values, values[1:]))
    half = perimeter(ellipse21) / 2
    for psi in (0.0, 0.7, 2.1):
        gap = arclength_of_psi(ellipse21, psi + math.pi) \
            - arclength_of_psi(ellipse21, psi)
        assert gap == pytest.approx(half, abs=1e-9)


@pytest.mark.parametrize("spec_name", ["circle", "ellipse21", "mode6_table",
                                       "mode2_table", "fourier_circle"])
def test_positivity_on_fine_grid(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    psi = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
    jet = spec.jet(psi)
    assert np.min(jet.rho) > 0.0
    assert np.min(jet.h) > 0.0


def test_ellipse_orthoptic_identity(ellipse21):
    psi = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    h = ellipse21.jet(psi).h
    h_quarter = ellipse21.jet(psi + math.pi / 2).h
    assert np.max(np.abs(h * h + h_quarter * h_quarter - 5.0)) <= 1e-10


def test_ellipse_h_squared_identity(ellipse21):
    for psi in np.linspace(0.0, 2 * math.pi, 64):
        h = ellipse21.jet(psi).h
        expected = 4.0 * math.cos(psi) ** 2 + math.sin(psi) ** 2
        assert h * h == pytest.approx(expected, abs=1e-13)


def test_symmetry_validator():
    asym = FourierTable(1.0, cos_coeffs=(0.05, 0.1))
    assert not is_centrally_symmetric(asym)
    assert symmetry_check(asym)[0] == pytest.approx(0.1, abs=1e-12)
    sym = FourierTable(1.0, cos_coeffs=(0.0, 0.1))
    assert is_centrally_symmetric(sym)


def test_symmetry_check_takes_two_jets(monkeypatch):
    # the defect and the size of the tolerance come from one pair of jets
    asym = FourierTable(1.0, cos_coeffs=(0.05, 0.1))
    big = FourierTable(3.0, cos_coeffs=(0.0, 0.1))
    expected = [(symmetry_check(t)[0], is_centrally_symmetric(t))
                for t in (asym, big)]
    calls = [0]
    jet = FourierTable.jet

    def counted(self, psi):
        calls[0] += 1
        return jet(self, psi)

    monkeypatch.setattr(FourierTable, "jet", counted)
    assert [symmetry_check(t) for t in (asym, big)] == expected
    assert calls[0] == 4


def test_fourier_curvature_violation_raises():
    with pytest.raises(CurvatureViolation):
        validate_table(FourierTable(1.0, cos_coeffs=(0.0, 0.9)))


def test_json_round_trip(tmp_path, mode6_table):
    specs = [
        ellipse_support(2.0, 1.0),
        FourierTable(1.0, cos_coeffs=(0.0, 0.1), sin_coeffs=(0.0, 0.02)),
        mode6_table,
    ]
    for i, spec in enumerate(specs):
        data = table_to_dict(spec)
        path = tmp_path / f"t{i}.json"
        path.write_text(json.dumps(data))
        again = table_from_dict(json.loads(path.read_text()))
        psi = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        assert np.array_equal(again.jet(psi).h, spec.jet(psi).h)


def test_unknown_table_type_rejected():
    with pytest.raises(ValueError):
        table_from_dict({"type": "polygon", "sides": 5})


def test_jets_accept_lifted_angles(ellipse21):
    # evaluation reduces mod 2pi, so large lifts agree with the base value
    psi = 1.234
    base = ellipse21.jet(psi)
    lifted = ellipse21.jet(psi + 20 * math.pi)
    assert lifted.h == pytest.approx(base.h, abs=1e-12)
    assert lifted.dh == pytest.approx(base.dh, abs=1e-12)


@pytest.mark.parametrize("spec", [
    ellipse_support(2.0, 1.0),
    FourierTable(1.0, (0.0, 0.1), (0.0, 0.03)),
    table_from_profile(AngleProfile(((2, 0.1, 0.0), (6, 0.02, 0.0))), 1.0),
], ids=["ellipse", "fourier", "profile"])
@pytest.mark.parametrize("psi", [0.7, np.linspace(0.0, 7.0, 5)],
                         ids=["float", "array"])
def test_jet_is_a_jet2(spec, psi):
    # every table kind builds its jet without Jet2's generated __new__; it
    # is still the NamedTuple, with its fields, properties and repr
    jet = spec.jet(psi)
    assert type(jet) is Jet2
    assert jet._fields == ("h", "dh", "ddh")
    assert list(jet._asdict().items()) == [("h", jet.h), ("dh", jet.dh),
                                           ("ddh", jet.ddh)]
    assert np.array_equal(jet.rho, jet.h + jet.ddh)
    assert np.array_equal(jet.curvature, 1.0 / (jet.h + jet.ddh))
    assert repr(jet).startswith("Jet2(h=")
