import dataclasses
import itertools
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from billiards import wirtinger
from billiards.billmap import LineCoord, p_of, s_derivatives
from billiards.errors import AliasingWarning, NoRealCaustic
from billiards.profiles import AngleProfile, ellipse_profile
from billiards.supportfn import ProfileTable, ellipse_support
from billiards.wirtinger import (BLOCK, IntegralReport, PeriodicSamples,
                                 _exact_parts, _exact_sum,
                                 equality_reconstruct,
                                 hopf_identity_ellipse,
                                 integrand_P, integrand_U, integrand_inner,
                                 mu_jet, periodic_quadrature, reduction_chain,
                                 spectral_derivative, spectral_gap, split_U)

# frozen from the independent oracles before the closed forms were coded
INNER_ELLIPSE21_PI6 = -0.26627218934911234
U_ELLIPSE21_PI4 = 0.07725666117691857


def bracket_oracle(spec, psi, delta):
    """Unsimplified three-term integrand via the map primitives.

    [p^2 S11 + p1^2 S22 + 2 p p1 S12] (h + h'') sin(delta) carries twice
    the simplified normal form, hence the 1/2.
    """
    phi, phi1 = psi - delta, psi + delta
    p, p1 = p_of(spec, phi, phi1)
    sd = s_derivatives(spec, phi, phi1)
    jet = spec.jet(psi)
    bracket = p * p * sd.s11 + p1 * p1 * sd.s22 + 2 * p * p1 * sd.s12
    return 0.5 * bracket * jet.rho * math.sin(delta)


# --- spectral helpers -------------------------------------------------------


def test_spectral_derivative_exact_on_modes():
    n = 128
    psi = np.arange(n) * (math.pi / n)
    samples = PeriodicSamples(np.cos(2 * psi), math.pi)
    d1 = spectral_derivative(samples, 1)
    assert np.max(np.abs(d1.values + 2 * np.sin(2 * psi))) <= 1e-12
    d2 = spectral_derivative(samples, 2)
    assert np.max(np.abs(d2.values + 4 * np.cos(2 * psi))) <= 1e-11


def test_spectral_derivative_constant():
    samples = PeriodicSamples(np.full(64, 3.7), math.pi)
    assert np.max(np.abs(spectral_derivative(samples, 1).values)) <= 1e-13
    assert np.max(np.abs(spectral_derivative(samples, 2).values)) <= 1e-13


def test_spectral_derivative_matches_chain_rule(ellipse21_profile):
    n = 256
    psi = np.arange(n) * (math.pi / n)
    mu, dmu, ddmu = mu_jet(ellipse21_profile, psi)
    samples = PeriodicSamples(mu, math.pi)
    assert np.max(np.abs(spectral_derivative(samples, 1).values - dmu)) <= 1e-10
    assert np.max(np.abs(spectral_derivative(samples, 2).values - ddmu)) <= 1e-9


def test_spectral_derivative_warns_on_aliasing():
    n = 64
    psi = np.arange(n) * (math.pi / n)
    # energy exactly at Nyquist (frequency n/2 on the pi-period grid)
    samples = PeriodicSamples(np.cos(n * psi), math.pi)
    with pytest.warns(AliasingWarning):
        spectral_derivative(samples, 2)


def test_periodic_samples_validation():
    with pytest.raises(ValueError):
        PeriodicSamples(np.zeros(48), math.pi)
    with pytest.raises(ValueError):
        PeriodicSamples(np.zeros(96), math.pi)
    with pytest.raises(ValueError):
        PeriodicSamples(np.zeros(64), 1.0)


def test_periodic_quadrature_basics():
    n = 256
    psi = np.arange(n) * (math.pi / n)
    assert periodic_quadrature(PeriodicSamples(np.cos(2 * psi) ** 2, math.pi)) \
        == pytest.approx(math.pi / 2, abs=1e-13)
    assert periodic_quadrature(PeriodicSamples(np.cos(2 * psi), math.pi)) \
        == pytest.approx(0.0, abs=1e-13)


def test_periodic_quadrature_grid_doubling(ellipse21_profile):
    vals = {}
    for n in (512, 1024):
        psi = np.arange(n) * (math.pi / n)
        d = ellipse21_profile.jet(psi)[0]
        vals[n] = periodic_quadrature(
            PeriodicSamples(np.sin(2 * d) ** 2, math.pi))
    assert abs(vals[512] - vals[1024]) <= 1e-12


# --- exact summation ------------------------------------------------------------

# round-half-even ties: 1 + 2^-53 rounds down to 1, 1 + 3*2^-54 rounds up
TIES = (1.0, 2.0**-53, 3 * 2.0**-54)
SPECIALS = (math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 2.0**900)


@st.composite
def sum_arrays(draw):
    """Float arrays of length 1..4096 built from a few drawn atoms: mixed
    exponents, zeros of both signs, subnormals, ties at every scale, each x
    possibly beside -x, and sometimes nan, inf or values near overflow."""
    atoms = draw(st.lists(st.one_of(
        st.floats(min_value=-2.0**899, max_value=2.0**899),
        st.floats(min_value=-1e-300, max_value=1e-300),
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
        st.builds(math.ldexp, st.sampled_from(TIES), st.integers(-1070, 890)),
    ), min_size=1, max_size=12))
    n = draw(st.integers(1, 4096))     # n = 0 is an explicit example
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.choice(np.array(atoms), n) * rng.choice((1.0, -1.0), n)
    if n >= 2 and draw(st.booleans()):
        half = n // 2
        values[half:2 * half] = -values[:half]
        values = rng.permutation(values)
    if draw(st.integers(0, 3)) == 0:
        specials = draw(st.lists(st.sampled_from(SPECIALS), min_size=1,
                                 max_size=3))
        values[rng.integers(0, n, len(specials))] = specials
    return values


def wide_array(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(65536) * 10.0 ** rng.uniform(-300, 250, 65536)


def cancelling_array(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(32768) * 10.0 ** rng.uniform(-20, 20, 32768)
    return rng.permutation(np.concatenate([x, -x, [1e-30]]))[:65536]


def sparse_array(seed):
    rng = np.random.default_rng(seed)
    values = np.zeros(65536)
    values[rng.integers(0, 65536, 1000)] = rng.standard_normal(1000) * 1e10
    return values


def ladder_array():
    # one value per 30 binades from 2^-1000 to 2^890, alternating in sign:
    # each extraction level takes about 46 bits of it, so about forty
    # levels run before few enough entries are left
    return (np.ldexp(1.0 + np.arange(64) / 64.0, np.arange(-1000, 900, 30))
            * np.resize([1.0, -1.0], 64))


def ties_array(seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array(TIES), 65536) * rng.choice((1.0, -1.0), 65536)


# the fallback to raw values: overflow, inf - inf, nan, and >= 2^900
FALLBACKS = (
    np.array([1.7e308, 1.0, 2.0, 1.7e308, -1.7e308]),
    np.array([math.inf, 1.0, 2.0, -math.inf, 3.0]),
    np.array([1.0, math.nan, 2.0, math.inf, 3.0]),
    np.array([2.0**900, 1.0, 2.0, -2.0**900, 2.0**-1000]),
)


def sum_examples(*cuts):
    """The fixed arrays of the exact-sum properties as @examples, each
    followed by the cuts given."""
    def apply(test):
        for values in (np.random.default_rng(0).standard_normal(65536),
                       wide_array(1), cancelling_array(2), sparse_array(3),
                       ties_array(4), ladder_array(), np.full(65536, -0.0),
                       np.zeros(0),
                       *FALLBACKS):
            test = example(values, *cuts)(test)
        return test
    return apply


def assert_sums_like_fsum(values, exact):
    """exact(values) has the bits of math.fsum over values, or raises the
    same exception with the same message."""
    try:
        want = math.fsum(values.tolist())
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            exact(values)
        return
    # bit for bit: the sign of zero and the nan payload included
    assert struct.pack("<d", exact(values)) == struct.pack("<d", want)


@settings(max_examples=200, deadline=None)
@given(sum_arrays())
@sum_examples()
def test_exact_sum_equals_fsum(values):
    assert_sums_like_fsum(values, _exact_sum)


@settings(max_examples=200, deadline=None)
@given(sum_arrays(), st.lists(st.integers(0, 4096), max_size=6))
@sum_examples([1, 3, 3, BLOCK, 30001, 65535])
def test_exact_parts_over_blocks_equal_fsum(values, cuts):
    # any split into blocks, empty ones included: one fsum over all parts
    def blockwise(values):
        blocks = np.split(values, sorted(cuts))
        return math.fsum([part for block in blocks
                          for part in _exact_parts(block)])
    assert_sums_like_fsum(values, blockwise)


# --- integrands ---------------------------------------------------------------


def test_integrand_inner_circle_zero(circle):
    for psi in (0.0, 1.0):
        for delta in (0.3, 1.2):
            assert integrand_inner(circle, psi, delta) == 0.0


def test_integrand_inner_vanishes_at_zero_delta(ellipse21):
    assert integrand_inner(ellipse21, 0.7, 0.0) == 0.0


def test_integrand_inner_matches_bracket_oracle(ellipse21, mode6_table):
    value = integrand_inner(ellipse21, math.pi / 6, math.pi / 6)
    assert value == pytest.approx(INNER_ELLIPSE21_PI6, abs=1e-12)
    assert bracket_oracle(ellipse21, math.pi / 6, math.pi / 6) == pytest.approx(
        INNER_ELLIPSE21_PI6, abs=1e-12)
    rng = np.random.default_rng(1)
    for spec in (ellipse21, mode6_table):
        for psi, delta in zip(rng.uniform(0, 2 * math.pi, 16),
                              rng.uniform(0.05, math.pi - 0.05, 16)):
            assert integrand_inner(spec, psi, delta) == pytest.approx(
                bracket_oracle(spec, psi, delta), abs=1e-12, rel=1e-12)


def test_integrand_U_circle_zero(circle):
    prof = ellipse_profile(1.0, 1.0)
    for psi in (0.0, 0.8, 2.2):
        assert integrand_U(circle, prof, psi) == 0.0


def test_integrand_U_frozen_value(ellipse21, ellipse21_profile):
    assert integrand_U(ellipse21, ellipse21_profile, math.pi / 4) \
        == pytest.approx(U_ELLIPSE21_PI4, abs=1e-12)


def test_integrand_U_matches_delta_quadrature(ellipse21, ellipse21_profile):
    for psi in np.linspace(0.0, math.pi, 64, endpoint=False):
        d = ellipse21_profile.jet(float(psi))[0]
        oracle = quad(lambda de: integrand_inner(ellipse21, float(psi), de),
                      0.0, d, epsabs=1e-13, epsrel=1e-13, limit=100)[0]
        assert integrand_U(ellipse21, ellipse21_profile, float(psi)) \
            == pytest.approx(oracle, abs=1e-9)


def test_split_U_constant_profile_zero():
    prof = AngleProfile(())
    assert split_U(prof, 1.0, 0.4) == (0.0, 0.0, 0.0)


def test_split_U_sums_to_U(ellipse21, ellipse21_profile, mode2_profile):
    u1, u2, u3 = split_U(ellipse21_profile, math.sqrt(5.0), math.pi / 6)
    total = integrand_U(ellipse21, ellipse21_profile, math.pi / 6)
    assert u1 + u2 + u3 == pytest.approx(total, abs=1e-10)

    psi = np.linspace(0.0, math.pi, 256, endpoint=False)
    table = ProfileTable(mode2_profile, 1.0)
    parts = split_U(mode2_profile, 1.0, psi)
    total = integrand_U(table, mode2_profile, psi)
    assert np.max(np.abs(parts[0] + parts[1] + parts[2] - total)) <= 1e-10


# --- the reduction chain ---------------------------------------------------------


def test_reduction_chain_constant_profile():
    report = reduction_chain(AngleProfile(()), 1.0, 256)
    for value in (report.I_U_direct, report.I_U_parts, report.I_W, report.I_P):
        assert value == pytest.approx(0.0, abs=1e-15)


def test_reduction_chain_ellipse_equality_case(ellipse21_profile):
    R = math.sqrt(5.0)
    report = reduction_chain(ellipse21_profile, R, 1024)
    assert abs(report.I_P) <= 1e-8 * R**4
    assert report.identity_ok and report.stepwise_ok
    assert report.residual_UP <= 1e-10
    assert report.mu_max == pytest.approx(0.6, abs=1e-12)


def test_reduction_chain_mode6_strict_inequality(mode6_profile):
    report = reduction_chain(mode6_profile, 1.0, 1024)
    assert report.I_P > 0.0
    assert report.residual_UP <= 1e-6 * max(abs(report.I_U_direct),
                                            abs(report.I_P), 1e-12)
    assert abs(report.gap_spectral - report.I_P) \
        <= 1e-6 * max(report.I_P, 1e-12)
    assert report.conv_delta_U <= 1e-8
    assert report.conv_delta_P <= 1e-8


def test_reduction_chain_zoo_conservation(profile_zoo):
    for profile, radius in profile_zoo:
        report = reduction_chain(profile, radius, 1024)
        scale = max(1.0, radius**4)
        assert report.residual_UP <= 1e-6 * (1.0 + abs(report.I_U_direct))
        assert report.residual_UW <= 1e-8 * scale
        for r in report.stepwise_UV + report.stepwise_VW:
            assert r <= 1e-8 * scale
        assert report.I_P >= -1e-9 * radius**4
        assert report.conv_delta_U <= 1e-8 * scale
        assert report.conv_delta_P <= 1e-8 * scale


def test_verdicts_keep_the_integral_bounds(ellipse21_profile):
    # U = W and the stepwise residuals within 1e-8 max(1, R^4), the gap
    # down to -1e-9 R^4; each bound passes where it is met exactly
    R = math.sqrt(5.0)
    report = reduction_chain(ellipse21_profile, R, 256)
    labels = ["int U == int P", "int U == int W",
              "stepwise int Uj == int Vj == int Wj", "wirtinger gap >= 0"]
    assert report.verdicts() == tuple(zip(labels, [True] * 4, [
        report.residual_UP, report.residual_UW,
        max(report.stepwise_UV + report.stepwise_VW), report.I_P]))
    tol, floor = 1e-8 * R**4, -1e-9 * R**4
    for residual_UW, I_P, passed in (
            (tol, floor, [True, True]),
            (math.nextafter(tol, 1.0), math.nextafter(floor, -1.0),
             [False, False])):
        changed = dataclasses.replace(report, residual_UW=residual_UW,
                                      I_P=I_P, identity_ok=False,
                                      stepwise_ok=False)
        assert [ok for _, ok, _ in changed.verdicts()] \
            == [False, passed[0], False, passed[1]]


def test_reduction_chain_rejects_nonconvex_by_default():
    from billiards.errors import CurvatureViolation
    steep = AngleProfile(((2, 0.1, 0.0), (6, 0.03, 0.0)))
    with pytest.raises(CurvatureViolation):
        reduction_chain(steep, 1.0, 256)
    # the chain itself is a calculus identity, convexity only gates it
    report = reduction_chain(steep, 1.0, 256, require_convex=False)
    assert report.identity_ok


def test_wirtinger_gap_zero_only_on_ellipse_family(profile_zoo):
    # mu = cos 2d is band-limited to the first pi-harmonic only for the
    # arccos closed form (and the constant); every trig-polynomial d leaks
    # into higher modes, so its gap is strictly positive
    for profile, radius in profile_zoo:
        gap = spectral_gap(profile, radius, 1024)
        ellipse_family = not isinstance(profile, AngleProfile) \
            or not profile.modes
        if ellipse_family:
            assert abs(gap) <= 1e-8 * radius**4
        else:
            assert gap > 1e-8 * radius**4


def test_mu_function_invariant(ellipse21_profile):
    psi = np.arange(256) * (math.pi / 256)
    assert np.max(np.abs(mu_jet(ellipse21_profile, psi)[0])) < 1.0
    # a profile escaping (0, pi/2) is rejected before mu is ever formed
    with pytest.raises(ValueError):
        spectral_gap(AngleProfile(((2, 0.9, 0.0),)), 1.0, 256)


def spectral_gap_per_mode(profile, R, n):
    """The per-mode loop spectral_gap once ran: the bit reference."""
    psi = np.arange(n) * (math.pi / n)
    spectrum = np.fft.rfft(mu_jet(profile, psi)[0]) / n
    total = 0.0
    for k in range(1, n // 2 + 1):
        if k < n // 2:
            amp2 = 4.0 * (spectrum[k].real**2 + spectrum[k].imag**2)
        else:
            amp2 = spectrum[k].real**2
        freq2 = (2.0 * k) ** 2
        total += (freq2 * freq2 - 4.0 * freq2) * amp2
    return (math.pi * R**4 / 512.0) * (math.pi / 2.0) * total


class NyquistProfile:
    """d = pi/4 + 0.05 cos 64 psi: not admissible (64 = 0 mod 4), but on the
    64-point grid it puts mu's energy on the Nyquist term, which admissible
    profiles (mu in modes 2 mod 4) leave at rounding level."""

    def jet(self, psi):
        c, s = np.cos(64 * psi), np.sin(64 * psi)
        return math.pi / 4 + 0.05 * c, -3.2 * s, -204.8 * c


@pytest.mark.parametrize("n", [64, 1024, 65536])
def test_spectral_gap_equals_per_mode_loop(profile_zoo, n):
    for profile, radius in profile_zoo + [(NyquistProfile(), 1.0)]:
        assert spectral_gap(profile, radius, n) \
            == spectral_gap_per_mode(profile, radius, n)
    mu = mu_jet(NyquistProfile(), np.arange(64) * (math.pi / 64))[0]
    assert abs(np.fft.rfft(mu)[-1]) > 1.0


@pytest.mark.parametrize("n", [64, 4096])
def test_reduction_chain_equals_public_route(profile_zoo, n):
    psi = np.arange(n) * (math.pi / n)
    for profile, radius in profile_zoo:
        report = reduction_chain(profile, radius, n)
        table = ProfileTable(profile, radius)
        assert report.I_U_direct == periodic_quadrature(PeriodicSamples(
            integrand_U(table, profile, psi), math.pi))
        assert report.I_P == periodic_quadrature(PeriodicSamples(
            integrand_P(profile, radius, psi), math.pi))
        assert report.gap_spectral == spectral_gap(profile, radius, n)


def fsum_quadrature(values):
    """Rectangle rule over math.fsum of a list: the bit reference for the
    chain's blockwise exact sums."""
    return (math.pi / values.shape[0]) * math.fsum(values.tolist())


def fsum_chain_report(profile, R, n):
    """The chain's report from whole-grid stage arrays, each summed by
    math.fsum: no blocks and no exact extraction."""
    psi = np.arange(n) * (math.pi / n)
    d, dp, ddp = profile.jet(psi)
    t = wirtinger._trig(d)
    u = integrand_U(ProfileTable(profile, R), profile, psi)
    p = integrand_P(profile, R, psi)
    I_U, I_V, I_W = (tuple(fsum_quadrature(v) for v in stage(d, dp, ddp, R, t))
                     for stage in (wirtinger._u_parts_d, wirtinger._v_parts_d,
                                   wirtinger._w_parts_d))
    I_U_direct, I_P = fsum_quadrature(u), fsum_quadrature(p)
    I_W_combined = fsum_quadrature(wirtinger._w_combined_d(d, dp, ddp, R, t))
    stepwise_UV = tuple(abs(a - b) for a, b in zip(I_U, I_V))
    stepwise_VW = tuple(abs(a - b) for a, b in zip(I_V, I_W))
    return IntegralReport(
        n=n, R=R, I_U_direct=I_U_direct,
        I_U1=I_U[0], I_U2=I_U[1], I_U3=I_U[2], I_U_parts=math.fsum(I_U),
        I_V1=I_V[0], I_V2=I_V[1], I_V3=I_V[2],
        I_W1=I_W[0], I_W2=I_W[1], I_W3=I_W[2],
        I_W=I_W_combined, I_P=I_P, wirtinger_gap=I_P,
        gap_spectral=spectral_gap(profile, R, n),
        residual_UP=abs(I_U_direct - I_P),
        residual_UW=abs(I_U_direct - I_W_combined),
        stepwise_UV=stepwise_UV, stepwise_VW=stepwise_VW,
        conv_delta_U=abs(I_U_direct - fsum_quadrature(u[::2])),
        conv_delta_P=abs(I_P - fsum_quadrature(p[::2])),
        mu_max=float(np.max(np.abs(np.cos(2.0 * d)))),
        identity_ok=abs(I_U_direct - I_P) <= 1e-6 * (1.0 + abs(I_U_direct)),
        stepwise_ok=all(r <= 1e-8 * max(1.0, R**4)
                        for r in stepwise_UV + stepwise_VW))


@pytest.mark.parametrize("n", [64, 4096, 65536, 2**18])
def test_reduction_chain_equals_fsum_quadrature(profile_zoo, n):
    # at n = 64 the half-grid checks conv_delta_U/P sum 32 samples; from
    # n = 65536 on the chain runs in blocks
    for profile, radius in profile_zoo:
        report = reduction_chain(profile, radius, n)
        # repr tells -0.0 from 0.0
        assert repr(report.to_dict()) \
            == repr(fsum_chain_report(profile, radius, n).to_dict())


def test_reduction_chain_evaluates_profile_once(profile_zoo, monkeypatch):
    # every stage reads one set of samples, taken block by block; the
    # validation grids (512 and 1024 points over [0, 2 pi)) reach past pi
    # and are not counted
    for (profile, radius), n in itertools.product(profile_zoo, (4096, 65536)):
        calls = []
        jet = type(profile).jet

        def counting_jet(self, psi, jet=jet):
            if np.ndim(psi) == 1 and psi[-1] < math.pi:
                calls.append(psi)
            return jet(self, psi)

        with monkeypatch.context() as patch:
            patch.setattr(type(profile), "jet", counting_jet)
            reduction_chain(profile, radius, n)
        assert all(len(psi) <= BLOCK for psi in calls)
        assert np.array_equal(np.concatenate(calls),
                              np.arange(n) * (math.pi / n))


def test_reduction_chain_memory_stays_blocked(mode6_profile):
    # 11.0 MB traced when every stage ran on the whole 65536-point grid;
    # 3.45 MiB at 65536 and 4.73 x 8n at 2^18 while each block kept all
    # its stage arrays and the FFT gap ran out of place
    for n, bound in ((65536, 2.5 * 2**20), (2**18, 3.5 * 8 * 2**18)):
        reduction_chain(mode6_profile, 1.0, n)
        tracemalloc.start()
        try:
            reduction_chain(mode6_profile, 1.0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, n


def test_derivative_oracle_on_chain_inputs(mode6_profile):
    # analytic d', d'' and mu', mu'' agree with spectral differentiation
    n = 512
    psi = np.arange(n) * (math.pi / n)
    d, dp, ddp = mode6_profile.jet(psi)
    d_samples = PeriodicSamples(d, math.pi)
    assert np.max(np.abs(spectral_derivative(d_samples, 1).values - dp)) <= 1e-7
    assert np.max(np.abs(spectral_derivative(d_samples, 2).values - ddp)) <= 1e-7
    mu, dmu, ddmu = mu_jet(mode6_profile, psi)
    mu_samples = PeriodicSamples(mu, math.pi)
    assert np.max(np.abs(spectral_derivative(mu_samples, 1).values - dmu)) <= 1e-7
    assert np.max(np.abs(spectral_derivative(mu_samples, 2).values - ddmu)) <= 1e-7


# --- pointwise equality case -------------------------------------------------------


def test_hopf_circle_trivial():
    line = LineCoord(math.cos(0.7), 0.3)
    result = hopf_identity_ellipse(1.0, 1.0, line)
    assert result.defect == pytest.approx(0.0, abs=1e-12)
    assert result.amgm_defect == pytest.approx(0.0, abs=1e-12)
    assert result.nu1 == pytest.approx(1.0, abs=1e-12)


def test_hopf_ellipse_100_caustic_lines():
    rng = np.random.default_rng(12)
    count = 0
    while count < 100:
        phi = float(rng.uniform(0, 2 * math.pi))
        lam = float(rng.uniform(0.05, 0.95))
        p = math.sqrt(4 * math.cos(phi) ** 2 + math.sin(phi) ** 2 - lam)
        result = hopf_identity_ellipse(2.0, 1.0, LineCoord(p, phi))
        assert abs(result.defect) <= 1e-8
        assert abs(result.amgm_defect) <= 1e-8
        assert result.nu1 == pytest.approx(result.p_ratio, abs=1e-9)
        count += 1


def test_hopf_no_real_caustic():
    # line through the center: lambda = 4 cos^2(0) - 1 = 3 > b^2
    with pytest.raises(NoRealCaustic):
        hopf_identity_ellipse(2.0, 1.0, LineCoord(1.0, 0.0))


# --- equality-case reconstruction ----------------------------------------------------


def test_equality_reconstruct_circle():
    a, b = equality_reconstruct(0.0, 1.0)
    assert a == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert b == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_equality_reconstruct_ellipse21():
    a, b = equality_reconstruct(0.6, math.sqrt(5.0))
    assert sorted((a, b)) == pytest.approx([1.0, 2.0], abs=1e-12)
    # support of the reconstructed table equals R sin d with cos 2d = A cos 2psi
    R, A = math.sqrt(5.0), 0.6
    ref = ellipse_support(2.0, 1.0)
    for psi in np.linspace(0.0, 2 * math.pi, 128):
        h_rec = math.sqrt(a * a * math.cos(psi) ** 2 + b * b * math.sin(psi) ** 2)
        d = 0.5 * math.acos(A * math.cos(2 * psi))
        assert h_rec == pytest.approx(R * math.sin(d), abs=1e-10)
        # same curve as the canonical (2, 1) ellipse, rotated a quarter turn
        assert h_rec == pytest.approx(ref.jet(psi + math.pi / 2).h,
                                      abs=1e-10)


def test_equality_reconstruct_domain():
    with pytest.raises(ValueError):
        equality_reconstruct(1.0, 1.0)
    with pytest.raises(ValueError):
        equality_reconstruct(-0.1, 1.0)
    with pytest.raises(ValueError):
        equality_reconstruct(0.5, 0.0)


def test_mean_zero_of_squared_support_difference(ellipse21, mode6_table):
    # quadrature of h^2(psi + pi/2) - h^2(psi) vanishes for symmetric tables
    n = 1024
    psi = np.arange(n) * (math.pi / n)
    for spec in (ellipse21, mode6_table):
        h = spec.jet(psi).h
        hq = spec.jet(psi + math.pi / 2).h
        value = periodic_quadrature(PeriodicSamples(hq * hq - h * h, math.pi))
        assert abs(value) <= 1e-12


def test_integrand_P_matches_direct_formula(mode6_profile):
    psi = np.linspace(0.0, math.pi, 128, endpoint=False)
    mu, dmu, ddmu = mu_jet(mode6_profile, psi)
    direct = (math.pi / 512.0) * (ddmu**2 - 4 * dmu**2)
    assert np.max(np.abs(integrand_P(mode6_profile, 1.0, psi) - direct)) \
        <= 1e-14
