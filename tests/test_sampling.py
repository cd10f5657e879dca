import math
import warnings

import numpy as np
import pytest

from billiards.billmap import BoundaryCoord, chart_to_line
from billiards.fourperiodic import table_profile
from billiards.profiles import d_by_entry
from billiards.sampling import SplitMix64, random_interior_lines, scan_starts
from billiards.supportfn import FourierTable

TABLES = ["circle", "ellipse21", "profile_a_table", "mode6_table"]


@pytest.fixture(scope="module")
def fourier_table():
    # a central-symmetric Fourier table, which has no angle profile
    return FourierTable(1.0, (0.0, 0.1, 0.0, 0.02), (0.0, 0.03))


def _lines_draw_by_draw(spec, n, seed, margin=0.05):
    # the reference: one line per pair of draws, float jets
    rng = SplitMix64(seed)
    ps, phis = [], []
    for _ in range(n):
        u1 = rng.next_float()
        u2 = rng.next_float()
        phi = 2.0 * math.pi * u1
        hi = spec.jet(phi).h
        lo = -spec.jet(phi + math.pi).h
        frac = margin + (1.0 - 2.0 * margin) * u2
        ps.append(lo + frac * (hi - lo))
        phis.append(phi)
    return np.array(ps, dtype=float), np.array(phis, dtype=float)


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("spec_name", ["circle", "ellipse21",
                                       "profile_a_table", "mode6_table"])
def test_random_interior_lines_equal_draw_by_draw(spec_name, n, request):
    spec = request.getfixturevalue(spec_name)
    p, phi = random_interior_lines(spec, n, 42)
    ref_p, ref_phi = _lines_draw_by_draw(spec, n, 42)
    assert p.shape == phi.shape == (n,)
    assert p.tobytes() == ref_p.tobytes()
    assert phi.tobytes() == ref_phi.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2000])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 6, 2**64 - 1])
def test_floats_equal_next_float_draws(seed, n):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # uint64 overflow must not warn
        draws = rng.floats(n)
    want = np.array([ref.next_float() for _ in range(n)], dtype=float)
    assert draws.shape == (n,)
    assert draws.tobytes() == want.tobytes()
    assert rng.state == ref.state
    assert rng.next_u64() == ref.next_u64()


def _starts_draw_by_draw(spec, profile, n, seed):
    # the reference: one start per pair of draws, float jets and chart
    rng = SplitMix64(seed)
    psis, deltas, ps, phis = [], [], [], []
    for _ in range(n):
        u1 = rng.next_float()
        u2 = rng.next_float()
        psi = 2.0 * math.pi * u1
        cap = profile.jet(psi)[0] if profile is not None else math.pi / 4
        delta = cap * (1e-6 + (1.0 - 2e-6) * u2)
        line = chart_to_line(spec, BoundaryCoord(psi, delta))
        psis.append(psi)
        deltas.append(delta)
        ps.append(line.p)
        phis.append(line.phi)
    return tuple(np.array(column, dtype=float)
                 for column in (psis, deltas, ps, phis))


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("spec_name", [*TABLES, "fourier_table"])
def test_scan_starts_equal_draw_by_draw(spec_name, n, request):
    spec = request.getfixturevalue(spec_name)
    profile = table_profile(spec)
    assert (profile is None) == (spec_name == "fourier_table")
    got = scan_starts(spec, profile, n, 42)
    want = _starts_draw_by_draw(spec, profile, n, 42)
    for array, ref in zip(got, want, strict=True):
        assert array.shape == (n,)
        assert array.tobytes() == ref.tobytes()


@pytest.mark.parametrize("spec_name", TABLES)
def test_chart_to_line_arrays_equal_float_calls(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    psi, delta, _, _ = scan_starts(spec, table_profile(spec), 500, 3)
    psi = np.concatenate([psi, psi + 1e4])          # large lifts too
    delta = np.concatenate([delta, delta])
    p, phi = chart_to_line(spec, BoundaryCoord(psi, delta))
    lines = [chart_to_line(spec, BoundaryCoord(a, b))
             for a, b in zip(psi.tolist(), delta.tolist())]
    assert p.tobytes() == np.array([line.p for line in lines]).tobytes()
    assert phi.tobytes() == np.array([line.phi for line in lines]).tobytes()
    # a float or a 0-d array gives Python floats
    for bc in (BoundaryCoord(float(psi[0]), float(delta[0])),
               BoundaryCoord(psi[0], delta[0]),
               BoundaryCoord(np.array(psi[0]), np.array(delta[0]))):
        line = chart_to_line(spec, bc)
        assert type(line.p) is float and type(line.phi) is float
        assert line == lines[0]


@pytest.mark.parametrize("spec_name", TABLES)
def test_d_by_entry_is_the_float_jet(spec_name, request):
    profile = table_profile(request.getfixturevalue(spec_name))
    psi = 2.0 * math.pi * SplitMix64(5).floats(2000)
    want = np.array([profile.jet(s)[0] for s in psi.tolist()], dtype=float)
    assert d_by_entry(profile, psi).tobytes() == want.tobytes()
    assert d_by_entry(profile, psi[:0]).shape == (0,)
    if spec_name == "ellipse21":
        # the array jet takes np.arccos, the float jet math.acos: they
        # disagree in the last bit on some entries
        assert np.any(d_by_entry(profile, psi) != profile.jet(psi)[0])
