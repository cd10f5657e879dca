import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiards.profiles import TAU, AngleProfile, _series_jet, d_by_entry
from billiards.sampling import SplitMix64


def _reference_series(const, modes, psi):
    # the general per-mode formula over every mode, zeros included,
    # started from 0.0 * psi
    xp = np if isinstance(psi, np.ndarray) else math
    psi = psi % TAU
    zero = 0.0 * psi
    f = const + zero
    df = zero
    ddf = zero
    for n, a, b in modes:
        arg = n * psi
        c = xp.cos(arg)
        s = xp.sin(arg)
        ac = a * c
        bs = b * s
        f = f + ac + bs
        df = df + n * (b * c - a * s)
        ddf = ddf - n * n * (ac + bs)
    return f, df, ddf


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


_PSI = (st.sampled_from([0.0, -0.0, math.nan])
        | st.floats(-50.0, 50.0)
        | st.floats(1e4 - 10.0, 1e4 + 10.0)
        | st.floats(-1e4 - 10.0, -1e4 + 10.0))
_AMP = st.sampled_from([0.0, -0.0]) | st.floats(-1.5, 1.5)
# (n, cos, sin): cos-only, sin-only, mixed and all-zero modes, signed zeros
_MODES = st.lists(st.tuples(st.integers(1, 4096), _AMP, _AMP), max_size=4)
_CONST = st.sampled_from([math.pi / 4, 0.0, -0.0]) | st.floats(-2.0, 2.0)


@settings(max_examples=400, deadline=None)
@given(_CONST, _MODES, _PSI, st.lists(_PSI, max_size=6))
def test_series_jet_has_the_bits_of_the_general_formula(const, modes, psi,
                                                        psis):
    for x in (psi, np.array(psis, dtype=float), np.array([[psi, psi]])):
        got = _series_jet(const, modes, x)
        want = _reference_series(const, modes, x)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(x)
            assert type(g) is type(w)
            assert np.array_equal(_bits(g), _bits(w)), (g, w)


@pytest.mark.parametrize("profile", [
    AngleProfile(()),
    AngleProfile(((2, 0.0, 0.0),)),
    AngleProfile(((2, 0.1, 0.0),)),
    AngleProfile(((2, 0.1, 0.0), (6, 0.02, 0.0))),
    AngleProfile(((2, 0.05, 0.05), (6, 0.0, 0.02))),
], ids=["constant", "zero-mode", "profile-a", "mode6", "sine"])
def test_angle_profile_array_jet_is_its_float_jets(profile):
    # what d_by_entry's one array jet rests on: np.cos and np.sin give
    # the bits of math.cos and math.sin on lifted angles
    psi = 2.0 * math.pi * SplitMix64(11).floats(4000)
    psi = np.concatenate([psi, -psi, psi + 1e4, psi - 1e3])
    floats = [profile.jet(s) for s in psi.tolist()]
    for k, array in enumerate(profile.jet(psi)):
        want = np.array([jet[k] for jet in floats], dtype=float)
        assert array.shape == psi.shape
        assert np.array_equal(_bits(array), _bits(want))
    assert d_by_entry(profile, psi).tobytes() == profile.jet(psi)[0].tobytes()
