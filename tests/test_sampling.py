import math
import warnings

import numpy as np
import pytest

from billiards.sampling import SplitMix64, random_interior_lines


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
