"""Deterministic random sampling for scans.

Draws come from a splitmix64 stream so that any implementation can
reproduce a scan from its recorded seed.  The update rule, written out:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    z = z XOR (z >> 31)
    uniform = (z >> 11) * 2^-53          # in [0, 1)

The state only ever adds the constant, so draw k after state s mixes
s + k * 0x9E3779B97F4A7C15 mod 2^64: SplitMix64.floats jumps ahead to
all n states at once as uint64 arrays, whose arithmetic wraps mod 2^64,
and passes them through the same mixing body as the scalar draw.
"""

from __future__ import annotations

import math

import numpy as np

from .billmap import BoundaryCoord, chart_to_line
from .profiles import d_by_entry
from .supportfn import SupportSpec

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """The splitmix64 output of state z: a Python int below 2^64, or a
    uint64 array entrywise (whose products wrap mod 2^64 without a
    warning; a numpy uint64 scalar would warn on overflow)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def floats(self, n: int) -> np.ndarray:
        """The next n next_float draws as one array, bit for bit, leaving
        the state where those n calls would."""
        states = np.arange(1, n + 1, dtype=np.uint64)
        states *= np.uint64(_GAMMA)
        states += np.uint64(self.state)
        self.state = (self.state + n * _GAMMA) & _MASK
        return (_mix(states) >> 11) * 2.0**-53


def scan_starts(spec: SupportSpec, profile, n: int, seed: int):
    """n seeded start lines inside the region below the invariant curve.

    Per start, in stream order: u1 then u2, all drawn first; then as
    arrays, psi = 2 pi u1; the delta cap is d(psi) when a profile is
    attached (each entry from the float jet, d_by_entry), pi/4 otherwise;
    delta fills the cap as cap * (1e-6 + (1 - 2e-6) u2), keeping clear of
    the grazing floor; (p, phi) is the line chart_to_line gives.
    Returns (psi, delta, p, phi) arrays.
    """
    u1, u2 = SplitMix64(seed).floats(2 * n).reshape(n, 2).T
    psi = 2.0 * math.pi * u1
    cap = math.pi / 4 if profile is None else d_by_entry(profile, psi)
    delta = cap * (1e-6 + (1.0 - 2e-6) * u2)
    p, phi = chart_to_line(spec, BoundaryCoord(psi, delta))
    return psi, delta, p, phi


def random_interior_lines(spec: SupportSpec, n: int, seed: int):
    """n seeded lines strictly inside the phase cylinder.

    Per line, in stream order: u1 then u2, all drawn first; then as arrays,
    phi = 2 pi u1; p interpolates the cylinder section
    (-h(phi + pi), h(phi)) with a margin of 5% of it kept off both ends so
    finite difference stencils stay interior.  Returns (p, phi) arrays.
    """
    margin = 0.05
    u1, u2 = SplitMix64(seed).floats(2 * n).reshape(n, 2).T
    phi = 2.0 * math.pi * u1
    hi = spec.jet(phi).h
    lo = -spec.jet(phi + math.pi).h
    frac = margin + (1.0 - 2.0 * margin) * u2
    return lo + frac * (hi - lo), phi
