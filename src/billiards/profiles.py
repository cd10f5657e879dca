"""Angle profiles d(psi) for invariant curves of 4-periodic orbits.

A profile is the incidence-angle function of a rotational invariant curve
{delta = d(psi)} of rotation number 1/4.  Its structure is rigid: d is
pi-periodic, takes values in (0, pi/2), and satisfies the quarter-turn
symmetry d(psi + pi/2) = pi/2 - d(psi).  Restricting the harmonic content
to the constant pi/4 plus modes n = 2 (mod 4) enforces both symmetries
structurally, so admissibility of the mode list is checked at construction.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError


TAU = 2.0 * math.pi
# largest harmonic index: no grid of at most 2^20 points resolves a mode
# above it, and far above it n^2 leaves double range
MAX_HARMONIC = 2**20


# numpy's names over math and builtins, so one body of numerics serves
# floats at stdlib speed and arrays entrywise; a module (not a namespace
# object) because attribute loads on modules are the fast path
_FLOATS = types.ModuleType("floats", "numpy's names over math, for floats")
vars(_FLOATS).update(
    sin=math.sin, cos=math.cos, sqrt=math.sqrt, arccos=math.acos,
    hypot=math.hypot, abs=abs, maximum=max,
    where=lambda cond, a, b: a if cond else b,
    all=bool, min=lambda x: x, max=lambda x: x, shape=lambda x: ())


def _xp(x):
    """The backend for x: numpy for arrays, the float module otherwise."""
    return np if isinstance(x, np.ndarray) else _FLOATS


def _reduce(psi):
    """Angles live on the universal cover; reduce mod 2pi only here, at
    evaluation time, so trig arguments keep full precision at large lifts."""
    return psi % TAU


def _series_jet(const, modes, psi):
    """(f, f', f'') of f = const + sum of a cos n psi + b sin n psi over
    the (n, a, b) in modes, term by term: the one body behind a profile's
    d and a Fourier table's h.

    A mode with no sine amplitude evaluates only its cosine half.  The
    bits are those of the general per-mode formula started from
    0.0 * psi, because the dropped terms are exact zeros, the sums never
    hold -0.0, and x - y is x + (-y).
    """
    xp = _xp(psi)
    cos, sin = xp.cos, xp.sin
    psi = _reduce(psi)
    # a scalar start; with no mode to broadcast, 0.0 * psi gives psi's shape
    zero = 0.0 if modes else 0.0 * psi
    f = const + zero
    df = zero
    ddf = zero
    for n, a, b in modes:
        arg = n * psi
        if b == 0.0:
            ac = a * cos(arg)
            f = f + ac
            df = df - n * (a * sin(arg))
            ddf = ddf - n * n * ac
        else:
            c = cos(arg)
            s = sin(arg)
            ac = a * c
            bs = b * s
            f = f + ac + bs
            df = df + n * (b * c - a * s)
            ddf = ddf - n * n * (ac + bs)
    return f, df, ddf


@dataclass(frozen=True)
class AngleProfile:
    """Trigonometric profile d(psi) = pi/4 + sum of (n, cos, sin) modes.

    Every harmonic index must satisfy n = 2 (mod 4); anything else breaks
    the quarter-turn symmetry and is rejected outright.  So are n above
    MAX_HARMONIC and amplitudes above pi/2, which no d within (0, pi/2)
    has: each is at most twice max |d - pi/4|.
    """

    modes: tuple[tuple[int, float, float], ...] = field(default=())

    def __post_init__(self):
        clean = []
        for mode in self.modes:
            n, ca, sa = mode
            n, ca, sa = int(n), float(ca), float(sa)
            if n <= 0 or n % 4 != 2:
                raise ValueError(
                    f"harmonic n={n} is not admissible: need n = 2 (mod 4)"
                )
            if not (n <= MAX_HARMONIC and abs(ca) <= math.pi / 2
                    and abs(sa) <= math.pi / 2):
                raise ValueError(f"harmonic n={n} with amplitudes {ca:g}, "
                                 f"{sa:g} is not admissible: need n <= "
                                 f"{MAX_HARMONIC} and amplitudes within pi/2")
            clean.append((n, ca, sa))
        object.__setattr__(self, "modes", tuple(clean))

    def jet(self, psi):
        """Return (d, d', d'') at psi, term-wise exact."""
        return _series_jet(math.pi / 4, self.modes, psi)


@dataclass(frozen=True)
class EllipseProfile:
    """Closed-form profile of an ellipse with semi-axes a >= b > 0.

    d(psi) = arccos(A cos 2psi) / 2 with A = (b^2 - a^2)/(a^2 + b^2) <= 0,
    kept in closed form: the arccos composition is exact and a truncated
    series would misbehave where |A cos 2psi| approaches 1.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= self.b > 0.0):
            raise ValueError(f"need a >= b > 0, got a={self.a}, b={self.b}")

    @property
    def amplitude(self) -> float:
        return (self.b**2 - self.a**2) / (self.a**2 + self.b**2)

    def jet(self, psi):
        xp = _xp(psi)
        psi = _reduce(psi)
        A = self.amplitude
        psi2 = 2.0 * psi
        c2 = xp.cos(psi2)
        s2 = xp.sin(psi2)
        u = A * c2
        w = xp.sqrt(1.0 - u * u)
        d = 0.5 * xp.arccos(u)
        dp = A * s2 / w
        ddp = 2.0 * A * c2 / w - 2.0 * A**3 * s2 * s2 * c2 / w**3
        return d, dp, ddp


Profile = AngleProfile | EllipseProfile


def ellipse_profile(a: float, b: float) -> EllipseProfile:
    """Profile of the invariant 4-periodic curve of an a-by-b ellipse."""
    return EllipseProfile(float(a), float(b))


def d_by_entry(profile, psi: np.ndarray) -> np.ndarray:
    """d(psi) of a 1-d array with the bits of the float jet at each entry,
    so an array of starts gets the bits of its one-start floats.  An
    AngleProfile takes one array jet: np.cos and np.sin agree with
    math.cos and math.sin.  EllipseProfile takes its A cos 2psi as one
    array and math.acos entry by entry, because np.arccos and math.acos
    differ in the last bit on some entries."""
    if isinstance(profile, AngleProfile):
        return profile.jet(psi)[0]
    u = profile.amplitude * np.cos(2.0 * _reduce(psi))
    return 0.5 * np.array(list(map(math.acos, u.tolist())), dtype=float)


def validate_profile(profile) -> float:
    """Check 0 < d(psi) < pi/2 on 1024 points; return min(d, pi/2 - d).

    Raises ValueError when the range constraint fails anywhere.
    """
    psi = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    d, _, _ = profile.jet(psi)
    margin = float(min(np.min(d), np.min(math.pi / 2 - d)))
    if margin <= 0.0:
        raise ValueError(
            f"profile leaves (0, pi/2): min d = {np.min(d):.6g}, "
            f"max d = {np.max(d):.6g}"
        )
    return margin


def _mode_row(row) -> tuple[int, float, float]:
    n, c, s = row
    clean = int(n), float(c), float(s)
    if clean[0] != n or not all(math.isfinite(a) for a in clean[1:]):
        raise ValueError(f"{row!r} is not an integer n and two finite "
                         "amplitudes")
    return clean


def profile_from_modes(d_modes) -> AngleProfile:
    """Build an AngleProfile from [[n, cos_amp, sin_amp], ...] rows.

    A row that is not an integer n and two finite amplitudes raises
    SpecError; a parsed but inadmissible n raises ValueError.
    """
    try:
        rows = tuple(_mode_row(row) for row in d_modes)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"d_modes row does not parse: {exc}") from exc
    return AngleProfile(rows)
