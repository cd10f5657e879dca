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


def _sign(x):
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0 * x


# numpy's names over math and builtins, so one body of numerics serves
# floats at stdlib speed and arrays entrywise; a module (not a namespace
# object) because attribute loads on modules are the fast path
_FLOATS = types.ModuleType("floats", "numpy's names over math, for floats")
vars(_FLOATS).update(
    sin=math.sin, cos=math.cos, sqrt=math.sqrt, arccos=math.acos,
    hypot=math.hypot, abs=abs, sign=_sign, maximum=max,
    where=lambda cond, a, b: a if cond else b,
    all=bool, any=bool, min=lambda x: x, max=lambda x: x)


def _xp(x):
    """The backend for x: numpy for arrays, the float module otherwise."""
    return np if isinstance(x, np.ndarray) else _FLOATS


def _reduce(psi):
    """Angles live on the universal cover; reduce mod 2pi only here, at
    evaluation time, so trig arguments keep full precision at large lifts."""
    return psi % TAU


@dataclass(frozen=True)
class AngleProfile:
    """Trigonometric profile d(psi) = pi/4 + sum of (n, cos, sin) modes.

    Every harmonic index must satisfy n = 2 (mod 4); anything else breaks
    the quarter-turn symmetry and is rejected outright.
    """

    modes: tuple[tuple[int, float, float], ...] = field(default=())

    def __post_init__(self):
        clean = []
        for mode in self.modes:
            n, ca, sa = mode
            n = int(n)
            if n <= 0 or n % 4 != 2:
                raise ValueError(
                    f"harmonic n={n} is not admissible: need n = 2 (mod 4)"
                )
            clean.append((n, float(ca), float(sa)))
        object.__setattr__(self, "modes", tuple(clean))

    def jet(self, psi):
        """Return (d, d', d'') at psi, term-wise exact."""
        xp = _xp(psi)
        psi = _reduce(psi)
        zero = 0.0 * psi
        d = math.pi / 4 + zero
        dp = zero
        ddp = zero
        for n, ca, sa in self.modes:
            c = xp.cos(n * psi)
            s = xp.sin(n * psi)
            d = d + ca * c + sa * s
            dp = dp + n * (sa * c - ca * s)
            ddp = ddp - n * n * (ca * c + sa * s)
        return d, dp, ddp


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
        c2 = xp.cos(2.0 * psi)
        s2 = xp.sin(2.0 * psi)
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


def validate_profile(profile, grid_n: int = 1024) -> float:
    """Check 0 < d(psi) < pi/2 on a grid; return the margin min(d, pi/2 - d).

    Raises ValueError when the range constraint fails anywhere.
    """
    psi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
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
