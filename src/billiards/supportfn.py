"""Support-function representations of convex tables.

A table is a closed convex curve of positive curvature given by its support
function h(psi) with respect to an interior origin.  Three representations
share one evaluation interface (a 2-jet of h): a finite Fourier series, the
closed-form ellipse sqrt(a^2 cos^2 + b^2 sin^2), and the profile-derived
form h = R sin d(psi).  The ellipse is kept exact rather than truncated,
and the profile form is what the 4-periodic construction produces, so one
representation cannot serve all three without losing exactness somewhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .errors import CurvatureViolation, SpecError
from .profiles import (AngleProfile, EllipseProfile, Profile, _reduce, _xp,
                       profile_from_modes)

VALIDATION_GRID = 512
# largest |c0|, Fourier coefficient or profile radius: the reduction chain
# works with R^4 and verify with h^2, so at 1e64 the fourth power (1e256)
# leaves the dimensionless factors 1e52 of double range
MAX_SIZE = 1e64


def _check_size(value: float, name: str) -> None:
    if not abs(value) <= MAX_SIZE:
        raise ValueError(f"{name} = {value} exceeds {MAX_SIZE:g}: the table "
                         "would leave double precision")


class Jet2(NamedTuple):
    """Support function 2-jet (h, h', h'') at a point; rho = h + h''."""

    h: float
    dh: float
    ddh: float

    @property
    def rho(self):
        return self.h + self.ddh

    @property
    def curvature(self):
        return 1.0 / self.rho


@dataclass(frozen=True)
class EllipseTable:
    """h(psi) = sqrt(a^2 cos^2 psi + b^2 sin^2 psi), a >= b > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= self.b > 0.0):
            raise ValueError(f"need a >= b > 0, got a={self.a}, b={self.b}")
        # jet squares g' ~ a^2 - b^2 and divides by 4 g h, which runs from
        # 4 b^3 (g's computed minimum times b) to 4 a^3: all of these must
        # stay finite and nonzero in double precision
        aa = self.a * self.a
        bb = self.b * self.b
        half = 0.5 * (aa - bb)
        if not (math.isfinite(4.0 * half * half)
                and math.isfinite(4.0 * aa * self.a)
                and (0.5 * (aa + bb) - half) * self.b > 0.0):
            raise ValueError(f"semi-axes a={self.a}, b={self.b} leave double "
                             "precision: the jet would overflow, underflow "
                             "or lose b^2 against a^2")

    def jet(self, psi) -> Jet2:
        xp = _xp(psi)
        psi = _reduce(psi)
        aa = self.a * self.a
        bb = self.b * self.b
        mean = 0.5 * (aa + bb)
        half = 0.5 * (aa - bb)
        c2 = xp.cos(2.0 * psi)
        g = mean + half * c2
        dg = -2.0 * half * xp.sin(2.0 * psi)
        ddg = -4.0 * half * c2
        h = xp.sqrt(g)
        dh = dg / (2.0 * h)
        ddh = ddg / (2.0 * h) - dg * dg / (4.0 * g * h)
        return Jet2(h, dh, ddh)


@dataclass(frozen=True)
class FourierTable:
    """Finite series h = c0 + sum_k (cos_k cos k psi + sin_k sin k psi).

    Odd harmonics are allowed here for generality; operations that need
    central symmetry run the symmetry validator at their point of use.
    """

    c0: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(s) for s in self.sin_coeffs))
        _check_size(self.c0, "c0")
        for c in self.cos_coeffs + self.sin_coeffs:
            _check_size(c, "coefficient")

    def jet(self, psi) -> Jet2:
        xp = _xp(psi)
        psi = _reduce(psi)
        zero = 0.0 * psi
        h = self.c0 + zero
        dh = zero
        ddh = zero
        n_modes = max(len(self.cos_coeffs), len(self.sin_coeffs))
        for i in range(n_modes):
            k = i + 1
            ck = self.cos_coeffs[i] if i < len(self.cos_coeffs) else 0.0
            sk = self.sin_coeffs[i] if i < len(self.sin_coeffs) else 0.0
            c = xp.cos(k * psi)
            s = xp.sin(k * psi)
            h = h + ck * c + sk * s
            dh = dh + k * (sk * c - ck * s)
            ddh = ddh - k * k * (ck * c + sk * s)
        return Jet2(h, dh, ddh)


@dataclass(frozen=True)
class ProfileTable:
    """Table built from an angle profile: h = R sin d(psi)."""

    profile: Profile
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        _check_size(self.radius, "radius")

    def jet(self, psi) -> Jet2:
        xp = _xp(psi)
        d, dp, ddp = self.profile.jet(psi)
        sd = xp.sin(d)
        cd = xp.cos(d)
        R = self.radius
        h = R * sd
        dh = R * cd * dp
        ddh = R * (cd * ddp - sd * dp * dp)
        return Jet2(h, dh, ddh)


SupportSpec = EllipseTable | FourierTable | ProfileTable


def ellipse_support(a: float, b: float) -> EllipseTable:
    """Ellipse table with semi-axes a >= b > 0 on the coordinate axes."""
    return EllipseTable(float(a), float(b))


def table_from_profile(profile, R: float, grid_n: int = VALIDATION_GRID) -> ProfileTable:
    """Build h = R sin d and validate rho > 0 on a grid of >= 512 points.

    Raises CurvatureViolation when the profile is too wild for a convex
    table.
    """
    table = ProfileTable(profile, float(R))
    validate_table(table, grid_n=max(grid_n, VALIDATION_GRID))
    return table


def validate_table(spec: SupportSpec, grid_n: int = VALIDATION_GRID) -> dict:
    """Positivity checks on a grid: h > 0 and rho = h + h'' > 0, strictly.

    rho enters downstream as a divisor and a measure density, so no slack
    is applied.  Returns summary statistics; raises CurvatureViolation or
    ValueError on failure.
    """
    psi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    jet = spec.jet(psi)
    rho = jet.rho
    min_rho = float(np.min(rho))
    min_h = float(np.min(jet.h))
    if not min_rho > 0.0:
        raise CurvatureViolation(
            f"rho = h + h'' reaches {min_rho:.6g} at psi = "
            f"{float(psi[int(np.argmin(rho))]):.6g} on a {grid_n}-grid"
        )
    if not min_h > 0.0:
        raise ValueError(f"h reaches {min_h:.6g}: origin not interior")
    return {"grid": grid_n, "min_rho": min_rho, "min_h": min_h}


def symmetry_defect(spec: SupportSpec, grid_n: int = VALIDATION_GRID) -> float:
    """max |h(psi + pi) - h(psi)| over the grid."""
    psi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    h = spec.jet(psi).h
    h_shift = spec.jet(psi + math.pi).h
    return float(np.max(np.abs(h_shift - h)))


def is_centrally_symmetric(spec: SupportSpec, grid_n: int = VALIDATION_GRID,
                           tol: float = 1e-9) -> bool:
    """symmetry_defect within tol * max(1, max h) over the grid: on a
    symmetric table the defect is rounding, which grows with h."""
    psi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    size = max(1.0, float(np.max(spec.jet(psi).h)))
    return symmetry_defect(spec, grid_n) <= tol * size


def arclength_of_psi(spec: SupportSpec, psi: float) -> float:
    """Arclength s(psi) = integral of rho from 0 to psi (ds = rho dpsi)."""
    val, _ = quad(lambda t: float(spec.jet(t).rho), 0.0, float(psi),
                  limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


def perimeter(spec: SupportSpec) -> float:
    return arclength_of_psi(spec, 2.0 * math.pi)


# --- JSON table schema -----------------------------------------------------
#
# {"type":"ellipse","a":<num>,"b":<num>}
# {"type":"fourier","c0":<num>,"cos":[<num>...],"sin":[<num>...]}
# {"type":"profile","R":<num>,"d_modes":[[n, cos_amp, sin_amp], ...]}


def _number(value, name: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise SpecError(f"{name} is not a number: {value!r}") from exc
    if not math.isfinite(number):
        raise SpecError(f"{name} is not finite: {value!r}")
    return number


def table_from_dict(data: dict) -> SupportSpec:
    """Build a table from its JSON form.

    A spec that does not parse raises SpecError (not an object, unknown
    type, non-numeric or non-finite field, malformed d_modes row),
    KeyError (missing field) or TypeError; one that parses into an
    inadmissible table raises ValueError.
    """
    if not isinstance(data, dict):
        raise SpecError(f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    if kind == "ellipse":
        return EllipseTable(_number(data["a"], "a"), _number(data["b"], "b"))
    if kind == "fourier":
        return FourierTable(_number(data["c0"], "c0"),
                            tuple(_number(c, "cos") for c in data.get("cos", ())),
                            tuple(_number(s, "sin") for s in data.get("sin", ())))
    if kind == "profile":
        profile = profile_from_modes(data.get("d_modes", ()))
        return ProfileTable(profile, _number(data["R"], "R"))
    raise SpecError(f"unknown table type {kind!r}")


def table_to_dict(spec: SupportSpec) -> dict:
    if isinstance(spec, EllipseTable):
        return {"type": "ellipse", "a": spec.a, "b": spec.b}
    if isinstance(spec, FourierTable):
        return {"type": "fourier", "c0": spec.c0,
                "cos": list(spec.cos_coeffs), "sin": list(spec.sin_coeffs)}
    if isinstance(spec, ProfileTable):
        if isinstance(spec.profile, AngleProfile):
            modes = [[n, c, s] for n, c, s in spec.profile.modes]
        elif isinstance(spec.profile, EllipseProfile):
            raise ValueError("closed-form ellipse profiles have no mode list; "
                             "serialize the table as type 'ellipse' instead")
        else:
            raise ValueError(f"unsupported profile {type(spec.profile).__name__}")
        return {"type": "profile", "R": spec.radius, "d_modes": modes}
    raise ValueError(f"unsupported table {type(spec).__name__}")


def load_table(path) -> SupportSpec:
    """Read a table spec from a JSON file (no validation beyond parsing)."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return table_from_dict(data)
