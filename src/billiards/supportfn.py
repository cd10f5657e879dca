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
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .errors import CurvatureViolation, SolverError, SpecError
from .profiles import (AngleProfile, EllipseProfile, Profile, _reduce,
                       _series_jet, _xp, profile_from_modes)

VALIDATION_GRID = 512
ARCLENGTH_GRID = 2**20     # the most points arclength_of_psi samples h on
# largest |c0|, Fourier coefficient or profile radius: the reduction chain
# works with R^4 and verify with h^2, so at 1e64 the fourth power (1e256)
# leaves the dimensionless factors 1e52 of double range
MAX_SIZE = 1e64


def _check_size(value: float, name: str, scale: bool = False) -> None:
    # a nonzero scale (c0, R) below 1 / MAX_SIZE underflows R^4; at 5e-324
    # the solver's slope is 0 and its Newton step divides by it
    if not abs(value) <= MAX_SIZE:
        raise ValueError(f"{name} = {value} exceeds {MAX_SIZE:g}: the table "
                         "would leave double precision")
    if scale and 0.0 < abs(value) < 1.0 / MAX_SIZE:
        raise ValueError(f"{name} = {value} is below {1.0 / MAX_SIZE:g}: the "
                         "table would leave double precision")


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


def _jet2(h, dh, ddh) -> Jet2:
    """Jet2(h, dh, ddh) without the generated __new__, which costs a
    quarter of a float jet."""
    return tuple.__new__(Jet2, (h, dh, ddh))


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
        mean = 0.5 * (aa + bb)
        half = 0.5 * (aa - bb)
        if not (math.isfinite(4.0 * half * half)
                and math.isfinite(4.0 * aa * self.a)
                and (mean - half) * self.b > 0.0):
            raise ValueError(f"semi-axes a={self.a}, b={self.b} leave double "
                             "precision: the jet would overflow, underflow "
                             "or lose b^2 against a^2")
        # g = mean + half cos 2psi and the factors of g' and g'', once
        object.__setattr__(self, "_g", (mean, half, -2.0 * half, -4.0 * half))

    def jet(self, psi) -> Jet2:
        xp = _xp(psi)
        psi2 = 2.0 * _reduce(psi)
        mean, half, dg_amp, ddg_amp = self._g
        c2 = xp.cos(psi2)
        g = mean + half * c2
        dg = dg_amp * xp.sin(psi2)
        ddg = ddg_amp * c2
        h = xp.sqrt(g)
        h2 = 2.0 * h
        dh = dg / h2
        ddh = ddg / h2 - dg * dg / (4.0 * g * h)
        return _jet2(h, dh, ddh)


@dataclass(frozen=True)
class FourierTable:
    """Finite series h = c0 + sum_k (cos_k cos k psi + sin_k sin k psi).

    Odd harmonics are allowed here for generality.  Only `table validate`
    checks central symmetry (symmetry_check): `verify` reports on an
    asymmetric table, whose orthoptic check fails, and `orbit` and
    `beam-scan` run on one.
    """

    c0: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(s) for s in self.sin_coeffs))
        _check_size(self.c0, "c0", scale=True)
        for c in self.cos_coeffs + self.sin_coeffs:
            _check_size(c, "coefficient")
        # harmonic k = 1, 2, ...; the shorter coefficient list pads with 0
        pairs = zip_longest(self.cos_coeffs, self.sin_coeffs, fillvalue=0.0)
        object.__setattr__(self, "_modes", tuple(
            (k, c, s) for k, (c, s) in enumerate(pairs, 1)))

    def jet(self, psi) -> Jet2:
        return _jet2(*_series_jet(self.c0, self._modes, psi))


@dataclass(frozen=True)
class ProfileTable:
    """Table built from an angle profile: h = R sin d(psi)."""

    profile: Profile
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        _check_size(self.radius, "radius", scale=True)

    def jet(self, psi) -> Jet2:
        """The 2-jet of h = R sin d from the profile's (d, d', d'')."""
        d, dp, ddp = self.profile.jet(psi)
        xp = _xp(d)
        return _support_jet_sc(self.radius, xp.sin(d), xp.cos(d), dp, ddp)


def _support_jet_sc(R: float, sd, cd, dp, ddp) -> Jet2:
    """The 2-jet of h = R sin d from sd = sin d, cd = cos d and the
    profile's d' and d''."""
    return _jet2(R * sd, R * cd * dp, R * (cd * ddp - sd * dp * dp))


SupportSpec = EllipseTable | FourierTable | ProfileTable


def ellipse_support(a: float, b: float) -> EllipseTable:
    """Ellipse table with semi-axes a >= b > 0 on the coordinate axes."""
    return EllipseTable(float(a), float(b))


def table_from_profile(profile, R: float) -> ProfileTable:
    """Build h = R sin d and validate rho > 0 on the VALIDATION_GRID.

    Raises CurvatureViolation when the profile is too wild for a convex
    table.
    """
    table = ProfileTable(profile, float(R))
    validate_table(table)
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


def symmetry_check(spec: SupportSpec) -> tuple[float, bool]:
    """(defect, is_centrally_symmetric) from one pair of jets on the
    VALIDATION_GRID; the defect is max |h(psi + pi) - h(psi)|."""
    psi = np.linspace(0.0, 2.0 * math.pi, VALIDATION_GRID, endpoint=False)
    h = spec.jet(psi).h
    h_shift = spec.jet(psi + math.pi).h
    defect = float(np.max(np.abs(h_shift - h)))
    return defect, defect <= 1e-9 * max(1.0, float(np.max(h)))


def is_centrally_symmetric(spec: SupportSpec) -> bool:
    """The symmetry defect within 1e-9 max(1, max h) over the
    VALIDATION_GRID: on a symmetric table the defect is rounding, which
    grows with h."""
    return symmetry_check(spec)[1]


def arclength_of_psi(spec: SupportSpec, psi):
    """s(psi) = integral of rho = h + h'' from 0 to psi = c0 psi + sum_k (a_k
    sin k psi - b_k (cos k psi - 1)) / k + h'(psi) - h'(0), on a float or
    entrywise on an array, from the rfft c of h on 64, 128, ... points until
    resolved; SolverError past ARCLENGTH_GRID.  The series is built once per
    call, and the sum over k takes len(psi) x n/2 temporaries.  An array
    call gives the float calls' bits, except on a ProfileTable over an
    EllipseProfile, whose float and array d differ in the last bit at
    some angles (math.acos against np.arccos)."""
    n = 64
    while True:
        jet = spec.jet(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
        c, dc, rc = (np.fft.rfft(f) / n for f in (jet.h, jet.dh, jet.rho))
        k = np.arange(n // 2 + 1)
        # resolved: c's top quarter and every aliased |c_j| below 1e-15 |c0|;
        # h' and rho fold j > n/2 onto k with weights j, 1 - j^2 (not k, 1 - k^2)
        alias = np.abs(dc - 1j * k * c) / n + np.abs(rc - (1 - k * k) * c) / n**2
        if max(np.max(alias), np.max(np.abs(c[3 * n // 8:]))) < 1e-15 * abs(c[0]):
            break
        if n == ARCLENGTH_GRID:
            raise SolverError(f"h has no converged Fourier series on {n} points")
        n *= 2
    c[1:-1] *= 2.0      # a_k - i b_k; the Nyquist term counts once
    k = k[1:]
    kt = np.multiply.outer(_reduce(psi), k)     # periodic; c0 psi stays lifted
    terms = c[1:].real * np.sin(kt) + c[1:].imag * (np.cos(kt) - 1.0)
    return (c[0].real * psi + np.sum(terms / k, axis=-1)
            + spec.jet(psi).dh - spec.jet(0.0).dh)


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
    except OverflowError:
        number = math.inf       # an integer beyond double range
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
        try:
            data = json.load(f)
        except ValueError as exc:   # not UTF-8 JSON, or an overlong int
            raise SpecError(str(exc)) from exc
    return table_from_dict(data)
