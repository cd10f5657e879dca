"""Verification suite for the invariant curve of 4-periodic orbits.

A centrally symmetric table with a rotational invariant curve
{delta = d(psi)} of rotation number 1/4 made of 4-periodic orbits has a
rigid structure: every orbit quadrilateral is a parallelogram whose
tangent lines form a rectangle, the induced boundary map is
psi -> psi + pi/2, and the angle function ties to the support function by

    tan d(psi) = h(psi)/h(psi + pi/2) = -h'(psi + pi/2)/h'(psi),
    h(psi)^2 + h(psi + pi/2)^2 = R^2   (constant orthoptic radius),
    h(psi) = R sin d(psi).

Each function below checks one of these facts numerically by launching
real orbits (through the geometric oracle) or by evaluating the algebraic
identities on a grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .billmap import BoundaryCoord, LineCoord, chart_to_line, oracle_orbit
from .profiles import _xp, d_by_entry, ellipse_profile
from .supportfn import EllipseTable, ProfileTable, SupportSpec

__all__ = [
    "BeamState", "PonceletQuad", "table_profile", "invariant_curve_state",
    "verify_parallelogram", "verify_rectangle", "verify_orthoptic",
    "verify_d_h_relations",
]


class BeamState(NamedTuple):
    """A line and the slope omega = dp/dphi of a curve through it."""

    omega: float
    line: LineCoord


@dataclass(frozen=True)
class PonceletQuad:
    """One launched 4-periodic orbit and its defect measurements; every
    measured field holds floats, or arrays with one entry per start."""

    points: tuple            # P0..P4 as (x, y); P4 is the return point
    psis: tuple              # normal angles at P0..P4 (lifted)
    deltas: tuple            # incidence angles at P0..P3
    momenta: tuple           # p of the four chords
    closure: float           # |P4 - P0|
    central_symmetry: tuple  # |P2 + P0|, |P3 + P1|
    half_turn: tuple         # |psi_{i+2} - psi_i - pi| for i = 0, 1
    tolerance: float
    passed: bool

    @property
    def max_residual(self):
        return _worst(self.closure, *self.central_symmetry, *self.half_turn)


def _worst(*residuals):
    return functools.reduce(_xp(residuals[0]).maximum, residuals)


def table_profile(spec: SupportSpec):
    """The angle profile attached to a table, or None.

    Profile tables carry one by construction; ellipses have the closed
    form; a generic Fourier table has none.
    """
    if isinstance(spec, ProfileTable):
        return spec.profile
    if isinstance(spec, EllipseTable):
        return ellipse_profile(spec.a, spec.b)
    return None


def verify_parallelogram(spec: SupportSpec, profile, psi,
                         tol: float = 1e-8) -> PonceletQuad:
    """Launch from (psi, d(psi)), bounce four times, measure the defects;
    on a float start or entrywise on an array of starts.

    Closure |P4 - P0|, the central-symmetry residuals |P2 + P0| and
    |P3 + P1|, and the half-turn residuals |psi_{i+2} - psi_i - pi| are
    all ~0 when {delta = d(psi)} really consists of 4-periodic orbits;
    `passed` compares the worst of them against tol.  One jet of h per
    vertex gives its point, which is also the oracle's chord start, and
    its outgoing momentum (oracle_orbit).
    """
    xp = _xp(psi)
    if xp is np:
        delta = d_by_entry(profile, psi)
    else:
        psi, delta = float(psi), float(profile.jet(psi)[0])
    psis, deltas, momenta, points = zip(
        *islice(oracle_orbit(spec, psi, delta), 5))
    # np.hypot on floats too: math.hypot differs from it in the last bit
    # on some pairs, and a float launch keeps the residuals it reported
    dist = np.hypot if xp is np else lambda x, y: float(np.hypot(x, y))
    (x0, y0), (x1, y1), (x2, y2), (x3, y3), (x4, y4) = points
    closure = dist(x4 - x0, y4 - y0)
    central = (dist(x2 + x0, y2 + y0), dist(x3 + x1, y3 + y1))
    half = (xp.abs(psis[2] - psis[0] - math.pi),
            xp.abs(psis[3] - psis[1] - math.pi))
    return PonceletQuad(points=points, psis=psis, deltas=deltas[:4],
                        momenta=momenta[:4],
                        closure=closure, central_symmetry=central,
                        half_turn=half, tolerance=tol,
                        passed=_worst(closure, *central, *half) <= tol)


def verify_rectangle(spec: SupportSpec, profile, psi: float) -> float:
    """Max residual |psi_{i+1} - psi_i - pi/2| over the quadrilateral.

    Consecutive tangent lines at the vertices are perpendicular exactly
    when the normal angles advance by pi/2 per bounce.
    """
    quad = verify_parallelogram(spec, profile, psi)
    return max(abs(quad.psis[i + 1] - quad.psis[i] - math.pi / 2)
               for i in range(4))


def verify_orthoptic(spec: SupportSpec, grid_n: int = 1024) -> tuple[float, float]:
    """(R^2 estimate, max deviation) of h^2(psi) + h^2(psi + pi/2)."""
    psi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    h = spec.jet(psi).h
    h_quarter = spec.jet(psi + math.pi / 2).h
    vals = h * h + h_quarter * h_quarter
    r_squared = float(np.mean(vals))
    return r_squared, float(np.max(np.abs(vals - r_squared)))


def verify_d_h_relations(spec: SupportSpec, profile,
                         grid_n: int = 1024) -> tuple[float, float]:
    """Max residuals of tan d = h(psi)/h(psi+pi/2) and
    tan d = -h'(psi+pi/2)/h'(psi).

    The second identity is skipped wherever |h'(psi)| < 1e-8.
    """
    psi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    d = profile.jet(psi)[0]
    jet = spec.jet(psi)
    jet_quarter = spec.jet(psi + math.pi / 2)
    tan_d = np.tan(d)
    res_h = float(np.max(np.abs(tan_d - jet.h / jet_quarter.h)))
    mask = np.abs(jet.dh) >= 1e-8
    if np.any(mask):
        res_dh = float(np.max(np.abs(
            tan_d[mask] + jet_quarter.dh[mask] / jet.dh[mask])))
    else:
        res_dh = 0.0
    return res_h, res_dh


def invariant_curve_state(spec: SupportSpec, profile, psi: float) -> BeamState:
    """Phase point and tangent slope of the curve {delta = d(psi)}.

    Parametrizing the curve by psi gives phi(psi) = psi + d and
    p(psi) = h cos d + h' sin d; omega is dp/dphi along it.
    """
    d, dp_dpsi, _ = profile.jet(psi)
    h, dh, ddh = spec.jet(psi)
    line = chart_to_line(spec, BoundaryCoord(float(psi), float(d)))
    # d/dpsi of p = h cos d + h' sin d, with d = d(psi)
    p_rate = (dh * math.cos(d) - h * math.sin(d) * dp_dpsi
              + ddh * math.sin(d) + dh * math.cos(d) * dp_dpsi)
    phi_rate = 1.0 + dp_dpsi
    return BeamState(omega=p_rate / phi_rate, line=line)
