"""The billiard ball map in two symplectic charts.

Oriented lines meeting the table carry either line coordinates (p, phi)
(signed distance to the origin, angle of the right unit normal) or boundary
coordinates (psi, delta) (outer-normal angle of the point the line leaves,
incidence angle against the tangent).  The map is generated implicitly by
S(phi, phi1) = 2 h(psi) sin delta with psi = (phi + phi1)/2 and
delta = (phi1 - phi)/2:

    p  = h(psi) cos delta - h'(psi) sin delta     (line incoming at psi)
    p1 = h(psi) cos delta + h'(psi) sin delta     (line outgoing at psi)

Angles live on the universal cover: phi and psi are carried as plain
floats and reduced mod 2pi only at evaluation of h, so rotation numbers
and 4-periodicity (phi advancing by 2pi per period) come out of the lift
directly.  delta is measured from the positively oriented tangent and
restricted to the forward cylinder (0, pi); p is positive when the origin
lies left of the oriented line.

An independent geometric oracle (chord intersection plus equal-angle
reflection, no momentum relations) cross-checks the generating-function
route.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GrazingRay, OutsideCylinder, SolverError
from .profiles import _reduce, _xp
from .supportfn import SupportSpec

DELTA_MIN = 1e-9           # below this the chord solver degenerates
RESIDUAL_TOL = 1e-12       # solver target, relative to (1 + scale)
MAX_ITERATIONS = 64        # safeguarded Newton iterations before SolverError


class LineCoord(NamedTuple):
    p: float
    phi: float


class BoundaryCoord(NamedTuple):
    psi: float
    delta: float


class SDerivatives(NamedTuple):
    s11: float
    s12: float
    s22: float


def _check_separation(phi, phi1):
    delta = 0.5 * (phi1 - phi)
    xp = _xp(delta)
    if not (0.0 < xp.min(delta) and xp.max(delta) < math.pi):
        raise ValueError(f"angular separation (phi1-phi)/2 = {delta} "
                         "outside (0, pi)")
    return delta, xp


def generating_S(spec: SupportSpec, phi, phi1):
    """S(phi, phi1) = 2 h((phi+phi1)/2) sin((phi1-phi)/2)."""
    delta, xp = _check_separation(phi, phi1)
    psi = 0.5 * (phi + phi1)
    return 2.0 * spec.jet(psi).h * xp.sin(delta)


def s_derivatives(spec: SupportSpec, phi, phi1) -> SDerivatives:
    """Second partials of S:

    S11 = (h''-h)/2 sin delta - h' cos delta
    S22 = (h''-h)/2 sin delta + h' cos delta
    S12 = (h''+h)/2 sin delta = rho/2 sin delta > 0   (twist)
    """
    delta, xp = _check_separation(phi, phi1)
    psi = 0.5 * (phi + phi1)
    h, dh, ddh = spec.jet(psi)
    s = xp.sin(delta)
    c = xp.cos(delta)
    half_diff = 0.5 * (ddh - h) * s
    return SDerivatives(s11=half_diff - dh * c,
                        s12=0.5 * (ddh + h) * s,
                        s22=half_diff + dh * c)


def p_of(spec: SupportSpec, phi, phi1):
    """Momenta (p, p1) of the incoming/outgoing lines of the bounce."""
    delta, xp = _check_separation(phi, phi1)
    psi = 0.5 * (phi + phi1)
    h, dh, _ = spec.jet(psi)
    base = h * xp.cos(delta)
    swing = dh * xp.sin(delta)
    return base - swing, base + swing


def _gamma(jet, psi, xp):
    """boundary_point from the jet of h at psi."""
    h, dh, _ = jet
    psi = _reduce(psi)
    c = xp.cos(psi)
    s = xp.sin(psi)
    return h * c - dh * s, h * s + dh * c


def boundary_point(spec: SupportSpec, psi):
    """gamma(psi) = h n + h' t with n = (cos, sin), t = (-sin, cos)."""
    return _gamma(spec.jet(psi), psi, _xp(psi))


def inside_cylinder(spec: SupportSpec, line: LineCoord) -> bool:
    p, phi = line
    return -spec.jet(phi + math.pi).h < p < spec.jet(phi).h


def half_turn(line: LineCoord) -> LineCoord:
    """Point reflection of an oriented line through the origin."""
    return LineCoord(line.p, line.phi + math.pi)


# --- monotone root solving -------------------------------------------------
#
# Both implicit equations below are strictly monotone in the unknown thanks
# to the twist condition, so a bracket is globally safe.  One safeguarded
# Newton iteration (rtsafe, Numerical Recipes 9.4) serves floats and arrays
# entrywise: fdf gives residual and slope from one jet, the residual's sign
# narrows the bracket, and a step that leaves it is replaced by bisection.
# Entries freeze at the floor, so a float solve is bit for bit one entry of
# the array solve.  Near invariant curves delta barely moves from bounce to
# bounce, so a warm start (`guess`) sits a few Newton steps from the root.


_EPS = float(np.finfo(float).eps)


def _granularity(x, slope):
    # At lifted angle x the unknown itself is quantized at ulp(x), so the
    # residual cannot be driven below ~ slope * ulp(x).
    return 32.0 * _EPS * (1.0 + abs(x)) * abs(slope)


def _solve_increasing(fdf, lo, hi, scale, guess=None):
    """Root of f, increasing on [lo, hi], where fdf(x) = (f(x), f'(x)).

    Starts at guess (the midpoint when absent or outside the bracket); an
    entry is done once |f| <= RESIDUAL_TOL (1 + scale) plus the floor,
    which on a monotone f certifies the unique root.  Raises SolverError
    when an entry is not done after MAX_ITERATIONS evaluations."""
    xp = _xp(lo)
    x = 0.5 * (lo + hi)
    if guess is not None:
        x = xp.where((lo < guess) & (guess < hi), guess, x)
    tol = RESIDUAL_TOL * (1.0 + scale)
    frozen = False
    for _ in range(MAX_ITERATIONS):
        fx, slope = fdf(x)
        met = abs(fx) <= tol + _granularity(x, slope)
        step = x - fx / slope
        lo = xp.where(fx < 0.0, x, lo)
        hi = xp.where(fx > 0.0, x, hi)
        # an entry that meets the floor takes this last step, then freezes
        newton = (lo <= step) & (step <= hi)
        x = xp.where(frozen, x, xp.where(newton, step, 0.5 * (lo + hi)))
        frozen = frozen | met
        if xp.all(frozen):
            return x
    raise SolverError(f"no root within {MAX_ITERATIONS} iterations, residual "
                      f"{xp.max(xp.where(frozen, 0.0, abs(fx))):.3g}")


# --- the map in line coordinates -------------------------------------------


def _check_inside(spec: SupportSpec, p: float, phi: float) -> None:
    if not inside_cylinder(spec, LineCoord(p, phi)):
        raise OutsideCylinder(f"line (p={p:.6g}, phi={phi:.6g}) misses the table")


def forward_map(spec: SupportSpec, line: LineCoord) -> LineCoord:
    """Image of an oriented line under reflection at its exit point."""
    p, phi = float(line.p), float(line.phi)
    _check_inside(spec, p, phi)
    return LineCoord(*forward_map_batch(spec, p, phi))


def forward_map_batch(spec: SupportSpec, p, phi, guess=None):
    """forward_map on floats or entrywise on arrays of one shape; returns
    (p1, phi1).

    Solves p = h(psi) cos delta - h'(psi) sin delta for the unique
    phi1 in (phi, phi + 2pi); the right side is strictly decreasing in
    phi1 (its derivative is -S12 < 0).  guess is a start for phi1, e.g.
    2 phi - phi_prev along an orbit (delta conserved).  The cylinder is
    not checked.
    """
    xp = _xp(phi)

    def fdf(phi1):
        delta = 0.5 * (phi1 - phi)
        h, dh, ddh = spec.jet(0.5 * (phi + phi1))
        s = xp.sin(delta)
        return p - (h * xp.cos(delta) - dh * s), 0.5 * (ddh + h) * s

    # the bracket holds the delta floor off both cylinder ends; a residual
    # that never meets the floor therefore signals an invalid table, a
    # line outside the cylinder (or a grazing corner thinner than the
    # floor) and surfaces as SolverError
    lo = phi + 2.0 * DELTA_MIN
    hi = phi + 2.0 * math.pi - 2.0 * DELTA_MIN
    phi1 = _solve_increasing(fdf, lo, hi, xp.abs(p), guess)
    delta = 0.5 * (phi1 - phi)
    h, dh, _ = spec.jet(0.5 * (phi + phi1))
    return h * xp.cos(delta) + dh * xp.sin(delta), phi1


def inverse_map(spec: SupportSpec, line: LineCoord) -> LineCoord:
    """Pre-image of an oriented line: solves p1 = S2(phi0, phi1) for phi0."""
    p1, phi1 = float(line.p), float(line.phi)
    _check_inside(spec, p1, phi1)

    def fdf(phi0):
        # outgoing momentum at the bounce (phi0, phi1), increasing in phi0
        # with slope S12
        delta = 0.5 * (phi1 - phi0)
        h, dh, ddh = spec.jet(0.5 * (phi0 + phi1))
        s = math.sin(delta)
        return (h * math.cos(delta) + dh * s) - p1, 0.5 * (ddh + h) * s

    lo = phi1 - 2.0 * math.pi + 2.0 * DELTA_MIN
    hi = phi1 - 2.0 * DELTA_MIN
    phi0 = _solve_increasing(fdf, lo, hi, abs(p1))
    delta = 0.5 * (phi1 - phi0)
    h, dh, _ = spec.jet(0.5 * (phi0 + phi1))
    return LineCoord(h * math.cos(delta) - dh * math.sin(delta), phi0)


# --- boundary chart ----------------------------------------------------------


def chart_to_line(spec: SupportSpec, bc: BoundaryCoord) -> LineCoord:
    """Line outgoing from gamma(psi) at angle delta: p = h cos + h' sin,
    phi = psi + delta."""
    psi, delta = float(bc.psi), float(bc.delta)
    h, dh, _ = spec.jet(psi)
    return LineCoord(h * math.cos(delta) + dh * math.sin(delta), psi + delta)


def line_to_chart(spec: SupportSpec, line: LineCoord) -> BoundaryCoord:
    """Boundary point the line leaves: solves the outgoing relation for
    delta in (0, pi); the residual is strictly decreasing (slope
    -rho sin delta)."""
    p, phi = float(line.p), float(line.phi)
    _check_inside(spec, p, phi)

    def fdf(delta):
        h, dh, ddh = spec.jet(phi - delta)
        s = math.sin(delta)
        return p - (h * math.cos(delta) + dh * s), (h + ddh) * s

    delta = _solve_increasing(fdf, DELTA_MIN, math.pi - DELTA_MIN, abs(p))
    return BoundaryCoord(phi - delta, delta)


# --- geometric oracle --------------------------------------------------------


def geometric_reflect(spec: SupportSpec, start_psi, delta) -> BoundaryCoord:
    """Next bounce by raw geometry, on floats or entrywise on arrays: shoot
    the chord from gamma(psi) at angle delta to the tangent, intersect it
    with the curve, reflect with equal angles.  Independent of the
    momentum relations.  Raises GrazingRay when an incidence angle, given
    or computed, leaves the floor (NaN included)."""
    angle = start_psi + delta
    xp = _xp(angle)
    if not xp.all((delta >= DELTA_MIN) & (delta <= math.pi - DELTA_MIN)):
        raise GrazingRay(f"delta = {delta} outside [{DELTA_MIN}, pi - {DELTA_MIN}]")
    x0, y0 = boundary_point(spec, start_psi)
    ex = -xp.sin(_reduce(angle))
    ey = xp.cos(_reduce(angle))

    def fdf(psi1):
        # gamma'(psi1) = rho(psi1) t(psi1)
        jet = spec.jet(psi1)
        x1, y1 = _gamma(jet, psi1, xp)
        return (ex * (y1 - y0) - ey * (x1 - x0),
                jet.rho * xp.sin(psi1 - angle))

    psi1 = _solve_increasing(fdf, angle, angle + math.pi,
                             1.0 + xp.hypot(x0, y0), angle + delta)
    delta1 = psi1 - angle
    if not xp.all(delta1 >= DELTA_MIN):
        raise GrazingRay(f"image incidence angle {delta1} below floor")
    return BoundaryCoord(psi1, delta1)


# --- symplecticity checks ----------------------------------------------------


def jacobian_check_batch(spec: SupportSpec, p, phi, eps: float = 1e-6):
    """Central finite-difference Jacobian determinant of forward_map_batch,
    on floats or entrywise on arrays."""
    pp_p, pf_p = forward_map_batch(spec, p + eps, phi)
    pp_m, pf_m = forward_map_batch(spec, p - eps, phi)
    fp_p, ff_p = forward_map_batch(spec, p, phi + eps)
    fp_m, ff_m = forward_map_batch(spec, p, phi - eps)
    return ((pp_p - pp_m) * (ff_p - ff_m) - (fp_p - fp_m) * (pf_p - pf_m)) \
        / (4 * eps * eps)


def chart_change_determinant(spec: SupportSpec, bc: BoundaryCoord,
                             eps: float = 1e-5) -> float:
    """Finite-difference determinant of (cos delta, s) -> (p, phi).

    Both Jacobians are taken against the common parameters (psi, delta) and
    divided out, so the result is the determinant of the symplectic chart
    change itself (expected 1).
    """
    from .supportfn import arclength_of_psi

    psi, delta = float(bc.psi), float(bc.delta)

    def pf(ps, de):
        lc = chart_to_line(spec, BoundaryCoord(ps, de))
        return lc.p, lc.phi

    def cs(ps, de):
        return math.cos(de), arclength_of_psi(spec, ps)

    def fd_det(fun):
        a_p, b_p = fun(psi + eps, delta)
        a_m, b_m = fun(psi - eps, delta)
        a_q, b_q = fun(psi, delta + eps)
        a_n, b_n = fun(psi, delta - eps)
        da_dpsi = (a_p - a_m) / (2 * eps)
        db_dpsi = (b_p - b_m) / (2 * eps)
        da_ddelta = (a_q - a_n) / (2 * eps)
        db_ddelta = (b_q - b_n) / (2 * eps)
        return da_dpsi * db_ddelta - da_ddelta * db_dpsi

    return fd_det(pf) / fd_det(cs)
