"""The billiard ball map in two symplectic charts.

Oriented lines meeting the table carry either line coordinates (p, phi)
(signed distance to the origin, angle of the right unit normal) or boundary
coordinates (psi, delta) (outer-normal angle of the point the line leaves,
incidence angle against the tangent).  The map is generated implicitly by
S(phi, phi1) = 2 h(psi) sin delta with psi = (phi + phi1)/2 and
delta = (phi1 - phi)/2:

    p  = h(psi) cos delta - h'(psi) sin delta     (line incoming at psi)
    p1 = h(psi) cos delta + h'(psi) sin delta     (line outgoing at psi)

One private bounce record, _bounce, writes these momenta and the second
partials of S once, from a jet of h; every map, chart and derivative
below is a layer over it, and bounce is the record of a bounce given by
its two angles.  Its first part, _incoming (p and the twist
S12), is all the forward map's solver needs, and forward_map_batch hands
back the whole record of the bounce it solved, so a step costs no jet
beyond its solve; the chart map reads p1 from _incoming's parts.
twist_grid is the S12 of s_derivatives on a grid of lines (psi - delta,
psi + delta), through _incoming's S12 term: it takes the jet once per psi
and again only where the midpoint of the two angles rounds off psi.  The
inverse map is the forward map of the reversed line: reversing
orientation, (p, phi) -> (-p, phi + pi), turns the bounce (L0 -> L1) into
(reversed L1 -> reversed L0).

Both the map and the oracle solve their implicit equation with one
safeguarded Newton iteration, _solve_increasing, on floats or entrywise
on arrays.  The residual takes its entrywise operands as arguments, so an
array solve of at least COMPACT_SIZE entries can drop its frozen entries:
once at least half of the entries it carries are done, it writes their
roots out and iterates on the live ones alone.  Each step of an entry
reads only that entry's values, so every entry keeps its bits whatever
else is in its batch, and a float solve is still one entry of an array
solve.

Angles live on the universal cover: phi and psi are carried as plain
floats and reduced mod 2pi only at evaluation of h, so rotation numbers
and 4-periodicity (phi advancing by 2pi per period) come out of the lift
directly.  delta is measured from the positively oriented tangent and
restricted to the forward cylinder (0, pi); p is positive when the origin
lies left of the oriented line.

An independent geometric oracle (chord intersection plus equal-angle
reflection, no momentum relations) cross-checks the generating-function
route.  oracle_orbit walks it one vertex at a time and is the one place
that decides the grazing floor; geometric_reflect is its first step.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GrazingRay, OutsideCylinder, SolverError
from .profiles import _reduce, _xp
from .supportfn import SupportSpec, arclength_of_psi

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


def _twist(jet, s):
    """S12 = (h''+h)/2 sin delta = rho/2 sin delta > 0, from the jet of h at
    psi and s = sin delta."""
    h, _, ddh = jet
    return 0.5 * (ddh + h) * s


def _incoming(jet, delta, xp):
    """The part of the bounce the map's solver needs, from the jet of h at
    psi: (p, S12, parts), with p = h cos delta - h' sin delta the incoming
    momentum, S12 the twist (_twist), and parts the terms _bounce goes on
    from."""
    h, dh, _ = jet
    s = xp.sin(delta)
    c = xp.cos(delta)
    base = h * c
    swing = dh * s
    return base - swing, _twist(jet, s), (s, c, base, swing)


def _bounce(jet, delta, xp):
    """The bounce at exit angle psi with half-separation delta, from the jet
    of h at psi: (p, p1, SDerivatives), where

    p, p1 = h cos delta -/+ h' sin delta   (incoming, outgoing momentum)
    S11   = (h''-h)/2 sin delta - h' cos delta
    S22   = (h''-h)/2 sin delta + h' cos delta
    S12   as in _incoming
    """
    p, s12, (s, c, base, swing) = _incoming(jet, delta, xp)
    h, dh, ddh = jet
    # each part is dropped once used, so a batched bounce holds fewer of
    # its (k, starts) arrays at once
    del jet
    p1 = base + swing
    del base, swing
    half_diff = 0.5 * (ddh - h) * s
    del ddh, h, s
    tilt = dh * c
    del dh, c
    return p, p1, SDerivatives(half_diff - tilt, s12, half_diff + tilt)


def bounce(spec: SupportSpec, phi, phi1):
    """The bounce record (p, p1, SDerivatives) of the bounce (phi, phi1),
    from one jet of h at its midpoint; see _bounce."""
    delta, xp = _check_separation(phi, phi1)
    return _bounce(spec.jet(0.5 * (phi + phi1)), delta, xp)


def s_derivatives(spec: SupportSpec, phi, phi1) -> SDerivatives:
    """Second partials (S11, S12, S22) of S; see _bounce."""
    return bounce(spec, phi, phi1)[2]


def twist_grid(spec: SupportSpec, psi, delta):
    """s_derivatives(spec, psi - delta, psi + delta).s12 bit for bit, for
    arrays psi and delta that broadcast to a grid of lines: the twist
    alone, _twist at each line's rounded midpoint 0.5 (phi + phi1) and
    half-separation.  The jet is taken once at psi and again only on the
    lines whose midpoint differs from psi in some bit; it is entrywise, so
    every entry keeps the bits of a jet at its own midpoint."""
    phi, phi1 = psi - delta, psi + delta
    half, xp = _check_separation(phi, phi1)
    mid = 0.5 * (phi + phi1)
    # bitwise, so a midpoint -0.0 against a psi 0.0 counts as moved
    moved = mid.view(np.int64) != np.broadcast_to(psi, mid.shape).view(
        np.int64)
    mid = mid[moved]
    # drop the grid-sized angles before the twist makes its own: each
    # array of a 128 x 128 grid is 32 fresh pages, and page faults cost
    # the twist check more than its arithmetic
    del phi, phi1
    jet = [np.broadcast_to(f, moved.shape).copy() for f in spec.jet(psi)]
    for f, exact in zip(jet, spec.jet(mid)):
        f[moved] = exact
    return _twist(jet, xp.sin(half))


def p_of(spec: SupportSpec, phi, phi1):
    """Momenta (p, p1) of the incoming/outgoing lines of the bounce."""
    return bounce(spec, phi, phi1)[:2]


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


def half_turn(line: LineCoord) -> LineCoord:
    """Point reflection of an oriented line through the origin."""
    return LineCoord(line.p, line.phi + math.pi)


# --- monotone root solving -------------------------------------------------
#
# The map's implicit equation is strictly monotone in the unknown thanks to
# the twist condition, the oracle's thanks to rho > 0, so a bracket is
# globally safe.  One safeguarded Newton iteration (rtsafe, Numerical
# Recipes 9.4) serves floats and arrays entrywise: fdf gives residual and
# slope from one jet, the residual's sign narrows the bracket, and a step
# that leaves it is replaced by bisection.
# Entries freeze at the floor, so a float solve is bit for bit one entry of
# the array solve.  Near invariant curves delta barely moves from bounce to
# bounce, so a warm start (`guess`) sits a few Newton steps from the root.
# An array of at least COMPACT_SIZE entries compacts its batch: once at
# least half of the entries still carried are frozen, their final x goes
# to the output and the iteration goes on with the live entries alone,
# their bracket, scale, last residual and the residual's entrywise
# operands.  Every step acts entry by entry, so a live entry takes the
# same steps, with the same bits, in a batch of any composition.  Smaller
# batches (the 256-start scan steps, the 64-start Poncelet launch) carry
# their frozen entries along: there the copies cost more than the residual
# evaluations they save.  With this rule at every size, the mode-6
# 256-start scan took 1.14x its time (scan-mode6 scan_s_p50 0.0534 ->
# 0.0611 s, 4 of 4 paired runs), the ellipse's 1.06x, and the 64-start
# Poncelet check 1.2-1.4x.


_EPS = float(np.finfo(float).eps)
# At lifted angle x the unknown itself is quantized at ulp(x), so the
# residual cannot be driven below ~ slope * ulp(x): the floor is
# _FLOOR (1 + |x|) |slope|
_FLOOR = 32.0 * _EPS
COMPACT_SIZE = 1024        # smallest array solve that drops frozen entries


def _done(res, scale, x, slope):
    """The solvers' stopping test, on floats or entrywise on arrays: the
    residual res at x, where the residual has the given slope, is within
    RESIDUAL_TOL (1 + scale) plus the floor."""
    return res <= (RESIDUAL_TOL * (1.0 + scale)
                   + _FLOOR * (1.0 + abs(x)) * abs(slope))


def _solve_increasing(fdf, lo, hi, scale, guess=None, operands=()):
    """Root of f, increasing on [lo, hi], where fdf(x, operands) =
    (f(x), f'(x)) and operands is a tuple of entrywise arrays (or floats)
    that broadcast to x; a compacted solve passes the live entries of x
    and of each operand.

    Starts at guess (the midpoint when absent or outside the bracket); an
    entry is done once _done(|f|, scale, x, f'), which on a monotone f
    certifies the unique root.  Raises SolverError when an entry is not
    done after MAX_ITERATIONS evaluations."""
    xp = _xp(lo)
    x = 0.5 * (lo + hi)
    if guess is not None:
        x = xp.where((lo < guess) & (guess < hi), guess, x)
    frozen = False
    last = math.inf
    compact = xp is np and x.size >= COMPACT_SIZE
    out = None      # once compacted, the output; flat[index] holds the live x
    for _ in range(MAX_ITERATIONS):
        if compact and 2 * np.count_nonzero(frozen) >= x.size:
            keep = ~frozen
            if out is None:
                # C order, so flat is a view whose indices are keep's
                # (x follows its inputs' order, and an F-ordered x's
                # reshape would be a copy that drops every write)
                out = np.ascontiguousarray(x)
                flat = out.reshape(-1)
                index = np.flatnonzero(keep)
            else:
                flat[index[frozen]] = x[frozen]
                index = index[keep]
            x, lo, hi, scale, last, *operands = (
                np.broadcast_to(a, keep.shape)[keep]
                for a in (x, lo, hi, scale, last, *operands))
            operands = tuple(operands)
            frozen = False
        fx, slope = fdf(x, operands)
        res = abs(fx)
        met = _done(res, scale, x, slope)
        step = x - fx / slope
        lo = xp.where(fx < 0.0, x, lo)
        hi = xp.where(fx > 0.0, x, hi)
        # Newton only while the residual falls, which breaks a 2-cycle of
        # in-bracket steps; an entry that meets the floor takes this last
        # step, then freezes
        newton = (lo <= step) & (step <= hi) & (met | (res < last))
        x = xp.where(frozen, x, xp.where(newton, step, 0.5 * (lo + hi)))
        frozen = frozen | met
        if xp.all(frozen):
            if out is None:
                return x
            flat[index] = x
            return out
        last = res
    raise SolverError(f"no root within {MAX_ITERATIONS} iterations, residual "
                      f"{xp.max(xp.where(frozen, 0.0, res)):.3g}")


# --- the map in line coordinates -------------------------------------------


def _check_inside(spec: SupportSpec, p: float, phi: float) -> None:
    if not -spec.jet(phi + math.pi).h < p < spec.jet(phi).h:
        raise OutsideCylinder(f"line (p={p:.6g}, phi={phi:.6g}) misses the table")


def forward_map(spec: SupportSpec, line: LineCoord) -> LineCoord:
    """Image of an oriented line under reflection at its exit point."""
    p, phi = float(line.p), float(line.phi)
    _check_inside(spec, p, phi)
    return LineCoord(*forward_map_batch(spec, p, phi)[:2])


def forward_map_batch(spec: SupportSpec, p, phi, guess=None):
    """forward_map on floats or entrywise on arrays of one shape; returns
    (p1, phi1, sd) with sd the SDerivatives of the bounce (phi, phi1).

    Solves p = h(psi) cos delta - h'(psi) sin delta for the unique
    phi1 in (phi, phi + 2pi); the right side is strictly decreasing in
    phi1 (its derivative is -S12 < 0).  The residual evaluates only p and
    S12 (_incoming); p1 and sd are built once, from the jet at the root.
    guess is a start for phi1, e.g. 2 phi - phi_prev along an orbit (delta
    conserved) or conjugate_scan's fitted recurrence.  The cylinder is not
    checked.
    """
    xp = _xp(phi)

    def fdf(phi1, operands):
        p, phi = operands
        p_in, s12, _ = _incoming(spec.jet(0.5 * (phi + phi1)),
                                 0.5 * (phi1 - phi), xp)
        return p - p_in, s12

    # the bracket holds the delta floor off both cylinder ends; a residual
    # that never meets the floor therefore signals an invalid table, a
    # line outside the cylinder (or a grazing corner thinner than the
    # floor) and surfaces as SolverError
    lo = phi + 2.0 * DELTA_MIN
    hi = phi + 2.0 * math.pi - 2.0 * DELTA_MIN
    phi1 = _solve_increasing(fdf, lo, hi, xp.abs(p), guess, (p, phi))
    _, p1, sd = _bounce(spec.jet(0.5 * (phi + phi1)), 0.5 * (phi1 - phi), xp)
    return p1, phi1, sd


def inverse_map(spec: SupportSpec, line: LineCoord) -> LineCoord:
    """Pre-image of an oriented line: the reverse of the image of the
    reversed line, with phi0 in (phi1 - 2pi, phi1)."""
    p1, phi1 = float(line.p), float(line.phi)
    _check_inside(spec, p1, phi1)
    p, phi, _ = forward_map_batch(spec, -p1, phi1 + math.pi)
    return LineCoord(-p, phi - 3.0 * math.pi)


# --- boundary chart ----------------------------------------------------------


def chart_to_line(spec: SupportSpec, bc: BoundaryCoord) -> LineCoord:
    """Line outgoing from gamma(psi) at angle delta: p = h cos + h' sin,
    phi = psi + delta, on floats (0-d arrays included) or entrywise on
    arrays of one shape.  p is the bounce's p1, base + swing from
    _incoming's parts as in _bounce, without the S-derivatives."""
    psi, delta = bc
    if np.ndim(psi) == 0:
        psi, delta = float(psi), float(delta)
    _, _, (_, _, base, swing) = _incoming(spec.jet(psi), delta, _xp(psi))
    return LineCoord(base + swing, psi + delta)


def line_to_chart(spec: SupportSpec, line: LineCoord) -> BoundaryCoord:
    """Boundary point the line leaves: the bounce (phi0, phi) with phi0
    from inverse_map, so delta lies in (0, pi)."""
    phi0 = inverse_map(spec, line).phi
    phi = float(line.phi)
    return BoundaryCoord(0.5 * (phi0 + phi), 0.5 * (phi - phi0))


# --- geometric oracle --------------------------------------------------------


def oracle_orbit(spec: SupportSpec, psi, delta):
    """The orbit from gamma(psi) at incidence angle delta by raw geometry,
    on floats or entrywise on arrays: shoot the chord at angle delta to
    the tangent, intersect it with the curve, reflect with equal angles.
    Independent of the momentum relations.

    Yields (psi, delta, p1, (x, y)) per vertex, from one jet of h: p1 is
    the outgoing momentum h cos delta + h' sin delta (as in _bounce) and
    (x, y) = gamma(psi) is also the start of the next chord, so only the
    chord's far end takes further jets.  The solver's last evaluation of
    that far end is kept, and when the root is that very point it is the
    next vertex's jet and point.  Raises GrazingRay, before the vertex is
    evaluated, when its incidence angle leaves [DELTA_MIN, pi - DELTA_MIN]
    (NaN included).  Every vertex is computed in the backend of the
    start's psi + delta."""
    xp = _xp(psi + delta)
    kept = None

    def fdf(psi1, operands):
        nonlocal kept
        ex, ey, x0, y0, angle = operands
        jet = spec.jet(psi1)
        x1, y1 = point = _gamma(jet, psi1, xp)
        kept = psi1, jet, point
        h, _, ddh = jet
        # gamma'(psi1) = rho(psi1) t(psi1)
        return (ex * (y1 - y0) - ey * (x1 - x0),
                (h + ddh) * xp.sin(psi1 - angle))

    while True:
        if not xp.all((delta >= DELTA_MIN) & (delta <= math.pi - DELTA_MIN)):
            raise GrazingRay(f"delta = {delta} outside "
                             f"[{DELTA_MIN}, pi - {DELTA_MIN}]")
        # the jet and gamma depend on psi only through _reduce(psi), so an
        # evaluation at an equal psi1 has their bits: +0.0 and -0.0 reduce
        # to +0.0 before any trig, and NaN, equal to nothing, is evaluated
        # afresh; an array reuses only when the last evaluation covered
        # every entry (a compacted solve's did not) and each is equal
        if kept is not None and xp.shape(kept[0]) == xp.shape(psi) \
                and xp.all(kept[0] == psi):
            _, jet, point = kept
        else:
            jet = spec.jet(psi)
            point = _gamma(jet, psi, xp)
        x0, y0 = point
        _, _, (_, _, base, swing) = _incoming(jet, delta, xp)
        yield psi, delta, base + swing, point
        angle = psi + delta
        reduced = _reduce(angle)
        ex = -xp.sin(reduced)
        ey = xp.cos(reduced)
        psi = _solve_increasing(fdf, angle, angle + math.pi,
                                1.0 + xp.hypot(x0, y0), angle + delta,
                                (ex, ey, x0, y0, angle))
        delta = psi - angle


def geometric_reflect(spec: SupportSpec, start_psi, delta) -> BoundaryCoord:
    """Next bounce of oracle_orbit, on floats or entrywise on arrays.
    Raises GrazingRay when an incidence angle, given or computed, leaves
    the floor (NaN included)."""
    orbit = oracle_orbit(spec, start_psi, delta)
    next(orbit)
    return BoundaryCoord(*next(orbit)[:2])


# --- symplecticity checks ----------------------------------------------------


def _fd_det(fun, a, b, eps):
    """Central finite-difference Jacobian determinant of (u, v) = fun(a, b)
    with step eps.  fun is evaluated once, on the four stencils stacked
    along a new first axis: a +/- eps, then b +/- eps."""
    (ua, ua_, ub, ub_), (va, va_, vb, vb_) = fun(
        np.stack([a + eps, a - eps, a, a]), np.stack([b, b, b + eps, b - eps]))
    return ((ua - ua_) * (vb - vb_) - (ub - ub_) * (va - va_)) \
        / (4 * eps * eps)


def jacobian_check_batch(spec: SupportSpec, p, phi):
    """Central finite-difference Jacobian determinant of forward_map_batch
    (step 1e-6), on floats or entrywise on arrays.  The four stencils are
    one solve (_fd_det); the solve is entrywise, so each keeps the bits of
    its own solve."""
    return _fd_det(lambda p, phi: forward_map_batch(spec, p, phi)[:2],
                   p, phi, 1e-6)


def chart_change_determinant(spec: SupportSpec, bc: BoundaryCoord) -> float:
    """Finite-difference determinant of (cos delta, s) -> (p, phi), step 1e-5.

    Both Jacobians are taken against the common parameters (psi, delta) and
    divided out, so the result is the determinant of the symplectic chart
    change itself (expected 1).
    """
    psi, delta = float(bc.psi), float(bc.delta)
    return float(_fd_det(lambda ps, de: chart_to_line(spec, (ps, de)),
                         psi, delta, 1e-5)
                 / _fd_det(lambda ps, de: (np.cos(de),
                                           arclength_of_psi(spec, ps)),
                           psi, delta, 1e-5))
