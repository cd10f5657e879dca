"""Slope evolution of line bundles under the map differential.

The slope omega = dp/dphi of a non-vertical tangent line propagates by a
discrete Riccati recursion built from the generating-function curvatures:

    nu1        = (-S11 - omega) / S12        (positive on monotone bundles)
    omega_next = S22 + S12 / nu1

nu1 is the dphi-stretch factor of the pushed direction; it hitting zero
means the evolved line crossed vertical, i.e. a conjugate event.  For
tables that are not totally integrable no invariant monotone bundle exists,
so iterating from an arbitrary in-bounds seed is a numerical probe of that
breakdown, not an invariant object; conjugate_scan reports the first
verticality crossing of a pushed vertical vector instead, which needs no
bundle at all.
"""

from __future__ import annotations

from typing import NamedTuple

from .billmap import (LineCoord, SDerivatives, _check_inside, forward_map,
                      forward_map_batch, s_derivatives)
from .errors import MonotonicityBreak
from .profiles import _xp
from .supportfn import SupportSpec


class TangentVector(NamedTuple):
    dp: float
    dphi: float
    line: LineCoord


class BeamState(NamedTuple):
    omega: float
    line: LineCoord


def riccati_step(sd: SDerivatives, omega: float) -> tuple[float, float]:
    """One slope-propagation step; returns (omega_next, nu1).

    Raises MonotonicityBreak when nu1 <= 0.
    """
    nu1 = (-sd.s11 - omega) / sd.s12
    if nu1 <= 0.0:
        raise MonotonicityBreak(nu1)
    return sd.s22 + sd.s12 / nu1, nu1


def push_tangent(spec: SupportSpec, tv: TangentVector) -> TangentVector:
    """Image of a tangent vector under the map differential.

    From the differentials of the generating relations:
        dphi1 = (-dp - S11 dphi) / S12
        dp1   = S12 dphi + S22 dphi1
    """
    p, phi = float(tv.line.p), float(tv.line.phi)
    _check_inside(spec, p, phi)
    p1, phi1, sd = forward_map_batch(spec, p, phi)
    return TangentVector(*_push(sd, tv.dp, tv.dphi), LineCoord(p1, phi1))


def _push(sd: SDerivatives, dp, dphi):
    """(dp1, dphi1), the pushed components; floats or arrays alike."""
    dphi1 = (-dp - sd.s11 * dphi) / sd.s12
    return sd.s12 * dphi + sd.s22 * dphi1, dphi1


def monotone_bounds(spec: SupportSpec, prev: LineCoord, cur: LineCoord,
                    nxt: LineCoord) -> tuple[float, float]:
    """Two-sided slope bounds along an orbit segment:

        S22(phi_prev, phi) < omega < -S11(phi, phi_next)
    """
    lower = s_derivatives(spec, prev.phi, cur.phi).s22
    upper = -s_derivatives(spec, cur.phi, nxt.phi).s11
    return lower, upper


# The scan's warm start fits D_{n+1} + D_{n-1} = c D_n + e to the last
# WINDOW increments D_n = phi_{n+1} - phi_n of each start; a quasi-periodic
# g(theta + n omega) with one harmonic satisfies it exactly, c = 2 cos omega.
# When the increments barely vary (the circle's are constant), c is
# undetermined and the fit is not used.
WINDOW = 9          # increments per fit, so WINDOW - 2 triples
FLAT = 1e-12        # variance of D_n over its mean square that counts as flat


def _slide(sums, incs):
    """Running sums (Sx, Sy, Sxx, Sxy) over the window's triples,
    x = D_k and y = D_{k-1} + D_{k+1}, after incs gained its newest
    increment: adds the newest triple and, once incs outgrows the window,
    drops the oldest triple and increment."""
    sx, sy, sxx, sxy = sums
    if len(incs) >= 3:
        x, y = incs[-2], incs[-3] + incs[-1]
        sx, sy, sxx, sxy = sx + x, sy + y, sxx + x * x, sxy + x * y
    if len(incs) > WINDOW:
        x, y = incs[1], incs[0] + incs[2]
        sx, sy, sxx, sxy = sx - x, sy - y, sxx - x * x, sxy - x * y
        del incs[0]
    return sx, sy, sxx, sxy


def _guess(phi1, phi, sums, incs, xp):
    """Next phi: phi1 + c D_n + e - D_{n-1} from the fitted recurrence, or
    2 phi1 - phi (delta conserved) while the window is short or flat."""
    delta_kept = 2.0 * phi1 - phi
    if len(incs) < WINDOW:
        return delta_kept
    n = WINDOW - 2
    sx, sy, sxx, sxy = sums
    var = n * sxx - sx * sx
    flat = var <= FLAT * n * sxx
    c = (n * sxy - sx * sy) / xp.where(flat, 1.0, var)
    e = (sy - c * sx) / n
    return xp.where(flat, delta_kept, phi1 + c * incs[-1] + e - incs[-2])


def conjugate_scan(spec: SupportSpec, p0, phi0, max_steps: int):
    """First step at which a pushed vertical vector crosses vertical again.

    Pushes (dp, dphi) = (1, 0) along the orbit of each start line; a sign
    change of the dphi-component between consecutive steps flags the
    crossing (exact zeros are measure-zero numerically).  The vector is
    renormalized to unit sup-norm each step; omega-type slopes are
    scale-invariant so this only prevents overflow.

    One start as floats gives an int, many as arrays give an int array:
    the crossing step per start, -1 when none within max_steps.

    Each solve is warm-started.  On an invariant curve the increments
    D_n = phi_{n+1} - phi_n are quasi-periodic, so once a start has WINDOW
    of them the guess extends the recurrence D_{n+1} + D_{n-1} = c D_n + e
    fitted to them by least squares (running sums, updated each step);
    before that, or when the increments barely vary, it is 2 phi1 - phi
    (delta conserved).

    Only live starts are stepped: a start that crosses leaves the batch,
    with its guess and fit window, and the scan ends when none is left.
    Every step works entry by entry, so the result is the same as stepping
    all starts to the end, a float start gets the step of its array entry,
    and a start that has crossed can no longer fail the others.
    """
    xp = _xp(phi0)
    p, phi = p0, phi0
    dp = 1.0 + 0.0 * p
    dphi = 0.0 * p
    prev_sign = dphi
    detected = xp.where(dp > 0.0, -1, -1)   # one int -1 per start
    guess = None
    incs = []                   # the last WINDOW increments, oldest first
    sums = (dphi,) * 4          # Sx, Sy, Sxx, Sxy over their triples
    for step in range(1, max_steps + 1):
        p1, phi1, sd = forward_map_batch(spec, p, phi, guess)
        incs.append(phi1 - phi)
        sums = _slide(sums, incs)
        guess = _guess(phi1, phi, sums, incs, xp)
        dp_next, dphi_next = _push(sd, dp, dphi)
        norm = xp.maximum(xp.abs(dp_next), xp.abs(dphi_next))
        dp = dp_next / norm
        dphi = dphi_next / norm
        p, phi = p1, phi1
        sign = xp.sign(dphi)
        if step >= 2:
            crossing = (sign == 0.0) | (sign * prev_sign < 0.0)
            if xp.all(crossing):    # the last live starts; a float start ends here
                return xp.where(detected < 0, step, detected)
            if xp.any(crossing):    # arrays only
                # the live starts are the entries still at -1, in order
                detected[detected < 0] = xp.where(crossing, step, -1)
                live = ~crossing
                p, phi, dp, dphi, sign, guess = (
                    a[live] for a in (p, phi, dp, dphi, sign, guess))
                incs = [d[live] for d in incs]
                sums = tuple(s[live] for s in sums)
        prev_sign = sign
    return detected


def orbit_lines(spec: SupportSpec, start: LineCoord, steps: int) -> list[LineCoord]:
    """The start line followed by `steps` forward images."""
    lines = [start]
    for _ in range(steps):
        lines.append(forward_map(spec, lines[-1]))
    return lines
