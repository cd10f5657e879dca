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

The scan's cost is the map's implicit solve: one per start and step for
its first RING steps, then one Newton solve of BLOCK_STEPS bounces at
once, on the discrete Euler-Lagrange equations of S (see _block_step).
The blocks are warm-started by linear prediction of each start's angle
increments: on an invariant curve, the foliation the paper assumes below
the 4-periodic curve, they are quasi-periodic and satisfy a linear
recurrence with constant coefficients, fitted once per start to its
first RING increments (see the constants below).  Each live start's
state is one column of a _Scan, whose keep alone drops starts.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .billmap import (DELTA_MIN, LineCoord, SDerivatives, _check_inside,
                      _done, bounce, forward_map, forward_map_batch,
                      s_derivatives)
from .errors import MonotonicityBreak
from .supportfn import SupportSpec


class TangentVector(NamedTuple):
    dp: float
    dphi: float
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


# The scan's blocks extend each start's angle increments
# D_n = phi_{n+1} - phi_n.  On an invariant curve they are g(theta + n omega),
# and a g with K harmonics satisfies the palindromic recurrence of order 2K
#     D_{n+2K} + D_n = sum_j b_j (D_{n+2K-j} + D_{n+j}) + b_K D_{n+K} + e,
# j < K, with constant coefficients (linear prediction, as in Prony's method).
# Its single steps guess 2 phi1 - phi (delta conserved).  At step RING it
# fits K = 3 and K = 1 to each start's RING increments, once, and keeps one
# predictor row over the last 6 increments: K = 3 where its residual is
# below PREFER times the K = 1 residual.  A block's guesses roll the row
# over its own predictions.  When the increments barely vary (the circle's
# are constant) the coefficients are undetermined and a block repeats the
# last increment (delta conserved).  Longer blocks take fewer jet calls
# per step on long scans; 10 bounces is the longest block whose roots stay
# within 19 rounding units of single steps (12 reach 20.4).
FLAT = 1e-12        # squared range of D_n over its square that counts as flat
RING = 16           # increments per fit, and single steps before the blocks
PREFER = 0.3        # rms residual ratio below which K = 3 is used
RIDGE = 1e-13       # diagonal load of a fit, relative to its trace
BLOCK_STEPS = 10    # bounces per block solve after the first RING steps
BLOCK_ROUNDS = 8    # Newton rounds before a block entry falls back
BLOCK_HALVINGS = 8  # halvings of a block update that leaves the floor
SPAN = 0.1          # margin of a rolled increment beyond the range of the
                    # last RING, relative to that range


def _total(terms):
    """Sum of the terms (the rows of an array, or any iterable), added
    first to last.  The fixed order gives each start's sum the same bits
    for any number of starts; numpy's sum and einsum pair up terms when
    the summed axis is contiguous, which it is for a single start."""
    return functools.reduce(np.add, terms)


def _predictors(ring):
    """Least-squares fits, per start, of the recurrences for K = 3 and
    K = 1 to its RING increments ring[:, s], oldest first.  Returns the
    next increment's predictor as (row, const), the increment being
    const + row . last with last the start's 6 newest increments:
    the K = 3 fit where its rms residual is below PREFER times that of the
    K = 1 fit, else the K = 1 fit."""
    # each equation spans 7 increments, order 2K = 6 for K = 3
    m = len(ring) - 6                                   # equations
    w = [ring[i:i + m] for i in range(7)]               # D_{n+i}, (m, starts)
    # columns x_1, x_2, x_3 and y = D_n + D_{n+6}, centred, which solves
    # for e apart from the b_j.  The K = 1 fit over the same equations
    # regresses x_2 = D_{n+2} + D_{n+4} on x_3 = D_{n+3}, from the same sums
    a = np.stack([w[1] + w[5], w[2] + w[4], w[3], w[0] + w[6]], axis=1)
    mean = _total(a) / m
    a -= mean
    normal = _total(r[:, None] * r[None] for r in a).transpose(2, 0, 1)
    gram, rhs = normal[:, :3, :3], normal[:, :3, 3]
    # a diagonal load far below rounding of the fit keeps a rank-deficient
    # window (fewer than 3 harmonics) regular; an all-zero one (constant
    # increments) solves the identity
    load = RIDGE * np.trace(gram, axis1=1, axis2=2)
    gram = gram + load[:, None, None] * np.eye(3)
    gram[load == 0.0] = np.eye(3)
    b = np.linalg.solve(gram, rhs[..., None])[..., 0].T  # b_1, b_2, b_3
    sxx, sxy = normal[:, 2, 2], normal[:, 1, 2]
    c = sxy / np.where(sxx > 0.0, sxx, 1.0)
    # residual sums of squares, y.y - b.(x.y) at each solution
    ss3 = normal[:, 3, 3] - _total(b * rhs.T)
    ss1 = normal[:, 1, 1] - c * sxy
    use3 = ss3 < PREFER * PREFER * ss1
    zero = np.zeros_like(c)
    row3 = (zero - 1.0, b[0], b[1], b[2], b[1], b[0])
    row1 = (zero, zero, zero, zero, zero - 1.0, c)
    return (np.where(use3, row3, row1),
            np.where(use3, mean[3] - _total(b * mean[:3]),
                     mean[1] - c * mean[2]))


def _fit(ring):
    """Predictor (row, const, flat) per start from its RING increments
    (_predictors).  flat marks the windows whose increments barely vary,
    and whose blocks repeat the last increment; all three are None when
    every window is flat, and nothing is fitted."""
    hi, lo = ring.max(axis=0), ring.min(axis=0)
    size = np.maximum(np.abs(hi), np.abs(lo))
    flat = (hi - lo) ** 2 <= FLAT * size * size
    if np.all(flat):
        return None, None, None
    return (*_predictors(ring), flat)


class _Scan:
    """The live starts of conjugate_scan, each array with the starts on
    its last axis: the lines (p, phi) the next step maps, the pushed
    vector (dp, dphi) and the sign of its dphi, the guesses of the next
    single step's images (None for a cold first step), the last RING
    angle increments, and the predictor row (row, const, flat) fitted
    once, to each start's first RING of them."""

    def __init__(self, p, phi, guess):
        self.p, self.phi, self.guess = p, phi, guess
        self.dp, self.dphi = np.ones_like(p), np.zeros_like(p)
        self.sign = self.dphi
        self.ring = np.zeros((0, len(p)))
        self.row = self.const = self.flat = None

    def record(self, rows):
        """Add a row of increments, or the rows of a block, oldest first;
        the rows that first make RING fit the predictor row."""
        fill = len(self.ring)
        joined = np.concatenate((self.ring, np.atleast_2d(rows)))
        # a copy, so the ring holds RING rows and not all of joined
        self.ring = joined[-RING:].copy()
        if fill < RING == len(self.ring):
            self.row, self.const, self.flat = _fit(self.ring)

    def roll(self, k):
        """Guesses (k, starts) for the next k angles after phi, from step
        RING on: the fitted row extends the increments by its own
        predictions, each clipped to the range of the last RING increments
        widened by SPAN of it on either side.  On an invariant curve the
        increments stay in their range; rolled over k steps, a row fitted
        to a chaotic orbit can run away.  A flat window (or none fitted)
        repeats its last increment, and so does a start with a clipped
        increment outside (2 DELTA_MIN, 2 (pi - DELTA_MIN)), which no
        bounce has."""
        last = self.ring[-1]
        incs = np.broadcast_to(last, (k, len(self.phi)))
        if self.row is not None:
            window = list(self.ring[-6:])
            for _ in range(k):
                window.append(self.const + _total(
                    r * d for r, d in zip(self.row, window[-6:])))
            hi, lo = self.ring.max(axis=0), self.ring.min(axis=0)
            margin = SPAN * (hi - lo)
            fitted = np.clip(np.array(window[6:]), lo - margin, hi + margin)
            keep = ~self.flat & ((2.0 * DELTA_MIN < fitted)
                                 & (fitted < 2.0 * (math.pi - DELTA_MIN))
                                 ).all(axis=0)
            incs = np.where(keep, fitted, last)
        return self.phi + np.cumsum(incs, axis=0)

    def keep(self, live):
        """Drop the starts where live is False from every array held: the
        one place where starts leave the scan."""
        index = np.flatnonzero(live)
        for name, a in vars(self).items():
            if a is not None:
                setattr(self, name, a.take(index, axis=-1))


def _block_step(spec: SupportSpec, p, phi, guesses):
    """The next k lines of the lines (p, phi), solved as one system from
    guesses, the (k, starts) array of their angles: (p1, phi1, sd), each a
    (k, starts) array whose row i is the bounce of step i + 1.

    The k bounces u_0 = phi, u_1 .. u_k solve the discrete Euler-Lagrange
    equations G_0 = p - p_in(u_0, u_1) and
    G_i = p_out(u_{i-1}, u_i) - p_in(u_i, u_{i+1}) = 0, i < k.  Their
    Jacobian is lower-banded, dG_i/du_{i+1} = S12_i on the diagonal (the
    twist, positive) and dG_i/du_i = S22_{i-1} + S11_i,
    dG_i/du_{i-1} = S12_{i-1} below it, so each Newton round is one jet
    of all k bounces (billmap.bounce) and a forward substitution.  Each
    equation is done by billmap._done with scale |p_i|, the momentum of
    the line it maps; an entry takes its last update once all k are, then
    freezes.  Entries that are done drop out of the rounds.

    The half-separations of the guesses and of every update must lie in
    (DELTA_MIN, pi - DELTA_MIN), so nothing is evaluated outside it.  An
    update that leaves it is halved, up to BLOCK_HALVINGS times.  An
    entry still outside, or not done within BLOCK_ROUNDS rounds, falls
    back to k float forward_map_batch solves for its roots.  An entry
    inside but not done guesses each solve from its last Newton iterate;
    one outside guesses the first from its rolled guess and keeps delta
    for the later ones.  One more jet, at every entry's roots, then gives
    p1 and the S-derivatives.  Every decision is the entry's own, so each
    entry keeps its bits in a batch of any composition.

    A block costs its slowest entry's rounds, so the round cap and the
    float solves bound what one stray entry adds to it: most entries are
    done within 6 rounds, and the few that take more start from guesses
    far off, which Newton without a bracket closes slowly.
    """
    k, n = guesses.shape
    lines = np.concatenate((phi[None], guesses))   # u_0 .. u_k, per entry
    fallback = ~_inside(lines)
    # the iterating entries: columns index of lines, x their iterate (lines
    # itself while every entry iterates), p0 their start momenta
    index, x, p0 = np.arange(n), lines, p
    if fallback.any():
        index = np.flatnonzero(~fallback)
        x, p0 = lines[:, index], p[index]
    for _ in range(BLOCK_ROUNDS):
        if not index.size:
            break
        p_in, p_out, sd = bounce(spec, x[:-1], x[1:])
        # the momentum of each line a bounce maps
        line_p = np.concatenate((p0[None], p_out[:-1]))
        g = line_p - p_in
        done = _done(np.abs(g), np.abs(line_p), x[1:], sd.s12).all(axis=0)
        # Newton: forward substitution through the lower-banded Jacobian
        # for the step -du, S12_i du_i =
        # G_i - (S22_{i-1} + S11_i) du_{i-1} - S12_{i-1} du_{i-2}
        du = np.empty_like(g)
        below = sd.s22[:-1] + sd.s11[1:]
        for i in range(k):
            r = g[i]
            if i >= 1:
                r = r - below[i - 1] * du[i - 1]
            if i >= 2:
                r = r - sd.s12[i - 1] * du[i - 2]
            np.divide(r, sd.s12[i], out=du[i])
        # drop the round's bounce before the next one makes its own
        del p_in, p_out, sd, line_p, g, below
        x[1:] -= du
        ok = _inside(x)
        if not ok.all():
            # step back by half of the last update, until inside
            bad = np.flatnonzero(~ok)
            half = du[:, bad]
            for _ in range(BLOCK_HALVINGS):
                half = 0.5 * half
                x[1:, bad] += half
                inside = _inside(x[:, bad])
                ok[bad[inside]] = True
                bad, half = bad[~inside], half[:, ~inside]
                if not bad.size:
                    break
        stop = done | ~ok
        if stop.any():
            if x is not lines:
                lines[:, index[stop]] = x[:, stop]
            fallback[index[~ok]] = True
            left = ~stop
            index, x, p0 = index[left], x[:, left], p0[left]
    else:
        if x is not lines:
            lines[:, index] = x
        fallback[index] = True
    if fallback.any():
        # one entry at a time, as floats: a float solve has the bits of its
        # entry in an array solve at about a tenth of the cost of a
        # one-entry array solve, and entries fall back a few per block
        fell = np.flatnonzero(fallback)
        for j, near in zip(fell, _inside(lines[:, fell])):
            line_p, line_phi = float(p[j]), float(phi[j])
            guess = float(guesses[0, j])
            for i in range(1, k + 1):
                if near:        # its last iterate, not yet overwritten
                    guess = float(lines[i, j])
                line_p, phi1, _ = forward_map_batch(spec, line_p, line_phi,
                                                    guess)
                guess = 2.0 * phi1 - line_phi
                line_phi = lines[i, j] = phi1
    _, p1, sd = bounce(spec, lines[:-1], lines[1:])
    return p1, lines[1:], sd


def _inside(x):
    """The entries (columns) of x, rows u_0 .. u_k, whose every
    half-separation (u_{i+1} - u_i) / 2 lies in (DELTA_MIN, pi - DELTA_MIN);
    NaN fails."""
    delta = 0.5 * (x[1:] - x[:-1])
    return ((DELTA_MIN < delta) & (delta < math.pi - DELTA_MIN)).all(axis=0)


def _scan_step(phi, guess):
    """Called by conjugate_scan once per step with the angles of the lines
    it maps and the guesses their images started from (None for a cold
    first step), of the starts live at that step; a block step passes its
    rolled guesses.  Does nothing: it is the seam at which a scan's steps
    can be watched."""


def conjugate_scan(spec: SupportSpec, p0, phi0, max_steps: int,
                   guess=None):
    """First step at which a pushed vertical vector crosses vertical again.

    Pushes (dp, dphi) = (1, 0) along the orbit of each start line; a sign
    change of the dphi-component between consecutive steps flags the
    crossing (exact zeros are measure-zero numerically).  The vector is
    renormalized to unit sup-norm each step; omega-type slopes are
    scale-invariant so this only prevents overflow.

    One start as floats gives an int, many as a 1-d array give an int
    array: the crossing step per start, -1 when none within max_steps.
    A float start runs as a one-entry array.

    guess, of p0's shape, is a start for each first image's phi, as in
    forward_map_batch: phi0 + 2 delta0 for a start line leaving its
    boundary point at angle delta0 (delta conserved).  Without it the
    first solve starts at the bracket midpoint.

    The scan has two phases.  Its first RING steps are one
    forward_map_batch solve each, the image guessed as 2 phi1 - phi
    (delta conserved).  At step RING a predictor row is fitted, once, to
    each start's angle increments D_n = phi_{n+1} - phi_n so far, which
    are quasi-periodic on an invariant curve: order 6 (three harmonics)
    where that fits them much better than order 2, else order 2.  When
    the increments barely vary the row is not used, and the last
    increment is repeated (delta conserved).

    After RING steps the scan advances in blocks of BLOCK_STEPS bounces
    (fewer at the end), one _block_step each: the row, rolled forward over
    its own predictions, guesses the block's angles, and Newton rounds
    on the block's Euler-Lagrange equations solve them together.  The
    single steps' guess is not kept past them, and the block's arrays are
    dropped before the next block is solved, so the scan holds one block
    at a time.

    Either phase gives rows (p1, phi1, S-derivatives), one per bounce (a
    single step is a block of one row), and one loop takes them: it
    records their increments, and pushes the vector row by row, where a
    start that crosses records the step of its first crossing.  Only
    live starts are stepped: a start that crosses leaves the batch at
    the end of its step or block, with its whole column of the _Scan,
    and the scan ends when none is left.  Every step works entry by entry,
    so the result is the same as stepping all starts to the end, a float
    start gets the step of its array entry, and a start that has crossed
    can no longer fail the others.
    """
    for start in (p0, phi0):
        if np.ndim(start) > 1:
            raise ValueError(f"starts of shape {np.shape(start)}: need "
                             "floats or 1-d arrays")
    one = np.ndim(phi0) == 0
    p, phi = np.atleast_1d(np.asarray(p0, float), np.asarray(phi0, float))
    if guess is not None:
        if np.shape(guess) != np.shape(p0):
            raise ValueError(f"guess of shape {np.shape(guess)} for starts "
                             f"of shape {np.shape(p0)}")
        guess = np.atleast_1d(np.asarray(guess, float))
    scan = _Scan(p, phi, guess)
    detected = np.full(p.shape, -1)
    step = 0
    while step < max_steps and scan.p.size:
        # the step's lines as a block of rows, one row for a single step
        if step < RING:
            p1, phi1, sd = forward_map_batch(spec, scan.p, scan.phi,
                                             scan.guess)
            guesses, sds = (scan.guess,), (sd,)
            # delta conserved; the blocks roll their own guesses
            scan.guess = 2.0 * phi1 - scan.phi if step + 1 < RING else None
            p1, phi1 = p1[None], phi1[None]
        else:
            guesses = scan.roll(min(BLOCK_STEPS, max_steps - step))
            p1, phi1, sd = _block_step(spec, scan.p, scan.phi, guesses)
            sds = [SDerivatives(*row) for row in zip(*sd)]
        mapped = np.concatenate((scan.phi[None], phi1[:-1]))
        if step + len(phi1) < max_steps:    # no fit for a scan that ends here
            scan.record(phi1 - mapped)
        first = None        # the step of each start's first crossing, or -1
        for i, sd in enumerate(sds):
            seen = mapped[i], guesses[i]
            if first is not None:
                live = first < 0        # the starts not crossed yet
                if not live.any():
                    break
                seen = (a[live] for a in seen)
            _scan_step(*seen)
            dp, dphi = _push(sd, scan.dp, scan.dphi)
            norm = np.maximum(np.abs(dp), np.abs(dphi))
            scan.dp, scan.dphi = dp / norm, dphi / norm
            sign = np.sign(scan.dphi)
            if step + i >= 1:
                crossing = (sign == 0.0) | (sign * scan.sign < 0.0)
                if crossing.any():
                    at = step + i + 1
                    first = np.where(crossing, at, -1) if first is None \
                        else np.where((first < 0) & crossing, at, first)
            scan.sign = sign
        step += len(sds)
        # copies, so the block's (k, starts) arrays go before the next block
        scan.p, scan.phi = p1[-1].copy(), phi1[-1].copy()
        del p1, phi1, sd, sds, mapped, guesses, seen
        if first is None:
            continue
        # the live starts are the entries still at -1, in order
        detected[detected < 0] = first
        scan.keep(first < 0)
    return int(detected[0]) if one else detected


def orbit_lines(spec: SupportSpec, start: LineCoord, steps: int) -> list[LineCoord]:
    """The start line followed by `steps` forward images."""
    lines = [start]
    for _ in range(steps):
        lines.append(forward_map(spec, lines[-1]))
    return lines
