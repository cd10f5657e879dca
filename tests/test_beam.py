import math
import tracemalloc
import warnings

import numpy as np
import pytest

from billiards.beam import (BLOCK_ROUNDS, BLOCK_STEPS, RING, TangentVector,
                            _block_step, _fit, _predictors, _Scan,
                            conjugate_scan, monotone_bounds, orbit_lines,
                            push_tangent, riccati_step)
from billiards.billmap import (BoundaryCoord, LineCoord, SDerivatives,
                               bounce, chart_to_line, forward_map,
                               forward_map_batch, s_derivatives)
from billiards.errors import MonotonicityBreak
from billiards.fourperiodic import invariant_curve_state, table_profile
from billiards.sampling import scan_starts


def caustic_line(lam, phi, a=2.0, b=1.0):
    p = math.sqrt(a * a * math.cos(phi) ** 2 + b * b * math.sin(phi) ** 2 - lam)
    return LineCoord(p, phi)


def caustic_slope(line, a=2.0, b=1.0):
    return (b * b - a * a) * math.sin(2.0 * line.phi) / (2.0 * line.p)


CIRCLE_SD = SDerivatives(s11=-0.5, s12=0.5, s22=-0.5)  # r = 1, delta = pi/2


def test_riccati_fixed_point_on_circle():
    omega_next, nu1 = riccati_step(CIRCLE_SD, 0.0)
    assert nu1 == pytest.approx(1.0, abs=1e-15)
    assert omega_next == pytest.approx(0.0, abs=1e-15)


def test_riccati_monotonicity_break_at_boundary():
    with pytest.raises(MonotonicityBreak):
        riccati_step(CIRCLE_SD, 0.5)  # omega = -S11 makes nu1 = 0
    with pytest.raises(MonotonicityBreak):
        riccati_step(CIRCLE_SD, 0.7)


def test_nu_reversal_identity(ellipse21):
    # nu_{-1}(T(M)) = 1 / nu1(M), with both factors computed from the
    # closed-form caustic slopes rather than from the recursion
    lam = 0.3
    line = caustic_line(lam, 0.7)
    image = forward_map(ellipse21, line)
    sd = s_derivatives(ellipse21, line.phi, image.phi)
    nu1 = (-sd.s11 - caustic_slope(line)) / sd.s12
    nu_minus_at_image = (caustic_slope(image) - sd.s22) / sd.s12
    assert nu_minus_at_image == pytest.approx(1.0 / nu1, rel=1e-10)


def test_push_tangent_circle_vertical(circle):
    delta = 0.9
    line = chart_to_line(circle, BoundaryCoord(0.2, delta))
    image = push_tangent(circle, TangentVector(1.0, 0.0, line))
    assert image.dphi == pytest.approx(-2.0 / math.sin(delta), rel=1e-10)
    assert image.dp == pytest.approx(1.0, rel=1e-10)


def test_push_tangent_matches_finite_differences(ellipse21):
    line = LineCoord(0.8, 0.5)
    eps = 1e-6
    up = forward_map(ellipse21, LineCoord(line.p + eps, line.phi))
    dn = forward_map(ellipse21, LineCoord(line.p - eps, line.phi))
    image = push_tangent(ellipse21, TangentVector(1.0, 0.0, line))
    assert image.dp == pytest.approx((up.p - dn.p) / (2 * eps), rel=1e-6)
    assert image.dphi == pytest.approx((up.phi - dn.phi) / (2 * eps), rel=1e-6)


def test_push_tangent_linear_and_symplectic(ellipse21):
    line = LineCoord(0.6, 1.1)
    v = push_tangent(ellipse21, TangentVector(1.0, 0.0, line))
    w = push_tangent(ellipse21, TangentVector(0.0, 1.0, line))
    mixed = push_tangent(ellipse21, TangentVector(2.0, -3.0, line))
    assert mixed.dp == pytest.approx(2 * v.dp - 3 * w.dp, rel=1e-12, abs=1e-12)
    assert mixed.dphi == pytest.approx(2 * v.dphi - 3 * w.dphi,
                                       rel=1e-12, abs=1e-12)
    det = v.dp * w.dphi - w.dp * v.dphi
    assert det == pytest.approx(1.0, abs=1e-9)


def test_riccati_equals_renormalized_push(ellipse21):
    # pushing (omega, 1) and rescaling dphi to 1 reproduces the recursion;
    # the rescaling factor is nu1
    line = caustic_line(0.3, 0.9)
    omega = caustic_slope(line)
    image = forward_map(ellipse21, line)
    sd = s_derivatives(ellipse21, line.phi, image.phi)
    omega_next, nu1 = riccati_step(sd, omega)
    pushed = push_tangent(ellipse21, TangentVector(omega, 1.0, line))
    assert pushed.dphi == pytest.approx(nu1, rel=1e-10)
    assert pushed.dp / pushed.dphi == pytest.approx(omega_next, rel=1e-10,
                                                    abs=1e-12)


def test_riccati_tracks_caustic_slope_long_run(ellipse21):
    lam = 0.35
    cur = caustic_line(lam, 0.3)
    omega = caustic_slope(cur)
    drift = 0.0
    for _ in range(100000):
        nxt = forward_map(ellipse21, cur)
        sd = s_derivatives(ellipse21, cur.phi, nxt.phi)
        omega, nu1 = riccati_step(sd, omega)
        assert nu1 > 0.0
        drift = max(drift, abs(omega - caustic_slope(nxt)))
        cur = nxt
    assert drift <= 1e-7


def test_nu_cocycle_over_4_periodic_cycle(ellipse21, ellipse21_profile,
                                          mode6_table, mode6_profile):
    # product of nu1 factors over one cycle equals the derivative of the
    # identity circle map, i.e. 1
    for spec, profile in ((ellipse21, ellipse21_profile),
                          (mode6_table, mode6_profile)):
        for psi in (0.15, 1.2, 3.9):
            state = invariant_curve_state(spec, profile, psi)
            line, omega = state.line, state.omega
            product = 1.0
            for _ in range(4):
                image = forward_map(spec, line)
                sd = s_derivatives(spec, line.phi, image.phi)
                omega, nu1 = riccati_step(sd, omega)
                product *= nu1
                line = image
            assert line.phi == pytest.approx(
                chart_to_line(spec, BoundaryCoord(
                    psi, profile.jet(psi)[0])).phi + 2 * math.pi, abs=1e-9)
            assert product == pytest.approx(1.0, abs=1e-8)


def test_monotone_bounds_circle(circle):
    # delta = pi/2 orbit: bounds are (-1/2, 1/2)
    line = chart_to_line(circle, BoundaryCoord(0.0, math.pi / 2))
    lines = orbit_lines(circle, line, 2)
    lower, upper = monotone_bounds(circle, *lines)
    assert lower == pytest.approx(-0.5, abs=1e-12)
    assert upper == pytest.approx(0.5, abs=1e-12)


def test_monotone_bounds_shrink_with_delta(circle):
    for delta in (1e-2, 1e-3):
        line = chart_to_line(circle, BoundaryCoord(0.0, delta))
        lines = orbit_lines(circle, line, 2)
        lower, upper = monotone_bounds(circle, *lines)
        assert abs(lower) < 2 * delta
        assert abs(upper) < 2 * delta


def test_caustic_slope_within_bounds(ellipse21):
    lam = 0.3
    lines = orbit_lines(ellipse21, caustic_line(lam, 0.2), 1001)
    for i in range(1, 1000):
        lower, upper = monotone_bounds(ellipse21, lines[i - 1], lines[i],
                                       lines[i + 1])
        omega = caustic_slope(lines[i])
        assert lower < omega < upper


def test_detect_conjugate_none_on_circle(circle):
    line = chart_to_line(circle, BoundaryCoord(0.3, 0.6))
    assert conjugate_scan(circle, line.p, line.phi, 10000) == -1


def test_detect_conjugate_none_on_ellipse_region(ellipse21,
                                                 ellipse21_profile):
    _, _, p, phi = scan_starts(ellipse21, ellipse21_profile, 100, seed=9)
    detections = conjugate_scan(ellipse21, p, phi, 2000)
    assert np.all(detections < 0)


def _warm_jets_per_step(spec, profile, monkeypatch, steps=100):
    # table jet calls per step of a 256-start seed-42 scan of steps + 1
    # steps (fewer when every start detects), less its cold first step;
    # also the detections.  The steps are counted at the scan's per-step
    # seam, which a block of bounces passes once per bounce
    _, _, p, phi = scan_starts(spec, profile, 256, seed=42)
    calls = [0]
    seen = [0]
    jet = type(spec).jet

    def counted(self, psi):
        calls[0] += 1
        return jet(self, psi)

    def counted_step(phi, guess):
        seen[0] += 1

    monkeypatch.setattr(type(spec), "jet", counted)
    monkeypatch.setattr("billiards.beam._scan_step", counted_step)
    conjugate_scan(spec, p, phi, 1)
    cold = calls[0]
    calls[0] = seen[0] = 0
    detections = conjugate_scan(spec, p, phi, steps + 1)
    return (calls[0] - cold) / (seen[0] - 1), detections


def test_conjugate_scan_warm_steps_stay_cheap(ellipse21, ellipse21_profile,
                                             monkeypatch):
    # each scan step warm-starts the solver; a fall back to cold
    # bracketing would cost 16 or more jets per step
    jets, detections = _warm_jets_per_step(ellipse21, ellipse21_profile,
                                           monkeypatch)
    assert np.all(detections < 0)
    assert jets <= 10


def test_conjugate_scan_fitted_guess_saves_jets(ellipse21, ellipse21_profile,
                                                circle, mode6_table,
                                                mode6_profile, monkeypatch):
    # the fitted recurrences guess the ellipse's quasi-periodic increments
    # closer than 2 phi1 - phi (8.3 jets per step with that guess alone and
    # one solve per step; the scan keeps it for its first RING steps only,
    # and takes 2.17 and 1.17 jets per step at 100 and 1000 steps); on
    # mode-6 the order-6 row helps the starts that stay on an invariant
    # curve.  The circle's constant increments make a flat window, whose
    # blocks repeat the last increment, already exact there
    for steps, bound in ((100, 5.0), (1000, 4.3)):
        jets, detections = _warm_jets_per_step(ellipse21, ellipse21_profile,
                                               monkeypatch, steps)
        assert np.all(detections < 0)
        assert jets <= bound
    jets, detections = _warm_jets_per_step(mode6_table, mode6_profile,
                                           monkeypatch, 1000)
    assert np.any(detections >= 0)
    assert jets <= 5.63
    jets, detections = _warm_jets_per_step(circle, table_profile(circle),
                                           monkeypatch)
    assert np.all(detections < 0)
    assert jets <= 2.14


def test_conjugate_scan_block_steps_save_jets(ellipse21, ellipse21_profile,
                                              monkeypatch):
    # after RING steps one Newton round advances every live start by
    # BLOCK_STEPS bounces: 4.99 table jets per step with blocks of one
    # bounce, 1.165 with blocks of 6 and 0.829 with blocks of 10
    jets, detections = _warm_jets_per_step(ellipse21, ellipse21_profile,
                                           monkeypatch, 1000)
    assert np.all(detections < 0)
    assert jets <= 2.0


@pytest.mark.parametrize("table, profile", [
    ("ellipse21", "ellipse21_profile"), ("mode6_table", "mode6_profile"),
])
def test_block_roots_match_single_steps(table, profile, request,
                                        monkeypatch):
    # each root of a block solve is the image of the block's previous line
    # to a few rounding units of phi: one forward_map_batch step from that
    # line, started at the root, stays within C eps (1 + |p| + |phi| S12)
    # / S12, the error that rounding of the momenta and of phi itself
    # leaves in the root (largest near grazing, where S12 is small).  Over
    # 300 seed-42 steps blocks of 10 reach C = 17.7 on the ellipse and
    # 11.4 on mode-6.  The solver alone reaches 9.3 and 10.6: 300 seed-42
    # forward_map_batch single steps, each solved again with its own root
    # as the guess, measured with this C
    spec = request.getfixturevalue(table)
    _, delta, p, phi = scan_starts(spec, request.getfixturevalue(profile),
                                   256, seed=42)
    worst = []

    def checked(spec, p, phi, guesses):
        p1, roots, sd = _block_step(spec, p, phi, guesses)
        for i, root in enumerate(roots):
            line = (p, phi) if i == 0 else (p1[i - 1], roots[i - 1])
            _, single, _ = forward_map_batch(spec, *line, root)
            s12 = sd.s12[i]
            worst.append(np.max(np.abs(root - single) * s12 / (
                np.finfo(float).eps * (1.0 + np.abs(line[0])
                                       + np.abs(root) * s12))))
        return p1, roots, sd

    monkeypatch.setattr("billiards.beam._block_step", checked)
    conjugate_scan(spec, p, phi, 300, phi + 2.0 * delta)
    assert len(worst) >= 300 - RING - BLOCK_STEPS
    assert max(worst) <= 19.0


def test_block_cost_is_bounded(mode6_table, mode6_profile, monkeypatch):
    # a block costs its slowest entry's Newton rounds, at most BLOCK_ROUNDS
    # bounce evaluations and one more at the roots, and each entry that
    # falls back adds its k steps as float solves, each a tenth of the
    # cost of a one-entry array solve.  Eight of the 9 blocks of this
    # seed-2126 scan have an entry that falls back.  An entry that falls
    # back inside guesses each float solve from its last Newton iterate,
    # which cut the table jets per solve, at blocks of 6, from 6.04 (the
    # first solve from its rolled guess, the later ones keeping delta)
    # to 3.53
    _, delta, p, phi = scan_starts(mode6_table, mode6_profile, 256,
                                   seed=2126)
    blocks = []
    current = [None]
    jets = [0]
    jet = type(mode6_table).jet

    def counted_jet(self, psi):
        jets[0] += 1
        return jet(self, psi)

    def block(spec, p, phi, guesses):
        current[0] = {"k": len(guesses), "rounds": 0, "solves": [],
                      "jets": 0}
        blocks.append(current[0])
        try:
            return _block_step(spec, p, phi, guesses)
        finally:
            current[0] = None

    def counted_bounce(spec, phi, phi1):
        current[0]["rounds"] += 1
        return bounce(spec, phi, phi1)

    def counted_map(spec, p, phi, guess=None):
        if current[0] is None:
            return forward_map_batch(spec, p, phi, guess)
        current[0]["solves"].append(p)
        before = jets[0]
        out = forward_map_batch(spec, p, phi, guess)
        current[0]["jets"] += jets[0] - before
        return out

    monkeypatch.setattr(type(mode6_table), "jet", counted_jet)
    monkeypatch.setattr("billiards.beam._block_step", block)
    monkeypatch.setattr("billiards.beam.bounce", counted_bounce)
    monkeypatch.setattr("billiards.beam.forward_map_batch", counted_map)
    conjugate_scan(mode6_table, p, phi, 100, phi + 2.0 * delta)
    assert any(b["solves"] for b in blocks)
    for b in blocks:
        assert b["rounds"] <= BLOCK_ROUNDS + 1
        assert all(isinstance(s, float) for s in b["solves"])
        assert len(b["solves"]) % b["k"] == 0
    # table jets per fallback solve: 3.81 over these 360 (3.53 over 108
    # at blocks of 6)
    solves = sum(len(b["solves"]) for b in blocks)
    assert sum(b["jets"] for b in blocks) / solves <= 4.0


def test_block_record_is_one_bounce_at_its_roots(mode6_table, mode6_profile,
                                                monkeypatch):
    # a block's p1 and S-derivatives are one bounce at its own roots, bit
    # for bit, for the entries that fell back to float solves as for the
    # rest.  Eight of the 9 blocks of this seed-2126 scan have an entry
    # that falls back
    _, delta, p, phi = scan_starts(mode6_table, mode6_profile, 256,
                                   seed=2126)
    inside = [False]
    fell = []

    def counted_map(spec, p, phi, guess=None):
        if inside[0]:
            fell[-1] = True
        return forward_map_batch(spec, p, phi, guess)

    def checked(spec, p, phi, guesses):
        fell.append(False)
        inside[0] = True
        try:
            p1, roots, sd = _block_step(spec, p, phi, guesses)
        finally:
            inside[0] = False
        _, p1_b, sd_b = bounce(spec, np.concatenate((phi[None], roots[:-1])),
                               roots)
        for got, want in zip((p1, *sd), (p1_b, *sd_b)):
            assert got.tobytes() == want.tobytes()
        return p1, roots, sd

    monkeypatch.setattr("billiards.beam._block_step", checked)
    monkeypatch.setattr("billiards.beam.forward_map_batch", counted_map)
    conjugate_scan(mode6_table, p, phi, 100, phi + 2.0 * delta)
    assert sum(fell) == 8 and len(fell) == 9


def test_detect_conjugate_found_on_mode6_table(mode6_table, mode6_profile):
    _, _, p, phi = scan_starts(mode6_table, mode6_profile, 64, seed=9)
    detections = conjugate_scan(mode6_table, p, phi, 2000)
    assert np.any(detections >= 0)
    # a float start gives the same step as its entry of the array scan
    idx = int(np.argmax(detections >= 0))
    step = conjugate_scan(mode6_table, float(p[idx]), float(phi[idx]), 2000)
    assert step == detections[idx]


def _recorded_scan(monkeypatch, spec, p, phi, max_steps, first=None):
    # the scan's detections, the (phi, guess) of each of its steps from its
    # per-step seam (a block step's guess is its rolled one), and its
    # forward_map_batch calls: one per step for the first RING steps, more
    # when a block entry falls back to them; first is the scan's guess for
    # its first images
    record = []
    maps = [0]

    def recording(phi, guess):
        record.append((phi, guess))

    def counted_map(spec, p, phi, guess=None):
        maps[0] += 1
        return forward_map_batch(spec, p, phi, guess)

    monkeypatch.setattr("billiards.beam._scan_step", recording)
    monkeypatch.setattr("billiards.beam.forward_map_batch", counted_map)
    detections = conjugate_scan(spec, p, phi, max_steps, first)
    return detections, record, maps[0]


def test_conjugate_scan_entries_equal_float_scans(mode6_table, mode6_profile,
                                                 monkeypatch):
    # each start, detected or not, gets the step its own float scan gives.
    # It leaves the batch with its increments and fitted row, so its phi
    # and guess at every step are also the bits of its own scan; a
    # mis-compacted row would cost jets only, not change a detection
    _, _, p, phi = scan_starts(mode6_table, mode6_profile, 64, seed=9)
    max_steps = 200
    detections, record, _ = _recorded_scan(monkeypatch, mode6_table, p, phi,
                                           max_steps)
    assert np.any(detections >= 0) and np.any(detections < 0)
    ends = np.where(detections < 0, max_steps, detections)
    # starts leave before the fit and after it
    assert np.any(ends < RING) and np.any(ends > RING)
    fell_back = []
    for i in range(64):
        single, own, maps = _recorded_scan(monkeypatch, mode6_table,
                                           float(p[i]), float(phi[i]),
                                           max_steps)
        assert single == detections[i]
        assert len(own) == ends[i]
        if maps > min(RING, ends[i]):
            fell_back.append(i)
        for step, (phi_s, guess_s) in enumerate(own):
            # entry i's position among the starts live at this step
            pos = int(np.sum(ends[:i] > step))
            phi_b, guess_b = record[step]
            assert phi_s.tobytes() == phi_b[pos:pos + 1].tobytes()
            if step == 0:
                assert guess_s is None and guess_b is None
            else:
                assert guess_s.tobytes() == guess_b[pos:pos + 1].tobytes()
    # a block entry that falls back to single steps keeps its bits too
    assert fell_back


def test_conjugate_scan_single_steps_keep_delta(ellipse21, ellipse21_profile,
                                                monkeypatch):
    # before the fit at step RING, the guess of every single step is
    # exactly 2 phi1 - phi, phi the line mapped the step before; the first
    # solve is cold.  No ellipse start detects, so every step sees all 64
    _, _, p, phi = scan_starts(ellipse21, ellipse21_profile, 64, seed=42)
    _, record, _ = _recorded_scan(monkeypatch, ellipse21, p, phi,
                                  RING + BLOCK_STEPS)
    assert record[0][1] is None
    for step in range(1, RING):
        (phi0, _), (phi1, guess) = record[step - 1], record[step]
        assert guess.tobytes() == (2.0 * phi1 - phi0).tobytes()


def test_conjugate_scan_warm_first_solve_entries_equal_float_scans(
        mode6_table, mode6_profile, monkeypatch):
    # with a first guess too, every entry keeps the bits of its own float
    # scan: the guess enters the first solve entry by entry
    _, delta, p, phi = scan_starts(mode6_table, mode6_profile, 64, seed=9)
    first = phi + 2.0 * delta
    max_steps = 200
    detections, record, _ = _recorded_scan(monkeypatch, mode6_table, p, phi,
                                           max_steps, first)
    assert np.any(detections >= 0) and np.any(detections < 0)
    assert record[0][1].tobytes() == first.tobytes()
    ends = np.where(detections < 0, max_steps, detections)
    for i in range(64):
        single, own, _ = _recorded_scan(monkeypatch, mode6_table, float(p[i]),
                                        float(phi[i]), max_steps,
                                        float(first[i]))
        assert single == detections[i]
        assert len(own) == ends[i]
        for step, (phi_s, guess_s) in enumerate(own):
            pos = int(np.sum(ends[:i] > step))
            phi_b, guess_b = record[step]
            assert phi_s.tobytes() == phi_b[pos:pos + 1].tobytes()
            assert guess_s.tobytes() == guess_b[pos:pos + 1].tobytes()


def _table_and_profile(request, table):
    spec = request.getfixturevalue(table)
    return spec, table_profile(spec)


@pytest.mark.parametrize("table", ["circle", "ellipse21", "profile_a_table",
                                   "mode6_table"])
def test_conjugate_scan_warm_first_solve_keeps_detections(table, request):
    # beam-scan's first guess, phi + 2 delta, moves the first solve's
    # start only: the scan detects at the same steps as a cold one
    spec, profile = _table_and_profile(request, table)
    _, delta, p, phi = scan_starts(spec, profile, 256, seed=42)
    cold = conjugate_scan(spec, p, phi, 100)
    warm = conjugate_scan(spec, p, phi, 100, phi + 2.0 * delta)
    assert np.array_equal(warm, cold)
    # the integrable tables detect nothing, the profile tables something
    assert np.any(cold >= 0) == (table not in ("circle", "ellipse21"))


@pytest.mark.parametrize("table, bound", [
    ("circle", 2), ("ellipse21", 9), ("profile_a_table", 6),
    ("mode6_table", 10),
])
def test_conjugate_scan_warm_first_solve_saves_jets(table, bound, request,
                                                    monkeypatch):
    # table jet calls of one scan step from the 256 seed-42 starts: 16
    # from the bracket midpoint on every table, 2 / 9 / 6 / 10 from
    # phi + 2 delta (one of them is the jet of the solved bounce)
    spec, profile = _table_and_profile(request, table)
    _, delta, p, phi = scan_starts(spec, profile, 256, seed=42)
    calls = [0]
    jet = type(spec).jet

    def counted(self, psi):
        calls[0] += 1
        return jet(self, psi)

    monkeypatch.setattr(type(spec), "jet", counted)
    conjugate_scan(spec, p, phi, 1)
    assert calls[0] == 16
    calls[0] = 0
    conjugate_scan(spec, p, phi, 1, phi + 2.0 * delta)
    assert calls[0] <= bound


def test_conjugate_scan_guess_shape_must_match(ellipse21, ellipse21_profile):
    _, delta, p, phi = scan_starts(ellipse21, ellipse21_profile, 4, seed=1)
    for p0, phi0, guess in ((p, phi, phi[:3]), (p, phi, float(phi[0])),
                            (float(p[0]), float(phi[0]), phi[:1])):
        with pytest.raises(ValueError, match="guess of shape"):
            conjugate_scan(ellipse21, p0, phi0, 5, guess)


def test_conjugate_scan_starts_must_be_floats_or_1d(ellipse21,
                                                    ellipse21_profile):
    # a 2-d start array is refused by name, before any step
    _, _, p, phi = scan_starts(ellipse21, ellipse21_profile, 8, seed=1)
    for p0, phi0 in ((p.reshape(2, 4), phi.reshape(2, 4)),
                     (p, phi.reshape(2, 4)), (p.reshape(2, 4), phi)):
        with pytest.raises(ValueError, match=r"starts of shape \(2, 4\)"):
            conjugate_scan(ellipse21, p0, phi0, 30)


def _harmonic_increments(amps, steps=RING + 1, starts=8, omega=0.7):
    # D_n = 1.3 + sum_k a_k cos(k (theta + n omega) + 0.3 k), one column
    # per start phase theta
    n = np.arange(steps)[:, None]
    theta = np.linspace(0.1, 6.0, starts)[None, :]
    d = np.full((steps, starts), 1.3)
    for k, a in enumerate(amps, 1):
        d = d + a * np.cos(k * (theta + n * omega) + 0.3 * k)
    return d


def _next_increment(row, const, ring):
    return const + np.einsum("ks,ks->s", row, ring[-len(row):])


def test_fit_predicts_three_harmonics():
    # three harmonics plus a constant satisfy the order-6 recurrence, so
    # the next increment is predicted to rounding
    d = _harmonic_increments((0.3, 0.1, 0.03))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row, const, flat = _fit(d[:RING])
    assert not np.any(flat)
    assert np.max(np.abs(_next_increment(row, const, d[:RING])
                         - d[RING])) <= 1e-10


@pytest.mark.parametrize("amps", [(0.3,), ()], ids=["one_harmonic", "flat"])
def test_fit_rank_deficient_windows_stay_finite(amps):
    # one harmonic or none leaves the order-6 normal equations singular,
    # and none the order-2 one too; the fit neither raises nor warns, and
    # still predicts.  _fit leaves a flat window unfitted
    d = _harmonic_increments(amps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row, const = _predictors(d[:RING])
        fitted = _fit(d[:RING])
    assert np.all(np.isfinite(row)) and np.all(np.isfinite(const))
    assert np.max(np.abs(_next_increment(row, const, d[:RING])
                         - d[RING])) <= 1e-10
    if amps:
        assert not np.any(fitted[2])
        assert np.array_equal(fitted[0], row)
    else:
        assert fitted == (None, None, None)


def test_fit_empty_window():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _fit(np.empty((RING, 0))) == (None, None, None)
        row, const = _predictors(np.empty((RING, 0)))
        assert row.shape == (6, 0) and const.shape == (0,)
        warm = _Scan(np.empty(0), np.empty(0), None)
        for n in range(2 * RING + 1):
            warm.record(np.empty(0))
            if n + 1 >= RING:
                assert warm.roll(1)[0].shape == (0,)


@pytest.mark.parametrize("with_varying", [True, False])
def test_warm_start_flat_window_keeps_delta(with_varying):
    # a start with constant increments (flat) gets exactly 2 phi1 - phi
    # once fitted, whether or not other starts are fitted beside it; a
    # three-harmonic start gets its next phi to rounding, long after the
    # fit.  The same rows recorded as a scan does, RING single rows and
    # then blocks of BLOCK_STEPS, roll the bits of the single rows
    steps = 10 * RING
    d = _harmonic_increments((0.3, 0.1, 0.03), steps=steps + 1, starts=3)
    d[:, 0] = 1.25
    if not with_varying:
        d = d[:, :1]
    phis = np.concatenate([np.full((1, d.shape[1]), 0.5),
                           0.5 + np.cumsum(d, axis=0)])
    warm = _Scan(np.zeros_like(phis[0]), phis[0], None)
    blocked = _Scan(np.zeros_like(phis[0]), phis[0], None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(steps):
            phi, phi1 = phis[n], phis[n + 1]
            warm.record(phi1 - phi)
            warm.phi = blocked.phi = phi1
            if n + 1 >= RING:
                guess = warm.roll(1)[0]
                assert np.all(np.isfinite(guess))
                assert guess[0] == 2.0 * phi1[0] - phi[0]
                assert np.all(np.abs(guess[1:] - phis[n + 2, 1:]) <= 1e-9)
            if n + 1 <= RING:
                blocked.record(phi1 - phi)
            elif (n + 1 - RING) % BLOCK_STEPS == 0:
                first = n + 1 - BLOCK_STEPS
                blocked.record(phis[first + 1:n + 2] - phis[first:n + 1])
            if n + 1 >= RING and (n + 1 - RING) % BLOCK_STEPS == 0:
                assert (blocked.roll(BLOCK_STEPS).tobytes()
                        == warm.roll(BLOCK_STEPS).tobytes())


def test_scan_keep_drops_every_field():
    # a scan of 8 fitted starts that keeps some of them holds the bytes of
    # a scan that recorded only those: every field, and the guesses it rolls
    d = _harmonic_increments((0.3, 0.1, 0.03), steps=RING + 1)
    rng = np.random.default_rng(5)
    p, phi, guess, dp, dphi, sign = rng.standard_normal((6, d.shape[1]))
    live = np.array([True, False, False, True, True, False, True, False])
    scans = []
    for cols in (slice(None), live):
        scan = _Scan(p[cols], phi[cols], guess[cols])
        scan.dp, scan.dphi, scan.sign = dp[cols], dphi[cols], sign[cols]
        for row in d[:, cols]:
            scan.record(row)
        scans.append(scan)
    whole, kept = scans
    assert whole.row is not None and not whole.flat.any()
    whole.keep(live)
    assert vars(whole).keys() == vars(kept).keys()
    for name, field in vars(kept).items():
        assert vars(whole)[name].tobytes() == field.tobytes(), name
    assert (whole.roll(BLOCK_STEPS).tobytes()
            == kept.roll(BLOCK_STEPS).tobytes())


def test_blocks_hold_no_single_step_guess(ellipse21, ellipse21_profile,
                                          monkeypatch):
    # the single steps' guess 2 phi1 - phi is not made at the last of
    # them, whose next step is a block with its own rolled guesses, so
    # keep does not compact it at every later block
    _, delta, p, phi = scan_starts(ellipse21, ellipse21_profile, 16,
                                   seed=42)
    rolls = []
    roll = _Scan.roll

    def checked(self, k):
        rolls.append(self.guess)
        return roll(self, k)

    monkeypatch.setattr(_Scan, "roll", checked)
    conjugate_scan(ellipse21, p, phi, RING + 3 * BLOCK_STEPS,
                   phi + 2.0 * delta)
    assert len(rolls) == 3
    assert all(guess is None for guess in rolls)


@pytest.mark.parametrize("table, profile", [
    ("mode6_table", "mode6_profile"), ("ellipse21", "ellipse21_profile"),
])
def test_conjugate_scan_steps_only_live_starts(table, profile, request,
                                               monkeypatch):
    # a start that has detected leaves the batch: each step is taken by
    # exactly the starts that have not detected before it (max_steps if
    # never), and the map is computed for those steps, up to the end of
    # the block a start detects in
    spec = request.getfixturevalue(table)
    widths = []
    blocks = []

    def seen(phi, guess):
        widths.append(phi.size)

    def counted_block(spec, p, phi, guesses):
        blocks.append(guesses.size)
        return _block_step(spec, p, phi, guesses)

    monkeypatch.setattr("billiards.beam._scan_step", seen)
    monkeypatch.setattr("billiards.beam._block_step", counted_block)
    max_steps = 100
    _, _, p, phi = scan_starts(spec, request.getfixturevalue(profile), 64,
                               seed=42)
    detections = conjugate_scan(spec, p, phi, max_steps)
    live_steps = sum(int(s) if s >= 0 else max_steps for s in detections)
    assert sum(widths) == live_steps
    computed = sum(widths[:RING]) + sum(blocks)
    late = np.sum(detections > RING)
    assert live_steps <= computed <= live_steps + (BLOCK_STEPS - 1) * late
    if table == "ellipse21":
        assert live_steps == 64 * max_steps
        assert computed == live_steps
    else:
        assert np.any(detections >= 0)


@pytest.mark.parametrize("table, profile", [
    ("mode6_table", "mode6_profile"), ("ellipse21", "ellipse21_profile"),
])
def test_conjugate_scan_evaluates_jets_only_inside_the_map(table, profile,
                                                           request,
                                                           monkeypatch):
    # the S-derivatives of each step come with the map's image, or with a
    # block's roots, so the scan evaluates h nowhere but inside
    # forward_map_batch and _block_step
    spec = request.getfixturevalue(table)
    depth = [0]
    outside = [0]
    jet = type(spec).jet

    def counted_jet(self, psi):
        outside[0] += depth[0] == 0
        return jet(self, psi)

    def inside(fn):
        def counted(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return counted

    _, _, p, phi = scan_starts(spec, request.getfixturevalue(profile), 64,
                               seed=42)
    monkeypatch.setattr(type(spec), "jet", counted_jet)
    monkeypatch.setattr("billiards.beam.forward_map_batch",
                        inside(forward_map_batch))
    monkeypatch.setattr("billiards.beam._block_step", inside(_block_step))
    conjugate_scan(spec, p, phi, 50)
    assert outside[0] == 0


def test_circle_vertical_never_returns(circle):
    # dphi_n = -2n / sin(delta): monotone, one sign for all n
    delta = 0.8
    line = chart_to_line(circle, BoundaryCoord(0.0, delta))
    v = TangentVector(1.0, 0.0, line)
    for n in range(1, 30):
        v = push_tangent(circle, v)
        assert v.dphi == pytest.approx(-2.0 * n / math.sin(delta), rel=1e-9)
        v = TangentVector(v.dp, v.dphi, v.line)


def test_fit_peak_memory_per_start():
    # the normal equations of _predictors are summed one equation at a time;
    # the (19, 4, 4, starts) outer product they replace peaked at 3.35 KB
    # per start for a ring of 25, the streamed sum measured 1.18 KB, and
    # 0.89 KB for the ring of 16
    n = 16384
    rng = np.random.default_rng(5)
    angle = (rng.uniform(0.0, 2.0 * math.pi, n)
             + np.arange(RING)[:, None] * rng.uniform(0.5, 1.5, n))
    ring = 1.0 + 0.1 * np.cos(angle) + 0.01 * np.cos(3.0 * angle)
    tracemalloc.start()
    try:
        row, _, _ = _fit(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.shape == (6, n)
    assert peak / n <= 1000.0


def test_scan_peak_memory_per_start(ellipse21, ellipse21_profile):
    # the traced peak per start that cli.MAX_POINTS rests on (1672 B
    # measured): the whole beam-scan, ring, fit and blocks included.  A
    # scan that keeps a block's arrays through the next block fails it
    # (1938 B at blocks of 6)
    n = 4096
    _, delta, p, phi = scan_starts(ellipse21, ellipse21_profile, n, seed=42)
    conjugate_scan(ellipse21, p, phi, 40, phi + 2.0 * delta)
    tracemalloc.start()
    try:
        conjugate_scan(ellipse21, p, phi, 40, phi + 2.0 * delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 1792.0
