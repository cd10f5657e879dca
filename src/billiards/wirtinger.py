"""Integral-identity pipeline reducing the billiard inequality to a
Wirtinger-type spectral gap.

Starting point is the pointwise integrand over the region below the
invariant curve (coordinates (psi, delta), measure already absorbed):

    inner(psi, delta) = cos^2 d sin^2 d (h'' h^2 + 3 h h'^2)(h + h'')
                        - sin^2 d  h h'^2 (h + h'')          (d := delta)

Integrating in delta up to d(psi) gives U(psi); with h = R sin d the
integrand splits as U = U1 + U2 + U3, symmetrizes under
psi -> psi + pi/2 into V1..V3, integrates by parts into W1..W3 (boundary
terms vanish by pi-periodicity), and collapses to

    P = (pi R^4 / 512) ((mu'')^2 - 4 (mu')^2),    mu := cos 2d,

so that  int_0^pi U = int_0^pi P,  with each intermediate integral
conserved step by step.  For pi-periodic mu the right side is the
Wirtinger gap: nonnegative, zero exactly when mu has only the constant
and first pi-harmonic, i.e. on the ellipse family.

Each intermediate integrand is implemented as its own fixed closed form
rather than re-derived from the previous stage; the point of this module
is to certify the chain numerically, which only means something if the
stages stay independent.  Quadratures take the correctly rounded sum (by
exact extraction: math.fsum's bits), as the integrals cancel at size R^4.

reduction_chain walks its grid in blocks of BLOCK points.  Per block it
takes one profile jet and one _Trig record (sin and cos of d, 2d, 4d)
that every stage reads, and splits each stage's samples into exact parts
(_exact_parts); one math.fsum over a quadrature's parts from all blocks
gives the bits of math.fsum over the whole grid.  Temporaries are O(BLOCK);
only mu = cos 2d is kept whole, for the FFT gap and max |mu|.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .billmap import LineCoord, forward_map_batch
from .errors import AliasingWarning, NoRealCaustic
from .profiles import validate_profile
from .supportfn import ProfileTable, SupportSpec, _support_jet_sc, \
    ellipse_support, validate_table


# points per reduction_chain block: its float64 temporaries (64 KB) stay
# under glibc's 128 KB mmap threshold, so they are reused from the heap
# rather than faulted in as fresh pages on every call.  Live at once are
# the whole mu, one block's jet and _Trig record (9 arrays) and the
# temporaries of one stage (10 at most, in the direct U): at n = 65536 a
# traced peak of 1.7 MiB and about 510 minor page faults per call
BLOCK = 8192


# --- periodic grids ----------------------------------------------------------


@dataclass(frozen=True)
class PeriodicSamples:
    """Uniform samples of a periodic function; n a power of two, >= 64."""

    values: np.ndarray
    period: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        n = vals.shape[0]
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size {n} must be a power of two >= 64")
        if self.period not in (math.pi, 2.0 * math.pi):
            raise ValueError(f"period must be pi or 2*pi, got {self.period}")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def periodic_quadrature(samples: PeriodicSamples) -> float:
    """Rectangle rule on the periodic grid (spectrally accurate) over the
    correctly rounded sum, by exact extraction: the bits of math.fsum."""
    return (samples.period / samples.n) * _exact_sum(samples.values)


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values.tolist()), from the exact parts of values."""
    return math.fsum(_exact_parts(values))


def _exact_parts(values: np.ndarray) -> list:
    """Floats whose exact sum is that of values, so that math.fsum of the
    parts of any blocks of an array gives the bits of math.fsum over it.

    Error-free extraction (Rump, Ogita & Oishi 2008): with |r| <= 2^e
    and 2^k >= n + 2, each level splits r into q = (sigma + r) - sigma,
    sigma = 2^(e + k), a multiple of 2^-53 sigma with |q| <= 2^e that
    np.sum adds exactly, and the exact r - q.  The first e bounds the
    largest |value|; as |r - q| <= 2^-53 sigma, each later level takes
    sigma' = 2^(k - 53) sigma.  The few entries left are parts themselves.
    Non-finite and near-overflow input is its own parts, so fsum meets its
    non-finite and huge items in the array's order."""
    n = values.shape[0]
    top = float(values.max(initial=0.0))
    bottom = float(values.min(initial=0.0))
    if not (top < 2.0**900 and -bottom < 2.0**900):
        return values.tolist()
    k, r, parts = (n + 1).bit_length(), values, []
    sigma = math.ldexp(1.0, math.frexp(max(top, -bottom))[1] + k)
    while True:
        q = (sigma + r) - sigma
        parts.append(float(np.sum(q)))
        r = r - q
        left = r != 0.0
        if 16 * np.count_nonzero(left) <= n:    # fsum finishes the few left
            return parts + r[left].tolist()
        sigma = math.ldexp(sigma, k - 53)


def spectral_derivative(samples: PeriodicSamples, order: int) -> PeriodicSamples:
    """Differentiate via the discrete Fourier transform.

    Exact for band-limited input below Nyquist; warns (AliasingWarning)
    when the top mode carries a > 1e-10 fraction of the non-constant
    energy.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    n = samples.n
    spectrum = np.fft.rfft(samples.values)
    energy = np.abs(spectrum[1:]) ** 2
    total = float(np.sum(energy))
    if total > 0.0 and float(energy[-1]) / total > 1e-10:
        warnings.warn(
            f"top-mode energy fraction {float(energy[-1]) / total:.3g} "
            "suggests the grid under-resolves the data", AliasingWarning)
    omega0 = 2.0 * math.pi / samples.period
    k = np.arange(n // 2 + 1)
    factor = (1j * omega0 * k) ** order
    if order % 2 == 1:
        factor[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return PeriodicSamples(np.fft.irfft(spectrum * factor, n), samples.period)


# --- pointwise integrands ----------------------------------------------------


def integrand_inner(spec: SupportSpec, psi, delta):
    """Pointwise integrand on the phase region, before delta-integration."""
    h, dh, ddh = spec.jet(psi)
    rho = h + ddh
    c = np.cos(delta)
    s = np.sin(delta)
    return (c * c * s * s * (ddh * h * h + 3.0 * h * dh * dh) * rho
            - s * s * h * dh * dh * rho)


def integrand_U(spec: SupportSpec, profile, psi):
    """U(psi): integrand_inner integrated in delta over [0, d(psi)].

    Closed form with weights (d/2 - sin 2d / 4) and (d/8 - sin 4d / 32).
    """
    jet = spec.jet(psi)
    d = profile.jet(psi)[0]
    return _u_from_sin(jet, d, np.sin(2.0 * d), np.sin(4.0 * d))


def _u_from_sin(jet, d, s2, s4):
    """U from the table's jet, d, s2 = sin 2d and s4 = sin 4d."""
    h, dh, ddh = jet
    rho = h + ddh
    w_low = 0.5 * d - 0.25 * s2
    w_high = 0.125 * d - s4 / 32.0
    return -h * dh * dh * rho * w_low + (ddh * h * h + 3.0 * h * dh * dh) * rho * w_high


def split_U(profile, R: float, psi):
    """The three-way split of U for a table in profile form (h = R sin d):

        U1 = h h'^2 (h + h'') sin 2d / 4
        U2 = -h (h + h'')(3 h'^2 + h h'') sin 4d / 32
        U3 = h (h + h'')(h h'' - h'^2) d / 8
    """
    d = profile.jet(psi)[0]
    h, dh, ddh = ProfileTable(profile, R).jet(psi)
    rho = h + ddh
    u1 = 0.25 * h * dh * dh * rho * np.sin(2.0 * d)
    u2 = -h * rho * (3.0 * dh * dh + h * ddh) * np.sin(4.0 * d) / 32.0
    u3 = 0.125 * h * rho * (h * ddh - dh * dh) * d
    return u1, u2, u3


# --- the reduction chain in d-only form ---------------------------------------
#
# q denotes (d')^2 below; every expression is the printed closed form.
# The stages read sin and cos of d, 2d and 4d from one _Trig record.


class _Trig(NamedTuple):
    s: np.ndarray     # sin d
    c: np.ndarray     # cos d
    s2: np.ndarray    # sin 2d
    c2: np.ndarray    # cos 2d
    s4: np.ndarray    # sin 4d
    c4: np.ndarray    # cos 4d


def _trig(d) -> _Trig:
    d2, d4 = 2.0 * d, 4.0 * d
    return _Trig(np.sin(d), np.cos(d), np.sin(d2), np.cos(d2),
                 np.sin(d4), np.cos(d4))


def _u_parts_d(d, dp, ddp, R, t: _Trig):
    q = dp * dp
    s, c, s2, s4 = t.s, t.c, t.s2, t.s4
    R4 = R**4
    u1 = (R4 / 8.0) * q * s2 * s2 * ((1.0 - q) * 0.5 * s2 + ddp * c * c)
    u2 = -(R4 / 32.0) * s4 * ((1.0 - q) * s * s + 0.5 * s2 * ddp) \
        * (q * (4.0 * c * c - 1.0) + 0.5 * s2 * ddp)
    u3 = (R4 / 16.0) * d * s * ((1.0 - q) * s + ddp * c) * (ddp * s2 - 2.0 * q)
    return u1, u2, u3


def _v_parts_d(d, dp, ddp, R, t: _Trig):
    q = dp * dp
    c, s2, c2, s4 = t.c, t.s2, t.c2, t.s4
    R4 = R**4
    v1 = (R4 / 16.0) * q * s2 * s2 * ((1.0 - q) * s2 + ddp * c2)
    v2 = (R4 / 128.0) * s4 * (2.0 * q * (q - 1.0) * c2 - ddp * (1.0 + q) * s2)
    v3 = ((R4 / 32.0) * (math.pi * c * c - 2.0 * d * c2) * (q * q - q)
          + (math.pi * R4 / 128.0) * s2 * s2 * ddp * ddp
          + (R4 / 64.0) * s2 * (2.0 * d - math.pi * c * c) * ddp
          + (R4 / 128.0) * s2 * (math.pi * (3.0 + c2) - 12.0 * d) * q * ddp)
    return v1, v2, v3


def _w_parts_d(d, dp, ddp, R, t: _Trig):
    q = dp * dp
    s2, c2, c4 = t.s2, t.c2, t.c4
    R4 = R**4
    w1 = (R4 / 16.0) * (s2**3 * q
                        - (4.0 * c2 * c2 * s2 + s2**3) * (q * q / 3.0))
    w2 = (R4 / 32.0) * s2 * c4 * q + (R4 / 96.0) * s2 * (2.0 + 3.0 * c4) * q * q
    w3 = ((math.pi * R4 / 128.0) * s2 * s2 * ddp * ddp
          - (R4 / 32.0) * s2 * (1.0 + math.pi * s2) * q
          - (R4 / 192.0) * (math.pi * c4 - 3.0 * (math.pi + 2.0 * s2)) * q * q)
    return w1, w2, w3


def _w_combined_d(d, dp, ddp, R, t: _Trig):
    q = dp * dp
    s2, c4 = t.s2, t.c4
    R4 = R**4
    return (-(math.pi * R4 / 32.0) * s2 * s2 * q
            + (math.pi * R4 / 192.0) * (3.0 - c4) * q * q
            + (math.pi * R4 / 128.0) * s2 * s2 * ddp * ddp)


def mu_jet(profile, psi):
    """mu = cos 2d and its chain-rule derivatives at psi."""
    d, dp, ddp = profile.jet(psi)
    return _mu_from_sc(np.sin(2.0 * d), np.cos(2.0 * d), dp, ddp)


def _mu_from_sc(s2, mu, dp, ddp):
    """mu_jet from s2 = sin 2d and mu = cos 2d."""
    dmu = -2.0 * s2 * dp
    ddmu = -4.0 * mu * dp * dp - 2.0 * s2 * ddp
    return mu, dmu, ddmu


def integrand_P(profile, R: float, psi):
    """P = (pi R^4 / 512)((mu'')^2 - 4 (mu')^2)."""
    _, dmu, ddmu = mu_jet(profile, psi)
    return _p_from_mu(dmu, ddmu, R)


def _p_from_mu(dmu, ddmu, R):
    return (math.pi * R**4 / 512.0) * (ddmu * ddmu - 4.0 * dmu * dmu)


def spectral_gap(profile, R: float, n: int) -> float:
    """The P-integral from the Fourier coefficients of mu.

    With mu = sum a_k cos 2k psi + b_k sin 2k psi on period pi, the gap is
    (pi R^4/512) * (pi/2) * sum ((2k)^4 - 4 (2k)^2)(a_k^2 + b_k^2).
    """
    validate_profile(profile)  # 0 < d < pi/2 is what keeps |mu| < 1
    return _gap_from_mu(mu_jet(profile, np.arange(n) * (math.pi / n))[0], R)


def _gap_from_mu(mu, R):
    # the ufuncs of the plain 4 |c_k / n|^2 ((2k)^4 - 4 (2k)^2) in their
    # order, in place where they can be, so every bit stays: beside mu (8n
    # bytes) the spectrum (8n) and amp2 (4n) are live, then amp2 and two
    # n/2 arrays.  At n = 2^18 this is the chain's peak, 2.55 x 8n, and
    # about 990 of its 2240 minor page faults per call
    n = mu.shape[0]
    spectrum = np.fft.rfft(mu)
    spectrum /= n
    spectrum = spectrum[1:]
    nyquist = spectrum[-1].real**2  # Nyquist carries no factor 2
    amp2 = np.square(spectrum.real)
    amp2 += np.square(spectrum.imag, out=spectrum.imag)
    amp2 *= 4.0
    amp2[-1] = nyquist
    del spectrum
    freq2 = 2.0 * np.arange(1, n // 2 + 1)
    np.square(freq2, out=freq2)
    terms = np.square(freq2)
    freq2 *= 4.0
    terms -= freq2
    terms *= amp2
    # summed in mode order, k = 1 first: cumsum adds sequentially, where
    # np.sum would pair terms up and move the last digits
    total = float(np.cumsum(terms, out=terms)[-1])
    return (math.pi * R**4 / 512.0) * (math.pi / 2.0) * total


# --- the full chain ------------------------------------------------------------


# each stage after U, in the chain's order, and the fields it fills
_STAGES = ((_u_parts_d, ("I_U1", "I_U2", "I_U3")),
           (_v_parts_d, ("I_V1", "I_V2", "I_V3")),
           (_w_parts_d, ("I_W1", "I_W2", "I_W3")), (_w_combined_d, ("I_W",)))


def _conserved(residual: float, R: float) -> bool:
    """A conservation residual within 1e-8 max(1, R^4)."""
    return residual <= 1e-8 * max(1.0, R**4)


@dataclass(frozen=True)
class IntegralReport:
    """Quadrature values along the reduction chain and their residuals."""

    n: int
    R: float
    I_U_direct: float
    I_U1: float
    I_U2: float
    I_U3: float
    I_U_parts: float
    I_V1: float
    I_V2: float
    I_V3: float
    I_W1: float
    I_W2: float
    I_W3: float
    I_W: float
    I_P: float
    wirtinger_gap: float
    gap_spectral: float
    residual_UP: float
    residual_UW: float
    stepwise_UV: tuple
    stepwise_VW: tuple
    conv_delta_U: float
    conv_delta_P: float
    mu_max: float
    identity_ok: bool
    stepwise_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def verdicts(self) -> tuple:
        """(label, passed, residual) per check `billiard integral` prints."""
        return (("int U == int P", self.identity_ok, self.residual_UP),
                ("int U == int W", _conserved(self.residual_UW, self.R),
                 self.residual_UW),
                ("stepwise int Uj == int Vj == int Wj", self.stepwise_ok,
                 max(self.stepwise_UV + self.stepwise_VW)),
                ("wirtinger gap >= 0", self.I_P >= -1e-9 * self.R**4,
                 self.I_P))


def reduction_chain(profile, R: float, n: int = 1024, *,
                    require_convex: bool = True) -> IntegralReport:
    """Run the whole chain U -> (U1,U2,U3) -> V -> W -> P by spectral
    quadrature over [0, pi] and report every integral and residual.

    The chain is an identity for any smooth admissible profile; the table
    itself must additionally be convex to mean anything dynamically, so
    rho > 0 is enforced unless require_convex is False (diagnostics on
    non-convex profiles).  identity_ok holds when |I_U - I_P| <= 1e-6
    (1 + |I_U|); stepwise_ok when every stepwise residual is within
    1e-8 max(1, R^4).
    """
    R = float(R)
    if n < 64 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size {n} must be a power of two >= 64")
    validate_profile(profile)
    table = ProfileTable(profile, R)
    if require_convex:
        validate_table(table)

    # per block every stage reads one profile jet and one _Trig record, and
    # each quadrature collects its exact parts under its report field: U and
    # P, also on the half grid (every other sample; BLOCK is even), then the
    # _STAGES, each reduced as soon as it is computed.  A block is dropped
    # before the next one is taken
    mu = np.empty(n)
    parts, half = defaultdict(list), defaultdict(list)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        d, dp, ddp = profile.jet(np.arange(lo, hi) * (math.pi / n))
        t = _trig(d)
        mu[lo:hi] = t.c2
        values = _u_from_sin(_support_jet_sc(R, t.s, t.c, dp, ddp), d,
                             t.s2, t.s4)
        parts["I_U_direct"] += _exact_parts(values)
        half["I_U_direct"] += _exact_parts(values[::2])
        values = _p_from_mu(*_mu_from_sc(t.s2, t.c2, dp, ddp)[1:], R)
        parts["I_P"] += _exact_parts(values)
        half["I_P"] += _exact_parts(values[::2])
        for stage, fields in _STAGES:
            values = stage(d, dp, ddp, R, t)
            for field, values in zip(fields, values if len(fields) > 1
                                     else (values,)):
                parts[field] += _exact_parts(values)
        del d, dp, ddp, t, values
    integrals = {field: (math.pi / n) * math.fsum(c)
                 for field, c in parts.items()}
    I_U_half, I_P_half = ((math.pi / (n // 2)) * math.fsum(c)
                          for c in half.values())
    mu_max, gap_fft = float(np.max(np.abs(mu))), _gap_from_mu(mu, R)
    if not all(math.isfinite(v) for v in integrals.values()):
        raise ValueError("non-finite integral in the reduction chain")

    I_U, I_V, I_W = ([integrals[field] for field in fields]
                     for _, fields in _STAGES[:3])
    I_U_direct, I_P = integrals["I_U_direct"], integrals["I_P"]
    stepwise_UV = tuple(abs(a - b) for a, b in zip(I_U, I_V))
    stepwise_VW = tuple(abs(a - b) for a, b in zip(I_V, I_W))
    return IntegralReport(
        n=n, R=R, **integrals, I_U_parts=math.fsum(I_U),
        wirtinger_gap=I_P, gap_spectral=gap_fft,
        residual_UP=abs(I_U_direct - I_P),
        residual_UW=abs(I_U_direct - integrals["I_W"]),
        stepwise_UV=stepwise_UV, stepwise_VW=stepwise_VW,
        conv_delta_U=abs(I_U_direct - I_U_half),
        conv_delta_P=abs(I_P - I_P_half),
        mu_max=mu_max,
        identity_ok=abs(I_U_direct - I_P) <= 1e-6 * (1.0 + abs(I_U_direct)),
        stepwise_ok=all(_conserved(r, R)
                        for r in stepwise_UV + stepwise_VW))


# --- pointwise equality case on ellipses ---------------------------------------


class HopfDefect(NamedTuple):
    defect: float        # residual of the weighted slope identity
    amgm_defect: float   # p^2 nu1 + p1^2/nu1 - 2 p p1
    nu1: float
    p_ratio: float       # p1 / p
    lam: float           # confocal caustic parameter


def hopf_identity_ellipse(a: float, b: float, line: LineCoord) -> HopfDefect:
    """Evaluate the weighted slope identity on a confocal-caustic line.

    The slope field comes from the invariant graph p = h_lam(phi):
    omega = (b^2 - a^2) sin 2phi / (2p).  On the ellipse both defects
    vanish: the AM-GM equality pins nu1 = p1/p.
    """
    a, b = float(a), float(b)
    spec = ellipse_support(a, b)
    p, phi = float(line.p), float(line.phi)
    lam = a * a * math.cos(phi) ** 2 + b * b * math.sin(phi) ** 2 - p * p
    if not (0.0 < lam < b * b):
        raise NoRealCaustic(
            f"lambda = {lam:.6g} outside (0, {b * b:.6g}): line crosses "
            "between the foci or exits the monotone region")
    p1, phi1, sd = forward_map_batch(spec, p, phi)
    omega = (b * b - a * a) * math.sin(2.0 * phi) / (2.0 * p)
    omega1 = (b * b - a * a) * math.sin(2.0 * phi1) / (2.0 * p1)
    nu1 = (-sd.s11 - omega) / sd.s12
    lhs = p1 * p1 * omega1 - p * p * omega
    rhs = p * p * sd.s11 + p1 * p1 * sd.s22 \
        + sd.s12 * (p * p * nu1 + p1 * p1 / nu1)
    amgm = p * p * nu1 + p1 * p1 / nu1 - 2.0 * p * p1
    return HopfDefect(defect=lhs - rhs, amgm_defect=amgm, nu1=nu1,
                      p_ratio=p1 / p, lam=lam)


def equality_reconstruct(A: float, R: float) -> tuple[float, float]:
    """Semi-axes of the table whose profile satisfies cos 2d = A cos 2psi.

    h^2 = R^2 (1 - A)/2 cos^2 psi + R^2 (1 + A)/2 sin^2 psi, so the axes
    are (R sqrt((1-A)/2), R sqrt((1+A)/2)) along the x/y directions; A = 0
    gives a circle.  A = 1 is excluded since d may not vanish.  The phase
    of the profile is assumed zero; a rotated table corresponds to a
    nonzero phase and is not reconstructed here.
    """
    A, R = float(A), float(R)
    if not (0.0 <= A < 1.0):
        raise ValueError(f"A = {A} outside [0, 1)")
    if not R > 0.0:
        raise ValueError(f"R = {R} must be positive")
    return R * math.sqrt((1.0 - A) / 2.0), R * math.sqrt((1.0 + A) / 2.0)
