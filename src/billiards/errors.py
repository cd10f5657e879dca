"""Exception types shared across the package."""


class BilliardError(Exception):
    """Base class for all domain errors."""


class CurvatureViolation(BilliardError):
    """Curvature radius rho = h + h'' is not strictly positive on the grid."""


class GrazingRay(BilliardError):
    """Incidence angle below the 1e-9 floor; the chord solver degenerates."""


class OutsideCylinder(BilliardError):
    """Line coordinates (p, phi) violate -h(phi+pi) < p < h(phi)."""


class MonotonicityBreak(BilliardError):
    """Riccati factor nu1 <= 0: the evolved tangent line crossed vertical."""

    def __init__(self, nu1):
        super().__init__(f"nu1 = {nu1} is not positive (conjugate event)")
        self.nu1 = nu1


class NoRealCaustic(BilliardError):
    """Caustic parameter lambda falls outside (0, b**2)."""


class SolverError(BilliardError):
    """The root solver did not meet its floor within its iteration cap;
    usually signals an invalid table or a line outside the cylinder."""


class SpecError(ValueError):
    """A table spec that does not parse: not an object, unknown type, a
    non-numeric or non-finite field, or a malformed d_modes row."""


class AliasingWarning(UserWarning):
    """Sampled data carries non-negligible energy in the top spectral mode."""
