"""Convex planar billiards from support functions.

Tables are convex curves of positive curvature given by a support function
h(psi); the billiard map acts on oriented lines through a generating
function in the (p, phi) chart.  The package covers the map in both
symplectic charts with an independent geometric oracle, slope/conjugate
point analysis of line beams, the structure theory of invariant curves of
4-periodic orbits, and the integral-identity chain that reduces the
associated inequality to a Wirtinger-type spectral gap.

`import billiards` loads no submodule: each public name below is imported
from the module that defines it when it is first used (PEP 562), so a
caller, the command line among them, loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines each
_NAMES = {
    "billmap": ("BoundaryCoord", "LineCoord", "SDerivatives", "boundary_point",
                "chart_to_line", "forward_map", "generating_S",
                "geometric_reflect", "inverse_map", "jacobian_check_batch",
                "line_to_chart", "p_of", "s_derivatives"),
    "beam": ("TangentVector", "conjugate_scan", "monotone_bounds",
             "push_tangent", "riccati_step"),
    "errors": ("AliasingWarning", "BilliardError", "CurvatureViolation",
               "GrazingRay", "MonotonicityBreak", "NoRealCaustic",
               "OutsideCylinder", "SolverError", "SpecError"),
    "fourperiodic": ("BeamState", "PonceletQuad", "table_profile",
                     "verify_d_h_relations", "verify_orthoptic",
                     "verify_parallelogram", "verify_rectangle"),
    "profiles": ("AngleProfile", "EllipseProfile", "ellipse_profile",
                 "validate_profile"),
    "supportfn": ("EllipseTable", "FourierTable", "Jet2", "ProfileTable",
                  "SupportSpec", "arclength_of_psi", "ellipse_support",
                  "is_centrally_symmetric", "load_table", "perimeter",
                  "table_from_dict", "table_from_profile", "table_to_dict",
                  "validate_table"),
    "wirtinger": ("HopfDefect", "IntegralReport", "PeriodicSamples",
                  "equality_reconstruct", "hopf_identity_ellipse",
                  "integrand_U", "integrand_inner", "periodic_quadrature",
                  "reduction_chain", "spectral_gap", "spectral_derivative",
                  "split_U"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
