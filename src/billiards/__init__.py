"""Convex planar billiards from support functions.

Tables are convex curves of positive curvature given by a support function
h(psi); the billiard map acts on oriented lines through a generating
function in the (p, phi) chart.  The package covers the map in both
symplectic charts with an independent geometric oracle, slope/conjugate
point analysis of line beams, the structure theory of invariant curves of
4-periodic orbits, and the integral-identity chain that reduces the
associated inequality to a Wirtinger-type spectral gap.
"""

__version__ = "0.1.0"

from .billmap import (BoundaryCoord, LineCoord, SDerivatives, boundary_point,
                      chart_to_line, forward_map, generating_S,
                      geometric_reflect, inverse_map, jacobian_check_batch,
                      line_to_chart, p_of, s_derivatives)
from .beam import (BeamState, TangentVector, conjugate_scan, monotone_bounds,
                   push_tangent, riccati_step)
from .errors import (AliasingWarning, BilliardError, CurvatureViolation,
                     GrazingRay, MonotonicityBreak, NoRealCaustic,
                     OutsideCylinder, SolverError, SpecError)
from .fourperiodic import (AngleProfile, EllipseProfile, PonceletQuad,
                           ellipse_profile, table_profile,
                           validate_profile, verify_d_h_relations,
                           verify_orthoptic, verify_parallelogram,
                           verify_rectangle)
from .supportfn import (EllipseTable, FourierTable, Jet2, ProfileTable,
                        SupportSpec, arclength_of_psi, ellipse_support,
                        is_centrally_symmetric, load_table,
                        perimeter, table_from_dict, table_from_profile,
                        table_to_dict, validate_table)
from .wirtinger import (HopfDefect, IntegralReport, PeriodicSamples,
                        equality_reconstruct, hopf_identity_ellipse,
                        integrand_U, integrand_inner, periodic_quadrature,
                        reduction_chain, spectral_gap, spectral_derivative,
                        split_U)
