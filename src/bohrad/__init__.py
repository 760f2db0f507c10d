"""Bohr-type radii for operator-valued holomorphic functions.

Numerical toolkit for majorant-series inequalities on simply connected
domains: weight-sequence kernels, inequality functionals, minimal-root
radius solving, polynomial calibration, Bloch-space radii, and a CLI
that reproduces the reference tables and runs sharpness probes.
"""

from .bloch import (HyperbolicDensity, bloch_majorant_check, bloch_radius,
                    bloch_radius_gamma, bloch_refined_radius, m_integral)
from .errors import (BohradError, ConfigurationError, DomainError,
                     InfeasibleError, InvalidTestFunctionError, NoRootError,
                     NonConvergenceError, SingularIntegrandError)
from .functionals import (DEFAULT_A_GRID, FunctionalReport, MuFunction,
                          bohr_area_functional, bohr_beta_functional,
                          bohr_energy_functional, classical_functional,
                          majorant, mobius_partial_modulus, per_function_radius,
                          problem_functional, refined_at, refined_functional,
                          rogosinski_at, rogosinski_functional, sharpness_probe)
from .phi import (BUILTIN_PHI, EVEN_ONLY, MONOMIAL, ODD_ONLY, WEIGHTED_LINEAR,
                  WEIGHTED_QUADRATIC, PhiSequence, phi_tail, phi_term,
                  refined_sum)
from .polynomials import (MonotonicityReport, PolySpec, area_poly_coeffs,
                          area_scale, calibrate_area_poly, calibration_residual,
                          monotonicity_check, peak_weight)
from .radii import (OddRadiusPair, RadiusProblem, TableRow, VerifyReport, closed_form_radius,
                    non_improvable, radius_refined, radius_rogosinski,
                    reproduce_all_tables, reproduce_table, rp_bounds, verify)
from .roots import (RootResult, count_sign_changes, decreasing_root, increasing_root,
                    min_positive_root)
from .series import (CoeffBoundReport, CoeffSeries, DomainSpec, MatrixCoeffFn,
                     check_coeff_bound, diag_blend_coeffs, mobius_gamma_coeffs,
                     operator_norm, point_eval_bound, s_r,
                     schwarz_composed_bound)

__version__ = "0.1.0"
