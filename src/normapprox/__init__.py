"""Closed-form approximations of the standard normal CDF and its inverse,
scored against a self-validated high-precision oracle."""

from .approximations import (DEFAULT_PHI9, ApproxDescriptor, Phi9Coefficients,
                             eval_cdf_approx, eval_cdf_extended,
                             list_approximations, phi9_linear_coefficient)
from .errors import DomainError
from .inverse import (d1_poly, polya_cdf, quantile_approx, z1_schmeiser,
                      z2_shore, z3_proposed)
from .metrics import (DEFAULT_INVERSE_GRID, GRID_A, GRID_B, ErrorReport,
                      GridSpec, InverseRow, compute_error_report,
                      error_curve, inverse_table)
from .reconcile import (CoefficientVariant, ReconciliationReport,
                        generate_variants, reconcile_phi9)
from .reference import (oracle_cross_check, quadrature_cdf, ref_cdf,
                        ref_quantile)

__version__ = "0.1.0"

__all__ = [
    "ApproxDescriptor",
    "CoefficientVariant",
    "DEFAULT_INVERSE_GRID",
    "DEFAULT_PHI9",
    "DomainError",
    "ErrorReport",
    "GRID_A",
    "GRID_B",
    "GridSpec",
    "InverseRow",
    "Phi9Coefficients",
    "ReconciliationReport",
    "compute_error_report",
    "d1_poly",
    "error_curve",
    "eval_cdf_approx",
    "eval_cdf_extended",
    "generate_variants",
    "inverse_table",
    "list_approximations",
    "oracle_cross_check",
    "phi9_linear_coefficient",
    "polya_cdf",
    "quadrature_cdf",
    "quantile_approx",
    "reconcile_phi9",
    "ref_cdf",
    "ref_quantile",
    "z1_schmeiser",
    "z2_shore",
    "z3_proposed",
    "__version__",
]
