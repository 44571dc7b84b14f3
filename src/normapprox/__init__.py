"""Closed-form approximations of the standard normal CDF and its inverse,
scored against a self-validated high-precision oracle.

The exports load on first use: ``import normapprox`` runs only this module,
and reading an exported name or a submodule imports the submodule that owns
it (PEP 562).
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "ApproxDescriptor": "approximations",
    "DEFAULT_INVERSE_GRID": "metrics",
    "DEFAULT_PHI9": "approximations",
    "DomainError": "errors",
    "ErrorReport": "metrics",
    "GRID_A": "metrics",
    "GRID_B": "metrics",
    "GridSpec": "metrics",
    "InverseRow": "metrics",
    "PHI9_VARIANTS": "approximations",
    "Phi9Coefficients": "approximations",
    "ReconciliationReport": "reconcile",
    "compute_error_report": "metrics",
    "d1_poly": "inverse",
    "error_curve": "metrics",
    "eval_cdf_extended": "approximations",
    "inverse_table": "metrics",
    "list_approximations": "approximations",
    "phi9_error_reports": "metrics",
    "phi9_linear_coefficient": "approximations",
    "polya_cdf": "inverse",
    "quantile_approx": "inverse",
    "reconcile_phi9": "reconcile",
    "ref_cdf": "reference",
    "ref_quantile": "reference",
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    # called only for a name not yet bound here; binding it makes later reads plain
    from importlib import import_module  # not at the top: the CLI never gets here
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
