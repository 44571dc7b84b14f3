"""An independent route to the standard normal CDF, for gating the oracle.

``quadrature_cdf`` re-derives any value by adaptive quadrature of the density
(a private integrand), an independent route that ``oracle_cross_check`` uses
to gate the disagreement with ``ref_cdf`` at 1e-14.  It needs scipy, a test
dependency only, so it lives with the tests and not in the library.
"""

import math

from normapprox import DomainError, ref_cdf
from normapprox.errors import to_float

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_QUAD_LOWER = -40.0  # density underflows far before this point


def _density(t: float) -> float:
    # the standard normal density, integrated by quadrature_cdf;
    # deliberately independent of erfc
    return math.exp(-0.5 * t * t) * _INV_SQRT_2PI


def quadrature_cdf(z: float) -> float:
    """Phi(z) by adaptive quadrature of the density over (-40, z].

    This is the independent cross-check route: it integrates the plain
    density with scipy's QUADPACK and shares no code with ``ref_cdf``'s
    ``erfc``.  scipy is imported on the first call, so only callers of this
    route pay for it.
    """
    z = to_float(z)
    if not math.isfinite(z):
        raise DomainError("quadrature_cdf requires a finite abscissa")
    from scipy.integrate import quad
    # full_output suppresses the roundoff-limit warning near machine precision
    return quad(_density, _QUAD_LOWER, z, epsabs=1e-16, epsrel=1e-13,
                limit=300, full_output=1)[0]


def oracle_cross_check(abscissae) -> float:
    """Maximum |ref_cdf - quadrature_cdf| over abscissae with |z| <= 8
    (for a GridSpec, pass its ``points()``)."""
    worst = 0.0
    for z in map(to_float, abscissae):
        if not math.isfinite(z) or abs(z) > 8.0:
            raise DomainError("oracle_cross_check is gated on |z| <= 8")
        d = abs(ref_cdf(z) - quadrature_cdf(z))
        if d > worst:
            worst = d
    return worst
