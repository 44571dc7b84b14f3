"""An independent route to the standard normal CDF, for gating the oracle.

``quadrature_cdf`` re-derives any value by tanh-sinh quadrature of the
density (a private integrand) with mpmath's double-precision ``fp.quad``, an
independent route that ``oracle_cross_check`` uses to gate the disagreement
with ``ref_cdf`` at 1e-14.  mpmath is pure Python and a test dependency only,
so this route lives with the tests and not in the library.
"""

import math

from mpmath import fp

from normapprox import DomainError, ref_cdf
from normapprox.errors import to_float

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_QUAD_LOWER = -40.0  # density underflows far before this point
# fixed splits of [-40, z]: over the one interval the rule misses by up to
# 2.0e-13 (z = -4.98); split here, the measured worst against ref_cdf is
# 5.6e-16 on [-8, 8] at step 0.002
_BREAKPOINTS = (-8.0, -4.0, 0.0)


def _density(t: float) -> float:
    # the standard normal density, integrated by quadrature_cdf;
    # deliberately independent of erfc
    return math.exp(-0.5 * t * t) * _INV_SQRT_2PI


def quadrature_cdf(z: float) -> float:
    """Phi(z) by tanh-sinh quadrature of the density over (-40, z].

    This is the independent cross-check route: it integrates the plain
    density with ``mpmath.fp.quad``, in double precision, over
    [-40, z] split at each of _BREAKPOINTS below z, and shares no code with
    ``ref_cdf``'s ``erfc``.
    """
    z = to_float(z)
    if not math.isfinite(z):
        raise DomainError("quadrature_cdf requires a finite abscissa")
    return fp.quad(_density, [_QUAD_LOWER, *(b for b in _BREAKPOINTS if b < z), z])


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
