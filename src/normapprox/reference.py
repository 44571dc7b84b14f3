"""Self-validated high-precision oracle for the standard normal CDF and quantile.

``ref_cdf`` is ``0.5 * erfc(-z / sqrt(2))`` through the C library's ``erfc``
(``math.erfc``).  For z < 0 that is erfc of a positive argument, computed
directly rather than as one minus a nearby number, so small tail masses keep
their *relative* accuracy.  Against mpmath at 50 digits its worst absolute
error on ``|z| <= 8`` is about 1.2e-16 and its worst relative error down to
the underflow limit (``z ~ -37.5``) about 1.9e-13; the test suite gates both.
``quadrature_cdf`` re-derives any value by adaptive quadrature of the density
(the module's only density, a private integrand), an independent route that
``oracle_cross_check`` uses to gate the disagreement at 1e-14.  No command of
the CLI needs it, so scipy is imported only when it runs.

``ref_quantile`` is Wichura's AS 241 (1988), as ``statistics.NormalDist.inv_cdf``
ships it; it shares no code with ``erfc``, so round trips through ``ref_cdf``
check two independent routes.  Its C kernel, ``statistics._normal_dist_inv_cdf``,
is bound on the first valid call; then a call costs 0.21 us (median ``p50_us``
of ``quantile``, ``BENCH_scalar_one_frame.json``).  Tests compare every result
bit for bit with the public ``inv_cdf``, which guards the private name.

Everything here is pure and stateless; concurrent use is unrestricted.
"""

import math

from .errors import DomainError, to_float

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_QUAD_LOWER = -40.0  # density underflows far before this point


def ref_cdf(z: float) -> float:
    """Standard normal CDF, absolute error <= 1e-15 on |z| <= 8 and relative
    tail error <= 1e-12 beyond (until the tail underflows around |z| ~ 37.5).

    Raises DomainError for non-finite input.
    """
    try:
        z = float(z)
    except OverflowError:  # to_float, inlined on a hot path
        z = math.inf if z > 0 else -math.inf
    if not math.isfinite(z):
        raise DomainError("ref_cdf requires a finite abscissa")
    return 0.5 * math.erfc(-z / _SQRT2)


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


def ref_quantile(p: float) -> float:
    """Standard normal quantile z, |ref_cdf(z) - p| <= 1e-14, by AS 241: worst
    relative error 6.3e-16 against mpmath.  DomainError unless 0 < p < 1."""
    try:
        p = float(p)
    except OverflowError:  # to_float, inlined on a hot path
        p = math.inf if p > 0 else -math.inf
    if not 0.0 < p < 1.0:
        raise DomainError("ref_quantile requires 0 < p < 1")
    return _as241(p, 0.0, 1.0)


def _as241(p: float, mu: float, sigma: float) -> float:
    # first call only: rebinds this name to the C kernel, so later calls reach
    # it directly; importing statistics takes about 5 ms, which no CLI needs
    global _as241
    from statistics import _normal_dist_inv_cdf as _as241
    return _as241(p, mu, sigma)
