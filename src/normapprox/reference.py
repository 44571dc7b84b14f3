"""Self-validated high-precision oracle for the standard normal CDF and quantile.

``ref_cdf`` is ``0.5 * erfc(-z / sqrt(2))`` through the C library's ``erfc``
(``math.erfc``).  For z < 0 that is erfc of a positive argument, computed
directly rather than as one minus a nearby number, so small tail masses keep
their *relative* accuracy.  Against mpmath at 50 digits its worst absolute
error on ``|z| <= 8`` is about 1.2e-16 and its worst relative error down to
the underflow limit (``z ~ -37.5``) about 1.9e-13; the test suite gates both,
and checks it against adaptive quadrature of the density as well.  The module
imports only the standard library.

``ref_quantile`` is Wichura's AS 241 (1988), as ``statistics.NormalDist.inv_cdf``
ships it; it shares no code with ``erfc``, so round trips through ``ref_cdf``
check two independent routes.  Its C kernel, ``statistics._normal_dist_inv_cdf``,
is bound on the first valid call; then a call costs 0.21 us (median ``p50_us``
of ``quantile``, ``BENCH_scalar_one_frame.json``).  A Python without that
private name gets ``NormalDist(mu, sigma).inv_cdf`` instead, the same AS 241
behind a public call.  Tests compare every result bit for bit with the public
``inv_cdf``, through either binding.

Everything here is pure and stateless; concurrent use is unrestricted.
"""

import math

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)


def ref_cdf(z: float) -> float:
    """Standard normal CDF, absolute error <= 1e-15 on |z| <= 8 and relative
    tail error <= 1e-12 beyond (until the tail underflows around |z| ~ 37.5).

    Raises DomainError for non-finite input.
    """
    try:
        z = float(z)
    except OverflowError:  # to_float, inlined; either sign fails the next check
        z = math.inf
    if not math.isfinite(z):
        raise DomainError("ref_cdf requires a finite abscissa")
    return 0.5 * math.erfc(-z / _SQRT2)


def ref_quantile(p: float) -> float:
    """Standard normal quantile z, |ref_cdf(z) - p| <= 1e-14, by AS 241: worst
    relative error 6.3e-16 against mpmath.  DomainError unless 0 < p < 1 holds
    for p as a double: a p that rounds to 0.0 or 1.0 has no finite quantile."""
    try:
        p = float(p)
    except OverflowError:  # to_float, inlined on a hot path
        p = math.inf if p > 0 else -math.inf
    if not 0.0 < p < 1.0:
        raise DomainError(f"ref_quantile requires 0 < p < 1, and p as a double is {p!r}")
    return _as241(p, 0.0, 1.0)


def _as241(p: float, mu: float, sigma: float) -> float:
    # first call only: rebinds this name to the C kernel, so later calls reach
    # it directly; importing statistics takes about 5 ms, which no CLI needs
    global _as241
    try:
        from statistics import _normal_dist_inv_cdf as _as241
    except ImportError:  # a Python without the private name: the public route
        from statistics import NormalDist

        def _as241(p, mu, sigma):
            return NormalDist(mu, sigma).inv_cdf(p)
    return _as241(p, mu, sigma)
