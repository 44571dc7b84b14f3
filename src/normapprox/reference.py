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
is bound on the first valid call and checks the domain itself; then a call
costs 0.17 us (median ``p50_us`` of ``quantile``,
``BENCH_ref_quantile_domain.json``).  A Python without that private name
raises ImportError on the first valid call.  Tests compare every result bit
for bit with the public ``inv_cdf``.

Everything here is pure and stateless; concurrent use is unrestricted.
"""

import math

from .errors import DomainError, to_float

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
    try:  # the kernel converts p as a double, and rejects p <= 0 and p >= 1
        z = _as241(p, 0.0, 1.0)
        if z == z:  # a NaN p comes back as NaN
            return z
    except (ValueError, OverflowError):  # OverflowError: p beyond the double range
        pass
    raise DomainError(f"ref_quantile requires 0 < p < 1, and p as a double is {to_float(p)!r}")


def _as241(p: float, mu: float, sigma: float) -> float:
    # first call only: rebinds this name to the C kernel, so later calls reach
    # it directly; importing statistics takes about 5 ms, which no CLI needs.
    # fsum converts p as the kernel does (a str is a TypeError, not parsed), so
    # a p the kernel would reject fails here without the import
    if not 0.0 < math.fsum((p,)) < 1.0:
        raise ValueError("inv_cdf undefined for these parameters")
    global _as241
    from statistics import _normal_dist_inv_cdf as _as241
    return _as241(p, mu, sigma)
