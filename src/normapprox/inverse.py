"""Closed-form approximations of the standard normal quantile.

Three forms, all defined for 0.5 <= p < 1; ``quantile_approx`` extends them to
0 < p < 1 through the reflection z(p) = -z(1-p):

* ``z1_schmeiser``: the power-difference form,
* ``z2_shore``:     the tail-ratio power form,
* ``z3_proposed``:  inversion of the Polya CDF with the constant 2/pi
  replaced by the p-dependent polynomial ``d1_poly``.

Each form checks p and runs an unchecked kernel, which ``quantile_approx``
calls directly.  Pure functions, no shared state.
"""

import math

from .errors import DomainError, to_float


def _check_p(p: float) -> float:
    try:
        p = float(p)
    except OverflowError:  # to_float, inlined on a hot path
        p = math.inf if p > 0 else -math.inf
    if not 0.5 <= p < 1.0:
        raise DomainError("quantile approximations require 0.5 <= p < 1")
    return p


def _z1(p: float) -> float:
    return (p ** 0.135 - (1.0 - p) ** 0.135) / 0.1975


def _z2(p: float) -> float:
    # + 0.0 normalizes the signed zero at p = 0.5
    return -5.531 * (((1.0 - p) / p) ** 0.1193 - 1.0) + 0.0


def _d1(p: float) -> float:
    return (0.8039 - 0.9446 * p + 1.5806 * p ** 2 - 1.7824 * p ** 4
            + 1.5098 * p ** 6 - 0.5689 * p ** 8)


def _z3(p: float) -> float:
    u = 2.0 * (p - 0.5)
    t = -math.log(1.0 - u * u) / _d1(p)
    return math.sqrt(t) if t != 0.0 else 0.0


def z1_schmeiser(p: float) -> float:
    """(p^0.135 - (1-p)^0.135) / 0.1975"""
    return _z1(_check_p(p))


def z2_shore(p: float) -> float:
    """-5.531 * (((1-p)/p)^0.1193 - 1)"""
    return _z2(_check_p(p))


def d1_poly(p: float) -> float:
    """The degree-8 correction polynomial in p (even powers only above p^2,
    exactly as published); positive on [0.5, 1)."""
    return _d1(_check_p(p))


def z3_proposed(p: float) -> float:
    """sqrt(-(1/d1) * ln(1 - [2(p - 0.5)]^2)) with d1 = d1_poly(p)."""
    return _z3(_check_p(p))


def polya_cdf(z: float) -> float:
    """The invertible CDF approximation 0.5*(1 + sqrt(1 - e^(-(2/pi) z^2)))
    that seeds z3_proposed; z >= 0."""
    z = to_float(z)
    if not math.isfinite(z) or z < 0.0:
        raise DomainError("polya_cdf requires z >= 0")
    return 0.5 * (1.0 + math.sqrt(1.0 - math.exp(-(2.0 / math.pi) * z * z)))


_KERNELS = {1: _z1, 2: _z2, 3: _z3}


def quantile_approx(approx_id: int, p: float) -> float:
    """Quantile approximation ``approx_id`` (1..3) at 0 < p < 1; p < 0.5 is
    reflected through z(p) = -z(1-p)."""
    fn = _KERNELS.get(approx_id)
    if fn is None:
        raise DomainError(f"unknown quantile approximation id {approx_id!r}")
    if 0.5 <= p < 1.0:  # compared raw, so a Decimal p is placed exactly
        q = float(p)  # which may round up to 1, where _check_p raises
        return fn(q if q < 1.0 else _check_p(q))
    if not 0.0 < p < 0.5:
        raise DomainError("quantile_approx requires 0 < p < 1")
    q = 1.0 - float(p)
    if q == 1.0:
        raise DomainError(f"quantile_approx requires 0 < p < 1, and p = {p!r} "
                          "is too small to reflect: 1 - p rounds to 1")
    return -fn(q)
