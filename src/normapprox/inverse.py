"""Closed-form approximations of the standard normal quantile.

Three forms, each defined for 0.5 <= p < 1 and reached, by its id, through
``quantile_approx``, which extends it to 0 < p < 1 through the reflection
z(p) = -z(1-p):

* id 1: the power-difference form of Schmeiser,
* id 2: the tail-ratio power form of Shore,
* id 3: inversion of the Polya CDF with the constant 2/pi replaced by the
  p-dependent polynomial ``d1_poly``.

The forms are private unchecked kernels; ``quantile_approx`` checks p once
and calls them directly.  Pure functions, no shared state.
"""

import math

from .errors import DomainError, to_float


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


def d1_poly(p: float) -> float:
    """The degree-8 correction polynomial in p (even powers only above p^2,
    exactly as published); positive on [0.5, 1)."""
    p = to_float(p)  # a str p is accepted too
    if not 0.5 <= p < 1.0:  # a p just below 1 may have rounded to 1.0
        raise DomainError(f"d1_poly requires 0.5 <= p < 1, and p as a double is {p!r}")
    return _d1(p)


def polya_cdf(z: float) -> float:
    """The invertible CDF approximation 0.5*(1 + sqrt(1 - e^(-(2/pi) z^2)))
    that seeds quantile form 3; z >= 0."""
    z = to_float(z)
    if not math.isfinite(z) or z < 0.0:
        raise DomainError("polya_cdf requires z >= 0")
    return 0.5 * (1.0 + math.sqrt(1.0 - math.exp(-(2.0 / math.pi) * z * z)))


_KERNELS = {1: _z1, 2: _z2, 3: _z3}


def quantile_approx(approx_id: int, p: float) -> float:
    """Quantile approximation ``approx_id`` (1..3) at 0 < p < 1; p < 0.5 is
    reflected through z(p) = -z(1-p).  DomainError for a p outside (0, 1)
    or too close to either end to place, and for an unknown id, including
    one that is not an ``int``."""
    fn = _KERNELS.get(approx_id)
    if fn is None or type(approx_id) is not int:
        raise DomainError(f"unknown quantile approximation id {approx_id!r}")
    if 0.5 <= p < 1.0:  # compared raw, so a Decimal p is placed exactly
        q = float(p)
        if q == 1.0:
            raise DomainError(f"quantile_approx requires 0 < p < 1, and p = {p!r} "
                              "is too close to 1: it rounds to 1")
        return fn(q)
    if not 0.0 < p < 0.5:
        raise DomainError("quantile_approx requires 0 < p < 1")
    q = 1.0 - float(p)
    if q == 1.0:
        raise DomainError(f"quantile_approx requires 0 < p < 1, and p = {p!r} "
                          "is too small to reflect: 1 - p rounds to 1")
    return -fn(q)
