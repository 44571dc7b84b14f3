"""The one-frame scalar entry points against test-local composed routes.

``eval_cdf_extended`` is the one scalar CDF entry point and
``quantile_approx`` the one scalar quantile entry point.  Each must give, bit
for bit and error for error, what a composition written out here gives: the
form checked and evaluated on the half domain where the paper defines it (the
registry exponent and the logistic for z >= 0; a private kernel of
``inverse`` for 0.5 <= p < 1), then the reflection Phi(z) = 1 - Phi(-z) or
z(p) = -z(1-p).  A frame count then keeps each entry point one Python frame
in front of its arithmetic, and a byte-code check keeps ``eval_cdf_extended``
on loads that CPython can specialize.
"""

import dis
import math
import random
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from normapprox import (DomainError, eval_cdf_extended, list_approximations,
                        quantile_approx, ref_quantile)
from normapprox.approximations import ApproxDescriptor
from normapprox.errors import to_float
from normapprox.inverse import _z1, _z2, _z3

_DOMAIN_EDGES = sorted({d.domain_max for d in list_approximations()} - {math.inf})
# the arguments the suite's sweeps try first: the ends of the double range,
# subnormals, 1 and the double below it, the forms' domain bounds, and non-floats
EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 10**400, -10**400,
         Decimal("1E-400"), Decimal("0.49999999999999999999"), "0.5", None,
         0.3, 0.7, -0.7, 40.0, -40.0, 1e300, -1e300, 1e308, -1e308, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.0, 1 - 2**-53, True, Decimal("NaN"),
         Decimal("0.99999999999999999999"), Fraction(1, 3), Fraction(-7, 3)]
EDGES += _DOMAIN_EDGES + [-m for m in _DOMAIN_EDGES]
FLOAT_EDGES = [x for x in EDGES if type(x) is float]
IDS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, None, True, 1.0, 3 + 0j]


def any_float(rng):
    """A double drawn over all 2^64 bit patterns: every exponent, the
    subnormals, both infinities and NaNs."""
    return struct.unpack("<d", rng.randbytes(8))[0]


def _any_number(rng):
    # a double, or an int, a Fraction or a Decimal of any size, or an edge
    n = rng.randrange(-2**64, 2**64) >> rng.randrange(64)
    return rng.choice((any_float(rng), n, Fraction(n, rng.randrange(1, 2**32)),
                       Decimal(n).scaleb(-rng.randrange(40)), rng.choice(EDGES)))


def _outcome(fn, *args):
    # float bits, so a signed zero counts and a NaN equals itself
    try:
        return struct.pack("<d", fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


_ROWS = {d.index: d for d in list_approximations()}


def _direct_cdf(approx_id, z):
    # the form on z >= 0, once the caller has compared z with 0
    z = to_float(z)
    if type(approx_id) is not int or approx_id not in _ROWS:
        raise DomainError(f"unknown approximation id {approx_id!r}")
    d = _ROWS[approx_id]
    if not math.isfinite(z):
        raise DomainError("eval_cdf_extended requires a finite abscissa")
    if not 0.0 <= z < d.domain_max:
        raise DomainError(f"{d.name} holds only for |z| < {d.domain_max:g}")
    try:
        y = d.y(z)
    except OverflowError:
        y = math.inf
    if y >= 0.0:
        return 1.0 / (1.0 + math.exp(-y))
    return math.exp(y) / (1.0 + math.exp(y))


def _composed_cdf(approx_id, z):
    if z >= 0.0:
        return _direct_cdf(approx_id, z)
    return 1.0 - _direct_cdf(approx_id, -z)


_FORMS = {1: _z1, 2: _z2, 3: _z3}


def _composed_quantile(approx_id, p):
    if type(approx_id) is not int or approx_id not in _FORMS:
        raise DomainError(f"unknown quantile approximation id {approx_id!r}")
    fn = _FORMS[approx_id]
    if 0.5 <= p < 1.0:
        if to_float(p) == 1.0:
            raise DomainError(f"quantile_approx requires 0 < p < 1, and p = {p!r} "
                              "is too close to 1: it rounds to 1")
        return fn(to_float(p))
    if not 0.0 < p < 0.5:
        raise DomainError("quantile_approx requires 0 < p < 1")
    q = 1.0 - to_float(p)
    if q == 1.0:
        raise DomainError(f"quantile_approx requires 0 < p < 1, and p = {p!r} "
                          "is too small to reflect: 1 - p rounds to 1")
    return -fn(q)


@pytest.mark.parametrize("approx_id", IDS)
def test_extended_matches_the_composed_route_on_edges(approx_id):
    for z in EDGES:
        assert (_outcome(eval_cdf_extended, approx_id, z)
                == _outcome(_composed_cdf, approx_id, z)), z


@pytest.mark.parametrize("approx_id", IDS)
def test_quantile_matches_the_composed_route_on_edges(approx_id):
    for p in EDGES:
        assert (_outcome(quantile_approx, approx_id, p)
                == _outcome(_composed_quantile, approx_id, p)), p


# the two tests above try every edge with every id; these sweep the rest
def test_extended_matches_the_composed_route():
    rng = random.Random(500)
    for _ in range(500):
        approx_id, z = rng.choice(IDS), _any_number(rng)
        assert (_outcome(eval_cdf_extended, approx_id, z)
                == _outcome(_composed_cdf, approx_id, z)), (approx_id, z)


def test_quantile_matches_the_composed_route():
    rng = random.Random(501)
    for n in range(500):
        approx_id = rng.choice(IDS)
        p = rng.random() if n % 2 else _any_number(rng)
        assert (_outcome(quantile_approx, approx_id, p)
                == _outcome(_composed_quantile, approx_id, p)), (approx_id, p)


def _python_calls(fn, *args):
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("fn, args, frames", [
    (ref_quantile, (0.3,), 1),  # straight to the C AS 241 kernel
    (quantile_approx, (1, 0.3), 2),  # and _z1
    (quantile_approx, (3, 0.3), 3),  # and _z3, which calls _d1
    (eval_cdf_extended, (1, -0.7), 2),  # and the exponent
    (eval_cdf_extended, (9, -0.7), 2),  # and phi9's exponent, one expression
], ids=["ref_quantile", "quantile_approx-1", "quantile_approx-3", "eval_cdf_extended",
        "eval_cdf_extended-9"])
def test_scalar_entry_points_are_one_frame_deep(fn, args, frames):
    fn(*args)  # ref_quantile binds its kernel on the first valid call
    calls = _python_calls(fn, *args)
    assert len(calls) == frames, calls


def _method_form(instr):
    # obj.name(...) loads name as a method: LOAD_METHOD up to 3.11, and from
    # 3.12 a LOAD_ATTR whose oparg has its low bit set
    if sys.version_info < (3, 12):
        return instr.opname == "LOAD_METHOD"
    return instr.opname == "LOAD_ATTR" and instr.arg & 1 == 1


def test_extended_loads_no_descriptor_slot_as_a_method():
    # on 3.11 a method-form load of a slot that holds a function never
    # specializes; the plain load of the slot does
    loads = [i.argval for i in dis.get_instructions(eval_cdf_extended)
             if i.argval in ApproxDescriptor.__slots__ and _method_form(i)]
    assert loads == []
