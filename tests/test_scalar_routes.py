"""The one-frame scalar entry points against the composed public routes.

``eval_cdf_extended`` is the one scalar CDF kernel and ``quantile_approx``
dispatches to unchecked quantile kernels.  Each must give, bit for bit and
error for error, what the composition of the checked public forms gives:
``eval_cdf_approx`` with the reflection Phi(z) = 1 - Phi(-z), and
``z1_schmeiser``/``z2_shore``/``z3_proposed`` with z(p) = -z(1-p).  A frame
count then keeps each entry point one Python frame in front of its
arithmetic.
"""

import math
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normapprox import (DomainError, eval_cdf_approx, eval_cdf_extended,
                        list_approximations, quantile_approx, ref_quantile,
                        z1_schmeiser, z2_shore, z3_proposed)
from normapprox.errors import to_float

_DOMAIN_EDGES = sorted({d.domain_max for d in list_approximations()} - {math.inf})
EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 10**400, -10**400,
         Decimal("1E-400"), Decimal("0.49999999999999999999"), "0.5", None,
         0.3, 0.7, -0.7, 40.0, -40.0, 1e300, -1e300, 5e-324,
         Decimal("0.99999999999999999999"), Fraction(1, 3), Fraction(-7, 3)]
EDGES += _DOMAIN_EDGES + [-m for m in _DOMAIN_EDGES]
IDS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, None]
_ARGS = st.one_of(st.floats(), st.integers(), st.fractions(), st.decimals(),
                  st.sampled_from(EDGES))


def _outcome(fn, *args):
    # float bits, so a signed zero counts and a NaN equals itself
    try:
        return struct.pack("<d", fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _composed_cdf(approx_id, z):
    if z >= 0.0:
        return eval_cdf_approx(approx_id, z)
    return 1.0 - eval_cdf_approx(approx_id, -z)


_FORMS = {1: z1_schmeiser, 2: z2_shore, 3: z3_proposed}


def _composed_quantile(approx_id, p):
    fn = _FORMS.get(approx_id)
    if fn is None:
        raise DomainError(f"unknown quantile approximation id {approx_id!r}")
    if 0.5 <= p < 1.0:
        return fn(p)
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


@given(st.sampled_from(IDS), _ARGS)
@settings(max_examples=500, deadline=None)
def test_extended_matches_the_composed_route(approx_id, z):
    assert _outcome(eval_cdf_extended, approx_id, z) == _outcome(_composed_cdf, approx_id, z)


@given(st.sampled_from(IDS), st.one_of(_ARGS, st.floats(0.0, 1.0)))
@settings(max_examples=500, deadline=None)
def test_quantile_matches_the_composed_route(approx_id, p):
    assert (_outcome(quantile_approx, approx_id, p)
            == _outcome(_composed_quantile, approx_id, p))


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
], ids=["ref_quantile", "quantile_approx-1", "quantile_approx-3", "eval_cdf_extended"])
def test_scalar_entry_points_are_one_frame_deep(fn, args, frames):
    fn(*args)  # ref_quantile binds its kernel on the first valid call
    calls = _python_calls(fn, *args)
    assert len(calls) == frames, calls
