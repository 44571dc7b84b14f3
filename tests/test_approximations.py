"""Registry metadata, closed-form values, reflection and shape properties."""

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normapprox import (DEFAULT_PHI9, DomainError, GRID_A, GridSpec,
                        Phi9Coefficients, compute_error_report, error_curve,
                        eval_cdf_extended, inverse_table, list_approximations,
                        phi9_error_reports, quantile_approx, ref_cdf,
                        ref_quantile)
from normapprox.approximations import _horner, descriptor
from goldens import TABLE2
from test_metrics import _linear_coefficient

ALL_IDS = range(1, 10)


def test_registry_metadata_matches_published_table():
    for d in list_approximations():
        assert (d.reported_mxae, d.reported_mae) == TABLE2[d.index]
        assert d.domain_max == {2: 9.0, 5: 7.96, 8: 6.24}.get(d.index, math.inf)


def test_logistic_saturation_tocher():
    assert eval_cdf_extended(1, 8.0) > 0.9999


def test_bowling_closed_form_at_one():
    # direct evaluation of the printed exponent 1.5976 z + 0.07056 z^3 at z=1
    expected = 1.0 / (1.0 + math.exp(-(1.5976 + 0.07056)))
    assert eval_cdf_extended(6, 1.0) == expected


def _direct(approx_id, z):
    # the published logistic 1/(1 + e^(-y(z))) of the registry exponent
    return 1.0 / (1.0 + math.exp(-descriptor(approx_id).y(z)))


@pytest.mark.parametrize("approx_id", ALL_IDS)
def test_extended_reflection_definition(approx_id):
    assert eval_cdf_extended(approx_id, -1.0) == 1.0 - _direct(approx_id, 1.0)


@given(st.integers(min_value=1, max_value=9),
       st.floats(min_value=0.0, max_value=5.0, exclude_min=True))
@settings(max_examples=300, deadline=None)
def test_reflection_identity_is_exact(approx_id, z):
    # z != 0: one side of the pair goes through 1 - v, and v >= 0.5 keeps
    # that subtraction exact
    total = eval_cdf_extended(approx_id, z) + eval_cdf_extended(approx_id, -z)
    assert total == 1.0


@pytest.mark.parametrize("approx_id", [1, 2, 3, 4, 5, 6, 8, 9])
def test_odd_exponents_give_exact_half_at_zero(approx_id):
    assert eval_cdf_extended(approx_id, 0.0) == 0.5


def test_boiroju_rao_misses_half_at_zero():
    # the tanh offsets do not cancel at the origin: y7(0) ~ -7.2e-7, a
    # property of the published constants, not an implementation artifact
    v = eval_cdf_extended(7, 0.0)
    assert v != 0.5
    assert v == pytest.approx(0.5, abs=2e-7)


def test_phi9_exponent_is_z_times_linear_coefficient():
    # other readings are scored by phi9_error_reports, tested in test_metrics
    y = list_approximations()[8].y
    assert all(y(z) == _linear_coefficient(z, DEFAULT_PHI9.k) * z for z in GRID_A.points())


_MODERATE = st.floats(min_value=-1e6, max_value=1e6)


@given(_MODERATE, st.tuples(*[_MODERATE] * 17))
@settings(max_examples=300, deadline=None)
def test_unrolled_horner_equals_the_loop(z, k):
    assert _horner(z, k) == _linear_coefficient(z, k)


def test_extended_compares_the_raw_z_first():
    # compares the raw z first, so a string is a TypeError, as in
    # quantile_approx, and -0.0 goes to the direct form unchanged
    with pytest.raises(TypeError):
        eval_cdf_extended(1, "1.5")
    assert eval_cdf_extended(1, -0.0) == 0.5


@pytest.mark.parametrize("fn", [
    partial(eval_cdf_extended, 1), ref_cdf, ref_quantile,
    partial(quantile_approx, 1), lambda z: inverse_table([z]),
    lambda z: GridSpec(0.0, z, 1.0)],
    ids=["eval_cdf_extended", "ref_cdf", "ref_quantile", "quantile_approx",
         "inverse_table", "GridSpec"])
@pytest.mark.parametrize("x", [10**400, -10**400], ids=["+10**400", "-10**400"])
def test_integer_beyond_double_range_is_domain_error(fn, x):
    with pytest.raises(DomainError):
        fn(x)


def test_lin_domain_edge_is_hard_error():
    with pytest.raises(DomainError):
        eval_cdf_extended(2, 9.0)
    assert eval_cdf_extended(2, 8.999) > 0.999


# True, 1.0, 3+0j and 9.0 hash and compare equal to a known id, but are not
# ints; 9.0 also equals compute_error_report's phi9 branch, taken after lookup.
# [1] and {} do not hash, so a lookup before the type test raised TypeError
@pytest.mark.parametrize("bad_id", [0, 10, -3, True, 1.0, 3 + 0j, 9.0, [1], {}])
def test_unknown_id_rejected(bad_id):
    for call in (partial(eval_cdf_extended, bad_id, 1.0), partial(descriptor, bad_id),
                 partial(compute_error_report, bad_id, GRID_A),
                 partial(error_curve, bad_id, GRID_A)):
        with pytest.raises(DomainError, match="unknown approximation id"):
            call()
    with pytest.raises(DomainError, match="unknown quantile approximation id"):
        quantile_approx(bad_id, 0.7)


# a NaN would break _report's first-of-ties max and index; 10**400 converts to inf
@pytest.mark.parametrize("k, message", [
    ((1.0, 2.0), "exactly 17 entries"),
    ((math.nan,) + (0.0,) * 16, "finite entries"),
    ((0.0,) * 16 + (math.inf,), "finite entries"),
    ((0.0,) * 8 + (-math.inf,) + (0.0,) * 8, "finite entries"),
    ((10**400,) + (0.0,) * 16, "finite entries")],
    ids=["short", "nan", "inf", "-inf", "10**400"])
def test_coefficients_require_17_finite_entries(k, message):
    with pytest.raises(DomainError, match=f"^Phi9Coefficients requires {message}$"):
        Phi9Coefficients(k=k, variant_tag="bad")


def test_coefficients_store_a_tuple_of_floats():
    listed = Phi9Coefficients(list(DEFAULT_PHI9.k), "listed")
    assert type(listed.k) is tuple and listed.k == DEFAULT_PHI9.k
    assert [type(c) for c in Phi9Coefficients([1] * 17, "ints").k] == [float] * 17
    # k is the reading's cache key, so a list once escaped as TypeError there
    assert phi9_error_reports(GRID_A, [listed]) == phi9_error_reports(GRID_A, [DEFAULT_PHI9])


def test_phi9_saturates_beyond_three_and_a_quarter():
    # the shipped coefficient variant drives the exponent past the point
    # where 1 + e^-y rounds to 1, so the strict upper bound 1 is reached;
    # the strict open-range assertion is tracked in the acceptance suite
    vals = [eval_cdf_extended(9, z) for z in GRID_A.points()]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert min(vals) == 0.5
    first_saturated = next(z for z, v in zip(GRID_A.points(), vals) if v == 1.0)
    assert 3.2 < first_saturated < 3.3


def _domain_scan(d):
    """Step 1e-3 up to the bound and its last double below, or for an
    unbounded form to 40 and then out to 1e200 in quarter decades."""
    if math.isfinite(d.domain_max):
        n = int(d.domain_max * 1000)
        return [i * 1e-3 for i in range(n)] + [math.nextafter(d.domain_max, 0.0)]
    return [i * 1e-3 for i in range(40_001)] + [10.0 ** (e / 4) for e in range(7, 801)]


@pytest.mark.parametrize("d", list_approximations(), ids=lambda d: f"phi{d.index}")
def test_monotone_and_in_range_over_whole_domain(d):
    vals = [eval_cdf_extended(d.index, z) for z in _domain_scan(d)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("d", [d for d in list_approximations() if math.isfinite(d.domain_max)],
                         ids=lambda d: f"phi{d.index}")
def test_domain_bound_is_where_the_exponent_turns(d):
    # the exponent decreases within 0.01 past the bound, so the bound is tight
    top = d.domain_max
    assert d.y(top + 0.01) < d.y(math.nextafter(top, 0.0))
