"""Registry metadata, closed-form values, reflection and shape properties."""

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normapprox import (DEFAULT_PHI9, DomainError, GRID_A, GRID_B, GridSpec,
                        Phi9Coefficients, compute_error_report, error_curve,
                        eval_cdf_extended, inverse_table, list_approximations,
                        phi9_error_reports, phi9_linear_coefficient,
                        polya_cdf, quantile_approx, ref_cdf, ref_quantile)
from normapprox.approximations import K_TABULATED, _horner, descriptor
from goldens import TABLE2

ALL_IDS = range(1, 10)


def test_registry_has_nine_descriptors():
    descs = list_approximations()
    assert len(descs) == 9
    assert [d.index for d in descs] == list(range(1, 10))


def test_registry_first_descriptor():
    d = list_approximations()[0]
    assert d.name.startswith("Tocher")
    assert d.reported_mxae == 1.77e-2
    assert d.reported_mae == 7.05e-3


def test_registry_ninth_descriptor():
    d = list_approximations()[8]
    assert d.name == "proposed"
    assert d.reported_mxae == 4.43e-10
    assert d.reported_mae == 9.62e-11


def test_registry_metadata_matches_published_table():
    for d in list_approximations():
        assert (d.reported_mxae, d.reported_mae) == TABLE2[d.index]
        assert d.domain_max == {2: 9.0, 5: 7.96, 8: 6.24}.get(d.index, math.inf)


def test_logistic_saturation_tocher():
    assert eval_cdf_extended(1, 8.0) > 0.9999


def test_phi9_at_zero_is_exactly_half():
    assert eval_cdf_extended(9, 0.0) == 0.5


def test_bowling_closed_form_at_one():
    # direct evaluation of the printed exponent 1.5976 z + 0.07056 z^3 at z=1
    expected = 1.0 / (1.0 + math.exp(-(1.5976 + 0.07056)))
    assert eval_cdf_extended(6, 1.0) == expected


def test_tocher_grid_max_error():
    # published figure: 1.77e-2
    from normapprox import ref_cdf
    worst = max(abs(eval_cdf_extended(1, z) - ref_cdf(z)) for z in GRID_A.points())
    assert worst == pytest.approx(1.77e-2, rel=0.02)


def test_vedder_grouping_reproduces_published_error():
    # the cubic-term grouping is validated by the published 3.14e-4
    from normapprox import ref_cdf
    worst = max(abs(eval_cdf_extended(4, z) - ref_cdf(z)) for z in GRID_A.points())
    assert worst == pytest.approx(3.14e-4, rel=0.02)


def _direct(approx_id, z):
    # the published logistic 1/(1 + e^(-y(z))) of the registry exponent
    return 1.0 / (1.0 + math.exp(-descriptor(approx_id).y(z)))


@pytest.mark.parametrize("approx_id", ALL_IDS)
def test_extended_reflection_definition(approx_id):
    assert eval_cdf_extended(approx_id, -1.0) == 1.0 - _direct(approx_id, 1.0)


def test_extended_matches_direct_for_positive_z():
    assert eval_cdf_extended(5, 0.4) == _direct(5, 0.4)
    assert eval_cdf_extended(5, -0.4) == 1.0 - _direct(5, 0.4)
    assert eval_cdf_extended(9, 0.0) == 0.5


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


def test_phi9_coefficient_at_zero():
    assert phi9_linear_coefficient(0.0) == DEFAULT_PHI9.k[0] == 1.5957691187


def test_phi9_coefficient_at_one_is_sum():
    # Horner at 1 against an exact sum of the coefficients
    assert phi9_linear_coefficient(1.0) == pytest.approx(
        math.fsum(DEFAULT_PHI9.k), abs=1e-15)


def test_phi9_exponent_is_z_times_linear_coefficient():
    # other readings are scored by phi9_error_reports, tested in test_metrics
    y = list_approximations()[8].y
    assert all(y(z) == phi9_linear_coefficient(z) * z for z in GRID_A.points())


@pytest.mark.parametrize("coeffs", [(), 0, K_TABULATED],
                         ids=["empty-tuple", "zero", "K_TABULATED"])
def test_phi9_coefficient_takes_only_a_reading_or_none(coeffs):
    assert phi9_linear_coefficient(1.0, None) == phi9_linear_coefficient(1.0, DEFAULT_PHI9)
    with pytest.raises(TypeError, match=f"not {type(coeffs).__name__}$"):
        phi9_linear_coefficient(1.0, coeffs)


_MODERATE = st.floats(min_value=-1e6, max_value=1e6)


@given(_MODERATE, st.tuples(*[_MODERATE] * 17))
@settings(max_examples=300, deadline=None)
def test_unrolled_horner_equals_the_loop(z, k):
    acc = 0.0
    for c in reversed(k):
        acc = acc * z + c
    assert _horner(z, k) == acc


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_phi9_coefficient_rejects_non_finite(z):
    with pytest.raises(DomainError, match="finite"):
        phi9_linear_coefficient(z)


def test_extended_leaves_conversion_to_eval_cdf_approx():
    # compares the raw z first, so a string is a TypeError, as in
    # quantile_approx, and -0.0 goes to the direct form unchanged
    with pytest.raises(TypeError):
        eval_cdf_extended(1, "1.5")
    assert eval_cdf_extended(1, -0.0) == 0.5


def test_negative_z_error_names_symmetric_domain():
    with pytest.raises(DomainError, match=r"\|z\| < 6\.24"):
        eval_cdf_extended(8, -8.0)


@pytest.mark.parametrize("fn", [
    partial(eval_cdf_extended, 1), ref_cdf, ref_quantile,
    partial(quantile_approx, 1), polya_cdf, lambda z: inverse_table([z]),
    lambda z: GridSpec(0.0, z, 1.0), phi9_linear_coefficient],
    ids=["eval_cdf_extended", "ref_cdf", "ref_quantile", "quantile_approx",
         "polya_cdf", "inverse_table", "GridSpec", "phi9_linear_coefficient"])
@pytest.mark.parametrize("x", [10**400, -10**400], ids=["+10**400", "-10**400"])
def test_integer_beyond_double_range_is_domain_error(fn, x):
    with pytest.raises(DomainError):
        fn(x)


def test_lin_domain_edge_is_hard_error():
    with pytest.raises(DomainError):
        eval_cdf_extended(2, 9.0)
    assert eval_cdf_extended(2, 8.999) > 0.999


# True, 1.0, 3+0j and 9.0 hash and compare equal to a known id, but are not
# ints; 9.0 also equals compute_error_report's phi9 branch, taken after lookup
@pytest.mark.parametrize("bad_id", [0, 10, -3, True, 1.0, 3 + 0j, 9.0])
def test_unknown_id_rejected(bad_id):
    for call in (partial(eval_cdf_extended, bad_id, 1.0), partial(descriptor, bad_id),
                 partial(compute_error_report, bad_id, GRID_A),
                 partial(error_curve, bad_id, GRID_A)):
        with pytest.raises(DomainError, match="unknown approximation id"):
            call()
    with pytest.raises(DomainError, match="unknown quantile approximation id"):
        quantile_approx(bad_id, 0.7)


def test_coefficients_require_17_entries():
    with pytest.raises(DomainError):
        Phi9Coefficients(k=(1.0, 2.0), variant_tag="short")


def test_coefficients_store_a_tuple_of_floats():
    listed = Phi9Coefficients(list(DEFAULT_PHI9.k), "listed")
    assert type(listed.k) is tuple and listed.k == DEFAULT_PHI9.k
    assert [type(c) for c in Phi9Coefficients([1] * 17, "ints").k] == [float] * 17
    # k is the reading's cache key, so a list once escaped as TypeError there
    assert phi9_error_reports(GRID_A, [listed]) == phi9_error_reports(GRID_A, [DEFAULT_PHI9])


@pytest.mark.parametrize("approx_id", range(1, 9))
def test_range_and_monotonicity_grid_b(approx_id):
    vals = [eval_cdf_extended(approx_id, z) for z in GRID_B.points()]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_phi9_monotone_on_fine_grid_to_four():
    pts = GridSpec(0.0, 4.0, 0.001).points()
    vals = [eval_cdf_extended(9, z) for z in pts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


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
