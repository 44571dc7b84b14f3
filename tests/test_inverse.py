"""Quantile approximation tests: published columns, shape, domains."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normapprox import DomainError, d1_poly, polya_cdf, quantile_approx, ref_cdf


@pytest.mark.parametrize("approx_id", [1, 2, 3])
def test_median_maps_to_zero(approx_id):
    assert quantile_approx(approx_id, 0.5) == 0.0


def test_schmeiser_published_values():
    assert quantile_approx(1, ref_cdf(0.4)) == pytest.approx(0.3976, abs=1.001e-4)
    assert quantile_approx(1, ref_cdf(4.8)) == pytest.approx(4.3032, abs=1.001e-4)


def test_shore_published_values():
    assert quantile_approx(2, ref_cdf(0.4)) == pytest.approx(0.4084, abs=1.001e-4)
    assert quantile_approx(2, ref_cdf(3.2)) == pytest.approx(3.2109, abs=1.001e-4)


def test_proposed_published_values():
    assert quantile_approx(3, ref_cdf(0.8)) == pytest.approx(0.8000, abs=1.001e-4)
    assert quantile_approx(3, ref_cdf(4.8)) == pytest.approx(4.5997, abs=1.001e-4)


def test_d1_at_half_direct_arithmetic():
    expected = (0.8039 - 0.9446 * 0.5 + 1.5806 * 0.25 - 1.7824 * 0.0625
                + 1.5098 * 0.015625 - 0.5689 * 0.00390625)
    assert d1_poly(0.5) == expected
    assert expected == pytest.approx(0.636718359375, abs=1e-15)


def test_d1_is_a_perturbed_polya_constant():
    assert abs(d1_poly(ref_cdf(0.4)) - 2.0 / math.pi) < 0.01


@given(st.floats(min_value=0.5, max_value=0.9999))
@settings(max_examples=300, deadline=None)
def test_d1_positive(p):
    assert d1_poly(p) > 0.0


def test_d1_positive_dense_scan():
    p = 0.5
    while p < 0.9999:
        assert d1_poly(p) > 0.0
        p += 1e-4


def test_z3_nondecreasing_scan():
    prev = -1.0
    for i in range(5000):
        v = quantile_approx(3, 0.5 + i * 1e-4)
        assert v >= prev
        prev = v


def test_z3_large_z_degradation_is_expected():
    # published last-row difference ~ -0.20026; large-z inaccuracy is a
    # property of the form, not a bug
    delta = quantile_approx(3, ref_cdf(4.8)) - 4.8
    assert abs(abs(delta) - 0.20026) < 1e-4


def test_z3_accuracy_band_holds_to_1_8():
    # the z = 2 endpoint of the published band is contradicted by its own
    # source table (see the acceptance suite); the band demonstrably holds
    # on [0, 1.8]
    for i in range(0, 1801, 4):
        z = i * 0.001
        assert abs(quantile_approx(3, ref_cdf(z)) - z) <= 5e-4


def test_z3_error_at_two_regression():
    # pinned so any formula change is caught; this is the value that breaks
    # the published (0,2] band
    delta = quantile_approx(3, ref_cdf(2.0)) - 2.0
    assert delta == pytest.approx(-0.0024841761530312034, abs=1e-12)


def test_polya_at_zero():
    assert polya_cdf(0.0) == 0.5


def test_polya_closed_form_at_one():
    expected = 0.5 * (1.0 + math.sqrt(1.0 - math.exp(-2.0 / math.pi)))
    assert polya_cdf(1.0) == expected


def test_polya_saturates():
    assert abs(polya_cdf(8.0) - 1.0) < 1e-5


def test_polya_rejects_negative():
    with pytest.raises(DomainError):
        polya_cdf(-0.5)


def test_dispatch_matches_direct():
    assert quantile_approx(1, 0.5) == 0.0
    assert quantile_approx(3, ref_cdf(1.6)) == pytest.approx(1.6003, abs=1.001e-4)
    assert quantile_approx(2, ref_cdf(2.0)) == pytest.approx(1.9993, abs=1.001e-4)


def test_dispatch_reflects_small_p():
    assert quantile_approx(3, 0.3) == -quantile_approx(3, 1.0 - 0.3)
    assert quantile_approx(1, 1e-3) == -quantile_approx(1, 1.0 - 1e-3)


@pytest.mark.parametrize("approx_id", [1, 2, 3])
def test_dispatch_reflects_a_decimal_p(approx_id):
    # the p >= 0.5 branch converted a Decimal; the reflection raised TypeError
    assert quantile_approx(approx_id, Decimal("0.3")) == -quantile_approx(approx_id, 0.7)
    with pytest.raises(DomainError, match="0 < p < 1"):
        quantile_approx(approx_id, Decimal("1E-400"))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan, 1e-320, 1e-17])
def test_dispatch_domain_is_open_unit_interval(bad):
    with pytest.raises(DomainError, match="0 < p < 1"):
        quantile_approx(2, bad)


@pytest.mark.parametrize("p", [Decimal("0.99999999999999999999"),
                               Fraction(10**20 - 1, 10**20)])
def test_dispatch_names_the_rounding_of_p_just_below_one(p):
    # p < 1, but its double is 1.0, where no form is defined
    with pytest.raises(DomainError, match="0 < p < 1, and p = .* is too close to 1: "
                                          "it rounds to 1"):
        quantile_approx(1, p)


def test_dispatch_rejects_unknown_id():
    with pytest.raises(DomainError):
        quantile_approx(4, 0.7)


@pytest.mark.parametrize("fn", [d1_poly])
@pytest.mark.parametrize("bad", [0.49, 1.0, 1.5, -0.1, math.nan,
                                 # below 1, but the double of each is 1.0
                                 Decimal("0.99999999999999999999"),
                                 Fraction(10**20 - 1, 10**20)])
def test_domain_rejections(fn, bad):
    # the message names the double p became, not only the domain
    with pytest.raises(DomainError, match=re.escape(f"as a double is {float(bad)!r}")):
        fn(bad)
