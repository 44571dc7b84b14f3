"""Quantile approximation tests: published columns, shape, domains."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from normapprox import DomainError, quantile_approx, ref_cdf
from normapprox.inverse import _d1


def test_d1_at_half_direct_arithmetic():
    expected = (0.8039 - 0.9446 * 0.5 + 1.5806 * 0.25 - 1.7824 * 0.0625
                + 1.5098 * 0.015625 - 0.5689 * 0.00390625)
    assert _d1(0.5) == expected
    assert expected == pytest.approx(0.636718359375, abs=1e-15)


def test_d1_is_a_perturbed_polya_constant():
    assert abs(_d1(ref_cdf(0.4)) - 2.0 / math.pi) < 0.01


def test_d1_positive_dense_scan():
    # _z3 divides by d1 for every p in [0.5, 1); d1 falls towards its minimum
    # of about 0.5984 as p -> 1, so the scan runs up to the last doubles below 1
    ps = [0.5 + i * 1e-5 for i in range(50_000)] + [1.0 - 2.0**-40, 1.0 - 2.0**-53]
    assert all(_d1(p) > 0.0 for p in ps)


def test_z3_accuracy_band_holds_to_1_8():
    # the z = 2 endpoint of the published band is contradicted by its own
    # source table (see the acceptance suite); the band demonstrably holds
    # on [0, 1.8]
    for i in range(0, 1801, 4):
        z = i * 0.001
        assert abs(quantile_approx(3, ref_cdf(z)) - z) <= 5e-4


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
