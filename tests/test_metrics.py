"""Grid construction, error reports, curves, and the quantile table."""

import math

import pytest

from normapprox import (DomainError, GRID_A, GRID_B, GridSpec,
                        compute_error_report, error_curve, inverse_table,
                        ref_cdf)
from normapprox.metrics import DEFAULT_INVERSE_GRID, MAX_GRID_POINTS


def test_grid_a_has_401_points():
    pts = GRID_A.points()
    assert len(pts) == GRID_A.count == 401
    assert pts[0] == 0.0
    assert pts[-1] == pytest.approx(4.0, abs=1e-12)


def test_grid_b_has_5001_points():
    pts = GRID_B.points()
    assert len(pts) == 5001
    assert pts[-1] == pytest.approx(5.0, abs=1e-12)


def test_degenerate_grid_rejected():
    with pytest.raises(DomainError):
        GridSpec(0.0, 0.0, 0.1)


def test_nonpositive_step_rejected():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, -0.1)


@pytest.mark.parametrize("spec", [(0.0, 5.0, 1e-9), (0.0, 5.0, 1e-320),
                                  (-1e308, 1e308, 0.001), (-10**308, 10**308, 1)])
def test_grid_point_count_is_capped(spec):
    # rejected by validation, before any point is built
    with pytest.raises(DomainError, match="1,000,000 points"):
        GridSpec(*spec)


def test_grid_at_the_point_cap_is_accepted():
    assert GridSpec(0.0, 999.999, 0.001).count == MAX_GRID_POINTS


def test_incommensurate_step_rejected():
    with pytest.raises(DomainError):
        GridSpec(0.0, 4.75, 0.5)


def test_error_report_phi5_grid_b():
    rep = compute_error_report(5, GRID_B)
    assert rep.mxae == pytest.approx(4.37e-5, rel=0.02)
    assert rep.mae == pytest.approx(1.69e-5, rel=0.02)
    assert rep.mxae >= rep.mae >= 0.0
    assert rep.mxae_location in GRID_B.points()


def test_error_report_is_deterministic():
    a = compute_error_report(7, GRID_A)
    b = compute_error_report(7, GRID_A)
    assert (a.mxae, a.mae, a.mxae_location) == (b.mxae, b.mae, b.mxae_location)


def test_error_curve_consistency_with_report():
    rep = compute_error_report(9, GRID_A)
    curve = error_curve(9, GRID_A)
    assert len(curve) == 401
    assert curve[0] == (0.0, 0.0)
    assert max(abs(d) for _, d in curve) == rep.mxae


def test_error_curve_tocher_magnitude():
    worst = max(abs(d) for _, d in error_curve(1, GRID_A))
    assert worst == pytest.approx(1.77e-2, rel=0.02)


def test_lin_grid_domain_guard():
    with pytest.raises(DomainError):
        compute_error_report(2, GridSpec(0.0, 9.0, 0.5))
    with pytest.raises(DomainError):
        error_curve(2, GridSpec(0.0, 10.0, 0.5))
    # the last point, 0.0 + 18 * 0.5 = 9.0, overshoots the stop onto the pole
    with pytest.raises(DomainError, match="outside the domain"):
        compute_error_report(2, GridSpec(0.0, 8.9999999, 0.5))


def test_negative_grid_rejected():
    with pytest.raises(DomainError):
        compute_error_report(1, GridSpec(-1.0, 1.0, 0.5))


def test_argmax_tie_breaks_to_smallest_abscissa():
    # strict > while scanning in grid order keeps the first of equal maxima
    pts = [0.0, 1.0, 2.0, 3.0]
    errs = [0.5, 0.9, 0.9, 0.1]
    best, best_at = -1.0, None
    for z, e in zip(pts, errs):
        if e > best:
            best, best_at = e, z
    assert best_at == 1.0


def test_inverse_table_default_13_rows():
    rows = inverse_table()
    assert len(rows) == 13
    assert rows[0].z == 0.0
    assert rows[-1].z == pytest.approx(4.8, abs=1e-12)


def test_inverse_table_row_zero_all_null():
    r = inverse_table([0.0])[0]
    assert (r.zhat1, r.zhat2, r.zhat3) == (0.0, 0.0, 0.0)
    assert (r.delta1, r.delta2, r.delta3) == (0.0, 0.0, 0.0)


def test_inverse_table_published_cells():
    rows = {round(r.z, 1): r for r in inverse_table()}
    assert rows[2.4].delta3 == pytest.approx(-0.01360, abs=1.001e-5)
    assert rows[3.6].zhat3 == pytest.approx(3.5068, abs=1.001e-4)


def test_inverse_table_p_full_precision():
    r = inverse_table([0.4])[0]
    assert r.p == ref_cdf(0.4)
    assert r.delta1 == r.zhat1 - 0.4


def test_inverse_table_rejects_negative():
    with pytest.raises(DomainError):
        inverse_table([-0.4])


def test_default_inverse_grid_is_published_range():
    assert DEFAULT_INVERSE_GRID.count == 13
    assert math.isclose(DEFAULT_INVERSE_GRID.step, 0.4)
