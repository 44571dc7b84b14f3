"""Grid construction, error reports, curves, and the quantile table."""

import math

import pytest

from normapprox import (DEFAULT_PHI9, PHI9_VARIANTS, DomainError, GRID_A, GRID_B,
                        GridSpec, Phi9Coefficients, compute_error_report,
                        error_curve, eval_cdf_approx, inverse_table,
                        list_approximations, phi9_error_reports,
                        phi9_linear_coefficient, reconcile_phi9, ref_cdf)
from normapprox import cli, metrics
from normapprox.metrics import DEFAULT_INVERSE_GRID, MAX_GRID_POINTS, _ref_values


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


def test_grid_stores_the_floats_it_checks():
    assert GridSpec("0", "4", "0.5") == GridSpec(0.0, 4.0, 0.5)
    assert [repr(v) for v in (GridSpec(0, 4, 1).start, GridSpec(0, 4, 1).step)] == ["0.0", "1.0"]
    with pytest.raises(DomainError, match="step must be positive"):
        GridSpec("0", "4", "-0.5")
    assert "start=0.0," in repr(GridSpec(-0.0, 1.0, 0.5))


def test_nonpositive_step_rejected():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, -0.1)


@pytest.mark.parametrize("spec", [(0.0, 5.0, 1e-9), (0.0, 5.0, 1e-320),
                                  (-1e308, 1e308, 0.001), (-10**308, 10**308, 1),
                                  # 1,000,001 points: the cap counts points, not steps
                                  (0, 999999.5, 1), (0.0, 4.0, 4.0000001e-6)])
def test_grid_point_count_is_capped(spec):
    # rejected by validation, before any point is built
    with pytest.raises(DomainError, match="1,000,000 points"):
        GridSpec(*spec)


def test_grid_at_the_point_cap_is_accepted():
    assert GridSpec(0.0, 999.999, 0.001).count == MAX_GRID_POINTS


@pytest.mark.parametrize("start, stop, step, match", [
    (0.0, 4.75, 0.5, "evenly divide"),
    # a step longer than the span would leave a one-point grid at start
    (0.0, 1e-7, 1.0, "must not exceed"),
    (7.96, 9.0, 1e300, "must not exceed"),
], ids=["incommensurate", "step-exceeds-tiny-span", "huge-step"])
def test_incommensurate_step_rejected(start, stop, step, match):
    with pytest.raises(DomainError, match=match):
        GridSpec(start, stop, step)


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
    # a(z) = -1e300 puts the CDF at 0 on the whole grid, and the oracle is
    # exactly 1.0 from 8.5 on, so 8.5, 9, 9.5 and 10 tie at an error of 1.0
    floor = Phi9Coefficients(k=(-1e300,) + (0.0,) * 16, variant_tag="floor")
    rep = phi9_error_reports(GridSpec(8.0, 10.0, 0.5), [floor])[0]
    assert rep.mxae == 1.0
    assert rep.mxae_location == 8.5


def test_coefficients_rejected_for_other_forms():
    # a non-default phi9 reading goes through phi9_error_reports only
    with pytest.raises(TypeError):
        compute_error_report(1, GRID_A, DEFAULT_PHI9)


# the last grid overflows z**3 in phi4, phi6 and phi7, whose CDF is then 1.0
@pytest.mark.parametrize("approx_id, spec", [
    (d.index, spec)
    for spec in (GRID_B, GridSpec(0.0, 6.0, 0.5), GridSpec(0.0, 2e103, 1e103))
    for d in list_approximations()
    if spec.start + (spec.count - 1) * spec.step < d.domain_max])
def test_error_curve_equals_pointwise_evaluation(approx_id, spec):
    pts = spec.points()
    diffs = [eval_cdf_approx(approx_id, z) - ref_cdf(z) for z in pts]
    assert error_curve(approx_id, spec) == list(zip(pts, diffs))
    # compute_error_report skips eval_cdf_approx's checks but not its arithmetic
    _assert_first_of_ties_reduction(compute_error_report(approx_id, spec), pts,
                                    [abs(d) for d in diffs])


def _assert_first_of_ties_reduction(rep, pts, errs):
    assert rep.mxae == max(errs)
    assert rep.mxae_location == pts[errs.index(max(errs))]
    assert rep.mae == math.fsum(errs) / len(errs)


def test_error_report_equals_pointwise_evaluation_below_zero_exponent():
    # a(z) = -1e300 keeps the exponent negative, the logistic's e/(1+e) branch
    floor = Phi9Coefficients(k=(-1e300,) + (0.0,) * 16, variant_tag="floor")
    spec = GridSpec(8.0, 10.0, 0.5)

    def cdf(z):
        e = math.exp(phi9_linear_coefficient(z, floor) * z)
        return e / (1.0 + e)

    pts = spec.points()
    errs = [abs(cdf(z) - ref_cdf(z)) for z in pts]
    _assert_first_of_ties_reduction(phi9_error_reports(spec, [floor])[0], pts, errs)


def _k14_negated():
    k = list(DEFAULT_PHI9.k)
    k[13] = -k[13]
    return Phi9Coefficients(k=tuple(k), variant_tag="k14minus")


def _phi9_cdf(z, r):
    t = phi9_linear_coefficient(z, r) * z
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


# readings with different high parts k[8:] (k14-negated, floor) alongside the
# eight variants, which share theirs with DEFAULT_PHI9
_MIXED_READINGS = (*PHI9_VARIANTS, DEFAULT_PHI9, _k14_negated(),
                   Phi9Coefficients(k=(-1e300,) + (0.0,) * 16, variant_tag="floor"))


@pytest.mark.parametrize("spec", [GRID_A, GridSpec(8.0, 10.0, 0.5),
                                  GridSpec(0.0, 2e103, 1e103)],
                         ids=["grid-a", "8-10", "huge"])
def test_phi9_error_reports_equal_pointwise_evaluation(spec):
    pts = spec.points()
    reports = phi9_error_reports(spec, _MIXED_READINGS)
    assert len(reports) == len(_MIXED_READINGS)
    for r, rep in zip(_MIXED_READINGS, reports):
        assert rep.grid == spec
        _assert_first_of_ties_reduction(rep, pts, [abs(_phi9_cdf(z, r) - ref_cdf(z)) for z in pts])


def test_phi9_error_reports_default_reading_equals_compute_error_report():
    assert phi9_error_reports(GRID_A, [DEFAULT_PHI9]) == (compute_error_report(9, GRID_A),)
    assert phi9_error_reports(GRID_A, []) == ()


def test_grid_b_is_built_and_filled_once_for_table2_and_reconcile(tmp_path, monkeypatch):
    builds, evals = [], []
    points = GridSpec.points
    oracle = metrics.ref_cdf
    monkeypatch.setattr(GridSpec, "points",
                        lambda spec: builds.append(spec) or points(spec))
    monkeypatch.setattr(metrics, "ref_cdf", lambda z: evals.append(z) or oracle(z))
    _ref_values.cache_clear()
    assert cli.main(["table2", "--format", "csv",
                     "--output", str(tmp_path / "t2.csv")]) == 0
    assert cli.main(["reconcile", "--output", str(tmp_path / "rec.txt")]) == 0
    assert builds == [GRID_B]
    assert len(evals) == GRID_B.count == 5001


def test_default_reading_is_scored_once_per_grid():
    _ref_values.cache_clear()
    rep = compute_error_report(9, GRID_B)
    default = [r for v, r in reconcile_phi9(GRID_B).variants if v.k == DEFAULT_PHI9.k]
    assert len(default) == 1 and default[0] is rep


def test_report_cache_keeps_at_most_its_cap():
    spec = GridSpec(0.0, 2.0, 0.25)
    _ref_values.cache_clear()
    cap = metrics._MAX_CACHED_REPORTS
    # cap + 4 distinct readings, k1 = 1 + i/64
    readings = [Phi9Coefficients(k=(1.0 + i / 64, *DEFAULT_PHI9.k[1:]), variant_tag=str(i))
                for i in range(cap + 4)]
    pts = spec.points()
    for _ in range(2):  # the second call reads the kept reports, rescores the rest
        reports = phi9_error_reports(spec, readings)
        assert len(_ref_values(spec)[2]) == cap
        for r, rep in zip(readings, reports):
            _assert_first_of_ties_reduction(
                rep, pts, [abs(_phi9_cdf(z, r) - ref_cdf(z)) for z in pts])


def test_oracle_cache_holds_two_grids():
    for stop in (1.0, 2.0, 3.0):
        compute_error_report(1, GridSpec(0.0, stop, 0.5))
    assert _ref_values.cache_info().currsize == 2


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


@pytest.mark.parametrize("z, match", [
    (-0.4, "z >= 0"),
    # Phi(z) rounds to 1 from z = 8.29236 on, where no quantile exists
    (8.3, r"Phi\(8\.3\) rounds to 1"),
], ids=["negative", "phi-rounds-to-1"])
def test_inverse_table_rejects_negative(z, match):
    with pytest.raises(DomainError, match=match):
        inverse_table([z])


def test_default_inverse_grid_is_published_range():
    assert DEFAULT_INVERSE_GRID.count == 13
    assert math.isclose(DEFAULT_INVERSE_GRID.step, 0.4)
