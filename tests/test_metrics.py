"""Grid construction, error reports, curves, and the quantile table."""

import contextlib
import math
import random
from functools import partial
from types import SimpleNamespace

import pytest

from normapprox import (DEFAULT_PHI9, PHI9_VARIANTS, DomainError, GRID_A, GRID_B,
                        GridSpec, Phi9Coefficients, compute_error_report,
                        error_curve, eval_cdf_extended, inverse_table,
                        list_approximations, phi9_error_reports,
                        reconcile_phi9, ref_cdf)
from normapprox import cli, metrics
from normapprox.metrics import MAX_GRID_POINTS, _ref_values
from normapprox.reconcile import format_report
from test_scalar_routes import FLOAT_EDGES, any_float


def test_grid_b_has_5001_points():
    pts = GRID_B.points()
    assert len(pts) == 5001
    assert pts[-1] == pytest.approx(5.0, abs=1e-12)
    spec = GridSpec(1.0, 2.0, 0.25)  # a start away from 0 counts too
    assert (spec.count, spec.points()) == (5, [1.0, 1.25, 1.5, 1.75, 2.0])


def test_degenerate_grid_rejected():
    with pytest.raises(DomainError, match="stop must exceed start"):
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
    # a ratio 1.0005e-6 past a whole number, just outside the 1e-6 tolerance
    (0.0, 1.0000010005, 1.0, "evenly divide"),
], ids=["incommensurate", "step-exceeds-tiny-span", "huge-step", "past-the-tolerance"])
def test_incommensurate_step_rejected(start, stop, step, match):
    with pytest.raises(DomainError, match=match):
        GridSpec(start, stop, step)


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
    spec = GridSpec(8.0, 10.0, 0.5)
    assert spec.points() == [8.0, 8.5, 9.0, 9.5, 10.0]
    rep = phi9_error_reports(spec, [floor])[0]
    assert rep.mxae == 1.0
    assert rep.mxae_location == 8.5


# the third grid overflows z**3 in phi4, phi6 and phi7, whose CDF is then
# 1.0; on the last, every exponent is below 1e-3, where the two arms of the
# logistic round differently
@pytest.mark.parametrize("approx_id, spec", [
    (d.index, spec)
    for spec in (GRID_B, GridSpec(0.0, 6.0, 0.5), GridSpec(0.0, 2e103, 1e103),
                 GridSpec(0.0, 5e-4, 5e-5))
    for d in list_approximations()
    if spec.start + (spec.count - 1) * spec.step < d.domain_max])
def test_error_curve_equals_pointwise_evaluation(approx_id, spec):
    pts = spec.points()
    diffs = [eval_cdf_extended(approx_id, z) - ref_cdf(z) for z in pts]
    assert error_curve(approx_id, spec) == list(zip(pts, diffs))
    # compute_error_report skips eval_cdf_extended's checks but not its arithmetic
    _assert_first_of_ties_reduction(compute_error_report(approx_id, spec), pts,
                                    [abs(d) for d in diffs], approx_id)


def _assert_first_of_ties_reduction(rep, pts, errs, case):
    assert (rep.mxae, rep.mxae_location, rep.mae) == (
        max(errs), pts[errs.index(max(errs))], math.fsum(errs) / len(errs)), case


def _linear_coefficient(z, k):
    # a(z) = sum_j k_j z^(j-1) as a plain loop, sharing no code with phi9's
    # spelled-out registry exponent or the generated kernel
    acc = 0.0
    for c in reversed(k):
        acc = acc * z + c
    return acc


def _k14_negated():
    k = list(DEFAULT_PHI9.k)
    k[13] = -k[13]
    return Phi9Coefficients(k=tuple(k), variant_tag="k14minus")


def _phi9_cdf(z, r):
    t = _linear_coefficient(z, r.k) * z
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
        _assert_first_of_ties_reduction(rep, pts, [abs(_phi9_cdf(z, r) - ref_cdf(z)) for z in pts],
                                        r.variant_tag)


def test_phi9_error_reports_default_reading_equals_compute_error_report():
    assert phi9_error_reports(GRID_A, [DEFAULT_PHI9]) == (compute_error_report(9, GRID_A),)
    assert phi9_error_reports(GRID_A, []) == ()


@pytest.mark.parametrize("reading", [
    SimpleNamespace(k=(1.0,) * 5), SimpleNamespace(k=(math.nan,) * 17),
    SimpleNamespace(k=("1.0",) * 17), (1.0,) * 17,
], ids=["short-k", "nan-k", "string-k", "bare-tuple"])
def test_phi9_error_reports_takes_only_phi9_coefficients(monkeypatch, reading):
    spec = GridSpec(0.0, 2.0, 0.25)
    phi9_error_reports(spec, [DEFAULT_PHI9])
    cached, info, kernels = dict(_ref_values(spec)[2]), _ref_values.cache_info(), []
    monkeypatch.setattr(metrics, "_phi9_kernel", kernels.append)
    with pytest.raises(TypeError, match="^phi9_error_reports requires Phi9Coefficients "
                                        f"readings, not {type(reading).__name__}$"):
        phi9_error_reports(spec, [PHI9_VARIANTS[0], reading])
    # raised before the oracle fill and before any kernel was built
    assert (_ref_values.cache_info(), kernels) == (info, [])
    assert _ref_values(spec)[2] == cached


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


def test_report_cache_keeps_at_most_its_cap(monkeypatch):
    spec = GridSpec(0.0, 2.0, 0.25)
    _ref_values.cache_clear()
    cap = metrics._MAX_CACHED_REPORTS
    events = []  # in order: the readings of each kernel built, and each report made
    build, report = metrics._phi9_kernel, metrics._report
    monkeypatch.setattr(metrics, "_phi9_kernel", lambda ks: events.append(len(ks)) or build(ks))
    monkeypatch.setattr(metrics, "_report", lambda *args: events.append("report") or report(*args))
    # cap + 4 distinct readings, k1 = 1 + i/64
    readings = [Phi9Coefficients(k=(1.0 + i / 64, *DEFAULT_PHI9.k[1:]), variant_tag=str(i))
                for i in range(cap + 4)]
    pts = spec.points()
    for _ in range(2):  # the second call reads the kept reports, rescores the rest
        reports = phi9_error_reports(spec, readings)
        assert len(_ref_values(spec)[2]) == cap
        for r, rep in zip(readings, reports):
            _assert_first_of_ties_reduction(
                rep, pts, [abs(_phi9_cdf(z, r) - ref_cdf(z)) for z in pts], r.variant_tag)
    # no kernel takes more than the cap, whose source size it bounds, and each
    # kernel's errors are reduced before the next is built, so at most one
    # kernel's error arrays are held at once
    assert events == [cap, *["report"] * cap, 4, *["report"] * 4, 4, *["report"] * 4]


def _entry(rng):
    # what a position of a reading may become: a signed zero, any printed
    # entry, or a moderate float
    return rng.choice((rng.choice((0.0, -0.0, *DEFAULT_PHI9.k)), rng.uniform(-2.0, 2.0)))


def _k(rng):
    # DEFAULT_PHI9.k with up to four positions replaced
    new = {rng.randrange(17): _entry(rng) for _ in range(rng.randint(0, 4))}
    return tuple(new.get(i, c) for i, c in enumerate(DEFAULT_PHI9.k))


def _replaced(k, pos, values):
    return [k[:pos] + (v,) + k[pos + 1:] for v in values]


def _reading_set(rng, shape):
    if shape == 0:  # distinct readings, drawn with repeats
        return rng.choices([_k(rng) for _ in range(rng.randint(1, 10))], k=rng.randint(1, 20))
    if shape == 1:  # one reading, repeated
        return [_k(rng)] * rng.randint(1, 20)
    if shape == 2:  # readings that differ only at k17, or only at k1
        return _replaced(_k(rng), rng.choice((16, 0)),
                         [_entry(rng) for _ in range(rng.randint(1, 20))])
    # 0.0 against -0.0 at one position, also where every other entry is zero
    return _replaced(rng.choice((_k(rng), (0.0,) * 17)), rng.randrange(17), (0.0, -0.0))


def test_phi9_kernel_equals_pointwise_scoring():
    spec = GridSpec(0.0, 3.0, 0.25)
    pts = spec.points()
    rng = random.Random(100)
    edges = [[(0.0,) * 17], [(-0.0,) * 17, (0.0,) * 17], [r.k for r in _MIXED_READINGS]]
    for ks in edges + [_reading_set(rng, n % 4) for n in range(100)]:
        _ref_values.cache_clear()  # no report kept from an earlier case
        readings = [Phi9Coefficients(k=k, variant_tag=str(i)) for i, k in enumerate(ks)]
        for r, rep in zip(readings, phi9_error_reports(spec, readings)):
            _assert_first_of_ties_reduction(
                rep, pts, [abs(_phi9_cdf(z, r) - ref_cdf(z)) for z in pts], r.k)


def test_phi9_kernel_binds_every_coefficient_as_a_default():
    ks = tuple(v.k for v in PHI9_VARIANTS)
    kernel = metrics._phi9_kernel(ks)
    # the logistic's constants only: no coefficient went through source text
    assert set(kernel.__code__.co_consts) <= {None, 0.0, 1.0}
    assert {c for k in ks for c in k} <= set(kernel.__defaults__)


def _grid_bounds(rng):
    # a float over all bit patterns, or an edge
    start, stop, step = (rng.choice(FLOAT_EDGES) if rng.random() < 0.5 else any_float(rng)
                         for _ in range(3))
    if rng.random() < 0.5:
        # three random floats almost never make a valid grid, so half the
        # cases build one from a start, a step and a point count
        start, step = abs(start), abs(step)
        stop = start + rng.randint(1, 2000) * step
    return start, stop, step


def test_any_grid_gives_a_report_or_a_domain_error():
    rng = random.Random(101)
    edges = [(0.0, 5e-324, 5e-324), (0.0, 1e308, 5e307), (1e308, math.inf, 1e308),
             (math.nan, 1.0, 0.5), (0.0, 1.0, 0.0), (0.0, 3.0, 1.5), (6.0, 9.0, 1.5),
             (-0.0, 2.0, 0.25)]
    for bounds in edges + [_grid_bounds(rng) for _ in range(100)]:
        try:
            spec = GridSpec(*bounds)
        except DomainError as exc:  # rejected before a point is built
            assert ("must be finite" in str(exc)) != all(map(math.isfinite, bounds)), bounds
            continue
        if spec.count > 2000:
            continue
        calls = [partial(compute_error_report, d.index, spec) for d in list_approximations()]
        for call in [*calls, lambda: format_report(reconcile_phi9(spec))]:
            with contextlib.suppress(DomainError):
                call()


def test_oracle_cache_holds_two_grids():
    for stop in (1.0, 2.0, 3.0):
        compute_error_report(1, GridSpec(0.0, stop, 0.5))
    assert _ref_values.cache_info().currsize == 2


@pytest.mark.parametrize("z, match", [
    (-0.4, r"inverse_table requires a finite z >= 0, and z as a double is -0\.4$"),
    (math.inf, "inverse_table requires a finite z >= 0, and z as a double is inf$"),
    (math.nan, "inverse_table requires a finite z >= 0, and z as a double is nan$"),
    # Phi(z) rounds to 1 from z = 8.29236 on, where no quantile exists
    (8.3, r"Phi\(8\.3\) rounds to 1"),
], ids=["negative", "inf", "nan", "phi-rounds-to-1"])
def test_inverse_table_rejects_negative(z, match):
    with pytest.raises(DomainError, match=match):
        inverse_table([z])
