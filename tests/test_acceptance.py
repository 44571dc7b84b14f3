"""Acceptance criteria, one labelled check per criterion (C1..C8).

Each test prints an ``ACCEPTANCE:`` pass/fail line.  Three checks assert
figures that the published source tables contradict internally; they are
implemented verbatim anyway and fail with the analysis in the message rather
than being loosened:

* C4: the signed-difference table disagrees with its own companion table at
  z=2.0 (printed -0.00025; the companion's 1.9975 forces -0.00248) and the
  six-digit z=0.8 entry differs from the printed formulas by 8e-10.
* C5: the z-space round trip at z >= 5 is information-limited by the double
  rounding of p = Phi(z); no 64-bit implementation can pass 1e-12 there.
* C6: the |delta3| <= 5e-4 band on [0, 2] extrapolated the misprinted z=2.0
  cell (true |delta3(2.0)| = 2.48e-3), and the strict range bound (0, 1)
  saturates for the ninth approximation because the printed coefficients blow
  up the exponent (same defect the C2 fallback documents).
"""

import csv
import json
import time

import pytest

from normapprox import (DEFAULT_PHI9, GRID_A, GRID_B,
                        compute_error_report, eval_cdf_extended,
                        inverse_table, quantile_approx, ref_cdf, ref_quantile,
                        reconcile_phi9)
from normapprox.cli import main
from normapprox.reconcile import format_report
from goldens import (PHI9_TARGET_ARGMAX, PHI9_TARGET_MAE, PHI9_TARGET_MXAE,
                     TABLE2, TABLE3, TABLE4)
from quadrature import oracle_cross_check


def _report(line):
    print(f"ACCEPTANCE: {line}")


def test_c1_table2_phi1_to_phi8_within_2_percent():
    t0 = time.perf_counter()
    deviations = []
    for idx in range(1, 9):
        rep = compute_error_report(idx, GRID_B)
        mxae_ref, mae_ref = TABLE2[idx]
        deviations.append((idx, abs(rep.mxae - mxae_ref) / mxae_ref,
                           abs(rep.mae - mae_ref) / mae_ref))
    elapsed = time.perf_counter() - t0
    ok = all(dx <= 0.02 and dm <= 0.02 for _, dx, dm in deviations) and elapsed < 10.0
    _report(f"C1 accuracy table phi1..phi8 (2% rel, {elapsed:.2f}s): "
            f"{'PASS' if ok else 'FAIL'}")
    for idx, dx, dm in deviations:
        assert dx <= 0.02, f"phi{idx} mxae off by {dx:.2%}"
        assert dm <= 0.02, f"phi{idx} mae off by {dm:.2%}"
    assert elapsed < 10.0


def test_c2_phi9_reconciliation_or_documented_fallback():
    report = reconcile_phi9(GRID_B)
    sel = report.selected_report
    if report.gate_passed:
        assert sel.mxae <= 1e-9
        assert sel.mxae == pytest.approx(PHI9_TARGET_MXAE, rel=0.05)
        assert sel.mae == pytest.approx(PHI9_TARGET_MAE, rel=0.05)
        assert abs(sel.mxae_location - PHI9_TARGET_ARGMAX) <= 0.01
        _report("C2 phi9 reconciliation: PASS (published accuracy reproduced)")
        return
    # fallback form: report generated, best variant selected, discrepancy
    # documented
    assert len(report.variants) == 8
    assert sel.mxae == min(r.mxae for _, r in report.variants)
    assert report.selected == DEFAULT_PHI9.variant_tag
    text = format_report(report)
    assert "gate_passed: no" in text
    assert "best achieved" in report.notes
    for variant, _ in report.variants:
        assert variant.variant_tag in text
    _report("C2 phi9 reconciliation: PASS (fallback form: 8-variant report, "
            f"best variant {report.selected!r} ships as default, "
            f"mxae {sel.mxae:.3e} vs target {PHI9_TARGET_MXAE:.2e} documented)")


def test_c3_table3_reproduction():
    rows = {round(r.z, 1): r for r in inverse_table()}
    bad = []
    for z, (v1, v2, v3) in TABLE3.items():
        r = rows[z]
        for name, computed, printed in (("zhat1", r.zhat1, v1),
                                        ("zhat2", r.zhat2, v2),
                                        ("zhat3", r.zhat3, v3)):
            if abs(computed - printed) > 1e-4 + 1e-12:
                bad.append(f"z={z} {name}: {computed:.6f} vs printed {printed}")
    _report(f"C3 quantile table (39 cells, ±1e-4): {'PASS' if not bad else 'FAIL'}")
    assert not bad, "\n".join(bad)


def test_c4_table4_reproduction():
    rows = {round(r.z, 1): r for r in inverse_table()}
    bad = []
    for z, cells in TABLE4.items():
        r = rows[z]
        for name, computed, (printed, unit) in (("delta1", r.delta1, cells[0]),
                                                ("delta2", r.delta2, cells[1]),
                                                ("delta3", r.delta3, cells[2])):
            if abs(computed - printed) > unit * 1.0001:
                bad.append(f"z={z} {name}: computed {computed:.6e} vs printed "
                           f"{printed:.6e} (±{unit:.0e})")
    _report(f"C4 difference table (39 cells, ±1 last-digit unit): "
            f"{'PASS' if not bad else 'FAIL (known source-table defects)'}")
    assert not bad, (
        "cells inconsistent within the published source itself:\n  "
        + "\n  ".join(bad)
        + "\n  analysis: the z=2.0 delta3 row contradicts the companion table "
          "(its 1.9975 implies delta3 = -0.0025, matching the computed value), "
          "and the z=0.8 six-digit entry differs from the printed formulas by "
          "8e-10 regardless of the probability's precision")


def test_c5_oracle_dual_method_gate():
    worst_b = oracle_cross_check(GRID_B.points())
    worst_a = oracle_cross_check(GRID_A.points())
    ok = worst_b <= 1e-14 and worst_a <= 1e-14
    _report(f"C5 dual-method gate (grids A/B, max {max(worst_a, worst_b):.2e} "
            f"<= 1e-14): {'PASS' if ok else 'FAIL'}")
    assert worst_b <= 1e-14
    assert worst_a <= 1e-14


def test_c5_symmetry_invariant():
    worst = max(abs(ref_cdf(i * 0.01) + ref_cdf(-i * 0.01) - 1.0)
                for i in range(801))
    _report(f"C5 symmetry |cdf(z)+cdf(-z)-1| (max {worst:.2e} <= 2e-16): "
            f"{'PASS' if worst <= 2e-16 else 'FAIL'}")
    assert worst <= 2e-16


def test_c5_quantile_round_trip():
    bad = []
    for i in range(13):
        z = 0.5 * i
        err = abs(ref_quantile(ref_cdf(z)) - z)
        if err > 1e-12:
            bad.append(f"z={z}: {err:.3e}")
    _report(f"C5 quantile round trip (z=0..6, 1e-12): "
            f"{'PASS' if not bad else 'FAIL (information-limited at z>=5)'}")
    assert not bad, (
        "round trip beyond the information limit of 64-bit p:\n  "
        + "\n  ".join(bad)
        + "\n  analysis: p = cdf(z) rounds to the nearest double; applying an "
          "EXACT inverse to that rounded p already misses z by 2.98e-11 at "
          "z=5, 1.13e-10 at z=5.5 and 9.12e-9 at z=6 (half-ulp/pdf), so no "
          "implementation returning these measured errors can be improved")


@pytest.mark.parametrize("approx_id", range(1, 10))
def test_c6_range_invariant(approx_id):
    grids = [GRID_A] if approx_id == 9 else [GRID_A, GRID_B]
    sat = []
    for grid in grids:
        for z in grid.points():
            v = eval_cdf_extended(approx_id, z)
            assert v > 0.0
            if not v < 1.0:
                sat.append(z)
    ok = not sat
    _report(f"C6 range (0,1) phi{approx_id}: {'PASS' if ok else 'FAIL (saturation)'}")
    assert ok, (
        f"phi{approx_id} reaches 1.0 exactly from z={sat[0]:g} on: the printed "
        "exponent coefficients blow up (a(4) ~ 150 against the ~2.6 a faithful "
        "fit needs), which saturates the logistic past the point where 1+e^-y "
        "is representable; same source defect the C2 fallback documents")


def test_c6_reflection_identity():
    # z > 0 pairs: one side is constructed as 1 - v, which is exact for
    # v in [0.5, 1]; at z = 0 no reflection takes place (and the tanh-based
    # phi7 does not meet 0.5 there even in exact arithmetic)
    zs = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0]
    ok = all(eval_cdf_extended(i, z) + eval_cdf_extended(i, -z) == 1.0
             for i in range(1, 10) for z in zs)
    _report(f"C6 reflection identity exact: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c6_monotonicity_phi1_to_phi8():
    bad = []
    pts = GRID_B.points()
    for i in range(1, 9):
        vals = [eval_cdf_extended(i, z) for z in pts]
        if not all(b >= a for a, b in zip(vals, vals[1:])):
            bad.append(i)
    _report(f"C6 monotonicity phi1..phi8 on grid B: {'PASS' if not bad else 'FAIL'}")
    assert not bad


def test_c6_quantile_approximations_fix_median():
    ok = all(quantile_approx(i, 0.5) == 0.0 for i in (1, 2, 3))
    _report(f"C6 zhat_i(0.5) = 0: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c6_z3_monotone_scan():
    prev = -1.0
    ok = True
    for i in range(5000):
        v = quantile_approx(3, 0.5 + i * 1e-4)
        if v < prev:
            ok = False
            break
        prev = v
    _report(f"C6 z3 nondecreasing on p=0.5..0.9999: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c6_delta3_band_on_0_2():
    worst, worst_z = 0.0, 0.0
    for i in range(0, 2001):
        z = i * 0.001
        d = abs(quantile_approx(3, ref_cdf(z)) - z)
        if d > worst:
            worst, worst_z = d, z
    ok = worst <= 5e-4
    _report(f"C6 |delta3| <= 5e-4 on z in [0,2] (max {worst:.2e} at z={worst_z:g}): "
            f"{'PASS' if ok else 'FAIL (band derived from the misprinted z=2.0 cell)'}")
    assert ok, (
        f"|delta3| = {worst:.4e} at z = {worst_z:g}: the published sampled "
        "bound 2.5e-4 that this band doubles comes from the misprinted z=2.0 "
        "difference (-0.00025); the same source's companion table prints "
        "1.9975 there, i.e. |delta3(2.0)| = 2.5e-3, so the band cannot hold "
        "on (1.824, 2.0]")


def test_c7_bench_command(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "--format", "json", "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    rows = obj["rows"]
    assert len(rows) == 10
    subjects = [r["subject"] for r in rows]
    assert subjects == [f"phi{i}" for i in range(1, 10)] + ["oracle"]
    for r in rows:
        assert r["evaluations"] >= 10 ** 6
        assert r["per_eval_full"] > 0.0
        assert r["per_eval_full"] == r["wall_time_full"] / r["evaluations"]
    per = {r["subject"]: r["per_eval_full"] for r in rows}
    # expectation, not a hard assert, and of per-call cost, not of kernels:
    # phi1 runs through partial(eval_cdf_extended, 1), paying the partial, the
    # entry point's checks and a lambda exponent, while ref_cdf runs mostly in C
    note = ("holds" if per["oracle"] >= per["phi1"] else
            "DID NOT hold on this machine (timing expectation only)")
    _report(f"C7 bench >= 1e6 evals/subject, well-formed: PASS "
            f"(oracle {per['oracle'] * 1e9:.0f} ns >= phi1 "
            f"{per['phi1'] * 1e9:.0f} ns {note})")


def test_c8_table_regeneration_under_60s(tmp_path):
    t0 = time.perf_counter()
    assert main(["table2", "--format", "csv",
                 "--output", str(tmp_path / "t2.csv")]) == 0
    assert main(["table34", "--format", "csv",
                 "--output", str(tmp_path / "t34.csv")]) == 0
    assert main(["curves", "--output", str(tmp_path)]) == 0
    assert main(["reconcile", "--output", str(tmp_path / "rec.txt")]) == 0
    elapsed = time.perf_counter() - t0
    with open(tmp_path / "t2.csv") as fh:
        assert len(list(csv.reader(fh))) == 10
    ok = elapsed < 60.0
    _report(f"C8 full table regeneration in {elapsed:.2f}s < 60s: "
            f"{'PASS' if ok else 'FAIL'}")
    assert ok
