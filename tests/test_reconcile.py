"""Coefficient-variant generation and empirical selection."""

import pytest

from normapprox import (DEFAULT_PHI9, GRID_B, GridSpec, Phi9Coefficients,
                        compute_error_report, generate_variants,
                        reconcile_phi9)
from normapprox.approximations import K_TABULATED
from normapprox.reconcile import (GATE_ARGMAX_TOL, TARGET_ARGMAX, TARGET_MXAE,
                                  format_report)

FLAGGED = (2, 4, 7)  # zero-based positions of k3, k5, k8


def test_eight_variants_in_fixed_order():
    variants = generate_variants()
    assert len(variants) == 8
    assert variants[0].label == "table-literal"
    assert variants[2].label == "prose-literal"
    assert len({v.label for v in variants}) == 8


def test_table_literal_matches_tabulated_values():
    v = generate_variants()[0]
    assert v.coefficients.k == K_TABULATED


def test_prose_literal_flips_k5_only():
    table = generate_variants()[0].coefficients.k
    prose = generate_variants()[2].coefficients.k
    assert prose[4] == -table[4] == -5.3498e-5
    assert all(a == b for i, (a, b) in enumerate(zip(table, prose)) if i != 4)


def test_variants_differ_only_at_flagged_positions():
    for v in generate_variants():
        for i, (a, b) in enumerate(zip(v.coefficients.k, K_TABULATED)):
            if i not in FLAGGED:
                assert a == b


def test_selection_on_default_grid(tmp_path):
    report = reconcile_phi9()
    assert len(report.variants) == 8
    assert all(r.mxae > 0.0 and r.mxae < float("inf") for _, r in report.variants)

    selected = report.selected_report
    assert selected.mxae == min(r.mxae for _, r in report.variants)
    # a tie between the selected and a distinct variant must be called out
    worst_equal = [v.label for v, r in report.variants
                   if r.mxae == selected.mxae and v.label != report.selected]
    if worst_equal:
        assert "error-insensitive" in report.notes

    # the shipped default is the selected variant
    assert report.selected == DEFAULT_PHI9.variant_tag
    sel_variant = next(v for v, _ in report.variants if v.label == report.selected)
    assert sel_variant.coefficients.k == DEFAULT_PHI9.k

    # no printed variant reproduces the published 4.43e-10; the report says so
    assert not report.gate_passed
    assert selected.mxae == pytest.approx(3.55e-3, rel=1e-2)
    assert "best achieved" in report.notes

    out = tmp_path / "report.txt"
    out.write_text(format_report(report), encoding="utf-8")
    text = out.read_text()
    assert "gate_passed: no" in text
    assert "table-literal" in text and "prose-literal" in text
    assert text.count("\n") > 12  # key/value block plus the variant table


def test_selection_is_deterministic():
    assert reconcile_phi9().selected == reconcile_phi9().selected


def test_reconcile_on_coarser_grid_same_winner():
    report = reconcile_phi9(GridSpec(0.0, 4.0, 0.01))
    assert report.selected == DEFAULT_PHI9.variant_tag


def test_negated_k14_reproduces_published_accuracy():
    # evidence only: the shipped default stays as reconcile selects it.  One
    # sign change on top of it, at k14, meets the published MXAE and argmax.
    k = list(DEFAULT_PHI9.k)
    k[13] = -k[13]
    rep = compute_error_report(9, GRID_B, Phi9Coefficients(k=tuple(k), variant_tag="k14minus"))
    assert rep.mxae == pytest.approx(TARGET_MXAE, rel=0.01)
    assert abs(rep.mxae_location - TARGET_ARGMAX) <= GATE_ARGMAX_TOL
