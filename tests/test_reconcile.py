"""Coefficient-variant generation and empirical selection."""

import pytest

from normapprox import (DEFAULT_PHI9, GRID_B, PHI9_VARIANTS, GridSpec,
                        Phi9Coefficients, phi9_error_reports, reconcile,
                        reconcile_phi9)
from normapprox.approximations import K_TABULATED
from normapprox.metrics import _ref_values
from normapprox.reconcile import (GATE_ARGMAX_TOL, TARGET_ARGMAX, TARGET_MXAE,
                                  format_report)

FLAGGED = (2, 4, 7)  # zero-based positions of k3, k5, k8


def test_variants_are_built_once():
    # the default is one of the variants, and reconcile scores those objects
    assert [v is DEFAULT_PHI9 for v in PHI9_VARIANTS].count(True) == 1
    scored = [v for v, _ in reconcile_phi9(GridSpec(0.0, 4.0, 0.5)).variants]
    assert len(scored) == len(PHI9_VARIANTS)
    assert all(a is b for a, b in zip(scored, PHI9_VARIANTS))


def test_table_literal_matches_tabulated_values():
    v = PHI9_VARIANTS[0]
    assert v.k == K_TABULATED


def test_prose_literal_flips_k5_only():
    table = PHI9_VARIANTS[0].k
    prose = PHI9_VARIANTS[2].k
    assert prose[4] == -table[4] == -5.3498e-5
    assert all(a == b for i, (a, b) in enumerate(zip(table, prose)) if i != 4)


def test_variants_differ_only_at_flagged_positions():
    for v in PHI9_VARIANTS:
        for i, (a, b) in enumerate(zip(v.k, K_TABULATED)):
            if i not in FLAGGED:
                assert a == b


def test_equal_int_and_float_grids_print_alike():
    # equal grids share one cache entry, so the first one's fields once
    # printed for the second: grid_start: 0 after an int grid
    assert "grid_start: 0.0\n" in format_report(reconcile_phi9(GridSpec(0, 4, 1)))
    assert format_report(reconcile_phi9(GridSpec(0.0, 4.0, 1.0))) == \
        format_report(reconcile_phi9(GridSpec(0, 4, 1)))


def test_negative_zero_grid_start_prints_as_zero():
    # GridSpec(-0.0, ...) equals GridSpec(0.0, ...) and shares its cached
    # reports, so a stored -0.0 once printed for the later, equal grid
    _ref_values.cache_clear()
    reconcile_phi9(GridSpec(-0.0, 4.0, 0.5))
    assert "grid_start: 0.0\n" in format_report(reconcile_phi9(GridSpec(0.0, 4.0, 0.5)))


def test_reconcile_on_coarser_grid_same_winner():
    report = reconcile_phi9(GridSpec(0.0, 4.0, 0.01))
    assert report.selected == DEFAULT_PHI9.variant_tag
    sel = report.selected_report
    assert (sel.mxae, sel.mxae_location, sel.mae) == \
        (0.00355014963603717, 2.57, 0.0007275722608033125)


@pytest.mark.parametrize("spec, winner", [
    (GridSpec(3.0, 5.0, 0.01), "prose-literal"),
    # every variant ties at 7.8e-16, and min keeps the first
    (GridSpec(0.0, 1e-6, 1e-6), "table-literal"),
], ids=["3-to-5", "all-tie"])
def test_report_names_the_default_when_another_variant_wins(spec, winner):
    report = reconcile_phi9(spec)
    assert report.selected == winner
    default = repr(DEFAULT_PHI9.variant_tag)
    assert f"by {winner!r}, while the library default is {default}" in report.notes
    assert "ships as the library default" not in report.notes
    text = format_report(report)
    assert text.endswith(f"\n(*) selected variant; the library default is {default}\n")
    assert "embedded as the library default" not in text


def test_negated_k14_reproduces_published_accuracy(monkeypatch):
    # evidence only: the shipped default stays as reconcile selects it.  One
    # sign change on top of it, at k14, meets the published MXAE and argmax.
    k = list(DEFAULT_PHI9.k)
    k[13] = -k[13]
    k14minus = Phi9Coefficients(k=tuple(k), variant_tag="k14minus")
    rep = phi9_error_reports(GRID_B, [k14minus])[0]
    assert rep.mxae == pytest.approx(TARGET_MXAE, rel=0.01)
    assert abs(rep.mxae_location - TARGET_ARGMAX) <= GATE_ARGMAX_TOL
    # offered as a variant, it is the one reading that passes the gate
    monkeypatch.setattr(reconcile, "PHI9_VARIANTS", (DEFAULT_PHI9, k14minus))
    report = reconcile_phi9()
    assert report.gate_passed
    assert report.selected == "k14minus"
    assert report.notes.startswith("variant 'k14minus' reproduces the published accuracy: "
                                   "mxae 4.434e-10 at z = 0.795000")
    assert "\ngate_passed: yes\n" in format_report(report)
