"""Empirical selection among the conflicting printed coefficient variants of
the ninth approximation's exponent polynomial.

The published sources disagree at k3, k5 and k8; ``approximations`` holds the
two readings of each and builds their eight combinations as ``PHI9_VARIANTS``.
``reconcile_phi9`` scores all eight against the oracle through
``phi9_error_reports`` and selects the minimal-MXAE variant, treating the
published accuracy figures as the specification of record.  Those not
already scored on the grid take one grid pass, which runs each Horner step
the variants share once a point: they differ only at k3, k5 and k8.
"""

from .approximations import DEFAULT_PHI9, PHI9_VARIANTS, descriptor
from .errors import Record
from .metrics import GRID_B, GridSpec, phi9_error_reports

# Published accuracy of the ninth approximation and the gate a variant must
# meet to count as reproducing it.
TARGET_MXAE = descriptor(9).reported_mxae
TARGET_MAE = descriptor(9).reported_mae
TARGET_ARGMAX = 0.794634
GATE_MXAE = 1e-9
GATE_ARGMAX_TOL = 0.01


class ReconciliationReport(Record):
    """Every variant with its grid error report, plus the selection outcome.

    ``variants`` holds ``(Phi9Coefficients, ErrorReport)`` pairs.
    ``selected_report`` is the grid error report of the ``selected`` variant.
    ``gate_passed`` is True only when the selected variant reproduces the
    published MXAE gate (<= 1e-9 with the argmax at the published location).
    """

    __slots__ = ("variants", "selected", "selected_report", "gate_passed", "notes")


def reconcile_phi9(spec: GridSpec = GRID_B) -> ReconciliationReport:
    """Score all variants on ``spec`` and select the minimal MXAE."""
    scored = tuple(zip(PHI9_VARIANTS, phi9_error_reports(spec, PHI9_VARIANTS)))
    best_variant, best_report = min(scored, key=lambda vr: vr[1].mxae)
    ties = [v.variant_tag for v, r in scored
            if r.mxae == best_report.mxae and v is not best_variant]
    gate = (best_report.mxae <= GATE_MXAE
            and abs(best_report.mxae_location - TARGET_ARGMAX) <= GATE_ARGMAX_TOL)
    if gate:
        notes = (f"variant {best_variant.variant_tag!r} reproduces the published "
                 f"accuracy: mxae {best_report.mxae:.3e} at z = {best_report.mxae_location:.6f}")
    else:
        default = ("which ships as the library default" if best_variant is DEFAULT_PHI9
                   else f"while the library default is {DEFAULT_PHI9.variant_tag!r}")
        notes = (f"no variant reproduces the published mxae {TARGET_MXAE:.2e} at "
                 f"z = {TARGET_ARGMAX}; best achieved is {best_report.mxae:.3e} at "
                 f"z = {best_report.mxae_location:.6f} by {best_variant.variant_tag!r}, "
                 + default)
    if ties:
        notes += ("; mxae ties with " + ", ".join(repr(t) for t in ties)
                  + "; the flagged coefficients are error-insensitive there")
    return ReconciliationReport(
        variants=scored,
        selected=best_variant.variant_tag,
        selected_report=best_report,
        gate_passed=gate,
        notes=notes,
    )


def format_report(report: ReconciliationReport) -> str:
    """Human-readable key/value and tabular rendering of a report."""
    sel = report.selected_report
    grid = sel.grid
    lines = [
        "phi9 coefficient reconciliation",
        "===============================",
        "",
        f"grid_start: {grid.start!r}",
        f"grid_stop: {grid.stop!r}",
        f"grid_step: {grid.step!r}",
        f"grid_count: {grid.count}",
        f"target_mxae: {TARGET_MXAE:.3e}",
        f"target_mae: {TARGET_MAE:.3e}",
        f"target_argmax: {TARGET_ARGMAX}",
        f"gate: mxae <= {GATE_MXAE:.1e} and |argmax - {TARGET_ARGMAX}| <= {GATE_ARGMAX_TOL}",
        f"gate_passed: {'yes' if report.gate_passed else 'no'}",
        f"selected: {report.selected}",
        f"selected_mxae: {sel.mxae:.6e} ({sel.mxae!r})",
        f"selected_mae: {sel.mae:.6e} ({sel.mae!r})",
        f"selected_argmax: {sel.mxae_location!r}",
        f"note: {report.notes}",
        "",
        f"{'variant':<28}{'mxae':<16}{'mae':<16}{'argmax':<12}notes",
    ]
    for variant, rep in report.variants:
        mark = " *" if variant.variant_tag == report.selected else ""
        lines.append(f"{variant.variant_tag + mark:<28}{rep.mxae:<16.6e}"
                     f"{rep.mae:<16.6e}{rep.mxae_location:<12.4f}{variant.notes}")
    lines.append("")
    default = DEFAULT_PHI9.variant_tag
    lines.append(f"(*) selected variant; embedded as the library default ({default!r})"
                 if report.selected == default
                 else f"(*) selected variant; the library default is {default!r}")
    return "\n".join(lines) + "\n"
