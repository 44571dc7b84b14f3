"""Empirical selection among the conflicting printed coefficient variants of
the ninth approximation's exponent polynomial.

The published sources disagree at three positions: k3 is printed an order of
magnitude above the cubic coefficient of every sibling formula (suggesting a
dropped leading zero), k5 changes sign between the running-text polynomial
and the tabulated values, and k8 is printed two orders above its neighbours
(suggesting an exponent slip).  ``generate_variants`` enumerates the 2^3
combinations; ``reconcile_phi9`` scores each against the oracle on a grid and
selects the minimal-MXAE variant, treating the published accuracy figures as
the specification of record.
"""

from dataclasses import dataclass
from itertools import product

from .approximations import (DEFAULT_PHI9, PHI9_READINGS, Phi9Coefficients,
                             descriptor, phi9_reading)
from .metrics import GRID_B, ErrorReport, GridSpec, compute_error_report

# Published accuracy of the ninth approximation and the gate a variant must
# meet to count as reproducing it.
TARGET_MXAE = descriptor(9).reported_mxae
TARGET_MAE = descriptor(9).reported_mae
TARGET_ARGMAX = 0.794634
GATE_MXAE = 1e-9
GATE_ARGMAX_TOL = 0.01

# Combinations of readings that follow one printed source throughout.
_LITERAL_LABELS = {
    ("k3print", "k5plus", "k8print"): "table-literal",
    ("k3print", "k5minus", "k8print"): "prose-literal",
}


@dataclass(frozen=True)
class CoefficientVariant:
    """One candidate coefficient vector plus what distinguishes it."""

    label: str
    coefficients: Phi9Coefficients
    discrepancy_notes: str


@dataclass(frozen=True)
class ReconciliationReport:
    """Every variant with its grid error report, plus the selection outcome.

    ``selected_report`` is the grid error report of the ``selected`` variant.
    ``gate_passed`` is True only when the selected variant reproduces the
    published MXAE gate (<= 1e-9 with the argmax at the published location).
    """

    variants: tuple[tuple[CoefficientVariant, ErrorReport], ...]
    selected: str
    selected_report: ErrorReport
    gate_passed: bool
    notes: str


def generate_variants() -> tuple[CoefficientVariant, ...]:
    """The 8 variants from the three flagged positions, in a fixed order.

    The all-as-printed combination is labelled ``table-literal``; the one
    matching the running text (negative k5) is ``prose-literal``.
    """
    variants = []
    for readings in product(*PHI9_READINGS.values()):
        tags = tuple(tag for tag, _, _ in readings)
        label = _LITERAL_LABELS.get(tags, "-".join(tags))
        variants.append(CoefficientVariant(
            label=label,
            coefficients=Phi9Coefficients(k=phi9_reading(tags), variant_tag=label),
            discrepancy_notes="; ".join(note for _, _, note in readings),
        ))
    return tuple(variants)


def reconcile_phi9(spec: GridSpec = GRID_B) -> ReconciliationReport:
    """Score all variants on ``spec`` and select the minimal MXAE."""
    scored = tuple((v, compute_error_report(9, spec, v.coefficients))
                   for v in generate_variants())
    best_variant, best_report = min(scored, key=lambda vr: vr[1].mxae)
    ties = [v.label for v, r in scored
            if r.mxae == best_report.mxae and v.label != best_variant.label]
    gate = (best_report.mxae <= GATE_MXAE
            and abs(best_report.mxae_location - TARGET_ARGMAX) <= GATE_ARGMAX_TOL)
    if gate:
        notes = (f"variant {best_variant.label!r} reproduces the published accuracy: "
                 f"mxae {best_report.mxae:.3e} at z = {best_report.mxae_location:.6f}")
    else:
        notes = (f"no variant reproduces the published mxae {TARGET_MXAE:.2e} at "
                 f"z = {TARGET_ARGMAX}; best achieved is {best_report.mxae:.3e} at "
                 f"z = {best_report.mxae_location:.6f} by {best_variant.label!r}, "
                 f"which ships as the library default")
    if ties:
        notes += ("; mxae ties with " + ", ".join(repr(t) for t in ties)
                  + "; the flagged coefficients are error-insensitive there")
    return ReconciliationReport(
        variants=scored,
        selected=best_variant.label,
        selected_report=best_report,
        gate_passed=gate,
        notes=notes,
    )


def format_report(report: ReconciliationReport) -> str:
    """Human-readable key/value and tabular rendering of a report."""
    grid = report.variants[0][1].grid
    sel = report.selected_report
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
        mark = " *" if variant.label == report.selected else ""
        lines.append(f"{variant.label + mark:<28}{rep.mxae:<16.6e}{rep.mae:<16.6e}"
                     f"{rep.mxae_location:<12.4f}{variant.discrepancy_notes}")
    lines.append("")
    lines.append("(*) selected variant; embedded as the library default "
                 f"({DEFAULT_PHI9.variant_tag!r})")
    return "\n".join(lines) + "\n"
