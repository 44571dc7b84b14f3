"""Evaluation grids, MXAE/MAE reports, signed error curves and the quantile
comparison table.

Reductions run sequentially in grid order (absolute-error sums through
``math.fsum``), so identical inputs always reproduce bit-identical reports.
Grid evaluation is embarrassingly parallel in principle; this implementation
keeps it single-threaded for exact reproducibility.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from . import inverse
from .approximations import Phi9Coefficients, descriptor, eval_cdf_approx
from .errors import DomainError, to_float
from .reference import ref_cdf

MAX_GRID_POINTS = 1_000_000  # 200 x GRID_B; bounds what a CLI grid allocates


@dataclass(frozen=True)
class GridSpec:
    """Inclusive arithmetic progression of abscissae.

    ``step`` must evenly divide ``stop - start`` to within 1e-6 of their
    ratio, so the last generated point, ``start + (count - 1) * step``, can
    miss ``stop`` by up to 1e-6 of the span (of one step, if that is longer):
    ``GridSpec(0.0, 8.9999999, 0.5)`` ends at 9.0.
    """

    start: float
    stop: float
    step: float

    def __post_init__(self):
        start, stop, step = (to_float(v) for v in (self.start, self.stop, self.step))
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise DomainError("grid bounds and step must be finite")
        if self.step <= 0.0:
            raise DomainError("grid step must be positive")
        if self.stop <= self.start:
            raise DomainError("grid stop must exceed start")
        ratio = (stop - start) / step  # in floats: a huge ratio is inf, not OverflowError
        if not ratio < MAX_GRID_POINTS:  # also rejects an overflowed inf
            raise DomainError(f"grid has more than {MAX_GRID_POINTS:,} points")
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, abs(ratio)):
            raise DomainError("grid step must evenly divide stop - start")

    @property
    def count(self) -> int:
        return round((self.stop - self.start) / self.step) + 1

    def points(self) -> list[float]:
        # start + i*step rather than cumulative addition, to avoid drift
        return [self.start + i * self.step for i in range(self.count)]


GRID_A = GridSpec(0.0, 4.0, 0.01)      # 401-point default
GRID_B = GridSpec(0.0, 5.0, 0.001)     # 5001-point default (accuracy tables)

DEFAULT_INVERSE_GRID = GridSpec(0.0, 4.8, 0.4)


@dataclass(frozen=True)
class ErrorReport:
    """MXAE with its argmax location plus MAE for one approximation on one
    grid.  Ties at the maximum resolve to the smallest abscissa."""

    approx: int
    grid: GridSpec
    mxae: float
    mxae_location: float
    mae: float


@dataclass(frozen=True)
class InverseRow:
    """One row of the quantile comparison: z, p = Phi(z), the three
    approximations and their signed differences."""

    z: float
    p: float
    zhat1: float
    zhat2: float
    zhat3: float
    delta1: float
    delta2: float
    delta3: float


@lru_cache(maxsize=32)
def _ref_values(spec: GridSpec) -> tuple[float, ...]:
    return tuple(ref_cdf(z) for z in spec.points())


def _checked_refs(approx_id: int, spec: GridSpec) -> tuple[float, ...]:
    """Oracle values on ``spec``, once the grid is known to lie inside the
    domain of approximation ``approx_id`` (checked before the oracle fill)."""
    if spec.start < 0.0:
        raise DomainError("approximation grids require z >= 0")
    d = descriptor(approx_id)
    # the grid really stops at its last point, which may overshoot spec.stop
    last = spec.start + (spec.count - 1) * spec.step
    if last >= d.domain_max:
        raise DomainError(f"grid stop {last:g} is outside the domain of "
                          f"{d.name}, |z| < {d.domain_max:g}")
    return _ref_values(spec)


def compute_error_report(approx_id: int, spec: GridSpec,
                         coeffs: Phi9Coefficients | None = None) -> ErrorReport:
    """Grid MXAE (with argmax, first-of-ties) and MAE against the oracle."""
    refs = _checked_refs(approx_id, spec)
    pts = spec.points()
    mxae = -1.0
    mxae_location = pts[0]
    errs = []
    for z, r in zip(pts, refs):
        e = abs(eval_cdf_approx(approx_id, z, coeffs) - r)
        errs.append(e)
        if e > mxae:
            mxae = e
            mxae_location = z
    return ErrorReport(approx=approx_id, grid=spec, mxae=mxae,
                       mxae_location=mxae_location, mae=math.fsum(errs) / len(errs))


def error_curve(approx_id: int, spec: GridSpec) -> list[tuple[float, float]]:
    """Signed differences (approximation - reference) in grid order."""
    refs = _checked_refs(approx_id, spec)
    return [(z, eval_cdf_approx(approx_id, z) - r)
            for z, r in zip(spec.points(), refs)]


def inverse_table(z_values=None) -> list[InverseRow]:
    """Quantile comparison rows at the given true abscissae (all >= 0).

    Defaults to z = 0 .. 4.8 step 0.4.  Probabilities are computed at full
    precision from the oracle; restricted to (p, delta3) over a dense range
    this doubles as the delta3-versus-p figure dataset.
    """
    if z_values is None:
        z_values = DEFAULT_INVERSE_GRID.points()
    rows = []
    for z in z_values:
        z = to_float(z)
        if not math.isfinite(z) or z < 0.0:
            raise DomainError("inverse_table requires z >= 0")
        p = ref_cdf(z)
        zh1 = inverse.z1_schmeiser(p)
        zh2 = inverse.z2_shore(p)
        zh3 = inverse.z3_proposed(p)
        rows.append(InverseRow(z=z, p=p, zhat1=zh1, zhat2=zh2, zhat3=zh3,
                               delta1=zh1 - z, delta2=zh2 - z, delta3=zh3 - z))
    return rows
