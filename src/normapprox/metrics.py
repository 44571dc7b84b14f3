"""Evaluation grids, MXAE/MAE reports, signed error curves and the quantile
comparison table.

Each grid is checked once against the form's domain, before the oracle fill,
and its abscissae, oracle values and phi9 reports are cached together.
``compute_error_report`` and ``phi9_error_reports``, the hot paths, are then
the loops that skip the per-point checks: they evaluate the exponent and
logistic directly, with the same arithmetic as ``eval_cdf_extended``.
``phi9_error_reports`` is the one phi9 grid kernel: one grid pass through a
straight-line loop, generated for its readings, that runs each Horner
step they share once a point; ``compute_error_report`` scores phi9
through it with DEFAULT_PHI9.  A reading is scored at most once per cached
grid, so ``table2`` and ``reconcile`` share the default reading's report.
Both loops end in one reduction, sequential in grid order (sums through
``math.fsum``), so identical inputs always reproduce bit-identical reports.
``error_curve`` goes through ``eval_cdf_extended`` point by point.
Grid evaluation stays single-threaded.  Each report is a pure function of its
inputs, so a parallel split would keep its bits, but it does not pay: on a
2-vCPU host a two-way forked split gained on ``table2`` in some runs only, and
not on ``reconcile`` (ROADMAP "Measured, and not worth doing now").
"""

import math
from array import array
from functools import lru_cache

from .approximations import (DEFAULT_PHI9, Phi9Coefficients, descriptor,
                             eval_cdf_extended)
from .errors import DomainError, Record, to_float
from .inverse import quantile_approx
from .reference import ref_cdf

MAX_GRID_POINTS = 1_000_000  # 200 x GRID_B; bounds what one library grid allocates
_MAX_CACHED_REPORTS = 16  # phi9 readings kept per grid, and scored per kernel


class GridSpec(Record):
    """Inclusive arithmetic progression of abscissae, stored as floats.

    ``step`` must not exceed ``stop - start`` and must evenly divide it to
    within 1e-6 of their ratio, so the last generated point,
    ``start + (count - 1) * step``, can miss ``stop`` by up to 1e-6 of the
    span: ``GridSpec(0.0, 8.9999999, 0.5)`` ends at 9.0.
    """

    __slots__ = ("start", "stop", "step")

    def _check(self, *bounds):
        # + 0.0 turns -0.0 into 0.0, so equal grids store and print alike
        start, stop, step = bounds = tuple(to_float(v) + 0.0 for v in bounds)
        if not all(math.isfinite(v) for v in bounds):
            raise DomainError("grid bounds and step must be finite")
        if step <= 0.0:
            raise DomainError("grid step must be positive")
        if stop <= start:
            raise DomainError("grid stop must exceed start")
        ratio = (stop - start) / step  # in floats: a huge ratio is inf, not OverflowError
        # count is round(ratio) + 1; the first test rejects an inf before round()
        if not ratio < MAX_GRID_POINTS or round(ratio) + 1 > MAX_GRID_POINTS:
            raise DomainError(f"grid has more than {MAX_GRID_POINTS:,} points")
        if round(ratio) < 1:
            raise DomainError("grid step must not exceed stop - start")
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, abs(ratio)):
            raise DomainError("grid step must evenly divide stop - start")
        return bounds

    @property
    def count(self) -> int:
        return round((self.stop - self.start) / self.step) + 1

    def points(self) -> list[float]:
        # start + i*step rather than cumulative addition, to avoid drift
        return [self.start + i * self.step for i in range(self.count)]


GRID_A = GridSpec(0.0, 4.0, 0.01)      # 401-point default
GRID_B = GridSpec(0.0, 5.0, 0.001)     # 5001-point default (accuracy tables)

DEFAULT_INVERSE_GRID = GridSpec(0.0, 4.8, 0.4)


class ErrorReport(Record):
    """MXAE with its argmax location plus MAE for one approximation on one
    grid.  Ties at the maximum resolve to the smallest abscissa."""

    __slots__ = ("grid", "mxae", "mxae_location", "mae")


class InverseRow(Record):
    """One row of the quantile comparison: z, p = Phi(z), the three
    approximations and their signed differences."""

    __slots__ = ("z", "p", "zhat1", "zhat2", "zhat3", "delta1", "delta2", "delta3")


# (abscissae, oracle values, phi9 reports) of a grid.  A 1,000,000-point
# entry holds 16 MB, so two entries bound a process to about 32 MB.  The
# reports dict maps a reading's k to its ErrorReport and holds at most
# _MAX_CACHED_REPORTS, a few hundred bytes each.  The CLI scores only the
# published grids, GRID_B for table2 and reconcile and GRID_A for curves
# (inverse_table does not cache), so every artefact command run in one
# process fills exactly these two: none refills and DEFAULT_PHI9 is scored
# once on GRID_B.
@lru_cache(maxsize=2)
def _ref_values(spec: GridSpec) -> tuple[array, array, dict]:
    pts = array("d", spec.points())
    return pts, array("d", map(ref_cdf, pts)), {}


def _checked_refs(approx_id: int, spec: GridSpec) -> tuple[array, array, dict]:
    """``_ref_values(spec)``, once the grid is known to lie inside the domain
    of approximation ``approx_id`` (checked before the oracle fill)."""
    if spec.start < 0.0:
        raise DomainError("approximation grids require z >= 0")
    d = descriptor(approx_id)
    # the grid really stops at its last point, which may overshoot spec.stop
    last = spec.start + (spec.count - 1) * spec.step
    if last >= d.domain_max:
        raise DomainError(f"grid stop {last:g} is outside the domain of "
                          f"{d.name}, |z| < {d.domain_max:g}")
    return _ref_values(spec)


def _report(spec: GridSpec, pts, errs) -> ErrorReport:
    """MXAE at its first-of-ties argmax, and MAE.  ``max`` and ``index`` give
    the first of ties only while no error is NaN: phi9 readings are finite, and
    each registry exponent on a checked grid is finite or raises OverflowError."""
    mxae = max(errs)
    return ErrorReport(grid=spec, mxae=mxae, mxae_location=pts[errs.index(mxae)],
                       mae=math.fsum(errs) / len(errs))


def compute_error_report(approx_id: int, spec: GridSpec) -> ErrorReport:
    """Grid MXAE (with argmax, first-of-ties) and MAE against the oracle;
    phi9 reads DEFAULT_PHI9 (``phi9_error_reports`` scores other readings)."""
    y = descriptor(approx_id).y  # raises for an unknown id, 9.0 among them
    if approx_id == 9:
        return phi9_error_reports(spec, (DEFAULT_PHI9,))[0]
    pts, refs, _ = _checked_refs(approx_id, spec)
    exp = math.exp
    errs = []
    for z, r in zip(pts, refs):
        # the logistic of eval_cdf_extended; _checked_refs has checked every z
        try:
            t = y(z)
        except OverflowError:
            a = 1.0
        else:
            if t >= 0.0:
                a = 1.0 / (1.0 + exp(-t))
            else:
                e = exp(t)
                a = e / (1.0 + e)
        errs.append(abs(a - r))
    return _report(spec, pts, errs)


def phi9_error_reports(spec: GridSpec, readings) -> tuple[ErrorReport, ...]:
    """One report per phi9 coefficient reading, in order.

    Readings are keyed by ``k``.  One already scored on ``spec`` returns its
    cached report, the same object; the rest are scored in one pass over
    ``spec`` per _MAX_CACHED_REPORTS of them, and are kept while the grid holds
    fewer than _MAX_CACHED_REPORTS, so a loop over many readings cannot grow
    the cache.  Each pass is reduced to its reports before the next runs, so
    memory grows with the grid, not with the number of readings.

    Each pass runs the straight-line kernel ``_phi9_kernel`` builds for its
    readings: at every point it runs each Horner step that readings share
    once, then each reading's ``* z`` and logistic.  Every operation is the
    one phi9's registry exponent and ``eval_cdf_extended`` make, in their
    order, so each report is bit-identical to scoring that reading alone.  A reading that
    is not a ``Phi9Coefficients`` raises TypeError before anything is scored.
    """
    readings = tuple(readings)
    for r in readings:
        if not isinstance(r, Phi9Coefficients):
            raise TypeError("phi9_error_reports requires Phi9Coefficients readings, "
                            f"not {type(r).__name__}")
    pts, refs, reports = _checked_refs(9, spec)
    ks = tuple(dict.fromkeys(r.k for r in readings if r.k not in reports))
    fresh = {}  # k -> the report of a reading scored here
    for i in range(0, len(ks), _MAX_CACHED_REPORTS):
        chunk = ks[i:i + _MAX_CACHED_REPORTS]
        # 8 bytes a point per reading, where a float list would take 32
        errs = [array("d") for _ in chunk]
        _phi9_kernel(chunk)(pts, refs, *(err.append for err in errs))
        for k, err in zip(chunk, errs):
            fresh[k] = _report(spec, pts, err)
            if len(reports) < _MAX_CACHED_REPORTS:
                reports[k] = fresh[k]
    return tuple(reports.get(r.k) or fresh[r.k] for r in readings)


def _phi9_kernel(ks: tuple[tuple[float, ...], ...]):
    """A straight-line grid loop that scores the readings ``ks`` at once.

    The readings form a prefix tree over k17 -> k1: each distinct suffix
    ``k[j:]`` names one partial sum ``h``, computed once a point as its
    parent's ``h * z + k[j]``, as in phi9's registry exponent.  Reading i then
    takes ``t = h * z`` of its whole k, the logistic of ``eval_cdf_extended``,
    and appends ``abs(a - ref)`` through ``ap<i>``.  The source names only
    identifiers; ``exp``, ``abs`` and every coefficient are bound as
    defaults, so no float goes through decimal text.

    Suffixes are keyed by value, so 0.0 and -0.0 share a node: a signed zero
    changes only the sign of a zero partial sum, never a nonzero one, and the
    logistic reads both alike.  ``phi9_error_reports`` passes at most
    _MAX_CACHED_REPORTS readings, which bounds the source at about 400 lines.
    Nothing is cached: a CLI command builds at most one kernel.
    """
    consts = []     # c<i>, the coefficient each node adds
    names = {}      # suffix k[j:] -> the name that holds its partial sum
    body = []
    for j in range(16, -1, -1):
        for k in ks:
            suffix = k[j:]
            if suffix in names:
                continue
            c = f"c{len(consts)}"
            consts.append(k[j])
            if j == 16:  # k17 alone: the constant itself
                names[suffix] = c
            else:
                names[suffix] = h = f"h{len(body)}"
                body.append(f"{h} = {names[k[j + 1:]]} * z + {c}")
    for i, k in enumerate(ks):
        body += [f"t = {names[k]} * z",
                 "if t >= 0.0:",
                 "    a = 1.0 / (1.0 + exp(-t))",
                 "else:",
                 "    e = exp(t)",
                 "    a = e / (1.0 + e)",
                 f"ap{i}(abs(a - ref))"]
    params = ", ".join(["pts", "refs", *(f"ap{i}" for i in range(len(ks))), "exp", "abs",
                        *(f"c{i}" for i in range(len(consts)))])
    src = (f"def kernel({params}):\n    for z, ref in zip(pts, refs):\n"
           + "".join(f"        {line}\n" for line in body))
    namespace = {}
    exec(compile(src, "<phi9 kernel>", "exec"), namespace)
    kernel = namespace["kernel"]
    kernel.__defaults__ = (math.exp, abs, *consts)
    return kernel


def error_curve(approx_id: int, spec: GridSpec) -> list[tuple[float, float]]:
    """Signed differences (approximation - reference) in grid order."""
    pts, refs, _ = _checked_refs(approx_id, spec)
    # _checked_refs has rejected z < 0, so eval_cdf_extended never reflects
    return [(z, eval_cdf_extended(approx_id, z) - r) for z, r in zip(pts, refs)]


def inverse_table(z_values=None) -> list[InverseRow]:
    """Quantile comparison rows at the given true abscissae (all >= 0).

    Defaults to z = 0 .. 4.8 step 0.4.  Probabilities are computed at full
    precision from the oracle, and ``zhat_i`` is ``quantile_approx(i, p)``,
    which never reflects here, since p = Phi(z) >= 0.5.  The delta3-versus-p
    figure needs only p and delta3, so ``normapprox curves`` computes those
    two columns itself.
    """
    if z_values is None:
        z_values = DEFAULT_INVERSE_GRID.points()
    rows = []
    for z in z_values:
        z = to_float(z)
        if not math.isfinite(z) or z < 0.0:
            raise DomainError("inverse_table requires a finite z >= 0, "
                              f"and z as a double is {z!r}")
        p = ref_cdf(z)
        if p == 1.0:
            raise DomainError("inverse_table requires Phi(z) < 1; "
                              f"Phi({z:g}) rounds to 1")
        zh1 = quantile_approx(1, p)
        zh2 = quantile_approx(2, p)
        zh3 = quantile_approx(3, p)
        rows.append(InverseRow(z=z, p=p, zhat1=zh1, zhat2=zh2, zhat3=zh3,
                               delta1=zh1 - z, delta2=zh2 - z, delta3=zh3 - z))
    return rows
