"""In-memory span tracer that wraps public normapprox functions from outside.

Each wrapped call appends one span ``(name, key, start_ns, end_ns, parent,
size)`` to a list kept in memory; ``Tracer.reduce`` turns a pass's spans into
the per-layer metrics once the pass is over.  A span's self time is its
duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap), net of the calibrated cost of
the wrappers themselves.

Only the names in ``TARGETS`` are wrapped, and each is replaced in every
``normapprox`` module namespace that holds it, because ``metrics``,
``reconcile`` and ``cli`` import ``ref_cdf``, ``eval_cdf_approx`` and
``compute_error_report`` by name.  The cache's useful-work ratio is derived
from call counts, so no private name is needed.
"""

import statistics
import sys
from time import perf_counter_ns

PHI_IDS = tuple(range(1, 10))
CLI_COMMANDS = ("table2", "table34", "curves", "reconcile")
METRICS_SPANS = ("compute_error_report", "error_curve", "inverse_table")

# Every per-layer metric as (name, unit).  Counts are per pass of the
# workload's fixed work; self times are per call (ns, us) or per pass (ms).
PER_LAYER = (
    ("import.normapprox_s", "s"),
    ("import.scipy_s", "s"),
    ("reference.ref_cdf.calls", "count"),
    ("reference.ref_cdf.self_ns", "ns"),
    ("reference.ref_pdf.calls", "count"),
    ("reference.ref_quantile.calls", "count"),
    ("reference.ref_quantile.self_us", "us"),
    ("reference.ref_quantile.ref_cdf_per_call", "count"),
    ("approximations.eval_cdf_approx.calls", "count"),
    ("approximations.eval_cdf_approx.self_ns", "ns"),
    *((f"approximations.phi{i}.ns_per_eval", "ns") for i in PHI_IDS),
    ("approximations.eval_cdf_extended.self_ns", "ns"),
    ("inverse.quantile_approx.calls", "count"),
    ("inverse.quantile_approx.self_ns", "ns"),
    ("metrics.compute_error_report.self_ms", "ms"),
    ("metrics.error_curve.self_ms", "ms"),
    ("metrics.inverse_table.self_ms", "ms"),
    ("metrics.grid_points", "count"),
    ("metrics.oracle_evals_per_point", "ratio"),
    ("reconcile.reconcile_phi9.self_ms", "ms"),
    *((f"cli.{c}.self_ms", "ms") for c in CLI_COMMANDS),
    ("cli.output_bytes", "bytes"),
    ("trace.wrapper_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics that must repeat exactly between runs with the same seed.
COUNTS = frozenset(name for name, unit in PER_LAYER if unit == "count") | {
    "metrics.oracle_evals_per_point", "cli.output_bytes"}


def _approx_id(args, kwargs):
    return args[0] if args else kwargs.get("approx_id")


def _command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _report_points(args, kwargs, result):
    return result.grid.count


def _row_count(args, kwargs, result):
    return len(result)


# (module, public name, key_of(args, kwargs), size_of(args, kwargs, result))
TARGETS = (
    ("reference", "ref_cdf", None, None),
    ("reference", "ref_pdf", None, None),
    ("reference", "ref_quantile", None, None),
    ("approximations", "eval_cdf_approx", _approx_id, None),
    ("approximations", "eval_cdf_extended", None, None),
    ("inverse", "quantile_approx", None, None),
    ("metrics", "compute_error_report", None, _report_points),
    ("metrics", "error_curve", None, _row_count),
    ("metrics", "inverse_table", None, _row_count),
    ("reconcile", "reconcile_phi9", None, None),
    ("cli", "main", _command, None),
)


class Tracer:
    """Owns the span list and the wrappers installed into normapprox."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []
        self.in_span_ns = 0.0
        self.child_ns = 0.0

    def wrap(self, name, fn, key_of=None, size_of=None):
        spans = self.spans
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name,
                              key_of(args, kwargs) if key_of else None,
                              t0, t1, parent,
                              size_of(args, kwargs, result)
                              if size_of and result is not None else 0)

        return traced

    def install(self):
        """Wrap every target in every loaded normapprox module namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "normapprox" or n.startswith("normapprox."))]
        for mod_name, attr, key_of, size_of in TARGETS:
            owner = sys.modules.get(f"normapprox.{mod_name}")
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(attr, original, key_of, size_of)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    def calibrate(self, rounds=5, calls=20000):
        """Measure the wrapper's own cost on empty functions.

        Sets ``in_span_ns``, what an empty wrapped call adds to its own self
        time, and ``child_ns``, what each wrapped child adds to its parent's
        self time outside the child's span.  Returns their sum, the full
        per-call cost of one wrapper.
        """
        def noop(*args):
            return None

        leaf = self.wrap("calibrate.leaf", noop)

        def outer_body(*args):
            return leaf(*args)

        outer = self.wrap("calibrate.outer", outer_body)
        in_span, child = [], []
        for _ in range(rounds):
            self.spans.clear()
            for i in range(calls):
                leaf(i)
            leaf_self = self._self_times()[("calibrate.leaf", None)][1] / calls
            self.spans.clear()
            for i in range(calls):
                outer(i)
            outer_self = self._self_times()[("calibrate.outer", None)][1] / calls
            in_span.append(leaf_self)
            child.append(outer_self - leaf_self)
        self.spans.clear()
        self.in_span_ns = statistics.median(in_span)
        self.child_ns = statistics.median(child)
        return self.in_span_ns + self.child_ns

    def _self_times(self):
        """{(name, key): [calls, raw self ns, direct child calls]}."""
        spans = self.spans
        child_ns = [0] * len(spans)
        child_calls = [0] * len(spans)
        for s in spans:
            parent = s[4]
            if parent >= 0:
                child_ns[parent] += s[3] - s[2]
                child_calls[parent] += 1
        agg = {}
        for i, s in enumerate(spans):
            entry = agg.setdefault((s[0], s[1]), [0, 0, 0])
            entry[0] += 1
            entry[1] += s[3] - s[2] - child_ns[i]
            entry[2] += child_calls[i]
        return agg

    def reduce(self):
        """Per-layer metrics of the spans recorded since the last call.

        Covers every ``PER_LAYER`` name except the ``import.*``, ``trace.*``
        and ``cli.output_bytes`` entries, which the caller measures.  Clears
        the span list.
        """
        spans = self.spans
        calls, self_ns = {}, {}
        for key, (n, raw, children) in self._self_times().items():
            calls[key] = n
            self_ns[key] = raw - n * self.in_span_ns - children * self.child_ns

        # ancestry flags: spans are appended at entry, so parents come first
        in_quantile = [False] * len(spans)
        in_metrics = [False] * len(spans)
        cdf_in_quantile = cdf_in_metrics = grid_points = 0
        for i, s in enumerate(spans):
            parent = s[4]
            if parent >= 0:
                pname = spans[parent][0]
                in_quantile[i] = in_quantile[parent] or pname == "ref_quantile"
                in_metrics[i] = in_metrics[parent] or pname in METRICS_SPANS
            if s[0] == "ref_cdf":
                cdf_in_quantile += in_quantile[i]
                cdf_in_metrics += in_metrics[i]
            elif s[0] in METRICS_SPANS and not in_metrics[i]:
                grid_points += s[5]
        spans.clear()

        def n(name):
            return sum(v for (nm, _), v in calls.items() if nm == name)

        def self_total(name):
            return sum(v for (nm, _), v in self_ns.items() if nm == name)

        def per_call(name):
            count = n(name)
            return self_total(name) / count if count else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "reference.ref_cdf.calls": n("ref_cdf"),
            "reference.ref_cdf.self_ns": per_call("ref_cdf"),
            "reference.ref_pdf.calls": n("ref_pdf"),
            "reference.ref_quantile.calls": n("ref_quantile"),
            "reference.ref_quantile.self_us": per_call("ref_quantile") / 1e3,
            "reference.ref_quantile.ref_cdf_per_call":
                ratio(cdf_in_quantile, n("ref_quantile")),
            "approximations.eval_cdf_approx.calls": n("eval_cdf_approx"),
            "approximations.eval_cdf_approx.self_ns": per_call("eval_cdf_approx"),
            "approximations.eval_cdf_extended.self_ns": per_call("eval_cdf_extended"),
            "inverse.quantile_approx.calls": n("quantile_approx"),
            "inverse.quantile_approx.self_ns": per_call("quantile_approx"),
            "metrics.grid_points": grid_points,
            "metrics.oracle_evals_per_point": ratio(cdf_in_metrics, grid_points),
            "reconcile.reconcile_phi9.self_ms": self_total("reconcile_phi9") / 1e6,
        }
        for i in PHI_IDS:
            key = ("eval_cdf_approx", i)
            out[f"approximations.phi{i}.ns_per_eval"] = ratio(
                self_ns.get(key, 0.0), calls.get(key, 0))
        for name in METRICS_SPANS:
            out[f"metrics.{name}.self_ms"] = self_total(name) / 1e6
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.self_ms"] = self_ns.get(("main", cmd), 0.0) / 1e6
        return out
