"""Command-line harness: regenerates the accuracy tables and figure datasets,
runs the coefficient reconciliation, and benchmarks evaluation speed.

Exit codes: 0 success, 2 usage/domain error, 3 I/O error.
"""

import argparse
import io
import sys
import time
from functools import cache, partial
from itertools import cycle, islice

from . import __version__
from .approximations import DEFAULT_PHI9, eval_cdf_extended, list_approximations
from .errors import DomainError
from .inverse import quantile_approx
from .metrics import (DEFAULT_INVERSE_GRID, GRID_A, GRID_B, GridSpec,
                      compute_error_report, error_curve, inverse_table)
from .reconcile import format_report, reconcile_phi9
from .reference import ref_cdf

_BENCH_EVALS = 1_000_000
_FIG2_GRID = GridSpec(0.0, 4.8, 0.01)


def _grid_meta(spec: GridSpec) -> dict:
    return {"grid": {"start": spec.start, "stop": spec.stop,
                     "step": spec.step, "count": spec.count}}


def _render(fmt, command, meta, headers, rows, sections=None) -> str:
    """csv, JSON with ``meta``, or markdown: a table per ``(title, columns)`` section."""
    # json and csv are imported here, so a run pays only for the format it writes
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        # floats are written as repr, the shortest round-trip decimal form
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "json":
        import json
        obj = {
            "meta": {"command": command, "version": __version__,
                     "phi9_variant": DEFAULT_PHI9.variant_tag, **meta},
            "rows": [dict(zip(headers, row)) for row in rows],
        }
        try:
            return json.dumps(obj, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
            raise DomainError(f"cannot render {command} as JSON: {exc}") from None
    parts = []
    for title, columns in sections or [("", headers)]:
        picks = [headers.index(c) for c in columns]
        lines = []
        if title:
            lines.append(f"### {title}")
            lines.append("")
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in columns) + "|")
        for row in rows:
            # str(float) is repr(float): the shortest round-trip decimal form
            lines.append("| " + " | ".join(str(row[i]) for i in picks) + " |")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def _write(text, path) -> int:
    """Write ``text`` to ``path``, or to stdout when there is none; exit code 0."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _emit(args, command, meta, headers, rows, sections=None, path=None) -> int:
    """Write the rendered table to ``path``, ``--output`` or stdout; exit code 0."""
    return _write(_render(args.format, command, meta, headers, rows, sections),
                  path or args.output)


def cmd_table2(args) -> int:
    headers = ["approx", "name", "mxae", "mae",
               "mxae_full", "mae_full", "mxae_location"]
    rows = []
    for d in list_approximations():
        rep = compute_error_report(d.index, GRID_B)
        rows.append([f"phi{d.index}", d.name, f"{rep.mxae:.2e}", f"{rep.mae:.2e}",
                     rep.mxae, rep.mae, rep.mxae_location])
    return _emit(args, "table2", _grid_meta(GRID_B), headers, rows,
                 [("accuracy summary (MXAE / MAE)", headers)])


def cmd_table34(args) -> int:
    data = inverse_table(DEFAULT_INVERSE_GRID.points())
    headers = ["z", "p", "zhat1", "zhat2", "zhat3",
               "delta1", "delta2", "delta3",
               "p_full", "zhat1_full", "zhat2_full", "zhat3_full",
               "delta1_full", "delta2_full", "delta3_full"]
    rows = []
    for r in data:
        rows.append([f"{r.z:.1f}", f"{r.p:.4f}",
                     f"{r.zhat1:.4f}", f"{r.zhat2:.4f}", f"{r.zhat3:.4f}",
                     f"{r.delta1:.5f}", f"{r.delta2:.5f}", f"{r.delta3:.5f}",
                     r.p, r.zhat1, r.zhat2, r.zhat3,
                     r.delta1, r.delta2, r.delta3])
    sections = [
        ("quantile approximations", ["z", "p", "zhat1", "zhat2", "zhat3"]),
        ("signed differences (zhat - z)", ["z", "p", "delta1", "delta2", "delta3"]),
    ]
    return _emit(args, "table34", _grid_meta(DEFAULT_INVERSE_GRID), headers, rows, sections)


def cmd_curves(args) -> int:
    from pathlib import Path  # the figure paths it prints are Path objects
    fig1_rows = error_curve(args.approx, GRID_A)
    # the (p, delta3) columns of inverse_table, without computing the others
    fig2_rows = []
    for z in _FIG2_GRID.points():
        p = ref_cdf(z)
        fig2_rows.append((p, quantile_approx(3, p) - z))

    outdir = Path(args.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    ext = {"csv": "csv", "json": "json", "markdown": "md"}[args.format]
    figures = [
        (outdir / f"figure1_phi{args.approx}.{ext}", "curves.figure1", GRID_A,
         ["z", "diff"], fig1_rows, f"signed error of phi{args.approx}"),
        (outdir / f"figure2_delta3.{ext}", "curves.figure2", _FIG2_GRID,
         ["p", "delta3"], fig2_rows, "delta3 against p"),
    ]
    for i, (path, command, grid, headers, rows, title) in enumerate(figures):
        try:
            _emit(args, command, _grid_meta(grid), headers, rows,
                  [(title, headers)], path)
        except OSError:
            for written, *_ in figures[:i]:  # leave no partial figure set
                written.unlink(missing_ok=True)
            raise
    for path, *_ in figures:  # only once every figure is written
        print(path)
    return 0


def run_bench(evals: int) -> list[tuple[str, float]]:
    """(subject, wall seconds for ``evals`` evaluations) for each form and
    the oracle over grid-cycled inputs, looped by builtins: no bytecode per eval."""
    points = GRID_A.points()
    subjects = [(f"phi{d.index}", partial(eval_cdf_extended, d.index))
                for d in list_approximations()]
    subjects.append(("oracle", ref_cdf))
    results = []
    for label, fn in subjects:
        t0 = time.perf_counter()
        sum(map(fn, islice(cycle(points), evals)))
        results.append((label, time.perf_counter() - t0))
    return results


def cmd_bench(args) -> int:
    headers = ["subject", "evaluations", "wall_s", "per_eval_ns",
               "wall_time_full", "per_eval_full"]
    rows = [[subject, _BENCH_EVALS, f"{wall:.4f}",
             f"{wall / _BENCH_EVALS * 1e9:.1f}", wall, wall / _BENCH_EVALS]
            for subject, wall in run_bench(_BENCH_EVALS)]
    return _emit(args, "bench", {"evaluations": _BENCH_EVALS},
                 headers, rows, [("evaluation throughput", headers)])


def cmd_reconcile(args) -> int:
    return _write(format_report(reconcile_phi9()), args.output)


def cmd_eval(args) -> int:
    headers = ["z", "value"]
    rows = [[z, eval_cdf_extended(args.approx, z)] for z in args.values]
    return _emit(args, "eval", {"approx": args.approx}, headers, rows)


def cmd_invert(args) -> int:
    headers = ["p", "z"]
    rows = [[p, quantile_approx(args.inverse, p)] for p in args.values]
    return _emit(args, "invert", {"inverse": args.inverse}, headers, rows)


def _add_io_flags(sp, default_format="markdown") -> None:
    sp.add_argument("--format", choices=("csv", "json", "markdown"),
                    default=default_format)
    sp.add_argument("--output", default=None, metavar="PATH")


@cache  # parse_args leaves the parser unchanged, so every call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normapprox",
        description="closed-form normal-CDF approximation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table2", help="MXAE/MAE summary for phi1..phi9")
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_table2)

    sp = sub.add_parser("table34", help="quantile approximations and differences")
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_table34)

    sp = sub.add_parser("curves", help="figure datasets: signed error curve and delta3(p)")
    sp.add_argument("--approx", type=int, choices=range(1, 10), default=9)
    _add_io_flags(sp, default_format="csv")
    sp.set_defaults(func=cmd_curves)

    sp = sub.add_parser("bench", help="per-evaluation timing of phi1..phi9 and the oracle")
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("reconcile", help="score the phi9 coefficient variants")
    sp.add_argument("--output", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_reconcile)

    sp = sub.add_parser("eval", help="evaluate one approximation (|z| < its bound)")
    sp.add_argument("--approx", type=int, choices=range(1, 10), default=9)
    _add_io_flags(sp)
    sp.add_argument("values", type=float, nargs="+", metavar="Z")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("invert", help="evaluate one quantile approximation (0 < p < 1)")
    sp.add_argument("--inverse", type=int, choices=range(1, 4), default=3)
    _add_io_flags(sp)
    sp.add_argument("values", type=float, nargs="+", metavar="P")
    sp.set_defaults(func=cmd_invert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
