"""Command-line harness: regenerates the accuracy tables and figure datasets,
runs the coefficient reconciliation, and benchmarks evaluation speed.

Exit codes: 0 success, 2 usage/domain error, 3 I/O error.
"""

import argparse
import csv
import io
import json
import sys
import time
from functools import partial
from itertools import cycle, islice
from pathlib import Path

from . import __version__
from .approximations import (DEFAULT_PHI9, eval_cdf_approx, eval_cdf_extended,
                             list_approximations)
from .errors import DomainError
from .inverse import quantile_approx
from .metrics import (DEFAULT_INVERSE_GRID, GRID_A, GRID_B, GridSpec,
                      compute_error_report, error_curve, inverse_table)
from .reconcile import format_report, reconcile_phi9
from .reference import ref_cdf

_BENCH_MIN_EVALS = 1_000_000
_BENCH_MAX_EVALS = 10_000_000  # ten times the minimum: over a minute per run
_WARMUP_EVALS = 20_000
_FIG2_GRID = GridSpec(0.0, 4.8, 0.01)


def _cell(v) -> str:
    # full-precision columns use the shortest round-trip decimal form
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _render_csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _render_markdown(sections) -> str:
    parts = []
    for title, headers, rows in sections:
        lines = []
        if title:
            lines.append(f"### {title}")
            lines.append("")
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def _render_json(command, meta, headers, rows) -> str:
    obj = {
        "meta": {"command": command, "version": __version__,
                 "phi9_variant": DEFAULT_PHI9.variant_tag, **meta},
        "rows": [dict(zip(headers, row)) for row in rows],
    }
    return json.dumps(obj, indent=2) + "\n"


def _grid_meta(spec: GridSpec) -> dict:
    return {"grid": {"start": spec.start, "stop": spec.stop,
                     "step": spec.step, "count": spec.count}}


def _render(fmt, command, meta, headers, rows, markdown_sections=None):
    if fmt == "csv":
        return _render_csv(headers, rows)
    if fmt == "json":
        return _render_json(command, meta, headers, rows)
    return _render_markdown(markdown_sections or [("", headers, rows)])


def _emit(args, text) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _grid_from_args(args) -> GridSpec:
    return GridSpec(start=args.grid_start, stop=args.grid_stop, step=args.grid_step)


def cmd_table2(args) -> int:
    spec = _grid_from_args(args)
    headers = ["approx", "name", "mxae", "mae",
               "mxae_full", "mae_full", "mxae_location"]
    rows = []
    for d in list_approximations():
        rep = compute_error_report(d.index, spec)
        rows.append([f"phi{d.index}", d.name, f"{rep.mxae:.2e}", f"{rep.mae:.2e}",
                     rep.mxae, rep.mae, rep.mxae_location])
    text = _render(args.format, "table2", _grid_meta(spec), headers, rows,
                   [("accuracy summary (MXAE / MAE)", headers, rows)])
    _emit(args, text)
    return 0


def cmd_table34(args) -> int:
    spec = _grid_from_args(args)
    data = inverse_table(spec.points())
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
    approx_rows = [row[0:5] for row in rows]
    delta_rows = [[row[0], row[1], row[5], row[6], row[7]] for row in rows]
    sections = [
        ("quantile approximations", ["z", "p", "zhat1", "zhat2", "zhat3"], approx_rows),
        ("signed differences (zhat - z)", ["z", "p", "delta1", "delta2", "delta3"], delta_rows),
    ]
    text = _render(args.format, "table34", _grid_meta(spec), headers, rows, sections)
    _emit(args, text)
    return 0


def cmd_curves(args) -> int:
    spec = _grid_from_args(args)
    curve = error_curve(args.approx, spec)
    fig2 = [(r.p, r.delta3) for r in inverse_table(_FIG2_GRID.points())]

    outdir = Path(args.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    ext = {"csv": "csv", "json": "json", "markdown": "md"}[args.format]

    fig1_path = outdir / f"figure1_phi{args.approx}.{ext}"
    fig1_rows = [[z, d] for z, d in curve]
    fig1_path.write_text(
        _render(args.format, "curves.figure1", _grid_meta(spec),
                ["z", "diff"], fig1_rows,
                [(f"signed error of phi{args.approx}", ["z", "diff"], fig1_rows)]),
        encoding="utf-8")

    fig2_path = outdir / f"figure2_delta3.{ext}"
    fig2_rows = [[p, d] for p, d in fig2]
    fig2_path.write_text(
        _render(args.format, "curves.figure2", _grid_meta(_FIG2_GRID),
                ["p", "delta3"], fig2_rows,
                [("delta3 against p", ["p", "delta3"], fig2_rows)]),
        encoding="utf-8")

    print(fig1_path)
    print(fig2_path)
    return 0


def run_bench(evals: int) -> list[tuple[str, float]]:
    """(subject, wall seconds for ``evals`` evaluations) for each
    approximation plus the oracle, over grid-cycled inputs."""
    points = GRID_A.points()
    subjects = [(f"phi{d.index}", partial(eval_cdf_approx, d.index))
                for d in list_approximations()]
    subjects.append(("oracle", ref_cdf))
    results = []
    sink = 0.0
    for label, fn in subjects:
        for z in islice(cycle(points), _WARMUP_EVALS):
            sink += fn(z)
        t0 = time.perf_counter()
        for z in islice(cycle(points), evals):
            sink += fn(z)
        results.append((label, time.perf_counter() - t0))
    assert sink > 0.0  # keeps the accumulation observable
    return results


def cmd_bench(args) -> int:
    if not _BENCH_MIN_EVALS <= args.evals <= _BENCH_MAX_EVALS:
        raise DomainError(f"--evals must be from {_BENCH_MIN_EVALS} to "
                          f"{_BENCH_MAX_EVALS} per subject")
    headers = ["subject", "evaluations", "wall_s", "per_eval_ns",
               "wall_time_full", "per_eval_full"]
    rows = [[subject, args.evals, f"{wall:.4f}",
             f"{wall / args.evals * 1e9:.1f}", wall, wall / args.evals]
            for subject, wall in run_bench(args.evals)]
    text = _render(args.format, "bench", {"evaluations": args.evals},
                   headers, rows, [("evaluation throughput", headers, rows)])
    _emit(args, text)
    return 0


def cmd_reconcile(args) -> int:
    spec = _grid_from_args(args)
    report = reconcile_phi9(spec)
    path = args.output or "phi9_reconciliation.txt"
    Path(path).write_text(format_report(report), encoding="utf-8")
    sel = report.selected_report
    print(f"selected: {report.selected}")
    print(f"selected mxae: {sel.mxae:.6e} at z = {sel.mxae_location!r} "
          f"(gate {'passed' if report.gate_passed else 'failed'})")
    print(f"report written to {path}")
    return 0


def cmd_eval(args) -> int:
    headers = ["z", "value"]
    rows = [[z, eval_cdf_extended(args.approx, z)] for z in args.values]
    text = _render(args.format, "eval", {"approx": args.approx}, headers, rows)
    _emit(args, text)
    return 0


def cmd_invert(args) -> int:
    headers = ["p", "z"]
    rows = [[p, quantile_approx(args.inverse, p)] for p in args.values]
    text = _render(args.format, "invert", {"inverse": args.inverse}, headers, rows)
    _emit(args, text)
    return 0


def _add_grid_flags(sp, default: GridSpec) -> None:
    sp.add_argument("--grid-start", type=float, default=default.start, metavar="REAL")
    sp.add_argument("--grid-stop", type=float, default=default.stop, metavar="REAL")
    sp.add_argument("--grid-step", type=float, default=default.step, metavar="REAL")


def _add_io_flags(sp, default_format="markdown") -> None:
    sp.add_argument("--format", choices=("csv", "json", "markdown"),
                    default=default_format)
    sp.add_argument("--output", default=None, metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normapprox",
        description="closed-form normal-CDF approximation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table2", help="MXAE/MAE summary for phi1..phi9")
    _add_grid_flags(sp, GRID_B)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_table2)

    sp = sub.add_parser("table34", help="quantile approximations and differences")
    _add_grid_flags(sp, DEFAULT_INVERSE_GRID)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_table34)

    sp = sub.add_parser("curves", help="figure datasets: signed error curve and delta3(p)")
    sp.add_argument("--approx", type=int, choices=range(1, 10), default=9)
    _add_grid_flags(sp, GRID_A)
    _add_io_flags(sp, default_format="csv")
    sp.set_defaults(func=cmd_curves)

    sp = sub.add_parser("bench", help="per-evaluation timing of phi1..phi9 and the oracle")
    sp.add_argument("--evals", type=int, default=_BENCH_MIN_EVALS)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("reconcile", help="score the phi9 coefficient variants")
    _add_grid_flags(sp, GRID_B)
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
