"""End-to-end CLI behaviour: formats, exit codes, file outputs."""

import collections
import contextlib
import csv
import io
import json
import math
import random
import time

import pytest

import normapprox
from normapprox import GRID_A, ErrorReport, compute_error_report
from normapprox import cli
from normapprox.cli import build_parser, main
from goldens import GOLDEN, GOLDEN_RUNS, golden_argv
from test_scalar_routes import EDGES, any_float


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_json_rejects_nan_instead_of_printing_it(capsys, monkeypatch):
    # NaN is not JSON; json.dumps would print it as a bare NaN token
    def report_with_nan(approx_id, spec):
        rep = compute_error_report(approx_id, spec)
        return (ErrorReport(rep.grid, rep.mxae, rep.mxae_location, math.nan)
                if approx_id == 3 else rep)

    monkeypatch.setattr(normapprox.cli, "compute_error_report", report_with_nan)
    code, out, err = run(capsys, "table2", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "JSON" in err


@pytest.mark.parametrize("command", ["table2", "table34", "curves", "bench", "reconcile"])
def test_commands_help_offers_no_sizing_flag(capsys, command):
    # they print the published grids and bench a fixed count; other grids go
    # through the library: compute_error_report(i, GridSpec(...)),
    # reconcile_phi9(GridSpec(...)), inverse_table(GridSpec(...).points())
    # and error_curve(i, GridSpec(...))
    code, out, _ = run(capsys, command, "-h")
    assert code == 0
    assert "--grid-" not in out and "--evals" not in out
    assert "--output" in out
    assert ("--format" in out) == (command != "reconcile")


@pytest.mark.parametrize("command, flag, value", [
    ("table2", "--grid-start", "0.1"), ("table34", "--grid-stop", "0.1"),
    ("curves", "--grid-step", "0.1"), ("reconcile", "--grid-step", "0.1"),
    ("bench", "--evals", "2000000"),
])
def test_commands_reject_sizing_flags_before_any_output(tmp_path, capsys,
                                                        command, flag, value):
    out_path = tmp_path / "out"
    code, out, err = run(capsys, command, flag, value, "--output", str(out_path))
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}\n" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, golden", [row[1:] for row in GOLDEN_RUNS],
                         ids=[row[0] for row in GOLDEN_RUNS])
def test_artefacts_match_golden_bytes(tmp_path, capsys, argv, golden):
    """Each published artefact, byte for byte, including the ``*_full`` columns:
    each golden is what its GOLDEN_RUNS row writes with ``--output``.  stderr
    stays empty, and so does stdout, but for the two figure paths of ``curves``."""
    code, out, err = run(capsys, *golden_argv(argv, golden, tmp_path))
    printed = [str(p) for p in sorted(tmp_path.iterdir())] if argv.startswith("curves") else []
    assert (code, out.splitlines(), err) == (0, printed, "")
    assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes()


def test_golden_runs_name_every_golden_once():
    assert sorted(row[2] for row in GOLDEN_RUNS) == sorted(p.name for p in GOLDEN.iterdir())


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # a format and an output on one call must not leak into the next call's defaults
    path = tmp_path / "table2.csv"
    assert run(capsys, "table2", "--format", "csv", "--output", str(path))[0] == 0
    code, out, _ = run(capsys, "table2")
    assert code == 0
    assert out.encode() == (GOLDEN / "table2.md").read_bytes()


def test_curves_writes_both_figures(tmp_path, capsys):
    code, out, _ = run(capsys, "curves", "--output", str(tmp_path))
    assert code == 0
    fig1 = tmp_path / "figure1_phi9.csv"
    fig2 = tmp_path / "figure2_delta3.csv"
    assert str(fig1) in out and str(fig2) in out
    rows1 = list(csv.reader(fig1.read_text().splitlines()))[1:]
    assert len(rows1) == 401
    worst = max(abs(float(d)) for _, d in rows1)
    assert worst == compute_error_report(9, GRID_A).mxae
    rows2 = list(csv.reader(fig2.read_text().splitlines()))[1:]
    assert len(rows2) == 481
    p0, d0 = (float(v) for v in rows2[0])
    assert p0 == 0.5 and d0 == 0.0


def test_curves_prints_no_path_when_a_write_fails(tmp_path, capsys):
    # figure2 cannot be written; a path is printed only once both exist
    (tmp_path / "figure2_delta3.csv").mkdir()
    code, out, err = run(capsys, "curves", "--output", str(tmp_path))
    assert code == 3
    assert out == ""
    assert "i/o" in err.lower()
    # nor is figure1 left behind: the set is written whole or not at all
    assert not (tmp_path / "figure1_phi9.csv").exists()


@pytest.mark.parametrize("argv, flag, ids", [
    (["curves", "--output", "{tmp}"], "--approx", range(1, 10)),
    (["eval", "0.5"], "--approx", range(1, 10)),
    (["invert", "0.5"], "--inverse", range(1, 4)),
], ids=["curves", "eval", "invert"])
def test_id_flags_take_exactly_the_known_ids(tmp_path, capsys, argv, flag, ids):
    argv = [a.format(tmp=tmp_path) for a in argv]
    for i in (ids[0], ids[-1]):
        assert run(capsys, *argv, flag, str(i))[0] == 0
    for i in (ids[0] - 1, ids[-1] + 1):
        code, out, err = run(capsys, *argv, flag, str(i))
        assert (code, out) == (2, "")
        assert f"argument {flag}: invalid choice: {i}" in err


def test_run_bench_times_every_subject_over_exactly_evals(monkeypatch):
    calls = collections.Counter()
    extended, oracle = cli.eval_cdf_extended, cli.ref_cdf

    def counted_extended(i, z):
        calls[f"phi{i}"] += 1
        return extended(i, z)

    def counted_oracle(z):
        calls["oracle"] += 1
        return oracle(z)

    monkeypatch.setattr(cli, "eval_cdf_extended", counted_extended)
    monkeypatch.setattr(cli, "ref_cdf", counted_oracle)
    t0 = time.perf_counter()
    results = cli.run_bench(1000)
    span = time.perf_counter() - t0
    labels = [f"phi{i}" for i in range(1, 10)] + ["oracle"]
    assert [label for label, _ in results] == labels
    # each subject's time lies within the span of the whole call
    assert all(0.0 < wall <= span for _, wall in results)
    assert calls == dict.fromkeys(labels, 1000)


def test_reconcile_without_output_prints_the_report(tmp_path, capsys, monkeypatch):
    # as every table command does: stdout, and no file in the working directory
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "reconcile")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "reconcile.txt").read_bytes()
    assert list(tmp_path.iterdir()) == []


def test_reconcile_unwritable_path_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    code, _, err = run(capsys, "reconcile", "--output", str(blocker / "report.txt"))
    assert code == 3
    assert "i/o" in err.lower()


def test_eval_reflects_negative_z(capsys):
    code, out, _ = run(capsys, "eval", "--approx", "1", "--format", "json",
                       "--", "-1.0", "1.0")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["value"] + rows[1]["value"] == 1.0


@pytest.mark.parametrize("argv, message", [
    (["eval", "--", "nan"], "eval_cdf_extended requires a finite abscissa"),
    (["eval", "--", "-inf"], "eval_cdf_extended requires a finite abscissa"),
    (["eval", "--approx", "2", "--", "-9.5"], "Lin (1990) holds only for |z| < 9"),
])
def test_eval_domain_error_names_the_called_function_or_the_form(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("approx", ["4", "6", "7"])
def test_eval_saturates_where_the_exponent_overflows(capsys, approx):
    code, out, _ = run(capsys, "eval", "--approx", approx, "--format", "csv",
                       "--", "1e200", "-1e200")
    assert code == 0
    assert out.splitlines()[1:] == ["1e+200,1.0", "-1e+200,0.0"]


@pytest.mark.parametrize("p", ["1e-320", "1e-17"])
def test_invert_names_the_domain_when_reflection_fails(capsys, p):
    code, _, err = run(capsys, "invert", "--", p)
    assert code == 2
    assert "0 < p < 1" in err
    assert "1 - p rounds to 1" in err


def test_eval_and_invert_exit_cleanly_on_any_float():
    rng = random.Random(302)
    # every edge with every form, then doubles over all bit patterns
    cases = [(n + 1, n % 3 + 1, x) for x in EDGES for n in range(9)]
    cases += [(rng.randint(1, 9), rng.randint(1, 3), any_float(rng)) for _ in range(300)]
    for approx, inverse, x in cases:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = {main(["eval", "--approx", str(approx), "--", str(x)]),
                     main(["invert", "--inverse", str(inverse), "--", str(x)])}
        assert codes <= {0, 2, 3}, (approx, inverse, x)


def test_unknown_format_exit_2(capsys):
    assert run(capsys, "table2", "--format", "xml")[0] == 2


def test_missing_subcommand_exit_2(capsys):
    assert run(capsys)[0] == 2


@pytest.mark.parametrize("argv, code, stderr", [
    (["eval", "0"], 0, ""),
    (["eval", "--", "nan"], 2, "error: eval_cdf_extended requires a finite abscissa\n"),
], ids=["eval-0", "eval-nan"])
def test_module_entry_point_returns_mains_exit_code(capsys, fresh_python, argv, code,
                                                    stderr):
    # python -m normapprox.cli must exit with main's code and print what main prints
    done = fresh_python("-m", "normapprox.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
    assert (done.returncode, done.stderr) == (code, stderr)
    assert (done.stdout == "") == (code != 0)
