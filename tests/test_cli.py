"""End-to-end CLI behaviour: formats, exit codes, file outputs."""

import collections
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import normapprox
from normapprox import (GRID_A, GRID_B, DomainError, ErrorReport, GridSpec,
                        compute_error_report, inverse_table, quantile_approx)
from normapprox import cli
from normapprox.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table2_markdown_default(capsys):
    code, out, _ = run(capsys, "table2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("| phi")]
    assert len(lines) == 9
    phi3 = next(ln for ln in lines if ln.startswith("| phi3"))
    # three-significant-digit scientific display, numerically at the
    # published values (2.10e-3 / 9.78e-4 within 2%)
    assert "2.10e-03" in phi3
    cells = [c.strip() for c in phi3.strip("|").split("|")]
    assert re.fullmatch(r"\d\.\d\de-\d\d", cells[3])
    assert float(cells[5]) == pytest.approx(9.78e-4, rel=0.02)


def test_table2_json_meta(capsys):
    code, out, _ = run(capsys, "table2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["meta"]["command"] == "table2"
    assert obj["meta"]["grid"]["count"] == 5001
    assert obj["meta"]["version"]
    assert obj["meta"]["phi9_variant"] == "k3shift-k5minus-k8shift"
    assert len(obj["rows"]) == 9
    assert obj["rows"][0]["approx"] == "phi1"


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


def test_table2_csv_round_trips(tmp_path, capsys):
    path = tmp_path / "t2.csv"
    code, _, _ = run(capsys, "table2", "--format", "csv", "--output", str(path))
    assert code == 0
    text = path.read_text()
    assert "\r" not in text  # LF endings only
    rows = list(csv.reader(text.splitlines()))
    header, data = rows[0], rows[1:]
    assert len(data) == 9
    i_mx = header.index("mxae_full")
    i_ma = header.index("mae_full")
    for row in data:
        idx = int(row[0].removeprefix("phi"))
        rep = compute_error_report(idx, GRID_B)
        assert float(row[i_mx]) == rep.mxae
        assert float(row[i_ma]) == rep.mae


def test_table2_grid_override(capsys):
    code, out, _ = run(capsys, "table2", "--grid-stop", "4", "--grid-step", "0.01",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["meta"]["grid"]["count"] == 401
    phi1 = obj["rows"][0]
    assert phi1["mxae_full"] == compute_error_report(1, GRID_A).mxae


@pytest.mark.parametrize("flags", [
    ["--grid-stop", "9.5", "--grid-step", "0.5"],
    # a step longer than the span would score z = 0 alone
    ["--grid-stop", "1e-7", "--grid-step", "1"],
], ids=["lin-pole", "step-exceeds-span"])
def test_table2_rejects_lin_breaking_grid(capsys, flags):
    code, out, err = run(capsys, "table2", *flags)
    assert code == 2
    assert out == ""
    assert "error" in err.lower()


@pytest.mark.parametrize("flags", [["--grid-step", "1e-9"], ["--grid-step", "1e-320"],
                                   ["--grid-start=-1e308", "--grid-stop", "1e308"]])
def test_table2_rejects_oversized_grid(capsys, flags):
    code, out, err = run(capsys, "table2", *flags)
    assert code == 2
    assert out == ""
    assert "1,000,000 points" in err


def test_table34_markdown_sections(capsys):
    code, out, _ = run(capsys, "table34")
    assert code == 0
    assert "### quantile approximations" in out
    assert "### signed differences" in out
    body = [ln for ln in out.splitlines() if ln.startswith("| 1.2")]
    assert any("1.1989" in ln for ln in body)


@pytest.mark.parametrize("command", ["table34", "curves"])
def test_row_bound_exits_2_before_any_output(tmp_path, capsys, monkeypatch, command):
    # the bound is lowered so the over-bound grid stays small
    monkeypatch.setattr(cli, "_MAX_TABLE_ROWS", 10)
    out_path = tmp_path / "out"
    code, out, err = run(capsys, command, "--grid-stop", "1.0", "--grid-step", "0.1",
                         "--format", "json", "--output", str(out_path))
    assert code == 2
    assert out == ""
    assert err == (f"error: {command} prints at most 10 rows, one per grid point; "
                   "this grid has 11\n")
    assert not out_path.exists()
    assert run(capsys, command, "--grid-stop", "0.9", "--grid-step", "0.1",
               "--output", str(out_path))[0] == 0


def test_table34_grid_override(capsys):
    code, out, _ = run(capsys, "table34", "--grid-stop", "2.0", "--grid-step", "0.5",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 5


def test_output_is_deterministic(capsys):
    first = run(capsys, "table2", "--format", "csv")
    second = run(capsys, "table2", "--format", "csv")
    assert first == second


def test_table34_csv_round_trips(tmp_path, capsys):
    path = tmp_path / "t34.csv"
    code, _, _ = run(capsys, "table34", "--format", "csv", "--output", str(path))
    assert code == 0
    rows = list(csv.reader(path.read_text().splitlines()))
    header, data = rows[0], rows[1:]
    assert len(data) == 13
    expected = inverse_table()
    for row, exp in zip(data, expected):
        assert float(row[header.index("p_full")]) == exp.p
        assert float(row[header.index("delta3_full")]) == exp.delta3


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["table2", "--format", "csv"], "table2.csv"),
    (["table2"], "table2.md"),
    (["table34", "--format", "csv"], "table34.csv"),
    (["reconcile"], "reconcile.txt"),
    (["reconcile", "--grid-stop", "4", "--grid-step", "0.01"], "reconcile_grid_a.txt"),
    (["curves", "--approx", "9", "--format", "csv"], "figure1_phi9.csv"),
    # phi4's exponent has z**3
    (["curves", "--approx", "4", "--format", "csv"], "figure1_phi4.csv"),
    (["curves", "--approx", "9", "--format", "csv"], "figure2_delta3.csv"),
    (["table2", "--format", "json"], "table2.json"),
    (["table34", "--format", "json"], "table34.json"),
    (["table34"], "table34.md"),
    (["curves", "--approx", "9", "--format", "markdown"], "figure1_phi9.md"),
    (["curves", "--approx", "9", "--format", "markdown"], "figure2_delta3.md"),
    (["eval", "--approx", "9", "--format", "json", "0.5", "1.25", "3"], "eval.json"),
    (["invert", "--inverse", "3", "0.025", "0.5", "0.975"], "invert.md"),
], ids=["table2", "table2-markdown", "table34", "reconcile", "reconcile-grid-a",
        "curves-phi9", "curves-phi4", "curves-figure2", "table2-json",
        "table34-json", "table34-markdown", "curves-phi9-markdown",
        "curves-figure2-markdown", "eval-json", "invert-markdown"])
def test_artefacts_match_golden_bytes(tmp_path, capsys, argv, golden):
    """Each published artefact, byte for byte, including the ``*_full`` columns.

    The files under tests/golden come from Python 3.11.7 with glibc libm and
    are regenerated with ``normapprox table2 --format csv --output
    tests/golden/table2.csv``, ``normapprox table2 --output
    tests/golden/table2.md``, ``normapprox table34 --format csv --output
    tests/golden/table34.csv``, ``normapprox reconcile --output
    tests/golden/reconcile.txt``, ``normapprox reconcile --grid-stop 4
    --grid-step 0.01 --output tests/golden/reconcile_grid_a.txt`` and
    ``normapprox curves --approx N --format csv --output tests/golden`` for
    N = 9 and 4 (each also writes the same figure2_delta3.csv).  The files
    that pin the other renderer branches come from ``normapprox table2
    --format json --output tests/golden/table2.json`` (JSON with grid meta),
    ``normapprox table34 --format json --output tests/golden/table34.json``
    (JSON of the rows the markdown splits into sections), ``normapprox
    table34 --output tests/golden/table34.md`` (two titled markdown
    sections), ``normapprox curves --approx 9 --format markdown
    --output tests/golden`` (figure1_phi9.md and figure2_delta3.md),
    ``normapprox eval --approx 9 --format json 0.5 1.25 3 --output
    tests/golden/eval.json`` (JSON with meta that is not a grid) and
    ``normapprox invert --inverse 3 0.025 0.5 0.975 --output
    tests/golden/invert.md`` (untitled markdown).  A change to any of them
    is a change to a published number and belongs in CHANGES.md.
    """
    # curves writes into a directory; the other commands write one file
    out = tmp_path if argv[0] == "curves" else tmp_path / golden
    code, _, _ = run(capsys, *argv, "--output", str(out))
    assert code == 0
    assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # a grid override on one call must not leak into the next call's defaults
    code, out, _ = run(capsys, "table2", "--grid-stop", "2", "--grid-step", "0.5",
                       "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 10
    path = tmp_path / "table2.csv"
    assert run(capsys, "table2", "--format", "csv", "--output", str(path))[0] == 0
    assert path.read_bytes() == (GOLDEN / "table2.csv").read_bytes()


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


def test_curves_grid_choice_changes_row_count(tmp_path, capsys):
    code, _, _ = run(capsys, "curves", "--grid-stop", "5", "--grid-step", "0.001",
                     "--output", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "figure1_phi9.csv").read_text().splitlines()
    assert len(rows) == 5002  # header + 5001


def test_curves_rejects_unknown_id(capsys):
    assert run(capsys, "curves", "--approx", "12")[0] == 2


def test_bench_enforces_minimum_evaluations(capsys):
    code, _, err = run(capsys, "bench", "--evals", "1000")
    assert code == 2
    assert "1000000" in err


def test_bench_caps_evaluations(capsys):
    # rejected by validation; nothing of the rejected size is run or built
    code, out, err = run(capsys, "bench", "--evals", "10000001")
    assert code == 2
    assert out == ""
    assert "10000000" in err


def test_run_bench_times_every_subject_over_warmup_and_evals(monkeypatch):
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
    results = cli.run_bench(1000)
    labels = [f"phi{i}" for i in range(1, 10)] + ["oracle"]
    assert [label for label, _ in results] == labels
    assert all(wall > 0.0 for _, wall in results)
    assert calls == dict.fromkeys(labels, 1000 + cli._WARMUP_EVALS)


def test_reconcile_writes_report(tmp_path, capsys):
    path = tmp_path / "rec.txt"
    code, out, _ = run(capsys, "reconcile", "--grid-stop", "4", "--grid-step", "0.01",
                       "--output", str(path))
    assert code == 0
    assert "selected: k3shift-k5minus-k8shift" in out
    assert "e-" in out  # mxae printed in scientific notation
    text = path.read_text()
    assert text.count("\n") >= 20
    assert "selected" in text


def test_reconcile_defaults_to_a_report_in_the_working_directory(tmp_path, capsys,
                                                                monkeypatch):
    grid = ["--grid-stop", "1", "--grid-step", "0.1"]
    explicit = tmp_path / "explicit.txt"
    assert run(capsys, "reconcile", *grid, "--output", str(explicit))[0] == 0
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "reconcile", *grid)
    assert code == 0
    assert out.endswith("report written to phi9_reconciliation.txt\n")
    assert (tmp_path / "phi9_reconciliation.txt").read_bytes() == explicit.read_bytes()


def test_reconcile_unwritable_path_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    code, _, err = run(capsys, "reconcile", "--grid-stop", "4", "--grid-step", "0.01",
                       "--output", str(blocker / "report.txt"))
    assert code == 3
    assert "i/o" in err.lower()


def test_eval_reflects_negative_z(capsys):
    code, out, _ = run(capsys, "eval", "--approx", "1", "--format", "json",
                       "--", "-1.0", "1.0")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["value"] + rows[1]["value"] == 1.0


def test_eval_domain_error_exit_2(capsys):
    assert run(capsys, "eval", "--approx", "2", "9.5")[0] == 2


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


@pytest.mark.parametrize("approx", ["5", "8"])
def test_eval_past_turning_point_exit_2(capsys, approx):
    code, out, err = run(capsys, "eval", "--approx", approx, "8")
    assert code == 2
    assert out == ""
    assert "|z| <" in err


def test_invert_reflects_small_p(capsys):
    code, out, _ = run(capsys, "invert", "--inverse", "3", "--format", "json",
                       "0.3", "0.5")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["z"] == -quantile_approx(3, 0.7)
    assert rows[1]["z"] == 0.0


def test_invert_rejects_unit_probability(capsys):
    assert run(capsys, "invert", "1.0")[0] == 2


@pytest.mark.parametrize("p", ["1e-320", "1e-17"])
def test_invert_names_the_domain_when_reflection_fails(capsys, p):
    code, _, err = run(capsys, "invert", "--", p)
    assert code == 2
    assert "0 < p < 1" in err
    assert "1 - p rounds to 1" in err


_EXTREME_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
                     0.0, -0.0, math.nan, math.inf, -math.inf]))


@given(st.integers(1, 9), st.integers(1, 3), _EXTREME_FLOATS)
@settings(max_examples=300, deadline=None)
def test_eval_and_invert_exit_cleanly_on_any_float(approx, inverse, x):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes = {main(["eval", "--approx", str(approx), "--", repr(x)]),
                 main(["invert", "--inverse", str(inverse), "--", repr(x)])}
    assert codes <= {0, 2, 3}


@st.composite
def _grid_bounds(draw):
    start, stop, step = (draw(_EXTREME_FLOATS) for _ in range(3))
    if draw(st.booleans()):
        # three random floats almost never make a valid grid, so half the
        # examples build one from a start, a step and a point count
        start, step = abs(start), abs(step)
        stop = start + draw(st.integers(1, 2000)) * step
    return start, stop, step


@given(st.sampled_from(["table2", "table34", "curves", "reconcile"]), _grid_bounds(),
       st.sampled_from(["csv", "json", "markdown"]))
@settings(max_examples=100, deadline=None)
def test_grid_commands_exit_cleanly_on_any_grid(command, bounds, fmt):
    start, stop, step = bounds
    try:
        count = GridSpec(start, stop, step).count
    except DomainError:
        count = 0  # the command exits 2 before it builds a point
    assume(count <= 2000)
    argv = [command, f"--grid-start={start!r}", f"--grid-stop={stop!r}",
            f"--grid-step={step!r}"]
    if command != "reconcile":  # reconcile writes only its text report
        argv.append(f"--format={fmt}")
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--output", os.path.join(tmp, "out")])
    assert code in {0, 2, 3}
    assert code == 0 or out.getvalue() == ""


def test_unknown_format_exit_2(capsys):
    assert run(capsys, "table2", "--format", "xml")[0] == 2


def test_missing_subcommand_exit_2(capsys):
    assert run(capsys)[0] == 2


def test_cli_commands_leave_scipy_unimported(tmp_path):
    # scipy is a test dependency only and would cost most of a fresh
    # process's start-up, so neither the package nor any command may load it
    # (bench is left out: it needs a million evaluations per subject)
    argvs = [["table2", "--grid-stop", "1", "--grid-step", "0.1"],
             ["table34"],
             ["curves", "--grid-stop", "1", "--grid-step", "0.1",
              "--output", str(tmp_path)],
             ["reconcile", "--grid-stop", "1", "--grid-step", "0.1",
              "--output", str(tmp_path / "report.txt")],
             ["eval", "--", "-1.5", "0", "1.5"],
             ["invert", "0.25", "0.975"]]
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import normapprox
        from normapprox.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in {argvs!r}]
        print(json.dumps([codes, sorted(m for m in sys.modules
                                        if m.split(".")[0] == "scipy")]))
    """)
    src = os.path.dirname(os.path.dirname(normapprox.__file__))
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    assert scipy_modules == []


@pytest.mark.parametrize("argv, code, stderr", [
    (["eval", "0"], 0, ""),
    (["eval", "--", "nan"], 2, "error: eval_cdf_extended requires a finite abscissa\n"),
], ids=["eval-0", "eval-nan"])
def test_module_entry_point_returns_mains_exit_code(capsys, argv, code, stderr):
    # python -m normapprox.cli must exit with main's code and print what main prints
    src = os.path.dirname(os.path.dirname(normapprox.__file__))
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-m", "normapprox.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
    assert (done.returncode, done.stderr) == (code, stderr)
    assert (done.stdout == "") == (code != 0)
