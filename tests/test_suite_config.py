"""The pytest configuration in pyproject.toml keeps a run going past a failure,
and the four by-design reds stay red."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis reports a failure through code that emits a
    # DeprecationWarning; filterwarnings = ["error"] once turned that into an
    # INTERNALERROR (exit 3), and the tests after the failing one never ran
    (tmp_path / "test_throwaway.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @given(st.integers())
        @settings(database=None, derandomize=True)
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout


BY_DESIGN_REDS = [
    "tests/test_acceptance.py::test_c4_table4_reproduction",
    "tests/test_acceptance.py::test_c5_quantile_round_trip",
    "tests/test_acceptance.py::test_c6_range_invariant[9]",
    "tests/test_acceptance.py::test_c6_delta3_band_on_0_2",
]


def test_the_four_by_design_reds_stay_red():
    # each is a defect of the printed source (README "Validation notes"); none
    # may turn green, be skipped or be marked xfail without this test failing
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         *BY_DESIGN_REDS],
        cwd=PYPROJECT.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "4 failed" in done.stdout, done.stdout
    assert "passed" not in done.stdout, done.stdout
    failed = {ln.split()[1] for ln in done.stdout.splitlines() if ln.startswith("FAILED ")}
    assert failed == set(BY_DESIGN_REDS), done.stdout
