"""The pytest configuration in pyproject.toml keeps a run going past a failure."""

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
