"""The pytest configuration in pyproject.toml keeps a run going past a failure,
the four by-design reds stay red, and tests/mutate.py still enumerates sound
mutants and names each accepted survivor of its ledger."""

import ast
import collections
import io
import pathlib
import re
import subprocess
import sys
import textwrap
import tokenize

import mutate

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


def test_the_four_by_design_reds_stay_red():
    # each is a defect of the printed source (README "Validation notes"); none
    # may turn green, be skipped, be marked xfail or lose its marker, and no
    # other test may gain it, without this test failing
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-m", "by_design_red"],
        cwd=PYPROJECT.parent, capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    assert done.returncode == 1, done.stdout + done.stderr
    assert re.fullmatch(r"4 failed, \d+ deselected in .*", lines[-1]), done.stdout
    assert sum(ln.startswith("FAILED ") for ln in lines) == 4, done.stdout
    # CI deselects by the same marker, so it runs every other test
    workflow = (PYPROJECT.parent / ".github/workflows/tests.yml").read_text()
    assert '-m "not by_design_red"' in workflow


def _tokens(source: bytes) -> list[tuple[int, str]]:
    return [(t.type, t.string) for t in tokenize.tokenize(io.BytesIO(source).readline)]


def test_mutation_runner_makes_one_token_edits_of_every_kind_in_every_module():
    # python tests/mutate.py runs for about an hour, so nothing else would
    # notice its enumerator rot
    sources = {p.name: p.read_bytes() for p in mutate.SRC.glob("*.py")}
    # the lines of each top-level statement, which compiles on its own
    tops = {name: [(min([n.lineno] + [d.lineno for d in getattr(n, "decorator_list", ())]),
                    n.end_lineno) for n in ast.parse(source).body]
            for name, source in sources.items()}
    found = mutate.mutants()
    for m in found:
        first, last = next(t for t in tops[m.module] if t[0] <= m.line <= t[1])
        before, after = (b"".join(text.splitlines(True)[first - 1:last])
                         for text in (sources[m.module], m.apply(sources[m.module])))
        compile(after, m.id, "exec")
        before, after = _tokens(before), _tokens(after)
        assert len(before) == len(after), m.id
        assert sum(a != b for a, b in zip(before, after)) == 1, m.id
    assert {m.kind for m in found} == {*mutate.FLIPS, "int", "float", "guard"}
    assert {m.module for m in found} == set(sources) - {"__init__.py"}


def test_every_ledger_entry_names_exactly_one_mutant():
    # python tests/mutate.py checks the ledger against its survivors only after
    # an hour; an edit of src/ that rewrites or duplicates a ledger line fails here
    keys = [key for key, _ in mutate.ledger()]
    found = collections.Counter(m.key for m in mutate.mutants())
    assert len(set(keys)) == len(keys)
    assert [key for key in keys if found[key] != 1] == []
