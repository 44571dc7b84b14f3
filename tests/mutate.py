"""Mutation analysis of Tier-1: which tests kill which mutant of src/normapprox.

``python tests/mutate.py`` (stdlib only, no options) runs Tier-1 against each
mutant of ``mutants()``: one operator of ``FLIPS`` flipped (``+=`` and its
kin too), one int or float literal nudged, or one ``if …: raise`` guard
switched off (``raise`` becomes ``assert``, which an exception instance
always passes).  Each run takes a fresh copy of ``COPIED`` under
.bench_build/mutate/, whose ``pythonpath = ["src"]`` makes pytest and the
subprocesses the tests start import the mutant, and which no byte code
outlives.

A test kills a mutant when its JUnit outcome differs from the unmutated
copy's; a run longer than ``TIMEOUT_FACTOR`` times the unmutated one kills it
too.  Every process of a run may map at most ``MEMORY_CAP``, so a mutant that
allocates without bound fails the test that reaches it.  A first pass runs
without ``SLOW``, a second runs the whole suite on the mutants left alive.
.bench_build/mutate/ then holds matrix.json (baseline outcomes; per mutant,
the tests that kill it) and survivors.txt (each survivor's id and ledger
key).  The run exits 1, naming each one, when a survivor is missing from
``LEDGER`` or a ledger entry matches no survivor.
On a 2-vCPU host it takes about 40 minutes.

``LEDGER``, tests/equivalent_mutants.txt, lists the accepted survivors: the
mutants that no input or output can tell from the original.  Each line is a
mutant's ``key`` (module, edit, occurrence of that edit on its line, stripped
source line), which survives line shifts, then `` | `` and the reason.  Runs
deselect ``LEDGER_TEST``, which reads the source text and so fails on every
edit of a ledger line, whatever the edit does.
"""

import ast
import bisect
import collections
import concurrent.futures
import itertools
import json
import os
import pathlib
import re
import resource
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "normapprox"
OUT = ROOT / ".bench_build" / "mutate"
LEDGER = ROOT / "tests" / "equivalent_mutants.txt"
LEDGER_TEST = "tests/test_suite_config.py::test_every_ledger_entry_names_exactly_one_mutant"
COPIED = ("src", "tests", "pyproject.toml", ".github")
# 4.5-4.8 s and 2.0-2.5 s of a 14.6-15.1 s suite (pytest --durations=0, two
# runs, 2-vCPU Xeon, Python 3.11.7)
SLOW = (
    "tests/test_acceptance.py::test_c7_bench_command",
    "tests/test_suite_config.py::test_the_four_by_design_reds_stay_red",
)
TIMEOUT_FACTOR = 4
# Each suite process's address space, in bytes.  No process of the unmutated
# suite maps more than 70 MB (VmPeak, Python 3.11.7), so a mutant that builds a
# runaway list meets MemoryError inside the test that asked for it.
MEMORY_CAP = 1 << 30

FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*"}
_OPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
        ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


class Mutant(NamedTuple):
    module: str       # file name under src/normapprox
    kind: str         # a key of FLIPS, also for its augmented form, int, float or guard
    line: int
    col: int          # in bytes, as ast counts
    start: int        # byte offset of the edited token in the module
    original: str
    replacement: str
    text: str         # the stripped source line
    occurrence: int = 0  # earlier mutants of the same edit on that line

    @property
    def id(self) -> str:
        return f"{self.module}:{self.line}:{self.col} {self.original} -> {self.replacement}"

    @property
    def key(self) -> str:
        return (f"{self.module} | {self.original} -> {self.replacement} | "
                f"{self.occurrence} | {self.text}")

    def apply(self, source: bytes) -> bytes:
        return (source[:self.start] + self.replacement.encode()
                + source[self.start + len(self.original):])


def mutants() -> list[Mutant]:
    """Every operator flip, literal nudge and guard edit in the modules under
    ``SRC``, in source order, each with its ledger key.  Raises ValueError
    where the source between two operands is not the operator alone, or a
    literal's text is not its value, so a new construct cannot be edited at
    the wrong offset."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_bytes()
        lines = source.splitlines()
        starts = [0, *itertools.accumulate(map(len, source.splitlines(keepends=True)))]

        def begin(node):
            return starts[node.lineno - 1] + node.col_offset

        def end(node):
            return starts[node.end_lineno - 1] + node.end_col_offset

        def add(kind, start, original, replacement):
            line = bisect.bisect_right(starts, start)
            found.append(Mutant(path.name, kind, line, start - starts[line - 1], start,
                                original, replacement, lines[line - 1].decode().strip()))

        def add_op(op, left, right, augmented=""):
            kind = _OPS.get(type(op))
            if kind is None:
                return
            gap = source[end(left):begin(right)].decode()
            # the operands may be parenthesised or split across lines
            m = re.fullmatch(r"[\s()\\]*(\S+?)[\s()\\]*", gap)
            if not m or m[1] != kind + augmented:
                raise ValueError(f"{path.name}:{left.end_lineno}: {gap!r} is not {kind}")
            add(kind, end(left) + len(gap[:m.start(1)].encode()), m[1], FLIPS[kind] + augmented)

        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.If):
                # a guard switched off: assert DomainError(...) holds, as any instance is true
                for stmt in node.body:
                    if isinstance(stmt, ast.Raise):
                        add("guard", begin(stmt), "raise", "assert")
            if isinstance(node, ast.BinOp):
                add_op(node.op, node.left, node.right)
            elif isinstance(node, ast.AugAssign):
                add_op(node.op, node.target, node.value, "=")
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    add_op(op, left, right)
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                text = source[begin(node):end(node)].decode()
                if ast.literal_eval(text) != node.value:
                    raise ValueError(f"{path.name}:{node.lineno}: {text!r} is not {node.value!r}")
                # an int plus one, a float times 1.001, 0.0 becomes 0.001
                value = node.value
                add(type(value).__name__, begin(node), text, str(value + 1) if type(value) is int
                    else repr(value * 1.001 if value else 0.001))
    found.sort(key=lambda m: (m.module, m.start))
    seen = collections.Counter()
    for i, m in enumerate(found):
        edit = (m.module, m.line, m.original, m.replacement)
        found[i] = m._replace(occurrence=seen[edit])
        seen[edit] += 1
    return found


def ledger() -> list[tuple[str, str]]:
    """(key, reason) of each entry of ``LEDGER``, in file order; blank lines
    and lines that start with # are skipped."""
    return [tuple(line.rsplit(" | ", 1)) for line in LEDGER.read_text().splitlines()
            if line and not line.startswith("#")]


def _outcomes(junit: pathlib.Path) -> dict[str, str]:
    """test id -> passed or failed; a module that fails to collect appears as
    a failed id of its own."""
    results = {}
    for case in ET.parse(junit).iter("testcase"):
        classname, name = case.get("classname"), case.get("name")
        test = f"{classname.replace('.', '/')}.py::{name}" if classname else f"collect:{name}"
        failed = case.find("failure") is not None or case.find("error") is not None
        if failed or test not in results:  # a teardown error is a second entry
            results[test] = "failed" if failed else "passed"
    return results


def _cap_memory():
    # runs in the child between fork and exec: one C call, which takes no lock
    # that another thread of the pool could hold
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_suite(label: str, mutant: Mutant | None, deselect, timeout=None):
    """(test id -> outcome, seconds) of Tier-1 on a fresh copy with ``mutant``
    applied, its processes capped at ``MEMORY_CAP``; the outcomes are None
    when the run timed out or wrote no report."""
    tree = OUT / "trees" / label
    shutil.rmtree(tree, ignore_errors=True)
    try:
        shutil.copytree(ROOT, tree, ignore=lambda folder, names: [
            n for n in names if n in ("__pycache__", ".pytest_cache")
            or folder == str(ROOT) and n not in COPIED])
        if mutant is not None:
            path = tree / "src" / "normapprox" / mutant.module
            path.write_bytes(mutant.apply(path.read_bytes()))
        junit = tree / "junit.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors",
               f"--junitxml={junit}", f"--basetemp={tree / 'tmp'}",
               *(f"--deselect={t}" for t in (LEDGER_TEST, *deselect))]
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tree / "src"), *([path] if path else [])]))
        t0 = time.perf_counter()
        try:
            subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0
        return (_outcomes(junit) if junit.is_file() else None), time.perf_counter() - t0
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def main() -> int:
    everything = todo = mutants()
    killed_by = {}
    for deselect in (SLOW, ()):
        baseline, seconds = run_suite("baseline", None, deselect)
        if baseline is None:
            raise SystemExit("the unmutated suite wrote no JUnit report")
        print(f"{len(todo)} mutants, {len(deselect)} tests deselected", file=sys.stderr)
        with concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            jobs = {pool.submit(run_suite, str(i), m, deselect, TIMEOUT_FACTOR * seconds): m
                    for i, m in enumerate(todo)}
            for n, job in enumerate(concurrent.futures.as_completed(jobs), 1):
                m, (outcomes, took) = jobs[job], job.result()
                killed_by[m] = (["<timeout or no report>"] if outcomes is None else
                                sorted(t for t in baseline.keys() | outcomes.keys()
                                       if outcomes.get(t) != baseline.get(t)))
                print(f"[{n}/{len(todo)}] {m.id}: {len(killed_by[m])} killers, {took:.1f} s",
                      file=sys.stderr)
        todo = [m for m in todo if not killed_by[m]]

    (OUT / "matrix.json").write_text(json.dumps({
        "python": sys.version, "baseline": baseline,
        "mutants": {m.id: killed_by[m] for m in everything}}, indent=1) + "\n")
    (OUT / "survivors.txt").write_text("".join(f"{m.id}    {m.key}\n" for m in todo))
    print(f"{len(everything)} mutants, {len(todo)} survivors, in {OUT}", file=sys.stderr)
    accepted = dict(ledger())
    unlisted = [m for m in todo if m.key not in accepted]
    stale = accepted.keys() - {m.key for m in todo}
    for m in unlisted:
        print(f"survivor not in the ledger: {m.id}    {m.key}", file=sys.stderr)
    for key in sorted(stale):
        print(f"ledger entry that matches no survivor: {key}", file=sys.stderr)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
