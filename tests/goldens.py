"""Golden values the harness is expected to regenerate.

TABLE2 holds the published (MXAE, MAE) pairs per approximation id; TABLE3 the
published quantile-approximation columns (unit: 1e-4); TABLE4 the published
signed differences together with the unit of their last printed digit.
GOLDEN_RUNS names the ``normapprox`` argv that writes each file under
tests/golden with ``--output``.  ``python tests/goldens.py`` (standard library
only) runs every row through the ``normapprox`` on PATH from a temporary
directory, and exits 1, naming each file that differs, unless every run exits 0
with empty stderr and writes its golden byte for byte.
"""

import pathlib
import subprocess
import sys
import tempfile

TABLE2 = {
    1: (1.77e-2, 7.05e-3),
    2: (6.69e-3, 1.10e-3),
    3: (2.10e-3, 9.78e-4),
    4: (3.14e-4, 9.99e-5),
    5: (4.37e-5, 1.69e-5),
    6: (1.42e-4, 6.88e-5),
    7: (2.41e-5, 7.26e-6),
    8: (7.62e-7, 1.82e-7),
    9: (4.43e-10, 9.62e-11),
}

# z -> (zhat1, zhat2, zhat3), all printed at 4 decimals
TABLE3 = {
    0.0: (0.000, 0.000, 0.000),
    0.4: (0.3976, 0.4084, 0.4000),
    0.8: (0.7969, 0.8024, 0.8000),
    1.2: (1.1989, 1.1948, 1.1999),
    1.6: (1.6038, 1.5932, 1.6003),
    2.0: (2.0093, 1.9993, 1.9975),
    2.4: (2.4105, 2.4097, 2.3864),
    2.8: (2.7999, 2.8168, 2.7660),
    3.2: (3.1686, 3.2109, 3.1386),
    3.6: (3.5084, 3.5826, 3.5068),
    4.0: (3.8130, 3.9239, 3.8725),
    4.4: (4.0783, 4.2293, 4.2366),
    4.8: (4.3032, 4.4958, 4.5997),
}

# z -> ((delta1, unit), (delta2, unit), (delta3, unit))
# unit = one step of the last printed digit
TABLE4 = {
    0.0: ((0.0, 1e-15), (0.0, 1e-15), (0.0, 1e-15)),
    0.4: ((-0.00238, 1e-5), (0.00839, 1e-5), (-0.00002, 1e-5)),
    0.8: ((-0.00313, 1e-5), (0.00237, 1e-5), (3.28071e-6, 1e-11)),
    1.2: ((-0.00107, 1e-5), (-0.00521, 1e-5), (-0.00009, 1e-5)),
    1.6: ((0.00380, 1e-5), (-0.00685, 1e-5), (0.00025, 1e-5)),
    2.0: ((0.00932, 1e-5), (-0.00070, 1e-5), (-0.00025, 1e-5)),
    2.4: ((0.01051, 1e-5), (0.00972, 1e-5), (-0.01360, 1e-5)),
    2.8: ((-0.00015, 1e-5), (0.01681, 1e-5), (-0.03403, 1e-5)),
    3.2: ((-0.03141, 1e-5), (0.01094, 1e-5), (-0.06142, 1e-5)),
    3.6: ((-0.09157, 1e-5), (-0.01738, 1e-5), (-0.09318, 1e-5)),
    4.0: ((-0.18706, 1e-5), (-0.07607, 1e-5), (-0.12752, 1e-5)),
    4.4: ((-0.32173, 1e-5), (-0.17066, 1e-5), (-0.16342, 1e-5)),
    4.8: ((-0.49679, 1e-5), (-0.30416, 1e-5), (-0.20026, 1e-5)),
}

PHI9_TARGET_MXAE = 4.43e-10
PHI9_TARGET_MAE = 9.62e-11
PHI9_TARGET_ARGMAX = 0.794634


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# (test id, argv, golden).  The goldens come from Python 3.11.7 with glibc libm;
# a change to one is a change to a published number and belongs in CHANGES.md.
GOLDEN_RUNS = [
    ("table2", "table2 --format csv", "table2.csv"),
    ("table2-markdown", "table2", "table2.md"),
    ("table34", "table34 --format csv", "table34.csv"),
    ("reconcile", "reconcile", "reconcile.txt"),
    ("curves-phi9", "curves --approx 9 --format csv", "figure1_phi9.csv"),
    # phi4's exponent has z**3
    ("curves-phi4", "curves --approx 4 --format csv", "figure1_phi4.csv"),
    ("curves-figure2", "curves --approx 9 --format csv", "figure2_delta3.csv"),
    # the other renderer branches: JSON with and without grid meta, markdown
    # with and without section titles
    ("table2-json", "table2 --format json", "table2.json"),
    ("table34-json", "table34 --format json", "table34.json"),
    ("table34-markdown", "table34", "table34.md"),
    ("curves-phi9-markdown", "curves --approx 9 --format markdown", "figure1_phi9.md"),
    ("curves-figure2-markdown", "curves --approx 9 --format markdown", "figure2_delta3.md"),
    ("eval-json", "eval --approx 9 --format json 0.5 1.25 3", "eval.json"),
    ("invert-markdown", "invert --inverse 3 0.025 0.5 0.975", "invert.md"),
]


def golden_argv(argv: str, golden: str, directory: pathlib.Path) -> list[str]:
    """``argv`` and the ``--output`` that writes ``golden`` into ``directory``;
    ``curves`` writes its two figures into the directory itself."""
    out = directory if argv.startswith("curves") else directory / golden
    return [*argv.split(), "--output", str(out)]


def main() -> int:
    differ = []
    for _, argv, golden in GOLDEN_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            done = subprocess.run(["normapprox", *golden_argv(argv, golden, pathlib.Path(tmp))],
                                  cwd=tmp, capture_output=True)
            out = pathlib.Path(tmp, golden)
            if done.returncode or done.stderr or not out.is_file() \
                    or out.read_bytes() != (GOLDEN / golden).read_bytes():
                differ.append(golden)
                sys.stderr.write(f"{golden} differs: normapprox {argv} exited "
                                 f"{done.returncode}\n" + done.stderr.decode(errors="replace"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
