"""Regenerate expected.json, the reference outputs the artefacts workload
checks against.

Run it from the repository root, at the commit whose outputs are the
reference (the committed file was written at the commit that added the
benchmark):

    PYTHONPATH=src python3 perfbench/make_expected.py

Printed (rounded) columns are kept as text and must match byte for byte;
``*_full`` columns and ``mxae_location`` are kept as numbers and are compared
with the slack documented in worker.py.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import normapprox.cli

from worker import EXPECTED, artefact_commands, read_csv

SCRATCH = os.path.join(os.path.dirname(os.path.dirname(EXPECTED)), ".bench_build")


def _split(rows):
    return [{"printed": {c: v for c, v in row.items()
                         if not c.endswith("_full") and c != "mxae_location"},
             "full": {c: float(v) for c, v in row.items()
                      if c.endswith("_full") or c == "mxae_location"}}
            for row in rows]


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    outdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        approx, commands = artefact_commands(0, outdir)
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                if normapprox.cli.main(argv) != 0:
                    raise SystemExit(f"{argv[0]} failed")
        with open(os.path.join(outdir, "reconcile.txt"), encoding="utf-8") as fh:
            selected = next(line.split(": ", 1)[1].strip()
                            for line in fh if line.startswith("selected: "))
        expected = {
            "table2": _split(read_csv(os.path.join(outdir, "table2.csv"))),
            "table34": _split(read_csv(os.path.join(outdir, "table34.csv"))),
            "curves_rows": {
                "figure1": len(read_csv(os.path.join(outdir, "curves",
                                                     f"figure1_phi{approx}.csv"))),
                "figure2": len(read_csv(os.path.join(outdir, "curves",
                                                     "figure2_delta3.csv"))),
            },
            "reconcile_selected": selected,
        }
    finally:
        shutil.rmtree(outdir)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
