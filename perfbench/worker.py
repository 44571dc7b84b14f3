"""One workload process: runs passes of fixed work and prints one JSON line.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` directory and a JSON configuration as its only argument:

* ``{"workload": "pointwise" | "quantile", "seed", "seconds", "trace"}``
  runs repeated passes over seeded inputs for ``seconds``;
* ``{"workload": "artefacts", "seed", "outdir", "trace"}`` runs one pass of
  the artefact commands, since each pass needs a fresh process.

Inputs come from the seed only.  Output checks run outside the timed region
and count as failed operations.  With ``trace`` the public functions are
wrapped by ``spans.Tracer`` and each traced pass yields per-layer metrics.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import sys
import time
from statistics import NormalDist

import normapprox
import normapprox.cli

import spans
from clock import Yardstick, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")

POINTWISE_RECORDS = 4000   # one z and one p per record
QUANTILE_CALLS = 2000
OPS_PER_RECORD = 13        # 9 kernels + ref_cdf + 3 quantile forms
MIN_PASSES = 3
QUANTILE_TOL = 1e-14       # documented contract of ref_quantile
MPMATH_TOL = 1e-15         # documented absolute accuracy of ref_cdf on |z| <= 8
MPMATH_SAMPLES = 64

# Two oracles that each meet ref_cdf's 1e-15 absolute contract differ by at
# most 2e-15, and kernel rewrites move values by an ulp or so; twice that is
# the slack a *_full value may move by before it counts as wrong.
ORACLE_SLACK = 4e-15


def _strata(rng, n):
    """n uniforms in (0, 1), one per equal stratum, in shuffled order.

    Stratifying keeps the input mix (tail share, kernel branches) nearly the
    same for every seed, so seeds change the values and not the cost.
    """
    us = [(i + 0.001 + 0.998 * rng.random()) / n for i in range(n)]
    rng.shuffle(us)
    return us


def pointwise_inputs(seed):
    """(z, p) records.  z: half N(0, 1), half uniform on [-6, 6]; p: uniform
    on (0, 1).  |z| <= 6 keeps every draw where all nine forms still increase.
    """
    rng = random.Random(seed)
    half = POINTWISE_RECORDS // 2
    normal = NormalDist()
    zs = [normal.inv_cdf(u) for u in _strata(rng, half)]
    zs += [-6.0 + 12.0 * u for u in _strata(rng, POINTWISE_RECORDS - half)]
    rng.shuffle(zs)
    return list(zip(zs, _strata(rng, POINTWISE_RECORDS)))


def quantile_inputs(seed):
    """Fifths: three central, within 1e-3 of the ends and split evenly about
    0.5, and two log-uniform tails, down to 1e-300 below and to 1 - 1e-16
    above (the closest a double gets to 1).

    Central calls are the cheap population.  With an even split, p50 would
    sit on the gap between the two populations and swing with noise; at
    three fifths it lies inside the central one.
    """
    rng = random.Random(seed)
    fifth = QUANTILE_CALLS // 5
    central = [0.5 + (0.5 - 1e-3) * u for u in _strata(rng, 3 * fifth)]
    ps = [p if i % 2 else 1.0 - p for i, p in enumerate(central)]
    ps += [10.0 ** (-300.0 + 297.0 * u) for u in _strata(rng, fifth)]
    ps += [1.0 - 10.0 ** (-16.0 + 13.0 * u)
           for u in _strata(rng, QUANTILE_CALLS - 4 * fifth)]
    rng.shuffle(ps)
    return ps


def pointwise_chunk(records):
    """Times each record; returns (chunk_ns, per-record ns, rows, errors)."""
    ext = normapprox.eval_cdf_extended
    ref = normapprox.ref_cdf
    quant = normapprox.quantile_approx
    clock = time.perf_counter_ns
    rows, lat = [], []
    errors = 0
    start = clock()
    for z, p in records:
        t0 = clock()
        try:
            if p >= 0.5:
                q = (quant(1, p), quant(2, p), quant(3, p))
            else:
                r = 1.0 - p
                q = (-quant(1, r), -quant(2, r), -quant(3, r))
            row = (ext(1, z), ext(2, z), ext(3, z), ext(4, z), ext(5, z),
                   ext(6, z), ext(7, z), ext(8, z), ext(9, z), ref(z)) + q
        except Exception:
            row = None
            errors += 1
        lat.append(clock() - t0)
        rows.append(row)
    return clock() - start, lat, rows, errors * OPS_PER_RECORD


def quantile_chunk(ps):
    """Times each call; returns (chunk_ns, per-call ns, results, errors)."""
    solve = normapprox.ref_quantile
    clock = time.perf_counter_ns
    rows, lat = [], []
    errors = 0
    start = clock()
    for p in ps:
        t0 = clock()
        try:
            z = solve(p)
        except Exception:
            z = None
            errors += 1
        lat.append(clock() - t0)
        rows.append(z)
    return clock() - start, lat, rows, errors


def check_pointwise(records, rows, seed):
    """Failed output checks in one pass's rows (failed records excluded)."""
    bad = 0
    for (_, p), row in zip(records, rows):
        if row is None:
            continue
        bad += sum(not 0.0 <= v <= 1.0 for v in row[:10])
        sign = (p > 0.5) - (p < 0.5)
        bad += sum(not math.isfinite(z) or (z > 0) - (z < 0) != sign
                   for z in row[10:])
    import mpmath
    mpmath.mp.dps = 40
    for i in random.Random(seed).sample(range(len(records)), MPMATH_SAMPLES):
        z = records[i][0]
        if rows[i] is not None and abs(z) <= 8.0:
            exact = mpmath.ncdf(mpmath.mpf(z))
            bad += not abs(mpmath.mpf(rows[i][9]) - exact) <= MPMATH_TOL
    return bad


def check_quantile(ps, rows, seed):
    cdf = normapprox.ref_cdf
    return sum(z is not None and not (math.isfinite(z)
                                      and abs(cdf(z) - p) <= QUANTILE_TOL)
               for p, z in zip(ps, rows))


# workload: (inputs, chunk runner, items per chunk, public calls per item, check)
CALL_WORKLOADS = {
    "pointwise": (pointwise_inputs, pointwise_chunk, 1000, OPS_PER_RECORD,
                  check_pointwise),
    "quantile": (quantile_inputs, quantile_chunk, 250, 1, check_quantile),
}


def run_calls(cfg):
    """Pointwise or quantile: repeated passes over the same seeded inputs.

    A pass runs in chunks with calibration loops between them, so each chunk
    is scaled by the CPU speed around it.  The first pass is a checked
    warm-up; every later pass must reproduce its results exactly.  In a
    traced run the first third of the time is spent untraced, for the
    overhead ratio, and the rest traced.
    """
    make_inputs, run_chunk, chunk, ops_per_item, check = CALL_WORKLOADS[cfg["workload"]]
    seed, seconds, traced = cfg["seed"], cfg["seconds"], cfg["trace"]
    items = make_inputs(seed)
    yardstick = Yardstick()
    start = time.perf_counter()

    def run_pass():
        ns = scaled_ns = errors = 0
        lat, rows = [], []
        for i in range(0, len(items), chunk):
            (c_ns, c_lat, c_rows, c_errors), scale = yardstick.run(
                lambda: run_chunk(items[i:i + chunk]))
            ns += c_ns
            scaled_ns += c_ns * scale
            lat += [v * scale for v in c_lat]
            rows += c_rows
            errors += c_errors
        return ns, scaled_ns, lat, rows, errors

    _, _, _, reference_rows, errors = run_pass()
    ops_per_pass = len(items) * ops_per_item
    attempted = ops_per_pass
    failed = errors + check(items, reference_rows, seed)

    def timed_passes(until, tracer=None):
        nonlocal attempted, failed
        out = []
        while len(out) < MIN_PASSES or time.perf_counter() < until:
            ns, scaled_ns, lat, rows, errors = run_pass()
            attempted += ops_per_pass
            failed += errors
            if rows != reference_rows:
                failed += sum(a != b for a, b in zip(rows, reference_rows))
            out.append({"ns": ns, "scaled_ns": scaled_ns, "scale": scaled_ns / ns,
                        "p50_ns": percentile(lat, 0.50), "p99_ns": percentile(lat, 0.99),
                        "layers": tracer.reduce() if tracer else None})
        return out

    result = {"items_per_pass": len(items), "ops_per_pass": ops_per_pass}
    if not traced:
        result["passes"] = timed_passes(start + seconds)
    else:
        result["passes"] = timed_passes(start + seconds / 3.0)
        tracer = spans.Tracer()
        result["wrapper_ns"] = tracer.calibrate()
        tracer.install()
        result["traced_passes"] = timed_passes(start + seconds, tracer)
        tracer.uninstall()
    result["attempted"] = attempted
    result["failed"] = failed
    return result


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _density(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _table_ok(path, expected, slack_of):
    rows = read_csv(path)
    if len(rows) != len(expected):
        return False
    for row, want in zip(rows, expected):
        if any(row.get(col) != text for col, text in want["printed"].items()):
            return False
        for col, value in want["full"].items():
            if not abs(float(row[col]) - value) <= slack_of(col, want):
                return False
    return True


def _table2_slack(col, want):
    return 0.0 if col == "mxae_location" else ORACLE_SLACK


def _table34_slack(col, want):
    # a p that moves by the oracle slack moves a quantile by about 1/density
    if col == "p_full":
        return ORACLE_SLACK
    return ORACLE_SLACK / _density(float(want["printed"]["z"]))


def _curves_ok(path, rows_expected):
    rows = read_csv(path)
    return len(rows) == rows_expected and all(
        math.isfinite(float(v)) for row in rows for v in row.values())


def check_artefact(command, outdir, approx, expected):
    """Whether one command's output files still match expected.json."""
    try:
        if command == "table2":
            return _table_ok(os.path.join(outdir, "table2.csv"),
                             expected["table2"], _table2_slack)
        if command == "table34":
            return _table_ok(os.path.join(outdir, "table34.csv"),
                             expected["table34"], _table34_slack)
        if command == "curves":
            rows = expected["curves_rows"]
            return (_curves_ok(os.path.join(outdir, "curves", f"figure1_phi{approx}.csv"),
                               rows["figure1"])
                    and _curves_ok(os.path.join(outdir, "curves", "figure2_delta3.csv"),
                                   rows["figure2"]))
        with open(os.path.join(outdir, "reconcile.txt"), encoding="utf-8") as fh:
            return f"selected: {expected['reconcile_selected']}\n" in fh.read()
    except (OSError, ValueError, KeyError):
        return False


def artefact_commands(seed, outdir):
    """The seed picks the curves approximation and the command order."""
    rng = random.Random(seed)
    approx = rng.choice(spans.PHI_IDS)
    commands = [
        ["table2", "--format", "csv", "--output", os.path.join(outdir, "table2.csv")],
        ["table34", "--format", "csv", "--output", os.path.join(outdir, "table34.csv")],
        ["curves", "--approx", str(approx), "--output", os.path.join(outdir, "curves")],
        ["reconcile", "--output", os.path.join(outdir, "reconcile.txt")],
    ]
    rng.shuffle(commands)
    return approx, commands


def run_artefacts(cfg):
    """One pass: every artefact command through cli.main, each timed."""
    outdir = cfg["outdir"]
    approx, commands = artefact_commands(cfg["seed"], outdir)
    tracer = None
    result = {}
    if cfg["trace"]:
        tracer = spans.Tracer()
        result["wrapper_ns"] = tracer.calibrate(rounds=3, calls=10000)
        tracer.install()
    main = normapprox.cli.main
    codes, cmd_ns, scales = [], [], []
    clock = time.perf_counter_ns
    yardstick = Yardstick()
    for argv in commands:
        def run_command():
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = clock()
                try:
                    code = main(argv)
                except Exception:
                    code = None
                cmd_ns.append(clock() - t0)
            return code

        code, scale = yardstick.run(run_command)
        codes.append(code)
        scales.append(scale)
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.reduce()

    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    result["failed"] = sum(code != 0 or not check_artefact(argv[0], outdir, approx, expected)
                           for argv, code in zip(commands, codes))
    result["attempted"] = len(commands)
    result["cmd_ns"] = cmd_ns
    result["scaled_ns"] = sum(ns * scale for ns, scale in zip(cmd_ns, scales))
    result["scale"] = result["scaled_ns"] / sum(cmd_ns)
    result["output_bytes"] = sum(os.path.getsize(os.path.join(d, f))
                                 for d, _, files in os.walk(outdir) for f in files)
    return result


def main():
    cfg = json.loads(sys.argv[1])
    if cfg["workload"] == "artefacts":
        result = run_artefacts(cfg)
    else:
        result = run_calls(cfg)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["normapprox_file"] = normapprox.__file__
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
