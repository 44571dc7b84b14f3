"""Benchmark of normapprox: end-to-end and per-layer cost of its workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 10 --trace 0

Workloads (each closed loop, one caller, its timed work in a fresh process):

* ``artefacts``  every published artefact through ``cli.main``: table2 and
  reconcile on the 5,001-point grid, table34, curves; one fresh process per
  pass, so the oracle cache starts cold each time;
* ``pointwise``  seeded single-value calls of the nine CDF forms, ``ref_cdf``
  and the three quantile forms;
* ``quantile``   seeded ``ref_quantile`` calls, three fifths central and two
  fifths in the tails.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Times are scaled to one CPU speed
(clock.py); README.md defines every metric.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's context.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
from clock import NOMINAL_CALIBRATION_NS, percentile, trimmed_mean

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("artefacts", "pointwise", "quantile")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 7          # timed interpreter starts per run, after one warm-up
IMPORT_PROBES = 3         # -X importtime runs per traced run
MIN_PASSES = 3
WORKER_SLACK_S = 90       # beyond --seconds, before a worker counts as hung

# Prints where normapprox came from as soon as the import returns, then the
# time of the calibration loop (clock.py) in the same process, which scales
# the probe to the nominal CPU speed.
PROBE = ("import normapprox, sys; sys.stdout.write(normapprox.__file__ + '\\n'); "
         f"sys.stdout.flush(); sys.path.insert(0, {HERE!r}); import clock; "
         "clock.calibration_ns(); print(clock.calibration_ns())")


class BenchError(Exception):
    """The benchmark could not measure the program (no result is printed)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _check_origin(path):
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise BenchError(f"normapprox was imported from {path}, not from {SRC}")


def _probe_scale(lines):
    """Check a probe's output; returns its scale to the nominal CPU speed."""
    if len(lines) != 2 or not lines[1].strip().isdigit():
        raise BenchError("import normapprox failed")
    _check_origin(lines[0].strip())
    return NOMINAL_CALIBRATION_NS / int(lines[1])


def time_setup(env):
    """Seconds from starting an interpreter until ``import normapprox``
    returns in it, as seen from outside, at the nominal CPU speed."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_SLACK_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise BenchError("import normapprox failed")
    return elapsed * _probe_scale([first] + rest.splitlines())


def import_times(env):
    """(normapprox, scipy) cumulative import seconds from ``-X importtime``.

    scipy counts every module imported beneath the outermost scipy imports,
    numpy included, because that is what taking scipy off the path saves.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", PROBE],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_SLACK_S)
    if proc.returncode != 0:
        raise BenchError("import normapprox failed")
    scale = _probe_scale(proc.stdout.splitlines())
    entries = []
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 \
                or not fields[1].strip().isdigit():
            continue
        field = fields[2]
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((depth, name, int(fields[1])))
    normapprox_us = scipy_us = 0
    scipy_depth = None
    # reversed post-order visits each module before its own imports
    for depth, name, cumulative in reversed(entries):
        if scipy_depth is not None and depth <= scipy_depth:
            scipy_depth = None
        if name == "normapprox":
            normapprox_us = cumulative
        elif scipy_depth is None and (name == "scipy" or name.startswith("scipy.")):
            scipy_us += cumulative
            scipy_depth = depth
    return normapprox_us / 1e6 * scale, scipy_us / 1e6 * scale


def run_worker(env, cfg, timeout):
    proc = subprocess.run([sys.executable, WORKER, json.dumps(cfg)], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{cfg['workload']} worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    _check_origin(result["normapprox_file"])
    return result


def artefact_pass(env, seed, traced):
    os.makedirs(SCRATCH, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="artefacts-", dir=SCRATCH)
    try:
        return run_worker(env, {"workload": "artefacts", "seed": seed,
                                "trace": traced, "outdir": outdir},
                          timeout=WORKER_SLACK_S)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def measure(env, workload, seed, seconds):
    """Untraced run: (metrics, attempted, failed, samples)."""
    time_setup(env)  # warm-up: byte-code cache and page cache
    setup = [time_setup(env) for _ in range(SETUP_PROBES)]
    if workload == "artefacts":
        deadline = time.perf_counter() + seconds
        passes = []
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(artefact_pass(env, seed, traced=False))
        raw = [sum(p["cmd_ns"]) for p in passes]
        walls = [p["scaled_ns"] for p in passes]
        ops_per_pass = passes[0]["attempted"]
        p50_ns, p99_ns = percentile(walls, 0.50), percentile(walls, 0.99)
        rss = max(p["rss_mb"] for p in passes)
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        samples = {"passes": len(passes), "latency_unit": "pass",
                   "latency_samples": len(walls)}
    else:
        result = run_worker(env, {"workload": workload, "seed": seed,
                                  "seconds": seconds, "trace": False},
                            timeout=seconds + WORKER_SLACK_S)
        passes = result["passes"]
        raw = [p["ns"] for p in passes]
        walls = [p["scaled_ns"] for p in passes]
        ops_per_pass = result["ops_per_pass"]
        p50_ns = trimmed_mean([p["p50_ns"] for p in passes])
        p99_ns = trimmed_mean([p["p99_ns"] for p in passes])
        rss = result["rss_mb"]
        attempted, failed = result["attempted"], result["failed"]
        samples = {"passes": len(passes),
                   "latency_unit": "record" if workload == "pointwise" else "call",
                   "latency_samples_per_pass": result["items_per_pass"]}
    wall_s = trimmed_mean(walls) / 1e9
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "ops_per_s": ops_per_pass / wall_s,
        "p50_us": p50_ns / 1e3,
        "p99_us": p99_ns / 1e3,
        "peak_rss_mb": rss,
    }
    samples["setup_probes"] = len(setup)
    samples["unscaled_wall_s"] = trimmed_mean(raw) / 1e9
    samples["median_scale"] = statistics.median(p["scale"] for p in passes)
    return metrics, attempted, failed, samples


def _scale_times(layers, scale):
    return {k: v if k in spans.COUNTS else v * scale for k, v in layers.items()}


def _merge_layers(per_pass):
    """Counts from the first traced pass (they must repeat in every pass),
    times as the median over passes.  Returns (metrics, count mismatches)."""
    merged, mismatches = {}, 0
    for name in per_pass[0]:
        values = [layers[name] for layers in per_pass]
        if name in spans.COUNTS:
            merged[name] = values[0]
            mismatches += any(v != values[0] for v in values)
        else:
            merged[name] = statistics.median(values)
    return merged, mismatches


def measure_layers(env, workload, seed, seconds):
    """Traced run: (metrics, attempted, failed, samples)."""
    imports = [import_times(env) for _ in range(IMPORT_PROBES)]
    if workload == "artefacts":
        deadline = time.perf_counter() + seconds
        plain, traced = [], []
        while min(len(plain), len(traced)) < MIN_PASSES or time.perf_counter() < deadline:
            plain.append(artefact_pass(env, seed, traced=False))
            traced.append(artefact_pass(env, seed, traced=True))
        passes = plain + traced
        plain_ns = [p["scaled_ns"] for p in plain]
        traced_ns = [p["scaled_ns"] for p in traced]
        per_pass = [dict(_scale_times(p["layers"], p["scale"]),
                         **{"cli.output_bytes": p["output_bytes"]})
                    for p in traced]
        wrapper_ns = [p["wrapper_ns"] for p in traced]
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
    else:
        result = run_worker(env, {"workload": workload, "seed": seed,
                                  "seconds": seconds, "trace": True},
                            timeout=seconds + WORKER_SLACK_S)
        plain_ns = [p["scaled_ns"] for p in result["passes"]]
        traced_ns = [p["scaled_ns"] for p in result["traced_passes"]]
        per_pass = [dict(_scale_times(p["layers"], p["scale"]), **{"cli.output_bytes": 0})
                    for p in result["traced_passes"]]
        wrapper_ns = [result["wrapper_ns"]]
        attempted, failed = result["attempted"], result["failed"]
    metrics, mismatches = _merge_layers(per_pass)
    metrics["import.normapprox_s"] = statistics.median(i[0] for i in imports)
    metrics["import.scipy_s"] = statistics.median(i[1] for i in imports)
    metrics["trace.wrapper_ns"] = statistics.median(wrapper_ns)
    metrics["trace.overhead_ratio"] = trimmed_mean(traced_ns) / trimmed_mean(plain_ns)
    samples = {"untraced_passes": len(plain_ns), "traced_passes": len(traced_ns),
               "import_probes": len(imports), "count_mismatches": mismatches}
    return metrics, attempted, failed + mismatches, samples


def _git_revision():
    """HEAD of the checkout's own .git, or None (the file is read, not git
    run, so no enclosing repository is consulted)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def context(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "normapprox", "__init__.py")):
        print(f"error: no normapprox source under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    try:
        if args.trace:
            values, attempted, failed, samples = measure_layers(
                env, args.workload, args.seed, args.seconds)
            units = spans.PER_LAYER
        else:
            values, attempted, failed, samples = measure(
                env, args.workload, args.seed, args.seconds)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"context": context(args), "samples": samples,
                      "fail_ratio": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
