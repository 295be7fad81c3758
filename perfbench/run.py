#!/usr/bin/env python3
"""Benchmark driver for the STeMS reproduction.

Builds the harness (perfbench.cc) against the simulator sources, runs
one workload, checks every simulated result cell against a reference
and prints the metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
timed iterations); with --trace 1 they are the per-layer ones from one
traced run, preceded by the layer reconciliation table.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig9-cold --seed 42 \
        --seconds 20 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("fig9-cold", "fig10-timed", "extend-resume")
DEFAULT_RECORDS = 1_000_000
PINNED_SEED = 42
# Set-up runs at least this often, and more while the repeats have
# taken less than SETUP_MIN_S in total; setup_s is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 9
MIN_ITERATIONS = 3
# One harness subprocess may not take longer than this.
STEP_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_catalogue():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def build():
    """Configure and build the harness; quiet unless it fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                break
    if rc != 0 or not os.path.exists(BINARY):
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        raise BenchError("build failed (see %s)" % log_path)


def harness(command, args, work_dir, extra=()):
    cmd = [BINARY, command, "--workload", args.workload,
           "--seed", str(args.seed), "--records", str(args.records),
           "--dir", work_dir] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_note():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"],
                                         stdout=subprocess.PIPE, text=True)
                    compiler = out.stdout.splitlines()[0]
                    break
    except (OSError, IndexError):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": compiler, "build": "Release"}


def reference_cells(args, work_dir):
    """Pinned cells for the pinned seed at full scale, else a storeless
    reference sweep of the same plan computed by this invocation."""
    if args.seed == PINNED_SEED and args.records == DEFAULT_RECORDS:
        with open(os.path.join(HERE, "reference", "seed42.json")) as f:
            return json.load(f)["workloads"][args.workload]
    return harness("run", args, work_dir, ["--reference"])["cells"]


def perturb(cells):
    """Deliberately wrong reference: bump one field of one cell."""
    key = sorted(cells)[0]
    field = sorted(cells[key])[0]
    cells[key][field] += 1


def count_mismatches(cells, reference):
    keys = set(cells) | set(reference)
    return sum(1 for k in keys if cells.get(k) != reference.get(k)), len(keys)


def metric(catalogue, section, name, value):
    return {"value": value, "unit": catalogue[section][name]["unit"]}


def run_timed(args, catalogue, reference, work):
    # The first set-up's directory is the one the iterations run in.
    setup_s, setup_out = [], None
    run_dir = os.path.join(work, "setup-0")
    while len(setup_s) < SETUP_REPEATS or (
            sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS):
        d = os.path.join(work, "setup-%d" % len(setup_s))
        out = harness("setup", args, d)
        setup_s.append(out["setup_s"])
        if setup_out is None:
            setup_out = out
        else:
            shutil.rmtree(d)

    iterations, attempted, failed = [], 0, 0
    elapsed = 0.0
    while len(iterations) < MIN_ITERATIONS or elapsed < args.seconds:
        t0 = time.monotonic()
        out = harness("run", args, run_dir)
        elapsed += time.monotonic() - t0
        bad, total = count_mismatches(out["cells"], reference)
        attempted += total
        failed += bad
        sizes = out.get("trace_records") or setup_out["trace_records"]
        out["delivered"] = out["lanes_per_trace"] * sum(sizes.values())
        iterations.append(out)

    def med(key):
        return statistics.median(it[key] for it in iterations)

    print("iterations: %d, wall_s per iteration: %s" % (
        len(iterations), " ".join("%.3f" % it["wall_s"] for it in iterations)))
    print("setup_s per repeat: %s" % " ".join("%.3f" % s for s in setup_s))
    print("lane-records per iteration: %d delivered, %d executed" % (
        iterations[0]["delivered"], iterations[0]["record_steps"]))
    if "store_growth_mb" in iterations[0]:
        print("store_growth_mb: %.3f" % med("store_growth_mb"))
    values = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "lane_records_per_s": statistics.median(
            it["delivered"] / it["wall_s"] for it in iterations),
        # A peak, so the worst iteration: the median flips between
        # the two thread interleavings' memory high-water marks.
        "peak_rss_mb": max(it["peak_rss_mb"] for it in iterations),
        "setup_s": statistics.median(setup_s),
    }
    metrics = {name: metric(catalogue, "end_to_end", name, values[name])
               for name in catalogue["end_to_end"]}
    return metrics, attempted, failed


def shard_metrics(spans_path):
    with open(spans_path) as f:
        events = json.load(f)
    if isinstance(events, dict):
        events = events.get("traceEvents", [])
    shards = [e["dur"] * 1e-6 for e in events
              if e.get("name") == "driver.batch" and e.get("ph") == "X"]
    if not shards:
        return 0.0, 0.0, 0.0
    mean = sum(shards) / len(shards)
    return max(shards), sum(shards), max(shards) / mean


def run_traced(args, catalogue, reference, work):
    out = harness("layers", args, work)
    attempted, failed = 0, 0
    for run in ("untraced", "traced"):
        bad, total = count_mismatches(out[run]["cells"], reference)
        attempted += total
        failed += bad
    values = dict(out["metrics"])
    (values["batch.shard_s_max"], values["batch.shard_s_sum"],
     values["batch.shard_imbalance"]) = shard_metrics(out["spans"])

    cpu_s = out["untraced"]["cpu_s"]
    rows = out["layers"]
    attributed = sum(r["total_s"] for r in rows)
    values["driver.unattributed_s"] = cpu_s - attributed

    print("layer reconciliation (%s, untraced cpu_s %.3f, wall_s %.3f)" % (
        args.workload, cpu_s, out["untraced"]["wall_s"]))
    print("%-24s %14s %6s %14s %10s %8s" % (
        "layer", "per call", "unit", "calls", "total_s", "share"))
    for r in rows:
        print("%-24s %14.4f %6s %14.0f %10.4f %7.1f%%" % (
            r["layer"], r["per_call"], r["unit"], r["calls"], r["total_s"],
            100.0 * r["total_s"] / cpu_s if cpu_s else 0.0))
    print("%-24s %14s %6s %14s %10.4f %7.1f%%" % (
        "driver.unattributed", "", "", "", values["driver.unattributed_s"],
        100.0 * values["driver.unattributed_s"] / cpu_s if cpu_s else 0.0))
    print("attributed share of cpu_s: %.1f%%" % (
        100.0 * attributed / cpu_s if cpu_s else 0.0))

    missing = [n for n in catalogue["per_layer"] if n not in values]
    if missing:
        raise BenchError("harness did not report: %s" % ", ".join(missing))
    metrics = {name: metric(catalogue, "per_layer", name, values[name])
               for name in catalogue["per_layer"]}
    return metrics, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, default=DEFAULT_RECORDS,
                        help="base trace length (smaller for smoke tests)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt one reference cell (tests the check)")
    args = parser.parse_args()

    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    try:
        catalogue = load_catalogue()
        build()
        os.makedirs(work, exist_ok=True)
        reference = reference_cells(args, os.path.join(work, "reference"))
        if args.perturb_reference:
            perturb(reference)
        runner = run_traced if args.trace else run_timed
        metrics, attempted, failed = runner(args, catalogue, reference, work)
    except (BenchError, OSError, ValueError, KeyError) as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    print("host: %s" % json.dumps(host_note(), sort_keys=True))
    print("cell_error_rate: %.6f (%d of %d cells differ from the reference)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
