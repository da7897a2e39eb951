#!/usr/bin/env python3
"""Repository benchmark entry point: builds chrysalis_perfbench from the
checkout's sources, runs one workload and prints every metric by name
with its unit; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload fig10|campaign_tableiv|serve_mix \
        --seed N --seconds S --trace 0|1

--workload all runs the three workloads one after another, each report
ending with its own JSON line.

Run it from the root of the checkout. The workloads and the metric
names and units come from BENCHMARK.json. The build goes to the directory
named by CARGO_TARGET_DIR (default .bench_build), run outputs (journal,
traces) to .bench_out. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_LAUNCHES = 29  # extra set-up-only launches; the run itself is one more


def load_spec():
    """BENCHMARK.json: the workloads and the metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# Ratios and the base they are a share of, printed side by side.
RATIO_BASE = {
    "search.inner.evals_per_call": "search.inner.calls",
    "search.explore.self_s": "search.explore.busy_s",
    "runtime.memo.hit_rate": "runtime.memo.lookups",
    "runtime.pool.tasks_per_batch": "runtime.pool.batches",
    "serve.memo.hit_rate": "serve.memo.lookups",
    "serve.batch_size_mean": "serve.batches",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds chrysalis_perfbench; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "chrysalis_perfbench",
         "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "chrysalis_perfbench")


def launch(command):
    """Runs chrysalis_perfbench; returns (launch time, stdout lines)."""
    start = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError("%s exited with %d" % (command[0],
                                                  done.returncode))
    return start, done.stdout.splitlines()


def setup_seconds(launch_s, line):
    """Launch to timed start, minus load-generator work."""
    record = json.loads(line)
    return record["timed_start_mono_s"] - launch_s - record["loadgen_s"]


def fmt(value):
    return "%.6g" % value


def report(spec, args, workload, raw, notes, setups):
    metrics = raw["metrics"]
    passes = len(raw["pass_wall_s"])
    print("perfbench %s seed=%d trace=%d: %d untraced + %d traced passes "
          "of %d %ss each"
          % (workload, args.seed, args.trace, passes, raw["traced_passes"],
             raw["ops_per_pass"], raw["op"]))
    for line in notes:
        print("  " + line)
    attempted, failed = raw["attempted"], raw["failed"]
    result = {}
    if args.trace:
        for metric in spec["per_layer"]:
            # A layer the workload never reaches reads 0.
            name, unit = metric["name"], metric["unit"]
            value = metrics.get(name, 0.0)
            result[name] = {"value": value, "unit": unit}
            note = ""
            if name in RATIO_BASE:
                base = RATIO_BASE[name]
                note = "  (base: %s = %s)" % (base,
                                              fmt(metrics.get(base, 0.0)))
            print("  %-34s %14s %-5s%s" % (name, fmt(value), unit, note))
        overhead = metrics["obs.trace_overhead_s"]
        untraced = statistics.median(raw["pass_wall_s"])
        print("  tracing overhead: %s s on an untraced pass of %s s (%+.1f%%)"
              % (fmt(overhead), fmt(untraced), 100.0 * overhead / untraced))
    else:
        metrics = dict(metrics, setup_s=statistics.median(setups))
        if workload == "serve_mix":
            per_pass = raw["ops_per_pass"]
            latency = "round trips: median over %d passes of each pass's " \
                      "p50 over %d requests" % (passes, per_pass)
            tail = "lower quartile over passes of each pass's p99, %d " \
                   "samples beyond it" % (per_pass // 100)
        else:
            latency = tail = "median pass: no per-op percentile over a " \
                             "mix of networks"
        notes = {
            "setup_s": "median of %d launches" % len(setups),
            "wall_s": "median of %d passes" % passes,
            "throughput_per_s": "%ss per second, %d per pass"
                                % (raw["op"], raw["ops_per_pass"]),
            "latency_p50_ms": latency,
            "latency_p99_ms": tail,
            "cpu_s": "user+sys per pass, median",
            "peak_rss_mb": "peak resident set of the process",
        }
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            result[name] = {"value": metrics[name], "unit": unit}
            print("  %-18s %14s %-4s (%s)"
                  % (name, fmt(metrics[name]), unit, notes[name]))
    print("  %-18s %14s %-4s (%d of %d ops failed)"
          % ("failed_share", fmt(failed / attempted if attempted else 0.0),
             "1", failed, attempted))
    print("  calibration_s %s s (fixed-work host-speed diagnostic; never "
          "used to normalize)" % fmt(raw["calibration_s"]))
    return {"correct": attempted > 0 and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": result}


def run_workload(spec, args, binary, workload):
    """Set-up launches, the measured run and its report; returns 0 on
    success."""
    base = [binary, "--workload", workload, "--seed", str(args.seed),
            "--golden-dir", os.path.join(HERE, "golden"),
            "--out-dir", ".bench_out"]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES):
                start, lines = launch(base + ["--setup-only"])
                setups.append(setup_seconds(start, lines[-1]))
        start, lines = launch(base + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)])
        raw = json.loads(lines[-1])
    except (OSError, RuntimeError, subprocess.TimeoutExpired,
            ValueError, IndexError) as error:
        log("perfbench: %s run failed: %s" % (workload, error))
        return 1
    setups.append(setup_seconds(start, lines[-1]))
    result = report(spec, args, workload, raw, lines[:-1], setups)
    print(json.dumps(result), flush=True)
    return 0


def main():
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed:", error)
        return 1
    workloads = names if args.workload == "all" else [args.workload]
    for workload in workloads:
        if run_workload(spec, args, binary, workload) != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
