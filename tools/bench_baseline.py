#!/usr/bin/env python3
"""Checks a paper bench's deterministic output against its committed baseline.

A bench run at the quick budget on one thread prints the same headlines and
the same stable counters on every machine, so both must match the baseline
exactly; the wall time is only printed.

    python3 tools/bench_baseline.py check  build/bench/<bench> bench/baselines/<name>.json
    python3 tools/bench_baseline.py record build/bench/<bench> bench/baselines/<name>.json

`record` writes the baseline from a run; do it on the commit whose output
the baseline pins.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

ENV = {"CHRYSALIS_BENCH_BUDGET": "quick", "CHRYSALIS_BENCH_THREADS": "1"}


def run(binary):
    """Runs the bench; returns (its report's pinned parts, wall seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        env = dict(os.environ, **ENV, CHRYSALIS_BENCH_METRICS_OUT=report_path)
        start = time.monotonic()
        subprocess.run([binary], env=env, stdout=subprocess.DEVNULL,
                       check=True)
        wall_s = time.monotonic() - start
        with open(report_path) as f:
            report = json.load(f)
    pinned = {
        "headline": report["headline"],
        "counters": report["metrics"]["stable"]["counters"],
    }
    return pinned, wall_s


def diff(want, got):
    """Lines naming every key whose value differs or is missing."""
    lines = []
    for section in ("headline", "counters"):
        for key in sorted(set(want[section]) | set(got[section])):
            a = want[section].get(key)
            b = got[section].get(key)
            if a != b:
                lines.append(f"  {section}.{key}: baseline {a!r}, run {b!r}")
    return lines


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in ("check", "record"):
        sys.exit(__doc__)
    mode, binary, baseline_path = sys.argv[1:]
    got, wall_s = run(binary)
    name = os.path.basename(binary)
    print(f"{name}: {wall_s:.2f} s wall at {ENV} (not gated)")
    if mode == "record":
        with open(baseline_path, "w") as f:
            json.dump({"bench": name, "env": ENV, **got}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print(f"recorded {baseline_path}")
        return
    with open(baseline_path) as f:
        want = json.load(f)
    mismatches = diff(want, got)
    if mismatches:
        print(f"{name} differs from {baseline_path}:")
        print("\n".join(mismatches))
        sys.exit(1)
    print(f"{name}: {len(got['headline'])} headlines and "
          f"{len(got['counters'])} counters match {baseline_path}")


if __name__ == "__main__":
    main()
