#!/usr/bin/env python3
"""The benchmark's own tests: seeded input generation and the
golden-output check.

Run from the root of the checkout:

    python3 perfbench/tests/test_perfbench.py

The first run builds chrysalis_perfbench (see perfbench/run.py).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

BINARY = None
WORKLOADS = [workload["name"] for workload in run.load_spec()["workloads"]]


def setUpModule():
    global BINARY
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    BINARY = run.build(os.path.abspath(os.path.join(ROOT, build_dir)))


def dump(workload, seed):
    return subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--dump-inputs"],
        stdout=subprocess.PIPE, check=True).stdout


def measure(workload, seed, golden_dir, out_dir):
    """One short run; returns chrysalis_perfbench's raw result record."""
    done = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--golden-dir", golden_dir,
         "--out-dir", out_dir],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class SeededGeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(dump(workload, 7), dump(workload, 7))

    def test_different_seed_gives_different_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(dump(workload, 7), dump(workload, 8))

    def test_default_seed_reproduces_fig10_bench_seeds(self):
        # bench_fig10_swap_design walks network -> arch -> objective,
        # gives cell k (1-based) GA seed 10000 + k, and runs the six
        # ablations before CHRYSALIS in every cell.
        networks = ["bert", "alexnet", "vgg16", "resnet18"]
        methods = ["wo/Cap", "wo/SP", "wo/EA", "wo/PE", "wo/Cache",
                   "wo/IA", "CHRYSALIS"]
        lines = dump("fig10", 10000).decode().splitlines()
        self.assertEqual(len(lines), 168)
        pattern = re.compile(
            r"(\d+) cell=(\d+) network=(\S+) arch=(\S+) objective=(\S+) "
            r"method=(\S+) ga_seed=(\d+)")
        for index, line in enumerate(lines):
            match = pattern.fullmatch(line)
            self.assertIsNotNone(match, line)
            cell = index // 7 + 1
            self.assertEqual(int(match.group(2)), cell)
            self.assertEqual(match.group(3), networks[(cell - 1) // 6])
            self.assertEqual(match.group(4),
                             ["tpu", "eyeriss"][(cell - 1) // 3 % 2])
            self.assertEqual(match.group(5),
                             ["lat", "sp", "lat*sp"][(cell - 1) % 3])
            self.assertEqual(match.group(6), methods[index % 7])
            self.assertEqual(int(match.group(7)), 10000 + cell)


class GoldenCheckTest(unittest.TestCase):
    SEED = 10000

    def setUp(self):
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        self.scratch = tempfile.mkdtemp(dir=out_dir)
        self.golden = os.path.join(self.scratch, "golden")
        shutil.copytree(os.path.join(PERFBENCH, "golden"), self.golden)

    def tearDown(self):
        shutil.rmtree(self.scratch)

    def test_recorded_goldens_match(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                raw = measure(workload, self.SEED, self.golden,
                              self.scratch)
                self.assertGreater(raw["attempted"], 0)
                self.assertEqual(raw["failed"], 0)

    def test_goldens_cover_seeds_0_to_31(self):
        for workload, ops in (("fig10", 168), ("campaign_tableiv", 192)):
            for seed in list(range(32)) + [4242, 10000]:
                path = os.path.join(PERFBENCH, "golden", "%s_seed%d.txt"
                                    % (workload, seed))
                with self.subTest(path=path), open(path) as handle:
                    digests = [line for line in handle
                               if not line.startswith("#")]
                    self.assertEqual(len(digests), ops)

    def test_perturbed_golden_gives_nonzero_failed_share(self):
        path = os.path.join(self.golden,
                            "campaign_tableiv_seed%d.txt" % self.SEED)
        with open(path) as handle:
            lines = handle.read().splitlines()
        victim = next(i for i, line in enumerate(lines)
                      if not line.startswith("#"))
        lines[victim] = "0" * len(lines[victim])
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        raw = measure("campaign_tableiv", self.SEED, self.golden,
                      self.scratch)
        self.assertGreater(raw["failed"], 0)
        self.assertGreater(raw["failed"] / raw["attempted"], 0.0)


if __name__ == "__main__":
    unittest.main()
