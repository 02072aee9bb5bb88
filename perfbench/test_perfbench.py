#!/usr/bin/env python3
"""The benchmark's own tests: short runs of every workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs each workload in --short
mode (small episodes, one second) untraced and traced. Checks the result
line's schema against BENCHMARK.json, that every output check and the
recorded short-mode digest pass, and the layer separation each workload was
chosen for. Also checks that a tree holding only BENCHMARK.json and the
benchmark's own files makes run.py fail without printing a result. Takes
about 15 seconds once the build is done.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_cache = {}


def run(workload, trace):
    key = (workload, trace)
    if key not in _cache:
        out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace), "--short"],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            raise AssertionError("%s trace=%d failed:\n%s" % (workload, trace, out.stderr))
        _cache[key] = json.loads(out.stdout.strip().splitlines()[-1])
    return _cache[key]


def layer(workload, name):
    return run(workload, 1)["metrics"][name]["value"]


class SchemaTest(unittest.TestCase):
    def check(self, trace, specs):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, trace)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertIsInstance(r["attempted"], int)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(set(r["metrics"]), {m["name"] for m in specs})
                for m in specs:
                    got = r["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])
        for w in WORKLOADS:
            for name, got in run(w, 0)["metrics"].items():
                self.assertGreater(got["value"], 0, "%s %s" % (w, name))

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


class SeparationTest(unittest.TestCase):
    """The baseline separation the workloads were chosen for."""

    def test_disk_reads(self):
        self.assertLess(layer("static_lite_50k", "fs.disk_reads_per_request"), 0.01)
        self.assertLess(layer("churn_flash_1k", "fs.disk_reads_per_request"), 0.01)
        self.assertGreater(layer("trace_merged", "fs.disk_reads_per_request"), 0.1)

    def test_fs_dominates_trace(self):
        shares = {n: layer("trace_merged", n + ".host_share")
                  for n in ("simos", "net", "fs", "iolite")}
        self.assertEqual(max(shares, key=shares.get), "fs", shares)

    def test_engine_and_net_dominate_static(self):
        w = "static_lite_50k"
        self.assertGreater(layer(w, "simos.host_share") + layer(w, "net.host_share"),
                           layer(w, "fs.host_share"))

    def test_copy_ratio(self):
        self.assertLess(layer("static_lite_50k", "iolite.copy_ratio"), 0.05)
        self.assertAlmostEqual(layer("churn_flash_1k", "iolite.copy_ratio"), 1.0, delta=0.05)

    def test_invalidations(self):
        self.assertGreater(layer("cdn_invalidate", "cdn.invalidations_per_write"), 0)


class BareTreeTest(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
