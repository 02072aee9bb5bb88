#!/usr/bin/env python3
"""Rules of scripts/check_bench_json.py: every committed baseline passes,
and each rule kind fails on a mutated copy of a passing document."""

import copy
import glob
import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # Leave no __pycache__ in the source tree.
sys.path.insert(0, os.path.join(ROOT, "scripts"))
import check_bench_json  # noqa: E402


def baseline(name):
    with open(os.path.join(ROOT, "bench", "baselines", name)) as f:
        return json.load(f)


class CheckBenchJsonTest(unittest.TestCase):
    def assertFails(self, doc, needle):
        errors = check_bench_json.check(doc)
        self.assertTrue(any(needle in e for e in errors), errors)

    def test_committed_baselines_pass(self):
        paths = glob.glob(os.path.join(ROOT, "bench", "baselines", "BENCH_*.json"))
        self.assertTrue(paths)
        self.assertEqual(check_bench_json.main(sorted(paths)), 0)

    def test_unknown_figure_and_empty_rows(self):
        doc = baseline("BENCH_engine_smoke.json")
        self.assertEqual(check_bench_json.check(doc), [])
        self.assertFails(dict(doc, figure="micro_engine2"), "unknown or missing figure")
        self.assertFails(dict(doc, rows=[]), "no rows")

    def test_field(self):
        doc = baseline("BENCH_fault_tolerance_smoke.json")
        del doc["rows"][3]["availability"]
        self.assertFails(doc, "field availability missing")
        doc = baseline("BENCH_tenant_isolation_smoke.json")
        del doc["rows"][1]["tenants"][1]["tenant_id"]
        self.assertFails(doc, "field tenants.tenant_id missing")

    def test_series(self):
        doc = baseline("BENCH_fault_tolerance_smoke.json")
        doc["rows"] = [r for r in doc["rows"] if r["series"] != "retry"]
        self.assertFails(doc, "missing series retry")

    def test_nonzero(self):
        doc = baseline("BENCH_proxy_smoke.json")
        for row in doc["rows"]:
            row["proxy_hit_rate"] = 0
        self.assertFails(doc, "every proxy_hit_rate is zero")

    def test_row_predicates(self):
        fault = baseline("BENCH_fault_tolerance_smoke.json")
        next(r for r in fault["rows"] if r["series"] == "fault-free")["availability"] = 0.9
        self.assertFails(fault, "availability 1")
        proxy = baseline("BENCH_proxy_smoke.json")
        next(r for r in proxy["rows"] if r["series"].startswith("IOL-"))[
            "bytes_copied_backhaul"] = 1
        self.assertFails(proxy, "IO-Lite rows copy no backhaul bytes")
        plane = baseline("BENCH_ipc_plane.json")
        for series, field, value, needle in [
                ("plane-threads", "byte_identical", False, "byte-identical"),
                ("plane-processes", "bytes_copied_cross_process", 4096, "zero-copy plane"),
                ("plane-processes-copy", "bytes_copied_cross_process", 0, "contrast row")]:
            doc = copy.deepcopy(plane)
            next(r for r in doc["rows"] if r["series"] == series)[field] = value
            self.assertFails(doc, needle)

    def test_tenant_name(self):
        doc = baseline("BENCH_tenant_isolation_smoke.json")
        for row in doc["rows"]:
            for tenant in row["tenants"]:
                if tenant["name"] == "scan":
                    tenant["name"] = "scan2"
        self.assertFails(doc, "missing tenant scan")


if __name__ == "__main__":
    unittest.main()
