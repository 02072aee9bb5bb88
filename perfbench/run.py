#!/usr/bin/env python3
"""Builds the simulator benchmark in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--short]

Run from the root of a source tree. The first run configures and builds
perfbench/ (and the simulator sources it compiles) into
.bench_build/perfbench; later runs only rebuild what changed. Lines before
the last one are notes (build stamp, sample counts, failures); the last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics, and the traced run also writes its
spans to .bench_build/perfbench/spans/<workload>-seed<n>.json (Chrome
trace-event JSON; Perfetto opens it).

A run's attempted count is the counted simulated requests of all its
episodes; every request of an episode that fails an output check counts as
failed. On a workload's default seed (perfbench/defaults.json) the run's
simulated digest must also equal the recorded one; the single-file
workloads have no random input, so their digest must match on every seed.
--short runs small episodes for the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def note(msg):
    print("# " + msg, flush=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def build():
    """Configures (once) and builds the Release binary; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "system", "system.h")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=300).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr, timeout=840).returncode:
        fail("build failed")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def run_binary(args, spans):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("%s exited with %d" % (os.path.basename(BINARY), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no report from the benchmark binary")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(HERE, "defaults.json")) as f:
        defaults = json.load(f)
    if args.workload not in defaults:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(defaults)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    spans = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        spans = os.path.join(BUILD, "spans", "%s-seed%d.json" % (args.workload, args.seed))
    report = run_binary(args, spans)

    stamp = dict(report["stamp"], git_sha=git_sha())
    if stamp["build_type"] != "Release":
        fail("refusing to report from a %s build" % stamp["build_type"])
    note("stamp: " + json.dumps(stamp, sort_keys=True))
    eps = sorted(report["episode_requests_per_s"])
    note("episodes: %d (requests/s min %.0f, median %.0f, max %.0f), windows: %d of %d "
         "requests, digest: %s" %
         (report["episodes"], eps[0], eps[len(eps) // 2], eps[-1], report["windows"],
          report["window_requests"], report["digest"]))
    if spans:
        note("spans: %s (%d stored, %d beyond the cap timed but not stored)" %
             (os.path.relpath(spans, ROOT), report["spans_stored"], report["spans_dropped"]))

    failures = list(report["failures"])
    wdef = defaults[args.workload]
    if not wdef["seeded"] or args.seed == wdef["default_seed"]:
        want = wdef["short_digest" if args.short else "digest"]
        if report["digest"] != want:
            failures.append("digest %s != recorded %s" % (report["digest"], want))
    attempted = report["attempted"]
    failed = report["failed"]
    if failures:
        for f in failures:
            note("FAILED: " + f)
        if failed == 0:
            failed = attempted  # A digest mismatch fails every request of the run.

    values = report["layers"] if args.trace else report["e2e"]
    metrics = {}
    for m in metric_specs:
        if m["name"] not in values:
            fail("the binary did not report %s" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
