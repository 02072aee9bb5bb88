#!/usr/bin/env python3
"""Schema check for BENCH_*.json files (written by JsonReporter in
bench/bench_util.h and by bench/fig_ipc_plane.cc).

Usage: scripts/check_bench_json.py BENCH_*.json...

Every file must parse, name a figure listed in FIGURES, and carry a
non-empty "rows" list. The figure's entry adds its own rules:

  fields   keys every row carries; "levels.hit_rate" means every row has a
           "levels" list and every element of it carries "hit_rate"
  nonzero  keys every row carries and at least one row has non-zero (an
           all-zero column means telemetry silently broke)
  series   series that must appear
  rows     (series glob, rule, predicate): every row whose series matches
           the glob must satisfy the predicate
  tenants  tenant names that must appear in some row's "tenants" list

Prints one line per file and exits 1 if any rule fails.
"""

import fnmatch
import json
import sys

FIGURES = {
    "fig03": {}, "fig04": {}, "fig05": {}, "fig06": {}, "fig07": {}, "fig08": {},
    "fig09": {}, "fig10": {}, "fig11": {}, "fig12": {}, "fig13": {},
    "cpu_sweep": {}, "ablation_sendfile": {},
    "fig_latency_load": {"nonzero": ["p99_ms"]},
    "sweep_fleet": {"nonzero": ["p99_ms"]},
    "micro_engine": {"nonzero": ["events_per_sec"]},
    "fig_proxy_tier": {
        "fields": ["origin_hit_rate", "bytes_copied_backhaul"],
        "nonzero": ["proxy_hit_rate"],
        "rows": [("IOL-*", "IO-Lite rows copy no backhaul bytes",
                  lambda r: r["bytes_copied_backhaul"] == 0)],
    },
    "ipc_plane": {
        "fields": ["bytes_copied_cross_process", "byte_identical", "checksum", "wall_ms"],
        "rows": [
            ("*", "plane rows are byte-identical", lambda r: r["byte_identical"] is True),
            ("plane-processes", "the zero-copy plane copies 0 payload bytes",
             lambda r: r["bytes_copied_cross_process"] == 0),
            ("plane-processes-copy", "the copy-mode contrast row copies bytes",
             lambda r: r["bytes_copied_cross_process"] > 0),
        ],
    },
    "fig_shard_scaling": {
        "fields": ["p99_ms", "wall_ms"],
        "nonzero": ["events_per_sec"],
        "series": ["shards-1", "shards-2", "shards-4"],
    },
    "fig_tenant_isolation": {
        "fields": ["cache_hit_rate", "tenants.tenant_id"],
        "series": ["wfq+partition"],
        "tenants": ["hot-zipf", "scan"],
    },
    "fig_fault_tolerance": {
        "fields": ["availability", "error_rate", "retries", "goodput_mbps"],
        "series": ["fault-free", "unprotected", "retry", "retry+hedge",
                   "retry+hedge+health"],
        "rows": [("fault-free", "the fault-free baseline has availability 1",
                  lambda r: r["availability"] == 1)],
    },
    "fig_cdn_hierarchy": {
        "fields": ["staleness_p99_ms", "stale_serves", "cdn_writes", "origin_fleet_fetches",
                   "levels.hit_rate", "levels.backhaul_bytes", "levels.invalidations_sent",
                   "levels.revalidation_bytes"],
        "series": ["flat", "tree-edge-heavy", "invalidate/edge-heavy",
                   "revalidate/edge-heavy", "stale/edge-heavy"],
    },
}


def has_field(row, path):
    key, _, sub = path.partition(".")
    if key not in row:
        return False
    return not sub or (isinstance(row[key], list) and all(sub in e for e in row[key]))


def check(doc):
    """Returns the list of rule violations in one parsed document."""
    figure = doc.get("figure") if isinstance(doc, dict) else None
    if figure not in FIGURES:
        return ["unknown or missing figure %r" % (figure,)]
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        return ["no rows"]
    spec = FIGURES[figure]
    errors = []
    for field in spec.get("fields", []) + spec.get("nonzero", []):
        missing = [r.get("series") for r in rows if not has_field(r, field)]
        if missing:
            errors.append("field %s missing on series %s" % (field, ", ".join(map(str, missing))))
    for field in spec.get("nonzero", []):
        if not any(r.get(field) for r in rows):
            errors.append("every %s is zero" % field)
    present = {r.get("series") for r in rows}
    errors += ["missing series %s" % s for s in spec.get("series", []) if s not in present]
    for pattern, rule, ok in spec.get("rows", []):
        bad = [r["series"] for r in rows
               if fnmatch.fnmatchcase(str(r.get("series")), pattern) and not ok(r)]
        if bad:
            errors.append("%s: fails on %s" % (rule, ", ".join(bad)))
    names = {t.get("name") for r in rows for t in r.get("tenants", [])}
    errors += ["missing tenant %s" % t for t in spec.get("tenants", []) if t not in names]
    return errors


def main(paths):
    if not paths:
        print(__doc__.strip())
        return 2
    failed = False
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            errors = ["unreadable: %s" % e]
        else:
            try:
                errors = check(doc)
            except (AttributeError, KeyError, TypeError) as e:
                errors = ["malformed row: %r" % e]
        for error in errors:
            print("%s: %s" % (path, error), file=sys.stderr)
        if errors:
            failed = True
        else:
            print("ok %s (%s, %d rows)" % (path, doc["figure"], len(doc["rows"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
