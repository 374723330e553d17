#!/usr/bin/env python3
"""The benchmark's own test: its exact counts are exact.

Runs every workload twice with one seed and once with another, untraced and
traced, and asserts that the counts the benchmark derives from fixed-length
prefixes of the seeded stream repeat bit for bit under one seed and that
the data-dependent ones change with the seed. Only counts that pass this
test may carry a later count-based claim. Run from the root of a checkout:

    python3 servebench/test_counts.py

Takes a few minutes (18 short runs); exits 1 on the first broken count.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["ecosystem_wire", "cold_label", "tiered_churn"]

# Exact counts: end-to-end (--trace 0) and per-layer (--trace 1).
EXACT = {
    "0": ["disk_bytes_per_decision"],
    "1": [
        "core.journal_bytes_per_decision",
        "core.words_per_register",
        "compile.words_per_label",
        "store.fault_ins_per_decision",
        "store.evictions_per_decision",
        "store.spill_bytes",
        "store.resident_max",
        "net.request_bytes",
        "net.response_bytes",
        "server.hit_ratio.exact",
        "server.hit_ratio.normal",
        "server.hit_ratio.minimized",
    ],
}

# Counts that depend on the generated data and so must move with the seed
# wherever the workload exercises them (nonzero).
SEED_DEPENDENT = {
    "disk_bytes_per_decision",
    "core.journal_bytes_per_decision",
    "compile.words_per_label",
    "store.fault_ins_per_decision",
    "store.evictions_per_decision",
    "store.spill_bytes",
    "net.request_bytes",
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit("FAIL %s seed %d trace %s: exit %d\n%s"
                 % (workload, seed, trace, out.returncode, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s seed %d trace %s: incorrect run" % (workload, seed, trace))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    for workload in WORKLOADS:
        for trace, names in EXACT.items():
            a, b, other = run(workload, 7, trace), run(workload, 7, trace), run(workload, 8, trace)
            for name in names:
                if a[name] != b[name]:
                    sys.exit("FAIL %s %s: %r then %r under one seed" % (workload, name, a[name], b[name]))
                if name in SEED_DEPENDENT and a[name] != 0 and a[name] == other[name]:
                    sys.exit("FAIL %s %s: %r under both seeds" % (workload, name, a[name]))
                print("ok %-15s %-36s %r (other seed %r)" % (workload, name, a[name], other[name]))
    print("all exact counts repeat under one seed and move with the seed")


if __name__ == "__main__":
    main()
