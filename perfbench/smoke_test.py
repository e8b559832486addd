#!/usr/bin/env python3
"""Smoke test of the repository benchmark at tiny input sizes.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json through run.py with --scale tiny,
untraced and traced, and checks that the last line is the result object,
that every metric BENCHMARK.json names is emitted with its unit, that the
run is correct with at least one attempted operation, and that each
workload's correctness checks ran. Exits 1 on the first failure. Takes
about two minutes after the build.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Correctness checks each workload must report (run.py prints them as
# "check <name> ok|FAILED ...").
REQUIRED_CHECKS = {
    "rmat_analytics": ["rmat.bfs_matches_reference",
                       "rmat.cc_matches_reference"],
    "uniform_churn": ["churn.live_edges_equal_window",
                      "churn.find_edge_hits_live",
                      "churn.find_edge_misses_deleted",
                      "churn.audit_shard0", "churn.audit_shard1"],
    "served_ingest": ["served.edges_equal_distinct_acked",
                      "served.audit_after_reopen",
                      "served.final_degree_of_matches_reference"],
}


def fail(msg):
    print(f"smoke FAILED: {msg}")
    sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{name} trace={trace} exited {proc.returncode}\n"
                     f"{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                fail(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{name}: not correct or nothing attempted")
            wanted = spec["per_layer" if trace else "end_to_end"]
            if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
                fail(f"{name} trace={trace}: metric names differ")
            for m in wanted:
                got = result["metrics"][m["name"]]
                if got["unit"] != m["unit"] or not isinstance(
                        got["value"], (int, float)):
                    fail(f"{name}: {m['name']} is {got}")
                if not trace and got["value"] <= 0:
                    fail(f"{name}: end-to-end {m['name']} is not positive")
            ran = {ln.split()[1] for ln in lines if ln.startswith("check ")}
            missing = set(REQUIRED_CHECKS[name]) - ran
            if missing:
                fail(f"{name}: checks did not run: {sorted(missing)}")
            print(f"ok {name} trace={trace}")
    print("smoke passed")


if __name__ == "__main__":
    main()
