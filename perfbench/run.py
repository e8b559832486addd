#!/usr/bin/env python3
"""Repository benchmark: builds gt_perfbench from source, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload rmat_analytics --seed 1 \
        --seconds 28 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones in BENCHMARK.json; with --trace 1 they
are the per-layer ones, derived from the spans file written under
.bench_build/perfbench-traces/. A traced run records spans for every other
batch, round or cycle; the other half is the baseline for
trace.overhead_pct. A failed correctness check prints the result with
"correct": false and exits 1.
--scale tiny shrinks every input (smoke_test.py uses it). See README.md in
this directory.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rmat_analytics", "uniform_churn", "served_ingest")
DEADLINE_S = 175.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(started):
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    log(f"build ready in {time.monotonic() - started:.1f} s")
    return out / "gt_perfbench"


# ---- statistics -------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    s = sorted(values)
    if not s:
        return 0.0
    k = max(0, math.ceil(q / 100.0 * len(s)) - 1)
    return s[min(k, len(s) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


# ---- spans -> per-layer table ----------------------------------------------

def load_spans(path):
    """Duration (us) per span name, and per (name, op)."""
    by_name = defaultdict(list)
    by_op = defaultdict(dict)
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            us = (s["end_ns"] - s["start_ns"]) / 1e3
            by_name[s["name"]].append(us)
            ops = by_op[s["name"]]
            ops[s["op"]] = ops.get(s["op"], 0.0) + us
    return by_name, by_op


def op_difference(by_op, outer, inner):
    """Per-op (outer - inner) durations over ops that have both spans."""
    a, b = by_op.get(outer, {}), by_op.get(inner, {})
    return [a[k] - b[k] for k in a if k in b]


def per_layer(spans_path, result):
    by_name, by_op = load_spans(spans_path)
    sc = result["scalars"]

    def p50(name):
        return median(by_name.get(name, []))

    enqueue = [by_op["sharded.insert_batch"][k] +
               by_op["sharded.delete_batch"].get(k, 0.0)
               for k in by_op.get("sharded.insert_batch", {})]
    single = p50("single.round")
    traced = median(result["samples"].get("root_ms_traced", []))
    untraced = median(result["samples"].get("root_ms_untraced", []))
    return {
        "core.insert_batch_us_p50": p50("core.insert_batch"),
        "core.delete_batch_us_p50": p50("core.delete_batch"),
        "core.cells_probed_per_update":
            sc.get("core.cells_probed_per_update", 0.0),
        "core.maintenance_cells_per_update":
            sc.get("core.maintenance_cells_per_update", 0.0),
        "engine.bfs_ms_p50": p50("engine.bfs") / 1e3,
        "engine.cc_ms_p50": p50("engine.cc") / 1e3,
        "engine.fp_share": sc.get("engine.fp_share", 0.0),
        "engine.streamed_per_logical":
            sc.get("engine.streamed_per_logical", 0.0),
        "sharded.enqueue_us_p50": median(enqueue),
        "sharded.drain_wait_us_p50": p50("sharded.flush"),
        "sharded.vs_single": p50("round") / single if single else 0.0,
        "recover.insert_us_p50": p50("recover.insert_edges"),
        "recover.self_us_p50": median(
            op_difference(by_op, "recover.insert_edges",
                          "core.insert_batch")),
        "recover.wal_bytes_per_edge":
            sc.get("recover.wal_bytes_per_edge", 0.0),
        "recover.replay_eps": sc.get("recover.replay_eps", 0.0),
        "recover.reopen_s": sc.get("recover.reopen_s", 0.0),
        "net.insert_us_p50": p50("net.insert_edges"),
        "net.insert_us_p99": percentile(by_name.get("net.insert_edges", []),
                                        99),
        "net.read_us_p50": p50("net.degree_of"),
        "net.read_us_p99": percentile(by_name.get("net.degree_of", []), 99),
        "net.self_us_p50": median(
            op_difference(by_op, "net.insert_edges",
                          "recover.insert_edges")),
        "net.read_wait_us_p50": median(
            op_difference(by_op, "net.degree_of", "recover.degree_of")),
        "net.busy_shed_per_request":
            sc.get("net.busy_shed_per_request", 0.0),
        "trace.overhead_pct":
            (traced / untraced - 1.0) * 100.0 if untraced else 0.0,
    }


def end_to_end(result):
    s, sc = result["samples"], result["scalars"]
    return {
        "setup_s": median(s.get("setup_s", [])),
        "update_eps": sc.get("update_eps", 0.0),
        "batch_ms_p50": median(s.get("batch_ms", [])),
        "batch_ms_p90": percentile(s.get("batch_ms", []), 90),
        "bytes_per_edge": sc.get("bytes_per_edge", 0.0),
    }


# ---- main -------------------------------------------------------------------

def main():
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        binary = build(started)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    trace_dir = build_dir() / "perfbench-traces"
    spans = trace_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
    trace_dir.mkdir(parents=True, exist_ok=True)

    run_dir = build_dir() / f"perfbench-run-{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--out", str(run_dir), "--spans", str(spans)]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=max(10.0, DEADLINE_S -
                                   (time.monotonic() - started)))
        result = json.loads((run_dir / "result.json").read_text())
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {args.workload} did not complete: {e}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checks = result["checks"]
    attempted = result["attempted"]
    failed = result["failed"]

    values = per_layer(spans, result) if args.trace else end_to_end(result)
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    for c in checks:
        print(f"check {c['name']} {'ok' if c['ok'] else 'FAILED'} "
              f"{c['detail']}")
    print(f"error_rate {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations failed)")
    if args.trace:
        print(f"spans {spans}")
    for m in wanted:
        print(f"{m['name']:32s} {values[m['name']]:14.6g} {m['unit']}")
    correct = bool(checks) and all(c["ok"] for c in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
