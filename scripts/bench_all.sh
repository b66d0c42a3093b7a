#!/usr/bin/env bash
# Runs the search-layer benchmark suite and writes a single machine-readable
# summary, BENCH_search.json, at the repository root (schema_version 8,
# documented in EXPERIMENTS.md). bench_parallel_search, bench_dist_search
# and bench_capacity run at full length — the scaling, distributed and
# tail-capacity results the summary exists for —
# the fig4 microbench runs in
# quick mode (short min-time), and the table benches emit structured
# JSON via their --json flags.
#
# Usage: scripts/bench_all.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
QUICK_MIN_TIME="${TURRET_BENCH_MIN_TIME:-0.05}"

cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  bench_parallel_search bench_dist_search \
  bench_capacity bench_fig4_netdevice bench_emulator bench_table2_snapshot \
  bench_table3_search >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# JSON Lines, one object per {system, algorithm} pair.
"$BUILD_DIR/bench/bench_parallel_search" >"$TMP/parallel_search.jsonl"

# Distributed runtime: in-process vs coordinator + N forked workers, with
# byte-identity asserted per worker count (JSON Lines).
"$BUILD_DIR/bench/bench_dist_search" >"$TMP/dist_search.jsonl"

# Tail-attack capacity: per-attack p50/p95/p99 degradation on the 10-replica
# PBFT fleet under the p99 damage metric (single JSON object).
"$BUILD_DIR/bench/bench_capacity" >"$TMP/capacity.json"

# Google Benchmark binary: quick mode + native JSON output.
"$BUILD_DIR/bench/bench_fig4_netdevice" \
  --benchmark_min_time="$QUICK_MIN_TIME" \
  --benchmark_format=json >"$TMP/fig4_netdevice.json"

# Emulator fabric throughput: real zero-copy/calendar-queue emulator vs an
# in-file replica of the pre-change heap-and-copy path on the 100-node storm
# (single JSON object; the ratio gate runs in CI, not here).
"$BUILD_DIR/bench/bench_emulator" >"$TMP/emulator.json"

# Table reproductions: structured JSON (schema_version 2 replaced the old
# raw_text blocks).
"$BUILD_DIR/bench/bench_table2_snapshot" --json >"$TMP/table2_snapshot.json"
"$BUILD_DIR/bench/bench_table3_search" --json >"$TMP/table3_search.json"

python3 - "$TMP" <<'EOF'
import json, sys, os
tmp = sys.argv[1]

def path(name):
    return os.path.join(tmp, name)

def load(name):
    with open(path(name)) as f:
        return json.load(f)

with open(path("parallel_search.jsonl")) as f:
    parallel = [json.loads(line) for line in f if line.strip()]

with open(path("dist_search.jsonl")) as f:
    distributed = [json.loads(line) for line in f if line.strip()]

fig4 = load("fig4_netdevice.json")
fig4_trimmed = {
    "context": {k: fig4.get("context", {}).get(k)
                for k in ("host_name", "num_cpus", "mhz_per_cpu",
                          "library_build_type")},
    "benchmarks": [
        {k: b.get(k) for k in ("name", "real_time", "cpu_time",
                               "time_unit", "iterations")
         if k in b}
        for b in fig4.get("benchmarks", [])
    ],
}

out = {
    "schema_version": 8,
    "emulator": load("emulator.json"),
    "capacity": load("capacity.json"),
    "parallel_search": parallel,
    "distributed": distributed,
    "microbench": {
        "fig4_netdevice": fig4_trimmed,
        "table2_snapshot": load("table2_snapshot.json"),
        "table3_search": load("table3_search.json"),
    },
}
with open("BENCH_search.json", "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print("wrote BENCH_search.json")
EOF
