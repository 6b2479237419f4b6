#!/usr/bin/env bash
# Self-agreement: does the benchmark agree with itself?
#
# Runs the four workloads as two independent sets of three untraced runs
# (same seed), then compares the sets' medians against the bounds in
# BENCHMARK.json. Counts the program makes (reads per query, index bytes
# per object, WAL bytes per op, ...) must be identical in all six runs.
# Prints one row per metric x workload: both medians, the spread over
# the six runs, PASS or FAIL. Exits non-zero on any FAIL.
#
# usage: sysbench/agree.sh [seed] [seconds]     (from the repository root)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="${2:-$(python3 -c "import json;print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")}"
keep="$here/out/agree"
rm -rf "$keep"
mkdir -p "$keep"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/sti-sysbench"

for set in A B; do
  for run in 1 2 3; do
    for workload in query_cold query_hot ingest_durable serve_http; do
      echo "set $set run $run: $workload" >&2
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null
      cp "$here/out/result_$workload.json" "$keep/$set.$run.$workload.json"
    done
  done
done

python3 - "$here/../BENCHMARK.json" "$keep" <<'PY'
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
keep = sys.argv[2]
exact = [
    "index_bytes_per_object", "storage.store.reads_per_query", "storage.buffer.hits_per_query",
    "storage.wal.bytes_per_op", "storage.wal.appends", "pprtree.bulk.pages_written",
    "pprtree.insert.pages", "pprtree.query.nodes_per_query", "core.pipeline.batch_events",
    "core.pipeline.lag_events",
]
failed = False
print(f"{'workload':<15} {'metric':<32} {'median A':>14} {'median B':>14} {'spread':>8} {'bound':>7}  verdict")
for w in (x["name"] for x in manifest["workloads"]):
    runs = {s: [json.load(open(f"{keep}/{s}.{r}.{w}.json")) for r in (1, 2, 3)] for s in "AB"}
    for r in runs["A"] + runs["B"]:
        if not r["correct"]:
            failed = True
            print(f"{w:<15} a run reported {r['failed']} failed operation(s)  FAIL")
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        a, b = (statistics.median(vals[s]) for s in "AB")
        six = vals["A"] + vals["B"]
        spread = (max(six) - min(six)) / statistics.median(six)
        if name in exact:
            ok, shown = len(set(six)) == 1, "exact"
        else:
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok, shown = abs(worse) <= bound, f"{bound:.0%}"
        failed |= not ok
        print(f"{w:<15} {name:<32} {a:>14.4f} {b:>14.4f} {spread:>8.2%} {shown:>7}  {'PASS' if ok else 'FAIL'}")
    for name in exact:
        six = [r["metrics"][name]["value"] for s in "AB" for r in runs[s] if name in r["metrics"]]
        if not six or name == "index_bytes_per_object":
            continue
        ok = len(set(six)) == 1
        failed |= not ok
        print(f"{w:<15} {name:<32} {six[0]:>14.4f} {six[-1]:>14.4f} {'':>8} {'exact':>7}  {'PASS' if ok else 'FAIL'}")
sys.exit(1 if failed else 0)
PY
