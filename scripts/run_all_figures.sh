#!/usr/bin/env bash
# Regenerate every committed table: each `sti-bench` entry that has a
# `results/<name>.txt`, at default scale. The entries without one
# (throughput and the micro timings) measure wall-clock only.
# Usage: scripts/run_all_figures.sh [outdir] [extra flags, e.g. --paper]
#
# With --scale=mid|big among the extra flags, only the tier-aware
# entries (fig15, throughput) run — the tier replaces the paper sweep
# with one bulk-loaded FileBackend tree, so the other figures have no
# scale variant to produce.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-results}"
shift || true
mkdir -p "$OUT"

cargo build --release -p sti-bench
BENCH=./target/release/sti-bench
NAMES=$(for name in $("$BENCH"); do
  if [ -f "results/$name.txt" ]; then echo "$name"; fi
done)
SUFFIX=""
for arg in "$@"; do
  case "$arg" in
    --scale=*) NAMES="fig15 throughput"; SUFFIX="_${arg#--scale=}" ;;
  esac
done

for name in $NAMES; do
  echo "== $name$SUFFIX"
  "$BENCH" "$name" "$@" | tee "$OUT/$name$SUFFIX.txt"
done
