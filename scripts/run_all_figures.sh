#!/usr/bin/env bash
# Regenerate every table, figure, and ablation at default scale.
# Usage: scripts/run_all_figures.sh [outdir] [extra flags, e.g. --paper]
#
# With --scale=mid|big among the extra flags, only the tier-aware
# benches (fig15, throughput) run — the tier replaces the paper sweep
# with one bulk-loaded FileBackend tree, so the other figures have no
# scale variant to produce.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-results}"
shift || true
mkdir -p "$OUT"

BINS="table1 table2 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 \
      railway tuning ablation_motion ablation_packing ablation_online \
      ablation_orbits ablation_buffer ablation_hybrid"
SUFFIX=""
for arg in "$@"; do
  case "$arg" in
    --scale=*) BINS="fig15 throughput"; SUFFIX="_${arg#--scale=}" ;;
  esac
done

cargo build --release -p sti-bench --bins
for bin in $BINS; do
  echo "== $bin$SUFFIX"
  ./target/release/"$bin" "$@" | tee "$OUT/$bin$SUFFIX.txt"
done
