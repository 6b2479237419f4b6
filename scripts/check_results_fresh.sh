#!/usr/bin/env bash
# Freshness gate: regenerate every committed default-scale table with
# scripts/run_all_figures.sh into a temp dir and diff each against its
# file in results/. Only wall-clock tokens are masked: the durations
# fig11, fig13 and fig14 print and fig11's slowdown ratio, together with
# the column padding their widths move. Exits 1 on any other difference.
# Usage: scripts/check_results_fresh.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bash scripts/run_all_figures.sh "$tmp" > /dev/null

mask() {
  local time='[0-9]+(\.[0-9]+)?(µs|ms|s)\b' pad='s/ +/ /g; s/^ //; /^[- ]+$/s/-+/-/g'
  case "$(basename "$1")" in
    fig11.txt) sed -E "s/$time/T/g; s/\b[0-9]+x\b/T/g; $pad" "$1" ;;
    fig13.txt | fig14.txt) sed -E "s/$time/T/g; $pad" "$1" ;;
    *) cat "$1" ;;
  esac
}

status=0
for fresh in "$tmp"/*.txt; do
  name=$(basename "$fresh")
  if ! diff -u --label "results/$name" --label "sti-bench ${name%.txt}" \
      <(mask "results/$name") <(mask "$fresh"); then
    echo "results/$name is stale: regenerate it with scripts/run_all_figures.sh" >&2
    status=1
  fi
done
echo "checked $(ls "$tmp" | wc -l) tables against results/"
exit "$status"
