#!/usr/bin/env bash
# Non-test source lines per crate: every .rs file under crates/*/src and
# src/, skipping blank lines and `//` comment lines, and stopping at the
# file's trailing `#[cfg(test)] mod tests` (a `#[cfg(test)]` on a single
# helper mid-file does not end the count). ROADMAP item 4 tracks this
# table; every PR reports its delta.
# Usage: scripts/count_src_lines.sh [repo root, default: this checkout]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
    FNR == 1 { done = 0; pending = 0 }
    done { next }
    pending { pending = 0; if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod tests/) { done = 1; next } n++ }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
    { n++ }
    END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
  n=$(count "$dir")
  printf '%-24s %7d\n' "$dir" "$n"
  total=$((total + n))
done
printf '%-24s %7d\n' total "$total"
