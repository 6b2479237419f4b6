#!/usr/bin/env bash
# Non-test source lines per crate: every .rs file under crates/*/src and
# src/, skipping blank lines and `//` comment lines, and stopping at the
# file's trailing `#[cfg(test)] mod tests` (a `#[cfg(test)]` on a single
# helper mid-file does not end the count). ROADMAP item 4 tracks this
# table; every PR reports its delta.
# Usage: scripts/count_src_lines.sh [--against REV] [repo root, default: this checkout]
# With --against, REV is extracted (`git archive | tar -x`) into a temp
# dir and the table gains before / after / delta columns.
set -euo pipefail

against=
if [ "${1:-}" = --against ]; then
  against=${2:?--against needs a revision}
  shift 2
fi
cd "${1:-$(dirname "$0")/..}"

count() {
  [ -d "$1" ] || { echo 0; return; }
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
    FNR == 1 { done = 0; pending = 0 }
    done { next }
    pending { pending = 0; if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod tests/) { done = 1; next } n++ }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
    { n++ }
    END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

if [ -z "$against" ]; then
  total=0
  for dir in crates/*/src src; do
    n=$(count "$dir")
    printf '%-24s %7d\n' "$dir" "$n"
    total=$((total + n))
  done
  printf '%-24s %7d\n' total "$total"
  exit
fi

old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git archive "$against" | tar -x -C "$old"
printf '%-24s %7s %7s %7s\n' "vs $(git rev-parse --short "$against")" before after delta
before_total=0
after_total=0
# A crate present on either side gets a row (a deleted crate counts 0 after).
for dir in $( (ls -d crates/*/src; cd "$old" && ls -d crates/*/src) | sort -u) src; do
  b=$(count "$old/$dir")
  a=$(count "$dir")
  printf '%-24s %7d %7d %+7d\n' "$dir" "$b" "$a" $((a - b))
  before_total=$((before_total + b))
  after_total=$((after_total + a))
done
printf '%-24s %7d %7d %+7d\n' total "$before_total" "$after_total" $((after_total - before_total))
