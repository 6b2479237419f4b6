#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against a committed baseline.

Usage:
    check_regression.py BASELINE.json CURRENT.json [--wall-tolerance 1.5]
    check_regression.py --self-test

The workspace's benchmarks are deterministic end to end: datasets are
seeded, split planning is deterministic, and tree construction is
single-threaded, so every I/O-derived metric in a profile (average disk
reads per query, percentiles, nodes visited, buffer hits, error counts)
must match the baseline *exactly*. Any difference — better or worse —
fails the gate, because a silent improvement is just as much an
unreviewed behavior change as a regression. Time is the one
machine-dependent dimension: every profile key ending in `_secs`
(`wall_secs`, and the `p50_secs`/`p95_secs`/`p99_secs` latency
percentiles the serving benchmark reports) only fails when the current
run is more than --wall-tolerance times slower than the baseline
(default 1.5x). A `_secs` field whose baseline is below 10 ms is
scheduler noise at that ratio, so an excursion there is reported, not
gated. Memory is the other: `notes.peak_rss_mb` (the process's `VmHWM`)
is lower-is-better and fails above 1.25x the baseline, wherever the
baseline records it.

Re-baselining: see CONTRIBUTING.md ("Performance baselines").

--self-test exercises the gate against synthetic documents (identical
pass, perturbed I/O fail, over-tolerance wall-time fail, within-
tolerance pass, either side of the 10 ms floor, either side of the
peak-RSS bound) so CI can prove the gate itself still bites before trusting a green comparison.

Exit status: 0 when everything matches, 1 on any mismatch, 2 on usage or
schema errors. Pure stdlib; no third-party imports.
"""

import json
import sys

# Exact-compared profile keys (absent in both documents passes).
# `avg_formatted` stands in for `avg` so the comparison is on the
# printed representation, not float identity. `errors` is the serving
# benchmark's failed-request count: a baseline of 0 pins it at 0.
EXACT_PROFILE_KEYS = ["avg_formatted", "p50", "p95", "max", "queries", "errors"]
# Exact-compared keys inside the summed per-query totals (`io`).
EXACT_IO_KEYS = [
    "disk_reads",
    "buffer_hits",
    "nodes_visited",
    "entries_scanned",
    "results",
]
# A `_secs` baseline below this is reported, never gated: at sub-10 ms
# one descheduling exceeds any sane ratio on an unchanged tree.
WALL_GATE_FLOOR_SECS = 0.010
# Peak resident set may grow by this factor before the gate fails: page
# cache, allocator and runner noise stay inside it, a tree that moved
# back into memory does not.
PEAK_RSS_TOLERANCE = 1.25


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "sti-bench/1":
        print(f"error: {path}: unexpected schema {doc.get('schema')!r}", file=sys.stderr)
        sys.exit(2)
    return doc


def profile_map(doc):
    """(table index, row, series) -> profile dict."""
    out = {}
    for ti, table in enumerate(doc.get("tables", [])):
        for prof in table.get("profiles", []):
            out[(ti, prof["row"], prof["series"])] = prof
    return out


def compare(base_doc, cur_doc, tol):
    """All gate logic in one place; returns (failures, notes, checked)."""
    base, cur = profile_map(base_doc), profile_map(cur_doc)
    failures = []
    notes = []
    checked = 0

    missing = sorted(set(base) - set(cur))
    for key in missing:
        failures.append(f"{key}: profile present in baseline but missing from current run")
    extra = sorted(set(cur) - set(base))
    for key in extra:
        failures.append(f"{key}: new profile not present in baseline (re-baseline to accept)")

    for key in sorted(set(base) & set(cur)):
        b, c = base[key], cur[key]
        for field in EXACT_PROFILE_KEYS:
            checked += 1
            if b.get(field) != c.get(field):
                failures.append(
                    f"{key}: {field} changed: baseline {b.get(field)!r} -> {c.get(field)!r}"
                )
        bio, cio = b.get("io", {}), c.get("io", {})
        for field in EXACT_IO_KEYS:
            if field not in bio and field not in cio:
                continue
            checked += 1
            if bio.get(field) != cio.get(field):
                failures.append(
                    f"{key}: io.{field} changed: baseline {bio.get(field)!r} -> {cio.get(field)!r}"
                )
        # Every `_secs` key is machine-dependent time: gate it with the
        # slowdown tolerance instead of exact equality.
        secs_keys = sorted(
            k for k in set(b) | set(c) if isinstance(k, str) and k.endswith("_secs")
        )
        for field in secs_keys:
            checked += 1
            if field not in b or field not in c:
                missing_in = "current run" if field not in c else "baseline"
                failures.append(f"{key}: {field} missing from {missing_in}")
                continue
            bw, cw = float(b[field]), float(c[field])
            if cw > bw * tol:
                gated = bw >= WALL_GATE_FLOOR_SECS
                (failures if gated else notes).append(
                    f"{key}: {field} {cw:.4f} exceeds baseline {bw:.4f} x {tol} tolerance"
                    + ("" if gated else f" (baseline under {WALL_GATE_FLOOR_SECS} s: not gated)")
                )
    base_rss = base_doc.get("notes", {}).get("peak_rss_mb")
    if base_rss is not None:
        checked += 1
        cur_rss = cur_doc.get("notes", {}).get("peak_rss_mb")
        if cur_rss is None:
            failures.append("notes.peak_rss_mb missing from current run")
        elif cur_rss > base_rss * PEAK_RSS_TOLERANCE:
            failures.append(
                f"notes.peak_rss_mb {cur_rss:.1f} exceeds baseline {base_rss:.1f} "
                f"x {PEAK_RSS_TOLERANCE} tolerance"
            )
    return failures, notes, checked


def synthetic_doc(avg="3.10", p95=12, wall=1.0, peak_rss=400.0):
    """A minimal but schema-complete document for the self-test."""
    return {
        "schema": "sti-bench/1",
        "bench": "selftest",
        "tables": [
            {
                "profiles": [
                    {
                        "row": "r0",
                        "series": "s0",
                        "avg_formatted": avg,
                        "p50": 3,
                        "p95": p95,
                        "max": 40,
                        "queries": 1000,
                        "wall_secs": wall,
                        "io": {"disk_reads": 3100, "buffer_hits": 900},
                    }
                ]
            }
        ],
        "notes": {"peak_rss_mb": peak_rss},
    }


def self_test():
    # (name, baseline, current, tolerance, passes, reports a note)
    cases = [
        ("identical documents pass", synthetic_doc(), synthetic_doc(), 1.5, True, False),
        ("perturbed I/O fails", synthetic_doc(), synthetic_doc(avg="3.11"), 1.5, False, False),
        ("perturbed percentile fails", synthetic_doc(), synthetic_doc(p95=13), 1.5, False, False),
        ("over-tolerance wall fails", synthetic_doc(), synthetic_doc(wall=1.6), 1.5, False, False),
        ("within-tolerance wall passes", synthetic_doc(), synthetic_doc(wall=1.4), 1.5, True, False),
        (
            "over-tolerance wall at the 10 ms floor fails",
            synthetic_doc(wall=0.010),
            synthetic_doc(wall=0.016),
            1.5,
            False,
            False,
        ),
        (
            "over-tolerance wall under the floor is only reported",
            synthetic_doc(wall=0.009),
            synthetic_doc(wall=0.090),
            1.5,
            True,
            True,
        ),
        ("peak RSS within x1.25 passes", synthetic_doc(), synthetic_doc(peak_rss=490.0), 1.5, True, False),
        ("peak RSS beyond x1.25 fails", synthetic_doc(), synthetic_doc(peak_rss=510.0), 1.5, False, False),
    ]
    broken = 0
    for name, base, cur, tol, should_pass, should_note in cases:
        failures, notes, _ = compare(base, cur, tol)
        ok = (not failures) == should_pass and bool(notes) == should_note
        print(f"  {'ok' if ok else 'BROKEN'}: {name}")
        if not ok:
            broken += 1
            for f in failures:
                print(f"      unexpected: {f}")
    if broken:
        print(f"self-test FAILED: the gate no longer bites in {broken} case(s)")
        return 1
    print(f"self-test ok: {len(cases)} cases behave")
    return 0


def main(argv):
    if "--self-test" in argv[1:]:
        return self_test()
    args = [a for a in argv[1:] if not a.startswith("--")]
    tol = 1.5
    for a in argv[1:]:
        if a.startswith("--wall-tolerance"):
            try:
                tol = float(a.split("=", 1)[1]) if "=" in a else float(
                    argv[argv.index(a) + 1]
                )
            except (IndexError, ValueError):
                print("error: --wall-tolerance needs a number", file=sys.stderr)
                return 2
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    base_doc, cur_doc = load(args[0]), load(args[1])
    if base_doc.get("bench") != cur_doc.get("bench"):
        print(
            f"error: bench mismatch: baseline is {base_doc.get('bench')!r}, "
            f"current is {cur_doc.get('bench')!r}",
            file=sys.stderr,
        )
        return 2

    failures, notes, checked = compare(base_doc, cur_doc, tol)
    base = profile_map(base_doc)
    bench = cur_doc.get("bench")
    for n in notes:
        print(f"  note: {n}")
    if failures:
        print(f"perf gate FAILED for {bench!r} ({len(failures)} problem(s)):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"perf gate ok for {bench!r}: {len(base)} profiles, {checked} checks "
        f"(I/O exact, *_secs x{tol}, peak RSS x{PEAK_RSS_TOLERANCE} tolerance)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
