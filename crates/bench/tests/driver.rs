//! The `sti-bench` registry binary: dispatch, listing and the committed
//! tables it must reproduce.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, Output};

fn sti_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sti-bench"))
        .args(args)
        .output()
        .expect("run sti-bench")
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn listing() -> Vec<String> {
    let out = sti_bench(&[]);
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn table2_prints_the_committed_table_byte_for_byte() {
    let out = sti_bench(&["table2"]);
    assert!(out.status.success());
    let committed = std::fs::read(results_dir().join("table2.txt")).expect("results/table2.txt");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&committed)
    );
}

#[test]
fn an_unknown_name_fails_and_lists_the_entries() {
    let out = sti_bench(&["fig99"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("fig99"), "{stderr}");
    for name in listing() {
        assert!(
            stderr.lines().any(|l| l.trim() == name),
            "{name} missing from {stderr}"
        );
    }
}

/// Each name once, and none of the ablations whose binaries were
/// removed: a frozen `results/` table opens with a `#` header saying
/// where it was measured.
#[test]
fn the_listing_names_each_entry_once_and_no_frozen_table() {
    let names = listing();
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "{names:?}");
    assert!(names.iter().any(|n| n == "fig15"), "{names:?}");
    let mut frozen = 0;
    for entry in std::fs::read_dir(results_dir()).expect("results/") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        if path.extension().is_some_and(|e| e == "txt") && text.starts_with('#') {
            frozen += 1;
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("stem");
            assert!(!names.iter().any(|n| n == stem), "{stem} is frozen");
        }
    }
    assert!(frozen >= 4, "only {frozen} frozen tables found");
}

/// The three entries that share one comparison function still record
/// their own names.
#[test]
fn a_json_run_records_the_entry_name() {
    for name in ["fig17", "fig18", "railway"] {
        let path = std::env::temp_dir().join(format!(
            "sti-bench-driver-{}-{name}.json",
            std::process::id()
        ));
        let json = format!("--json={}", path.display());
        let out = sti_bench(&[name, "--sizes=150", "--queries=5", &json]);
        assert!(out.status.success(), "{name}: {out:?}");
        let doc = std::fs::read_to_string(&path).expect("json written");
        let _ = std::fs::remove_file(&path);
        assert!(
            doc.contains(&format!("\"bench\": \"{name}\"")),
            "{name}: {doc}"
        );
    }
}

/// fig15's `--json` report holds the table it printed: the PPR and R\*
/// I/O cells of each row are that row's profiles' `avg_formatted`.
#[test]
fn fig15_json_matches_the_printed_table() {
    let path = std::env::temp_dir().join(format!(
        "sti-bench-driver-{}-fig15.json",
        std::process::id()
    ));
    let json = format!("--json={}", path.display());
    let out = sti_bench(&["fig15", "--sizes=300", "--queries=20", &json]);
    assert!(out.status.success(), "{out:?}");
    let doc = std::fs::read_to_string(&path).expect("json written");
    let _ = std::fs::remove_file(&path);
    assert!(doc.contains("\"schema\": \"sti-bench/1\""), "{doc}");
    assert!(doc.contains("\"bench\": \"fig15\""), "{doc}");
    let field = |chunk: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let at = chunk.find(&tag).expect(key) + tag.len();
        chunk[at..].split('"').next().expect(key).to_string()
    };
    // One chunk per profile, from its `"row"` field on.
    let profiles: BTreeMap<(String, String), String> = doc
        .split("\"row\": \"")
        .skip(1)
        .map(|chunk| {
            let row = chunk.split('"').next().expect("row").to_string();
            ((row, field(chunk, "series")), field(chunk, "avg_formatted"))
        })
        .collect();
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert!(!rows.is_empty(), "{stdout}");
    for row in &rows {
        let cell = |series: &str| &profiles[&(row[0].to_string(), series.to_string())];
        assert_eq!(cell("ppr"), row[2], "{row:?}");
        assert_eq!(cell("rstar"), row[3], "{row:?}");
    }
    assert_eq!(profiles.len(), 2 * rows.len(), "{profiles:?}");
}

/// The throughput gate's exact I/O is one LRU's: the sequential
/// profiles' `io` blocks read the same whatever `--threads` the ladder
/// climbs to.
#[test]
fn throughput_io_does_not_depend_on_the_thread_count() {
    let io_blocks = |threads: &str| -> Vec<String> {
        let path = std::env::temp_dir().join(format!(
            "sti-bench-driver-{}-throughput-{threads}.json",
            std::process::id()
        ));
        let json = format!("--json={}", path.display());
        let threads = format!("--threads={threads}");
        let out = sti_bench(&["throughput", "--sizes=500", "--queries=64", &threads, &json]);
        assert!(out.status.success(), "{out:?}");
        let doc = std::fs::read_to_string(&path).expect("json written");
        let _ = std::fs::remove_file(&path);
        doc.split("\"io\": {")
            .skip(1)
            .map(|chunk| chunk.split('}').next().expect("io block").to_string())
            .collect()
    };
    let one = io_blocks("1");
    assert_eq!(one.len(), 2, "one profile per backend: {one:?}");
    assert_eq!(one, io_blocks("4"));
}
