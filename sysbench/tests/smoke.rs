//! Smoke test of the benchmark itself: every workload runs under
//! `--quick`, prints exactly the metrics `BENCHMARK.json` declares (no
//! silent additions, no missing names), the registry, the manifest and
//! the README glossary agree, and the seed — nothing else — decides the
//! inputs. Quick numbers are never recorded anywhere.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Just enough JSON to read `BENCHMARK.json` and a result line; the
/// workspace is dependency-free.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = Self::value(bytes, &mut at);
        Self::space(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing bytes after the JSON value");
        value
    }

    fn space(b: &[u8], at: &mut usize) {
        while *at < b.len() && b[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn expect(b: &[u8], at: &mut usize, c: u8) {
        Self::space(b, at);
        assert_eq!(
            b.get(*at),
            Some(&c),
            "expected {:?} at byte {at}",
            c as char
        );
        *at += 1;
    }

    fn string(b: &[u8], at: &mut usize) -> String {
        Self::expect(b, at, b'"');
        let start = *at;
        while b[*at] != b'"' {
            // The files this reads use no escapes beyond `\"` and `\\`.
            *at += if b[*at] == b'\\' { 2 } else { 1 };
        }
        let s = String::from_utf8(b[start..*at].to_vec()).expect("utf-8");
        *at += 1;
        s.replace("\\\"", "\"").replace("\\\\", "\\")
    }

    fn value(b: &[u8], at: &mut usize) -> Json {
        Self::space(b, at);
        match b[*at] {
            b'{' => {
                *at += 1;
                let mut fields = Vec::new();
                loop {
                    Self::space(b, at);
                    if b[*at] == b'}' {
                        *at += 1;
                        return Json::Obj(fields);
                    }
                    if !fields.is_empty() {
                        Self::expect(b, at, b',');
                    }
                    let key = Self::string(b, at);
                    Self::expect(b, at, b':');
                    fields.push((key, Self::value(b, at)));
                }
            }
            b'[' => {
                *at += 1;
                let mut items = Vec::new();
                loop {
                    Self::space(b, at);
                    if b[*at] == b']' {
                        *at += 1;
                        return Json::Arr(items);
                    }
                    if !items.is_empty() {
                        Self::expect(b, at, b',');
                    }
                    items.push(Self::value(b, at));
                }
            }
            b'"' => Json::Str(Self::string(b, at)),
            _ => {
                let start = *at;
                while *at < b.len() && !matches!(b[*at], b',' | b'}' | b']') {
                    *at += 1;
                }
                match std::str::from_utf8(&b[start..*at]).expect("utf-8").trim() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n:?}"))),
                }
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no field {key:?}")),
            other => panic!("{key:?} asked of a non-object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sti-sysbench"))
        .args(args)
        .output()
        .expect("run sti-sysbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "sti-sysbench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// One quick run; returns the metrics of its final line.
fn quick(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, f64> {
    let seed = seed.to_string();
    let stdout = bench(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
        "--quick",
    ]);
    let line = Json::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(*line.get("correct"), Json::Bool(true));
    assert_eq!(line.get("failed").num(), 0.0);
    assert!(line.get("attempted").num() >= 1.0);
    match line.get("metrics") {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, m)| {
                assert!(!m.get("unit").str().is_empty());
                (name.clone(), m.get("value").num())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn declared(section: &str) -> BTreeSet<String> {
    manifest()
        .get(section)
        .items()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}

#[test]
fn registry_and_manifest_declare_the_same_metrics() {
    let manifest = manifest();
    let mut from_manifest = BTreeSet::new();
    for section in ["end_to_end", "per_layer"] {
        for m in manifest.get(section).items() {
            from_manifest.insert(format!(
                "{section}\t{}\t{}\t{}",
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str()
            ));
        }
    }
    let from_registry: BTreeSet<String> = bench(&["--list"])
        .lines()
        .map(|l| l.splitn(5, '\t').take(4).collect::<Vec<_>>().join("\t"))
        .collect();
    assert_eq!(from_registry, from_manifest);
}

#[test]
fn readme_glossary_names_every_metric_and_workload() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let workloads = manifest()
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect::<Vec<_>>();
    for name in declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .chain(workloads)
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md never mentions `{name}`"
        );
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in manifest().get("workloads").items() {
        let workload = w.get("name").str();
        let untraced = quick(workload, 1, false);
        assert_eq!(
            untraced.keys().cloned().collect::<BTreeSet<_>>(),
            end_to_end,
            "{workload} --trace 0"
        );
        for (name, value) in &untraced {
            assert!(
                *value > 0.0,
                "{workload}: end-to-end metric {name} reads {value}"
            );
        }
        let traced = quick(workload, 1, true);
        assert_eq!(
            traced.keys().cloned().collect::<BTreeSet<_>>(),
            per_layer,
            "{workload} --trace 1"
        );
    }
}

#[test]
fn the_seed_decides_the_inputs_and_nothing_else_does() {
    // Counts the program makes; they must repeat exactly.
    const EXACT: [&str; 9] = [
        "storage.store.reads_per_query",
        "storage.buffer.hits_per_query",
        "pprtree.query.nodes_per_query",
        "pprtree.query.entries_per_query",
        "pprtree.bulk.pages_written",
        "storage.wal.bytes_per_op",
        "storage.wal.appends",
        "core.pipeline.batch_events",
        "pprtree.insert.pages",
    ];
    for workload in ["query_cold", "ingest_durable"] {
        let exact = |seed| -> Vec<u64> {
            let metrics = quick(workload, seed, true);
            EXACT.iter().map(|name| metrics[*name].to_bits()).collect()
        };
        let first = exact(7);
        assert_eq!(first, exact(7), "{workload}: same seed, different counts");
        assert_ne!(first, exact(8), "{workload}: different seed, same inputs");
    }
}
