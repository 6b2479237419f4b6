//! Packing quality of the bulk loader, against the incremental tree.
//!
//! The equivalence suites (`sti-pprtree`'s `bulk_load`) prove a
//! bulk-loaded tree answers like an incrementally built one; nothing
//! there says what the answer *costs*. This test builds the same unsplit
//! records both ways and bounds the bulk tree by the incremental one —
//! the structure the paper's space and query arguments are about — on
//! pages and on disk reads per query, measured the paper's way (buffer
//! reset before every query).

use sti_bench::{build_index, object_record, query_io_profile};
use sti_core::{IndexBackend, IndexConfig, ObjectRecord, SpatioTemporalIndex};
use sti_datagen::{QuerySetSpec, RailwayDatasetSpec, RandomDatasetSpec};
use sti_storage::PageStore;

/// Pages may exceed the incremental tree's by this factor: the largest
/// ratio reached (paper, 1.196), rounded up to the next 0.05.
const PAGES_BOUND: f64 = 1.2;
/// Average reads per query may exceed the incremental tree's by this:
/// the largest ratio reached (railway interval, 1.553), rounded up to the
/// next 0.05.
const READS_BOUND: f64 = 1.6;

fn bulk_index(records: &[ObjectRecord], tag: &str) -> SpatioTemporalIndex {
    let dir = std::env::temp_dir().join(format!("sti-quality-{tag}-{}", std::process::id()));
    let config = IndexConfig::paper(IndexBackend::PprTree);
    let store = PageStore::new(config.ppr.buffer_pages);
    let (index, _) =
        SpatioTemporalIndex::bulk_build_ppr(records.iter().copied(), &config, store, &dir)
            .expect("bulk build");
    let _ = std::fs::remove_dir_all(&dir);
    index
}

#[test]
fn bulk_tree_is_bounded_by_the_incremental_tree() {
    let query_sets = [
        ("snapshot", QuerySetSpec::mixed_snapshot()),
        ("interval", QuerySetSpec::small_range()),
    ];
    println!(
        "{:<8} {:<10} {:>8} {:>10} {:>7}",
        "dataset", "measure", "incr", "bulk", "ratio"
    );
    let mut failures = Vec::new();
    let random = |spec: RandomDatasetSpec| -> Vec<ObjectRecord> {
        spec.iter().map(|o| object_record(&o)).collect()
    };
    // The railway trains crowd a few tracks: the loader's slabs hold a
    // fixed count of pieces, not a fixed width of space, and must pack
    // this skew as well as the uniform datasets.
    let railway = RailwayDatasetSpec::paper(20_000)
        .generate_rasterized()
        .iter()
        .map(object_record)
        .collect();
    for (name, records) in [
        ("paper", random(RandomDatasetSpec::paper(20_000))),
        ("big", random(RandomDatasetSpec::big(20_000))),
        ("railway", railway),
    ] {
        let mut incr = build_index(&records, IndexBackend::PprTree);
        let mut bulk = bulk_index(&records, name);
        let mut row = |measure: &str, incr: f64, bulk: f64, bound: f64| {
            let ratio = bulk / incr;
            println!("{name:<8} {measure:<10} {incr:>8.1} {bulk:>10.1} {ratio:>6.2}x");
            if ratio > bound {
                failures.push(format!("{name} {measure}: {ratio:.2}x > {bound}x"));
            }
        };
        row(
            "pages",
            incr.num_pages() as f64,
            bulk.num_pages() as f64,
            PAGES_BOUND,
        );
        for (set, spec) in &query_sets {
            let mut spec = spec.clone();
            spec.cardinality = 300;
            let queries = spec.generate();
            let incr_reads = query_io_profile(&mut incr, &queries).avg;
            let bulk_reads = query_io_profile(&mut bulk, &queries).avg;
            row(set, incr_reads, bulk_reads, READS_BOUND);
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
