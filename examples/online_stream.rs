//! Streaming ingestion: the paper's §VII future work in action.
//!
//! Position updates arrive one instant at a time; the ingest pipeline's
//! online splitter decides artificial splits on the fly, and each commit
//! publishes a partially persistent R-Tree that is final up to a
//! watermark. Historical queries run *while* the stream is still
//! flowing.
//!
//! Run with: `cargo run --release --example online_stream`

use spatiotemporal_index::core::{BatchState, IngestPipeline, OnlineSplitConfig};
use spatiotemporal_index::pprtree::PprParams;
use spatiotemporal_index::prelude::*;

fn main() {
    let objects = RandomDatasetSpec::paper(500).generate();
    let config = OnlineSplitConfig {
        // The paper's best offline budget: 1.5 artificial splits per
        // object, spent where the boxes hold the most empty space.
        budget: SplitBudget::Percent(150.0),
        // Cap piece length so the watermark keeps advancing even when
        // some object barely moves.
        max_piece_instants: Some(40),
    };
    let mut pipeline = IngestPipeline::new(config, PprParams::default());

    // Replay the dataset as a global time-ordered stream of updates.
    let mut events: Vec<(Time, u64, usize, bool)> = Vec::new();
    for o in &objects {
        for i in 0..o.len() {
            events.push((o.start() + i as Time, o.id(), i, false));
        }
        events.push((o.lifetime().end, o.id(), 0, true));
    }
    events.sort_unstable();

    let mut committed = 0;
    for (t, id, i, done) in events {
        if done {
            pipeline.enqueue_finish(id, t);
        } else {
            pipeline.enqueue_update(id, objects[id as usize].rect(i), t);
        }
        // Every 200 ticks, commit what arrived and ask a question about
        // the history the new version has made final.
        if t % 200 == 0 && committed < t / 200 {
            committed = t / 200;
            let report = pipeline.commit();
            assert!(report.rejected.is_empty(), "replayed stream is gap-free");
            assert!(report.error.is_none(), "in-memory ingest cannot fail");
            let version = pipeline.published();
            let watermark = version.stamp().watermark;
            if watermark > 50 {
                let probe = watermark - 1;
                let mut out = Vec::new();
                version
                    .tree()
                    .query_snapshot(&Rect2::from_bounds(0.25, 0.25, 0.75, 0.75), probe, &mut out)
                    .expect("in-memory query cannot fail");
                println!(
                    "t={t:4}  version={:2}  watermark={watermark:4}  objects in the center at t={probe}: {}",
                    version.stamp().version,
                    out.len()
                );
            }
        }
    }

    let report = pipeline.seal();
    assert_eq!(
        report.state,
        BatchState::Published,
        "seal publishes the rest"
    );
    println!(
        "\nstream done: {} commits, final watermark {}",
        pipeline.commits(),
        report.stamp.watermark
    );
    let tree = pipeline.into_published_tree();
    let mut out = Vec::new();
    tree.query_interval(
        &Rect2::from_bounds(0.45, 0.45, 0.55, 0.55),
        &TimeInterval::new(0, 1000),
        &mut out,
    )
    .expect("in-memory query cannot fail");
    println!(
        "objects that ever crossed the center 10% window: {}",
        out.len()
    );
    println!(
        "final index: {} artificial splits issued online, {} pages over {} roots",
        tree.total_records() - objects.len() as u64,
        tree.num_pages(),
        tree.roots().len()
    );
}
