//! Everything random comes from here, and everything here comes from
//! `--seed`: datasets, query sets, the HTTP query synthesiser and the
//! micro-phase page-id sequences. The program under test only ever sees
//! the generated inputs.

use sti_core::{IngestOp, ObjectRecord, QueryRequest};
use sti_datagen::{Query, QuerySetSpec, RandomDatasetSpec};
use sti_geom::{Rect2, StBox, TimeInterval};
use sti_trajectory::RasterizedObject;

/// splitmix64 step.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent seed for input stream `salt` of run `seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    splitmix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Advance `state` and map it to [0, 1).
pub fn next_unit(state: &mut u64) -> f64 {
    *state = splitmix(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// The scale-tier dataset (short lifetimes, churn) for the query
/// workloads.
pub fn big_dataset(seed: u64, objects: usize) -> RandomDatasetSpec {
    RandomDatasetSpec {
        seed: derive(seed, 1),
        ..RandomDatasetSpec::big(objects)
    }
}

/// The paper's dataset, for the ingest and serve workloads.
pub fn paper_dataset(seed: u64, objects: usize) -> RandomDatasetSpec {
    RandomDatasetSpec {
        seed: derive(seed, 2),
        ..RandomDatasetSpec::paper(objects)
    }
}

/// The unsplit record of one object: its MBR over its whole lifetime.
pub fn object_record(o: &RasterizedObject) -> ObjectRecord {
    ObjectRecord {
        id: o.id(),
        stbox: StBox::new(o.mbr_range(0, o.len()), o.lifetime()),
    }
}

fn query_set(mut spec: QuerySetSpec, seed: u64, cardinality: usize) -> Vec<Query> {
    spec.seed = seed;
    spec.cardinality = cardinality;
    spec.generate()
}

/// The scale-tier mix: small snapshot probes, every eighth query a
/// medium interval scan (the `tier_queries` shape of `sti-bench`).
pub fn query_mix(seed: u64, salt: u64, cardinality: usize) -> Vec<Query> {
    let scans = query_set(
        QuerySetSpec::medium_range(),
        derive(seed, salt),
        cardinality / 8,
    );
    let probes = query_set(
        QuerySetSpec::small_snapshot(),
        derive(seed, salt + 1),
        cardinality - scans.len(),
    );
    let (mut scan, mut probe) = (scans.into_iter(), probes.into_iter());
    (0..cardinality)
        .filter_map(|i| {
            if i % 8 == 7 {
                scan.next().or_else(|| probe.next())
            } else {
                probe.next().or_else(|| scan.next())
            }
        })
        .collect()
}

/// The six query sets of Table II, `per_set` queries each.
pub fn table2_sets(seed: u64, per_set: usize) -> Vec<Query> {
    [
        QuerySetSpec::tiny_snapshot(),
        QuerySetSpec::small_snapshot(),
        QuerySetSpec::mixed_snapshot(),
        QuerySetSpec::large_snapshot(),
        QuerySetSpec::small_range(),
        QuerySetSpec::medium_range(),
    ]
    .into_iter()
    .enumerate()
    .flat_map(|(k, spec)| query_set(spec, derive(seed, 20 + k as u64), per_set))
    .collect()
}

/// Snapshot probes for the live queries that run between commits.
pub fn live_probes(seed: u64, cardinality: usize) -> Vec<Query> {
    query_set(
        QuerySetSpec::mixed_snapshot(),
        derive(seed, 30),
        cardinality,
    )
}

/// HTTP request `i`: three snapshots, then a short interval — the shape
/// `sti-load` sends. Returns the `area` parameter as it goes on the wire
/// and the request as the server will parse it back.
pub fn http_query(seed: u64, i: usize, time_extent: u32) -> (String, QueryRequest) {
    let mut s = derive(seed, 40) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x0 = 0.85 * next_unit(&mut s);
    let y0 = 0.85 * next_unit(&mut s);
    let x1 = (x0 + 0.05 + 0.10 * next_unit(&mut s)).min(1.0);
    let y1 = (y0 + 0.05 + 0.10 * next_unit(&mut s)).min(1.0);
    let time = (next_unit(&mut s) * f64::from(time_extent - 1)) as u32;
    let until = if i.is_multiple_of(4) {
        (time + 2 + (next_unit(&mut s) * 20.0) as u32).min(time_extent)
    } else {
        time + 1
    }
    .max(time + 1);
    let area = format!("{x0:.4},{y0:.4},{x1:.4},{y1:.4}");
    // The server sees only the four-decimal text, so the reference
    // answer must be computed from the same rounded numbers.
    let c: Vec<f64> = area
        .split(',')
        .map(|p| p.parse().expect("just formatted"))
        .collect();
    let request = QueryRequest {
        area: Rect2::from_bounds(c[0], c[1], c[2], c[3]),
        range: TimeInterval::new(time, until),
    };
    (area, request)
}

/// `n` page ids uniform over `0..num_pages`.
pub fn page_ids(seed: u64, salt: u64, n: usize, num_pages: usize) -> Vec<u32> {
    let mut s = derive(seed, salt);
    (0..n)
        .map(|_| (next_unit(&mut s) * num_pages as f64) as u32)
        .collect()
}

/// A dataset flattened into a live stream: per instant, the updates of
/// every alive object (by id), then the finishes of those whose last
/// observation was this instant.
pub struct LiveStream {
    pub ops: Vec<IngestOp>,
    /// `ops[..instant_end[t]]` is everything up to and including
    /// instant `t`.
    pub instant_end: Vec<usize>,
}

impl LiveStream {
    pub fn build(objects: &[RasterizedObject]) -> Self {
        let mut updates: Vec<(u32, u64, Rect2)> = Vec::new();
        let mut finishes: Vec<(u32, u64)> = Vec::new();
        for obj in objects {
            for (i, r) in obj.rects().iter().enumerate() {
                updates.push((obj.start() + i as u32, obj.id(), *r));
            }
            finishes.push((obj.lifetime().end, obj.id()));
        }
        updates.sort_by_key(|&(t, id, _)| (t, id));
        finishes.sort_unstable();
        let horizon = finishes.last().map_or(0, |&(end, _)| end);
        let mut ops = Vec::with_capacity(updates.len() + finishes.len());
        let mut instant_end = Vec::with_capacity(horizon as usize);
        let (mut ui, mut fi) = (0, 0);
        for t in 0..horizon {
            while ui < updates.len() && updates[ui].0 == t {
                let (t, id, rect) = updates[ui];
                ops.push(IngestOp::Update { id, rect, t });
                ui += 1;
            }
            while fi < finishes.len() && finishes[fi].0 == t + 1 {
                let (end, id) = finishes[fi];
                ops.push(IngestOp::Finish { id, end });
                fi += 1;
            }
            instant_end.push(ops.len());
        }
        Self { ops, instant_end }
    }

    pub fn horizon(&self) -> u32 {
        self.instant_end.len() as u32
    }
}
