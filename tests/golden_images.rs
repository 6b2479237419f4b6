//! Golden images: the trees the update path builds, pinned byte for byte.
//!
//! One seeded stream of moving objects is indexed twice at the paper's
//! parameters — once through [`PprTree::insert`] / [`PprTree::delete`]
//! (one record per object, its whole-lifetime MBR), once through
//! [`IngestPipeline`] (a position per instant, committed every few
//! instants, then sealed) — and each tree is saved. The same records
//! build the R\*-Tree baseline too, into a page file, in the order
//! [`SpatioTemporalIndex::build`] inserts them. Then the split planner
//! runs over the same movers (a rectangle per instant): a MergeSplit +
//! LAGreedy plan at a 50 % budget, whose records build a PPR-Tree. Last,
//! the bulk loader packs the movers' pieces (a rectangle per few
//! instants) into a page file through its external sort. The xxh64 of
//! each saved image, of the plan's records and of the two page files is
//! a constant below. A change to how an
//! update is carried out (which nodes it reads, when it writes one, how
//! it encodes it) must leave every image as it is; a change that moves a
//! constant changed the trees or the file format.
//!
//! How the constants were obtained: the PPR-Tree tests ran unchanged on
//! commit `de0a2d3`, whose update path re-read every node on the way up
//! and rewrote every ancestor whether or not its bytes changed, and
//! printed the two digests their assertions report on a mismatch. The
//! R\*-Tree has no saved image any more: its page-file constant was
//! printed on commit `f714203`, in the same run that still asserted that
//! commit's image digest (`RSTAR_IMAGE` `0xfab2_cdb5_23d0_e927`, which
//! commit `88a1707`, the last one whose R\*-Tree carried deletion and
//! whose page store kept a free list, had produced byte for byte). The
//! planner test ran the same way on commit `87800fe`, whose MergeSplit
//! still picked each merge from a lazily invalidated binary heap. The
//! bulk-loader constants are the tree's own, not a reference's: the
//! loader's order changed from Hilbert segments to STR tiles, which
//! changes the packed pages on purpose. They were printed by this test
//! on the change that made the tiles, and replace the constants of
//! commit `d6ba15f` (287 pages and writes, `BULK_PAGES`
//! `0xdeaf_27b6_e3d9_4202`, `BULK_IMAGE` `0x3618_7cb4_ebde_df64`), which
//! the Hilbert loader of commit `a2c3c32` had produced byte for byte.
//! `PIPELINE_IMAGE` is also the tree's own: the online splitter stopped
//! closing pieces at a relative overhead θ = 8 and now spends a 150 %
//! split budget, so the pipeline emits other pieces on purpose. The
//! constant was printed by this test on that change and replaces
//! `0x00d5_343c_dd61_2d56`, which commit `de0a2d3`'s update path had
//! produced byte for byte from the θ splitter's pieces.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spatiotemporal_index::core::{
    DistributionAlgorithm, IndexBackend, IndexConfig, IngestPipeline, ObjectRecord,
    OnlineSplitConfig, SingleSplitAlgorithm, SpatioTemporalIndex, SplitBudget, SplitPlan,
};
use spatiotemporal_index::geom::{Point2, Rect2, StBox, Time, TimeInterval};
use spatiotemporal_index::pprtree::{BulkLoader, BulkPiece, PprParams, PprTree};
use spatiotemporal_index::rstar::RStarTree;
use spatiotemporal_index::storage::{xxh64, FileBackend, IoStats, PageStore};
use spatiotemporal_index::trajectory::RasterizedObject;

/// xxh64 of the saved image of the tree built by `insert` / `delete`.
const DIRECT_IMAGE: u64 = 0xf212_8bb2_79d4_6b68;
/// xxh64 of the saved image of the sealed pipeline tree.
const PIPELINE_IMAGE: u64 = 0xc591_02b1_5464_780c;
/// xxh64 of the page file of the R\*-Tree built over the same records,
/// and its pages.
const RSTAR_PAGES: (u64, usize) = (0x1e39_9f7c_c3e8_ad91, 16);
/// xxh64 of the records of the MergeSplit + LAGreedy 50 % plan.
const PLAN_RECORDS: u64 = 0x0350_872f_5b6c_e2e9;
/// xxh64 of the saved image of the PPR-Tree built from those records.
const PLAN_IMAGE: u64 = 0x6b48_959c_de5e_c556;
/// xxh64 of the page file the bulk loader packed the movers' pieces into.
const BULK_PAGES: u64 = 0x552b_ac9d_3b37_b4a0;
/// xxh64 of the saved image of that bulk-loaded tree.
const BULK_IMAGE: u64 = 0xd8c6_ff31_2e7d_dfb8;
/// Pages of that tree, and the store's counters right after the build.
const BULK_COUNTS: (usize, IoStats) = (
    284,
    IoStats {
        reads: 0,
        writes: 284,
        buffer_hits: 0,
    },
);
/// Instants per bulk-loaded piece of a mover.
const PIECE_INSTANTS: Time = 4;

const OBJECTS: u64 = 600;
const INSTANTS: Time = 200;
const COMMIT_EVERY: Time = 8;

/// One object: alive over `[start, end)`, at `at(t)` in between.
struct Mover {
    start: Time,
    end: Time,
    origin: Point2,
    velocity: (f64, f64),
    half: f64,
}

impl Mover {
    fn at(&self, t: Time) -> Rect2 {
        let dt = f64::from(t - self.start);
        let x = (self.origin.x + self.velocity.0 * dt).clamp(0.0, 1.0);
        let y = (self.origin.y + self.velocity.1 * dt).clamp(0.0, 1.0);
        Rect2::centered(Point2::new(x, y), self.half, self.half)
    }

    fn lifetime_mbr(&self) -> Rect2 {
        let mut mbr = self.at(self.start);
        for t in self.start + 1..self.end {
            mbr.expand(&self.at(t));
        }
        mbr
    }
}

fn movers() -> Vec<Mover> {
    let mut rng = StdRng::seed_from_u64(0x601d_e11a);
    (0..OBJECTS)
        .map(|_| {
            let start = rng.random_range(0..INSTANTS - 5);
            let end = (start + rng.random_range(5..60)).min(INSTANTS);
            Mover {
                start,
                end,
                origin: Point2::new(rng.random::<f64>(), rng.random::<f64>()),
                velocity: (
                    (rng.random::<f64>() - 0.5) * 0.01,
                    (rng.random::<f64>() - 0.5) * 0.01,
                ),
                half: 0.002 + rng.random::<f64>() * 0.01,
            }
        })
        .collect()
}

fn image_digest(name: &str, save: impl FnOnce(&std::path::Path) -> std::io::Result<()>) -> u64 {
    let path = std::env::temp_dir().join(format!("sti-golden-{name}-{}.idx", std::process::id()));
    save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    xxh64(&bytes)
}

#[test]
fn insert_and_delete_build_the_pinned_tree() {
    let movers = movers();
    let mut tree = PprTree::new(PprParams::default());
    for t in 0..=INSTANTS {
        for (id, m) in (0u64..).zip(&movers) {
            if m.end == t {
                tree.delete(id, m.lifetime_mbr(), t).unwrap();
            }
        }
        for (id, m) in (0u64..).zip(&movers) {
            if m.start == t {
                tree.insert(id, m.lifetime_mbr(), t).unwrap();
            }
        }
    }
    tree.validate();
    let digest = image_digest("direct", |path| tree.save_to_file(path));
    assert_eq!(digest, DIRECT_IMAGE, "direct image digest {digest:#018x}");
}

#[test]
fn the_ingest_pipeline_builds_the_pinned_tree() {
    let movers = movers();
    let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    // Every object is finished in the stream itself: `seal` would close
    // the still-open ones in hash order.
    for t in 0..=INSTANTS {
        for (id, m) in (0u64..).zip(&movers) {
            if m.end == t {
                pipeline.enqueue_finish(id, t);
            } else if (m.start..m.end).contains(&t) {
                pipeline.enqueue_update(id, m.at(t), t);
            }
        }
        if (t + 1) % COMMIT_EVERY == 0 {
            let report = pipeline.commit();
            assert!(report.rejected.is_empty(), "{:?}", report.rejected);
            assert!(report.error.is_none(), "{:?}", report.error);
        }
    }
    let sealed = pipeline.seal();
    assert!(sealed.rejected.is_empty() && sealed.error.is_none());
    let tree = pipeline.into_published_tree();
    tree.validate();
    let digest = image_digest("pipeline", |path| tree.save_to_file(path));
    assert_eq!(
        digest, PIPELINE_IMAGE,
        "pipeline image digest {digest:#018x}"
    );
}

#[test]
fn the_rstar_baseline_builds_the_pinned_tree() {
    let records: Vec<ObjectRecord> = (0u64..)
        .zip(&movers())
        .map(|(id, m)| ObjectRecord {
            id,
            stbox: StBox::new(m.lifetime_mbr(), TimeInterval::new(m.start, m.end)),
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("sti-golden-rstar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let page_file = dir.join("tree.pages");
    let config = IndexConfig::paper(IndexBackend::RStar);
    let mut tree = RStarTree::with_backend(
        config.rstar,
        Box::new(FileBackend::create(&page_file).unwrap()),
    )
    .unwrap();
    // `SpatioTemporalIndex::build`'s order: a multiplicative-hash shuffle.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| {
        (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
    });
    for i in order {
        let r = &records[i];
        tree.insert(r.id, r.to_rect3(f64::from(config.time_extent)))
            .unwrap();
    }
    assert_eq!(tree.len(), OBJECTS);
    let pages = (xxh64(&std::fs::read(&page_file).unwrap()), tree.num_pages());
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        pages, RSTAR_PAGES,
        "rstar page file digest {:#018x}",
        pages.0
    );
}

#[test]
fn the_split_planner_emits_the_pinned_records_and_tree() {
    let objects: Vec<RasterizedObject> = (0u64..)
        .zip(&movers())
        .map(|(id, m)| {
            RasterizedObject::new(id, m.start, (m.start..m.end).map(|t| m.at(t)).collect())
        })
        .collect();
    let plan = SplitPlan::build(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(50.0),
        None,
    );
    let records = plan.records(&objects);
    assert_eq!(records.len(), objects.len() * 3 / 2);
    let mut bytes = Vec::with_capacity(records.len() * 48);
    for r in &records {
        let rect = r.stbox.rect;
        bytes.extend(r.id.to_le_bytes());
        for v in [rect.lo.x, rect.lo.y, rect.hi.x, rect.hi.y] {
            bytes.extend(v.to_bits().to_le_bytes());
        }
        bytes.extend(r.stbox.lifetime.start.to_le_bytes());
        bytes.extend(r.stbox.lifetime.end.to_le_bytes());
    }
    let digest = xxh64(&bytes);
    assert_eq!(digest, PLAN_RECORDS, "plan records digest {digest:#018x}");

    let config = IndexConfig::paper(IndexBackend::PprTree);
    let index = SpatioTemporalIndex::build(&records, &config).unwrap();
    let tree = index.as_ppr().unwrap();
    tree.validate();
    let digest = image_digest("plan", |path| tree.save_to_file(path));
    assert_eq!(digest, PLAN_IMAGE, "plan image digest {digest:#018x}");
}

#[test]
fn the_bulk_loader_packs_the_pinned_pages() {
    let dir = std::env::temp_dir().join(format!("sti-golden-bulk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let page_file = dir.join("tree.pages");
    let params = PprParams::default();
    let store = PageStore::with_backend(
        Box::new(FileBackend::create(&page_file).unwrap()),
        params.buffer_pages,
    );
    // A small sort chunk, so the pieces spill to sorted runs and come
    // back through the merge.
    let mut loader = BulkLoader::new(params, &dir).chunk_capacity(1024);
    let mut pieces = 0;
    for (id, m) in (0u64..).zip(&movers()) {
        for start in (m.start..m.end).step_by(PIECE_INSTANTS as usize) {
            let end = (start + PIECE_INSTANTS).min(m.end);
            let mut rect = m.at(start);
            for t in start + 1..end {
                rect.expand(&m.at(t));
            }
            let deletion = if m.end == INSTANTS && end == m.end {
                TimeInterval::OPEN_END
            } else {
                end
            };
            loader
                .push(BulkPiece {
                    rect,
                    ptr: id,
                    insertion: start,
                    deletion,
                })
                .unwrap();
            pieces += 1;
        }
    }
    let (tree, stats) = loader.finish(store).unwrap();
    assert_eq!(stats.pieces, pieces);
    assert!(stats.spilled_runs >= 2, "the merge must run");
    tree.validate();
    let counts = (tree.num_pages(), tree.io_stats());
    let pages = xxh64(&std::fs::read(&page_file).unwrap());
    let image = image_digest("bulk", |path| tree.save_to_file(path));
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(counts, BULK_COUNTS, "bulk build counts");
    assert_eq!(pages, BULK_PAGES, "bulk page file digest {pages:#018x}");
    assert_eq!(image, BULK_IMAGE, "bulk image digest {image:#018x}");
}
