//! Retry-path coverage through the public workspace API: transient
//! faults are re-attempted at once, up to three attempts in all (and
//! counted), while permanent faults surface the original error
//! unchanged — both at the raw [`PageStore`] level and through a whole
//! tree.

use spatiotemporal_index::pprtree::{check, PprParams, PprTree};
use spatiotemporal_index::storage::{
    FaultKind, FaultPlan, FaultyBackend, IoOp, PageStore, ReadProbe, ScheduledFault, StorageError,
};
use sti_geom::Rect2;

fn transient_run(at_ops: impl IntoIterator<Item = u64>) -> FaultPlan {
    FaultPlan::new(
        at_ops
            .into_iter()
            .map(|at_op| ScheduledFault {
                at_op,
                kind: FaultKind::Fail { transient: true },
            })
            .collect(),
    )
}

fn store_with(plan: FaultPlan) -> PageStore {
    PageStore::with_backend(Box::new(FaultyBackend::new_mem(plan)), 4)
}

/// One or two consecutive transient faults (inside the three-attempt
/// budget) are absorbed: the write succeeds on the next attempt and
/// records exactly `k` retries — each re-execution advances the fault
/// clock, so the faults sit on consecutive operation indexes.
#[test]
fn transient_faults_within_budget_succeed_and_count_retries() {
    for k in 1..=2u64 {
        // Op 0 is the allocate; the write occupies ops 1..=k+1.
        let mut s = store_with(transient_run(1..=k));
        let a = s.allocate().unwrap();
        s.write(a, &[42]).unwrap_or_else(|e| {
            panic!("{k} transient faults inside a budget of 3 must succeed: {e}")
        });
        assert_eq!(
            &s.read(a, &mut ReadProbe::new()).unwrap().bytes()[..1],
            &[42]
        );
        let fs = s.fault_stats();
        assert_eq!(fs.io_retries, k, "one retry per transient fault");
        assert_eq!(fs.io_faults_injected, k);
    }
}

/// A permanent fault is never retried: the injected error comes back
/// unchanged, no retry is counted, and the page keeps its prior bytes.
#[test]
fn permanent_fault_is_not_retried_and_surfaces_unchanged() {
    let plan = FaultPlan::new(vec![ScheduledFault {
        at_op: 2,
        kind: FaultKind::Fail { transient: false },
    }]);
    let mut s = store_with(plan);
    let a = s.allocate().unwrap();
    s.write(a, &[7]).unwrap();
    let err = s.write(a, &[9]).unwrap_err();
    assert_eq!(
        err,
        StorageError::Injected {
            op: IoOp::Write,
            page: Some(a),
            transient: false,
        },
        "the original error, not a retry-exhaustion wrapper"
    );
    assert_eq!(s.fault_stats().io_retries, 0, "permanent faults skip retry");
    assert_eq!(
        &s.read(a, &mut ReadProbe::new()).unwrap().bytes()[..1],
        &[7],
        "state unchanged"
    );
}

/// Three consecutive transient faults exhaust the budget: the
/// *original* transient error (typed, still marked transient) surfaces
/// after exactly two retries.
#[test]
fn budget_exhaustion_returns_the_original_transient_error() {
    // Ops 1, 2, 3: every attempt of the write fails.
    let mut s = store_with(transient_run(1..=3));
    let a = s.allocate().unwrap();
    let err = s.write(a, &[1]).unwrap_err();
    assert!(err.is_transient(), "typed transient error: {err:?}");
    assert_eq!(
        err,
        StorageError::Injected {
            op: IoOp::Write,
            page: Some(a),
            transient: true,
        }
    );
    assert_eq!(s.fault_stats().io_retries, 2, "budget of 3 = 2 retries");
    assert!(
        s.read(a, &mut ReadProbe::new())
            .unwrap()
            .bytes()
            .iter()
            .all(|&b| b == 0),
        "failed write left the page untouched"
    );
}

/// The same behaviour holds end-to-end through a tree: a transient
/// fault mid-insert is absorbed by the retry loop, the insert succeeds,
/// the retry shows up in [`PprTree::fault_stats`], and the tree still
/// passes the sanitizer.
#[test]
fn tree_absorbs_transient_faults_and_reports_them() {
    let plan = transient_run([4, 11]);
    let backend = FaultyBackend::new_mem(plan);
    let mut tree = PprTree::with_backend(
        PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        },
        Box::new(backend),
    );
    for i in 0..40u64 {
        let x = (i % 10) as f64 * 0.09;
        let y = (i / 10) as f64 * 0.2;
        tree.insert(i, Rect2::from_bounds(x, y, x + 0.05, y + 0.05), i as u32)
            .unwrap_or_else(|e| panic!("transient faults must be retried, got {e} at {i}"));
    }
    let fs = tree.fault_stats();
    assert_eq!(fs.io_faults_injected, 2, "both scheduled faults fired");
    assert_eq!(fs.io_retries, 2, "and both were absorbed by a retry");
    let mut out = Vec::new();
    tree.query_snapshot(&Rect2::UNIT, 39, &mut out).unwrap();
    assert_eq!(out.len(), 40, "every insert landed exactly once");
    assert!(check::validate(&tree).is_ok());
}
