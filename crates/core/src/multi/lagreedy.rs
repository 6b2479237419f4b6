//! The look-ahead-2 greedy distribution algorithm
//! (paper §III-B.3, fig. 10).

use crate::multi::{distribute_greedy, SplitAllocation};
use crate::util::OrdF64;
use crate::VolumeCurve;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Safety bound on exchange iterations; each exchange strictly reduces
/// the total volume so the loop terminates on its own, but a cap keeps a
/// float-pathological input from looping long.
fn max_exchanges(k: usize) -> usize {
    k.saturating_mul(10).saturating_add(100)
}

/// Greedy distribution followed by the look-ahead-2 exchange refinement.
///
/// After the plain greedy pass, two priority queues are maintained
/// (fig. 10):
///
/// * `PQ_la1` — min-queue over allocated objects keyed by the gain of
///   their *last* assigned split,
/// * `PQ_la2` — max-queue over objects keyed by the gain of *two more*
///   splits.
///
/// While the top of `PQ_la2` (an object `O3`) gains more than the two
/// cheapest last-splits (`O1`, `O2`) combined, one split is taken from
/// each of `O1`, `O2` and both are given to `O3`. This rescues
/// fig.-4-style objects whose first split is poor but whose second is
/// excellent — exactly the objects the plain greedy starves. Worst-case
/// complexity matches the greedy; the paper measured ≈10% extra time.
pub fn distribute_lagreedy(curves: &[VolumeCurve], k: usize) -> SplitAllocation {
    // Splits past what the curves can absorb stay unassigned either way;
    // clamping keeps them out of the exchange bound.
    let capacity = curves
        .iter()
        .fold(0usize, |sum, c| sum.saturating_add(c.max_splits()));
    let k = k.min(capacity);
    let seed = distribute_greedy(curves, k);
    let mut splits = seed.splits;
    let mut total = seed.total_volume;

    // Entries carry the object's split count at push time; an entry is
    // stale when the count has since changed.
    type MinEntry = Reverse<(OrdF64, usize, usize)>;
    type MaxEntry = (OrdF64, usize, usize);
    let mut la1: BinaryHeap<MinEntry> = BinaryHeap::new();
    let mut la2: BinaryHeap<MaxEntry> = BinaryHeap::new();

    let push_both = |la1: &mut BinaryHeap<MinEntry>,
                     la2: &mut BinaryHeap<MaxEntry>,
                     curves: &[VolumeCurve],
                     splits: &[usize],
                     i: usize| {
        let s = splits[i];
        if s >= 1 {
            la1.push(Reverse((OrdF64(curves[i].gain(s)), i, s)));
        }
        if s + 2 <= curves[i].max_splits() {
            la2.push((OrdF64(curves[i].gain_between(s, s + 2)), i, s));
        }
    };

    for i in 0..curves.len() {
        push_both(&mut la1, &mut la2, curves, &splits, i);
    }

    for _ in 0..max_exchanges(k) {
        // Pop the two valid, distinct objects with the cheapest last splits.
        let mut donors: Vec<(f64, usize)> = Vec::with_capacity(2);
        while donors.len() < 2 {
            let Some(Reverse((OrdF64(g), i, stamp))) = la1.pop() else {
                break;
            };
            if stamp != splits[i] {
                continue; // stale
            }
            if donors.iter().any(|&(_, d)| d == i) {
                // Same object twice cannot happen (one valid stamp per
                // object), but keep the guard cheap and explicit.
                continue;
            }
            donors.push((g, i));
        }
        if donors.len() < 2 {
            // Not enough allocated objects; restore and finish.
            for (g, i) in donors {
                la1.push(Reverse((OrdF64(g), i, splits[i])));
            }
            break;
        }
        let (g1, o1) = donors[0];
        let (g2, o2) = donors[1];

        // Pop the best valid la2 object distinct from the donors,
        // remembering valid-but-excluded entries for reinsertion.
        let mut excluded: Vec<MaxEntry> = Vec::new();
        let mut receiver: Option<(f64, usize)> = None;
        while let Some((OrdF64(g), i, stamp)) = la2.pop() {
            if stamp != splits[i] {
                continue;
            }
            if i == o1 || i == o2 {
                excluded.push((OrdF64(g), i, stamp));
                continue;
            }
            receiver = Some((g, i));
            break;
        }
        for e in excluded {
            la2.push(e);
        }

        let improves = match receiver {
            Some((g3, _)) => g3 > g1 + g2 + 1e-12 * (1.0 + total.abs()),
            None => false,
        };
        let viable = if improves { receiver } else { None };
        let Some((g3, o3)) = viable else {
            // Put everything back (the receiver entry, if any, is still
            // valid) and stop: no further exchange helps.
            la1.push(Reverse((OrdF64(g1), o1, splits[o1])));
            la1.push(Reverse((OrdF64(g2), o2, splits[o2])));
            if let Some((g3, o3)) = receiver {
                la2.push((OrdF64(g3), o3, splits[o3]));
            }
            break;
        };

        // Execute the exchange: o1, o2 each give back their last split,
        // o3 receives two.
        total += g1 + g2 - g3;
        splits[o1] -= 1;
        splits[o2] -= 1;
        splits[o3] += 2;
        for i in [o1, o2, o3] {
            push_both(&mut la1, &mut la2, curves, &splits, i);
        }
    }

    SplitAllocation {
        splits,
        total_volume: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::testutil::*;
    use crate::multi::{distribute_greedy, distribute_optimal};
    use proptest::prelude::*;

    #[test]
    fn rescues_the_trap_object() {
        // Greedy gives one split to each concave curve (gain 4 + 4 = 8)
        // and starves the trap, whose two-split gain is 9. The exchange
        // must take both splits back and hand them to the trap — the
        // optimum. (The paper's exchange needs two *distinct* donors,
        // hence two concave curves here.)
        let curves = [concave(), concave(), trap()];
        let g = distribute_greedy(&curves, 2);
        assert_eq!(g.splits, vec![1, 1, 0]);
        let la = distribute_lagreedy(&curves, 2);
        let opt = distribute_optimal(&curves, 2);
        assert_eq!(la.splits, vec![0, 0, 2]);
        assert!((la.total_volume - opt.total_volume).abs() < 1e-9);
    }

    #[test]
    fn never_worse_than_greedy() {
        let curves = [concave(), trap(), flat(), trap(), concave()];
        for k in 0..12 {
            let g = distribute_greedy(&curves, k);
            let la = distribute_lagreedy(&curves, k);
            assert!(la.total_volume <= g.total_volume + 1e-9, "k={k}");
            assert!((la.recompute_volume(&curves) - la.total_volume).abs() < 1e-9);
        }
    }

    #[test]
    fn conserves_the_split_budget() {
        let curves = [concave(), trap(), trap()];
        for k in 0..10 {
            let g = distribute_greedy(&curves, k);
            let la = distribute_lagreedy(&curves, k);
            // Exchanges move splits around but never create or destroy them.
            assert_eq!(la.splits_used(), g.splits_used(), "k={k}");
        }
    }

    #[test]
    fn no_allocated_objects_is_a_noop() {
        let curves = [flat()];
        let la = distribute_lagreedy(&curves, 0);
        assert_eq!(la.splits, vec![0]);
    }

    #[test]
    fn matches_optimal_on_monotone_curves() {
        // With monotone gains greedy is already optimal; LAGreedy must not
        // disturb it.
        let curves = [concave(), concave(), concave()];
        for k in 0..=12 {
            let la = distribute_lagreedy(&curves, k);
            let opt = distribute_optimal(&curves, k);
            assert!((la.total_volume - opt.total_volume).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn a_budget_past_every_curve_assigns_every_split() {
        let curves = [concave(), trap(), flat()];
        for k in [9, 10, usize::MAX / 10 + 1, usize::MAX] {
            let la = distribute_lagreedy(&curves, k);
            assert_eq!(la.splits, vec![4, 3, 2], "k={k}");
            assert_eq!(la, distribute_greedy(&curves, k), "k={k}");
        }
    }

    fn arb_curve() -> impl Strategy<Value = VolumeCurve> {
        prop::collection::vec(0.0..5.0f64, 1..6).prop_map(|drops| {
            let mut v = 25.0;
            let mut vols = vec![v];
            for d in drops {
                v -= d;
                vols.push(v);
            }
            VolumeCurve::new(vols)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sandwiched_between_optimal_and_greedy(
            curves in prop::collection::vec(arb_curve(), 1..6),
            k in 0usize..8,
        ) {
            let opt = distribute_optimal(&curves, k);
            let la = distribute_lagreedy(&curves, k);
            let g = distribute_greedy(&curves, k);
            prop_assert!(la.total_volume <= g.total_volume + 1e-9);
            prop_assert!(la.total_volume + 1e-9 >= opt.total_volume);
            prop_assert!((la.recompute_volume(&curves) - la.total_volume).abs() < 1e-9);
        }
    }
}
