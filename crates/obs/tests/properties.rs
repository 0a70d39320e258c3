//! Property-based tests for the observability layer: histogram merge
//! semantics and allocation-attribution reconciliation across threads.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_obs::{Histogram, Observer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging shard histograms is indistinguishable from recording every
    /// sample into one histogram — the exact invariant the observer
    /// relies on when it folds per-thread data into the shared sink.
    #[test]
    fn merge_then_quantile_equals_record_all(
        a_samples in proptest::collection::vec(0u64..1_000_000_000_000, 0..120),
        b_samples in proptest::collection::vec(0u64..1_000_000_000_000, 0..120),
    ) {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for &v in &a_samples {
            a.record(v);
            all.record(v);
        }
        for &v in &b_samples {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a.summary(), all.summary());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(a.quantile(q), all.quantile(q), "quantile {} diverged", q);
        }
    }

    /// Quantiles stay monotone in `q` and inside the recorded range, for
    /// any sample set — merged or not.
    #[test]
    fn quantiles_are_monotone_and_bounded(
        samples in proptest::collection::vec(0u64..u64::MAX / 2, 1..200),
    ) {
        let mut h = Histogram::default();
        for &v in &samples {
            h.record(v);
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", qs);
        }
        prop_assert!(qs[0] >= h.min());
        prop_assert!(qs[qs.len() - 1] <= h.max());
    }

    /// Allocation charges from concurrent scoped-thread worker spans
    /// reconcile: the parent's inclusive aggregate equals the total of
    /// every worker's charges (children never exceed the parent), and
    /// peak never exceeds total bytes.
    #[test]
    fn alloc_counters_reconcile_across_threads(
        workers in proptest::collection::vec(
            proptest::collection::vec((1u64..5, 0u64..10_000), 0..12),
            1..6,
        ),
    ) {
        let obs = Observer::enabled();
        let parent = obs.span("prop.parent");
        let parent_id = parent.id();
        std::thread::scope(|scope| {
            for charges in &workers {
                let obs = obs.clone();
                scope.spawn(move || {
                    let _worker = obs.span_under("prop.worker", parent_id);
                    for &(count, bytes) in charges {
                        obs.alloc_many(count, bytes);
                    }
                });
            }
        });
        drop(parent);

        let total_count: u64 = workers.iter().flatten().map(|&(c, _)| c).sum();
        let total_bytes: u64 = workers.iter().flatten().map(|&(_, b)| b).sum();
        let snapshot = obs.snapshot();
        let parent_agg = snapshot.stage("prop.parent").expect("parent stage");
        let child_agg = snapshot.stage("prop.worker");

        // Inclusive parent aggregate == everything charged below it.
        prop_assert_eq!(parent_agg.alloc_count, total_count);
        prop_assert_eq!(parent_agg.alloc_bytes, total_bytes);
        // Children sum to at most the parent (equality here: the parent
        // charges nothing itself).
        let (child_count, child_bytes) =
            child_agg.map_or((0, 0), |a| (a.alloc_count, a.alloc_bytes));
        prop_assert!(child_count <= parent_agg.alloc_count);
        prop_assert_eq!(child_bytes, total_bytes);
        // Peak is a sum of per-span live peaks: bounded by total bytes.
        prop_assert!(parent_agg.alloc_peak <= parent_agg.alloc_bytes);
        // The metrics document stays self-consistent under any charge mix.
        deepeye_obs::validate_metrics_json(&snapshot.metrics_json())
            .expect("metrics validate");
    }
}
