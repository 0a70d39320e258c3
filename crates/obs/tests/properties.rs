//! Property-based tests for the observability layer: histogram merge
//! semantics and quantile bounds.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_obs::Histogram;
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

}
