//! Property-based tests for the observability layer: histogram quantile
//! bounds.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_obs::Histogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles stay monotone in `q` and inside the recorded range, for
    /// any sample set.
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
        prop_assert!(qs[0] >= *samples.iter().min().unwrap());
        prop_assert!(qs[qs.len() - 1] <= *samples.iter().max().unwrap());
    }
}
