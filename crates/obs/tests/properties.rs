//! Property-based tests for the observability layer: nearest-rank
//! quantiles.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_obs::nearest_rank;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any sample set, the p-th percentile is `sorted[⌈p·n/100⌉ − 1]`:
    /// a sample with at least p% of the samples at or below it and fewer
    /// than p% strictly below it, monotone in p and inside the samples'
    /// range.
    #[test]
    fn nearest_rank_is_a_recorded_sample(
        mut samples in proptest::collection::vec(0u64..u64::MAX / 2, 1..200),
    ) {
        samples.sort_unstable();
        let n = samples.len();
        let mut previous = 0;
        for percent in 0..=100u8 {
            let q = nearest_rank(&samples, percent);
            let rank = (n * usize::from(percent)).div_ceil(100).max(1);
            prop_assert_eq!(q, samples[rank - 1]);
            let at_or_below = samples.iter().filter(|&&x| x <= q).count();
            let below = samples.iter().filter(|&&x| x < q).count();
            prop_assert!(100 * at_or_below >= usize::from(percent) * n);
            prop_assert!(percent == 0 || 100 * below < usize::from(percent) * n);
            prop_assert!(q >= previous, "monotone in p: {} then {}", previous, q);
            prop_assert!(samples[0] <= q && q <= samples[n - 1]);
            previous = q;
        }
        prop_assert_eq!(nearest_rank(&samples, 200), samples[n - 1]);
        prop_assert_eq!(nearest_rank(&[], 50), 0);
    }
}
