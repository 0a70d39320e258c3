//! Log-scale histograms of span durations: every span path's aggregate
//! records its spans here, and the stage report and the metrics snapshot
//! read its p50/p95/p99 back.
//!
//! Values (nanoseconds) land in power-of-two buckets: bucket 0 holds 0,
//! bucket `b` holds `[2^(b-1), 2^b)`. 64 buckets cover the full `u64`
//! range, so recording never saturates; quantiles are read back as the
//! geometric midpoint of the answering bucket — ~±25% relative error,
//! plenty for stage attribution.

/// Number of buckets: value 0 plus one per power of two.
const BUCKETS: usize = 65;

/// A fixed-size log-scale histogram of `u64` samples (nanoseconds by
/// convention, but unit-agnostic).
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

fn bucket_of(value: u64) -> usize {
    match value {
        0 => 0,
        v => v.ilog2() as usize + 1,
    }
}

/// Representative value of a bucket: the geometric midpoint of its range.
fn bucket_mid(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b => {
            let lo = 1u64 << (b - 1);
            // lo * sqrt(2), without floats drifting at the top of the range.
            lo + lo / 2
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Approximate quantile (`q` in `[0, 1]`): the geometric midpoint of
    /// the bucket holding the `ceil(q·count)`-th sample, clamped to the
    /// observed min/max so tails never exceed reality. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_mid(b).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.count, 0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::default();
        for v in [100u64, 200, 300, 400, 10_000] {
            h.record(v);
        }
        assert_eq!((h.count, h.min, h.max), (5, 100, 10_000));
        // p50 lands in the bucket of 200–300; log-scale tolerance.
        let p50 = h.quantile(0.5);
        assert!((128..=512).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.99) <= 10_000);
        assert_eq!(h.quantile(0.0), 100, "clamped to the smallest sample");
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::default();
        for i in 1..=1000u64 {
            h.record(i * 17);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= 17_000);
        assert!(h.quantile(0.0) >= 17);
    }

    #[test]
    fn zero_and_extreme_values() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!((h.count, h.min, h.max), (2, 0, u64::MAX));
        // Quantiles stay within the recorded range and stay ordered.
        let (lo, hi) = (h.quantile(0.0), h.quantile(1.0));
        assert!(lo <= hi);
        assert_eq!(lo, 0);
        assert!(hi >= 1 << 63, "the top bucket answers p100");
    }
}
