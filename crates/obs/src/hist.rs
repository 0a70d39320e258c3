//! Log-scale histograms for latency distributions.
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
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
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
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the geometric midpoint of
    /// the bucket holding the `ceil(q·count)`-th sample, clamped to the
    /// observed min/max so tails never exceed reality.
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
                return bucket_mid(b).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// A compact summary for exporters.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u128,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::default();
        for v in [100u64, 200, 300, 400, 10_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 11_000);
        assert_eq!(s.min, 100);
        assert_eq!(s.max, 10_000);
        // p50 lands in the bucket of 200–300; log-scale tolerance.
        assert!(s.p50 >= 128 && s.p50 <= 512, "p50 = {}", s.p50);
        assert!(s.p99 <= 10_000);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::default();
        for i in 1..=1000u64 {
            h.record(i * 17);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max());
        assert!(h.quantile(0.0) >= h.min());
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [1u64, 5, 9, 120, 7_000] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 33, 900_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), all.summary());
    }

    #[test]
    fn zero_and_extreme_values() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // Quantiles stay within the recorded range and stay ordered.
        let (lo, hi) = (h.quantile(0.0), h.quantile(1.0));
        assert!(lo <= hi);
        assert!(lo >= h.min());
        assert!(hi <= h.max());
    }
}
