//! The sanctioned monotonic clock for ad-hoc timing.
//!
//! All wall-clock reads in the workspace go through `deepeye-obs`: spans
//! ([`Observer::span`](crate::Observer::span)) cover the common cases,
//! and [`Stopwatch`] covers the rest — report scripts and benchmarks
//! printing elapsed times. Code outside this
//! crate never touches `std::time::Instant` directly; clippy's
//! `disallowed-types` (`clippy.toml`) enforces that, which keeps every
//! timing source on one clock discipline (monotonic, nanosecond-resolution,
//! saturating) and keeps future clock swaps (virtual time in tests, coarse
//! clocks on hot paths) a one-crate change.

use std::time::{Duration, Instant};

/// A started monotonic stopwatch. Reading it does not stop it, so one
/// stopwatch can time successive laps against its origin or a fresh one
/// can be started per item.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since [`start`](Self::start), saturated into
    /// `u64` (580+ years) — the unit every span duration in the workspace
    /// is recorded in.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed time as a [`Duration`], for human-facing report output.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed() >= Duration::from_nanos(b));
    }

    #[test]
    fn measures_a_sleep() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(1));
        assert!(sw.elapsed_ns() >= 1_000_000);
    }
}
