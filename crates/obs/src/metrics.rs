//! The central metric registry: every counter and histogram name the
//! pipeline may record.
//!
//! Instrumentation sites across the product crates pass name literals to
//! [`Observer::incr`](crate::Observer::incr) /
//! [`Observer::timer`](crate::Observer::timer) /
//! [`Observer::record_ns`](crate::Observer::record_ns); nothing ties those
//! literals together at the type level, so a typo silently forks a metric
//! (`exec.ok` vs `exec.okay`) and dashboards read zeros. This module is
//! the single source of truth: rule `A0005` of `deepeye-analyze`'s
//! name-sync table fails the build when a literal in an `Observer` call
//! outside this crate names an unregistered metric, when a registered
//! name is recorded nowhere (a dead entry is a doc lie), or when this
//! registry and DESIGN.md §6 "Metric names" disagree.
//!
//! Adding a metric is a three-line change: the call site, this registry,
//! and DESIGN.md §6.

/// Every counter name ([`Observer::incr`](crate::Observer::incr)) the
/// pipeline records, sorted.
pub const COUNTERS: &[&str] = &[
    "enumerate.candidates",
    "enumerate.raw",
    "exec.err",
    "exec.ok",
    "ltr.docs",
    "ltr.epochs",
    "ltr.groups",
    "progressive.leaves_materialized",
    "progressive.leaves_pruned",
    "progressive.leaves_total",
    "progressive.nodes_generated",
    "progressive.shared_scans",
    "rank.nodes",
    "recognize.kept",
    "recognize.rejected",
    "sema.rejected",
];

/// Every histogram name ([`Observer::timer`](crate::Observer::timer),
/// [`Observer::record_ns`](crate::Observer::record_ns),
/// [`Observer::record_many_ns`](crate::Observer::record_many_ns)) the
/// pipeline records, sorted.
pub const HISTOGRAMS: &[&str] = &["ltr.epoch_ns", "progressive.leaf_ns"];

/// Whether `name` is a registered counter.
pub fn is_counter(name: &str) -> bool {
    COUNTERS.binary_search(&name).is_ok()
}

/// Whether `name` is a registered histogram.
pub fn is_histogram(name: &str) -> bool {
    HISTOGRAMS.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_sorted_and_unique() {
        for list in [COUNTERS, HISTOGRAMS] {
            for pair in list.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "{} must sort before {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn counters_and_histograms_are_disjoint() {
        for c in COUNTERS {
            assert!(!is_histogram(c), "{c} registered as both kinds");
        }
    }

    #[test]
    fn lookups() {
        assert!(is_counter("exec.ok"));
        assert!(!is_counter("exec.okay"));
        assert!(is_histogram("progressive.leaf_ns"));
        assert!(!is_histogram("exec.ok"));
    }

    #[test]
    fn names_are_well_formed() {
        for name in COUNTERS.iter().chain(HISTOGRAMS) {
            assert!(
                name.contains('.')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "metric name {name:?} must be dotted lowercase"
            );
        }
    }
}
