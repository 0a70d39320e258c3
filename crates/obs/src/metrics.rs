//! The central metric registry: every counter name the pipeline may
//! record.
//!
//! Instrumentation sites across the product crates pass name literals to
//! [`Observer::incr`](crate::Observer::incr); nothing ties those
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_sorted_and_unique() {
        for pair in COUNTERS.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{} must sort before {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn names_are_well_formed() {
        for name in COUNTERS {
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
