//! `deepeye-analyze`: the repo's own static-analysis and concurrency
//! checking toolbox.
//!
//! Two engines share this crate:
//!
//! * **Invariant linter** ([`lexer`], [`lint`], [`rules`], [`report`]) —
//!   a lightweight Rust lexer plus a rule framework enforcing the
//!   project invariants rustc and clippy cannot see: the clock
//!   discipline (`A0001`), observability call-site guards (`A0002`),
//!   no lock held across a recording callback (`A0003`), structured
//!   concurrency only (`A0006`), and one table of name families (sema
//!   codes, metric namespaces, cost operators) kept in sync with their
//!   registries, use sites and DESIGN.md sections ([`rules::FAMILIES`]).
//!   Rules produce `file:line` diagnostics, honour a checked-in
//!   `analyze.allow` baseline (expected to stay empty), and export
//!   machine-readable JSON validated by `trace_check --lint-report`.
//!
//!   On top of the lexer sits an interprocedural dataflow layer
//!   ([`cfg`](mod@cfg), [`callgraph`], [`dataflow`]): per-function CFG-lite
//!   extraction, a workspace call graph with receiver-type method
//!   resolution, and the `A0008`–`A0012` rules — static lock-order
//!   cycles, panic reachability from public APIs, dropped `Result`s,
//!   allocation in hot loops, and call-graph propagation of
//!   `is_enabled()` guard facts. Interprocedural findings carry their
//!   full `file:line` witness chain, reconstructed from one shared
//!   SCC-condensed reachability relation and capped at the first cycle.
//!
//!   Above that sits an abstract-interpretation layer ([`absint`],
//!   [`effects`]): a worklist fixpoint solver over the CFG-lite with
//!   pluggable join-semilattice domains — a finite effect lattice
//!   (alloc/lock/io/panic) and a widening interval lattice — computing
//!   bottom-up two-world (any-path / disabled-world) effect summaries
//!   over the Tarjan condensation. It powers `A0015` (the zero-cost
//!   theorem: disabled-path observability is effect-free), `A0016`
//!   (saturating counter arithmetic, interval-proven narrowing casts),
//!   `A0018` (no division by a possibly-zero abstract value), and
//!   `A0019` (the theorem statement in DESIGN.md §8 re-verified against
//!   the proof).
//!   The per-function summaries export as the `effects` array of the
//!   v3 JSON report.
//!
//! * **Loom-lite model checker** ([`model`]) — a deterministic
//!   cooperative scheduler that runs small 2–3-thread models of the
//!   repo's real concurrency (observer counter merging, span
//!   parenting, top-k work partitioning) under exhaustively enumerated
//!   or seeded-random interleavings, with vector-clock shadow state
//!   that reports data races, deadlocks, and failed assertions together
//!   with the schedule that produced them.
//!
//! The `analyze` binary drives both: `analyze --workspace` lints the
//! tree (`--effects` prints the zero-cost proof rows, `--rules` runs a
//! subset, `--list-rules` prints the catalog), `analyze --models`
//! explores the checked-in models.
//!
//! DESIGN.md §8 documents the rule catalog and the checker's scope and
//! limits; a doc-sync test keeps that section and [`rules::RULES`]
//! identical.

#![forbid(unsafe_code)]

pub mod absint;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod effects;
pub mod lexer;
pub mod lint;
pub mod model;
pub mod report;
pub mod rules;

pub use callgraph::Analysis;
pub use lint::{Baseline, CallGraphSummary, Diagnostic, LintOutcome, PathStep, Workspace};
pub use report::{lint_report_json, validate_lint_report, ReportSummary};
