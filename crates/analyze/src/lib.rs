//! `deepeye-analyze`: the repo's own static-analysis toolbox.
//!
//! One engine, in three layers over a lightweight Rust lexer:
//!
//! * **Invariant linter** ([`lexer`], [`lint`], [`rules`]) — a rule
//!   framework enforcing the project invariants rustc and clippy cannot
//!   see: observability call-site guards (`A0002`), and one table of name
//!   families (sema codes and metric namespaces) kept in sync with their
//!   registries, use sites and DESIGN.md sections ([`rules::FAMILIES`]).
//!   Rules produce `file:line` diagnostics and honour a checked-in
//!   `analyze.allow` baseline (expected to stay empty). The clock and
//!   thread disciplines are clippy's (`disallowed-types` /
//!   `disallowed-methods` in `clippy.toml`).
//!
//! * **Call graph** ([`cfg`](mod@cfg), [`callgraph`], [`dataflow`]):
//!   function extraction, a workspace call graph with receiver-type
//!   method resolution, and the `A0009`–`A0010` rules — panic
//!   reachability from public APIs and dropped `Result`s.
//!   Interprocedural findings carry their full `file:line` witness chain,
//!   reconstructed from one shared SCC-condensed reachability relation
//!   and capped at the first cycle.
//!
//! * **Effect summaries** ([`effects`]): per function, the union of the
//!   effects (alloc/lock/io/panic) its body marks and its callees have,
//!   computed bottom-up over the Tarjan condensation in two worlds
//!   (every token / disabled world). They power `A0015` (the zero-cost
//!   theorem: disabled-path observability is effect-free) and `A0019`
//!   (the theorem statement in DESIGN.md §8 re-verified against the
//!   proof).
//!
//! The `analyze` binary drives it: `analyze --workspace` lints the tree
//! (`--effects` prints the zero-cost proof rows, `--github` annotates
//! findings), and `analyze --list-rules` prints the catalog.
//!
//! DESIGN.md §8 documents the rule catalog; a doc-sync test keeps that
//! section and [`rules::RULES`] identical.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod effects;
pub mod lexer;
pub mod lint;
pub mod rules;

pub use callgraph::Analysis;
pub use lint::{Baseline, Diagnostic, LintOutcome, PathStep, Workspace};
