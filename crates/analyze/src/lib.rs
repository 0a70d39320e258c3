//! `deepeye-analyze`: the repo's own static-analysis toolbox.
//!
//! One engine, in three layers over a lightweight Rust lexer:
//!
//! * **Invariant linter** ([`lexer`], [`lint`], [`rules`]) — a rule
//!   framework enforcing the project invariants rustc and clippy cannot
//!   see: observability call-site guards (`A0002`), no lock held across a
//!   recording callback (`A0003`), and one table of name families (sema
//!   codes, metric namespaces, cost operators) kept in sync with their
//!   registries, use sites and DESIGN.md sections ([`rules::FAMILIES`]).
//!   Rules produce `file:line` diagnostics and honour a checked-in
//!   `analyze.allow` baseline (expected to stay empty). The clock and
//!   thread disciplines are clippy's (`disallowed-types` /
//!   `disallowed-methods` in `clippy.toml`).
//!
//! * **Interprocedural dataflow** ([`cfg`](mod@cfg), [`callgraph`],
//!   [`dataflow`]): per-function CFG-lite extraction, a workspace call
//!   graph with receiver-type method resolution, and the `A0008`–`A0012`
//!   rules — static lock-order cycles, panic reachability from public
//!   APIs, dropped `Result`s, and call-graph propagation of
//!   `is_enabled()` guard facts. Interprocedural findings carry their
//!   full `file:line` witness chain, reconstructed from one shared
//!   SCC-condensed reachability relation and capped at the first cycle.
//!
//! * **Abstract interpretation** ([`absint`], [`effects`]): a worklist
//!   fixpoint solver over the CFG-lite with pluggable join-semilattice
//!   domains — a finite effect lattice (alloc/lock/io/panic) and a
//!   widening interval lattice — computing bottom-up two-world
//!   (any-path / disabled-world) effect summaries over the Tarjan
//!   condensation. It powers `A0015` (the zero-cost theorem:
//!   disabled-path observability is effect-free), `A0018` (no division
//!   by a possibly-zero abstract value), and `A0019` (the theorem
//!   statement in DESIGN.md §8 re-verified against the proof).
//!
//! The `analyze` binary drives it: `analyze --workspace` lints the tree
//! (`--effects` prints the zero-cost proof rows, `--rules` runs a subset,
//! `--github` annotates findings), and `analyze --list-rules` prints the
//! catalog.
//!
//! DESIGN.md §8 documents the rule catalog; a doc-sync test keeps that
//! section and [`rules::RULES`] identical.

#![forbid(unsafe_code)]

pub mod absint;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod effects;
pub mod lexer;
pub mod lint;
pub mod rules;

pub use callgraph::Analysis;
pub use lint::{Baseline, Diagnostic, LintOutcome, PathStep, Workspace};
