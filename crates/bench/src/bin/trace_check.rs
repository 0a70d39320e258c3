//! Validate the JSON artifacts the observability and provenance layers
//! export:
//!
//! - Chrome trace-event files (`--trace-out`, `DEEPEYE_TRACE_OUT`):
//!   well-formed JSON, known phase types, balanced name-matched B/E
//!   pairs, monotone per-lane timestamps.
//! - Metrics files (`--metrics-out`, `DEEPEYE_METRICS_OUT`): schema,
//!   non-negative integer counters, internally consistent histogram
//!   summaries (`min ≤ p50 ≤ p95 ≤ p99 ≤ max`).
//! - Provenance files (`--provenance-out`): schema, known outcomes, the
//!   tournament leaf invariant, and hybrid scores that recompute from
//!   their recorded parts.
//! - Lint reports (`--lint-report`, from `analyze --workspace --json`):
//!   schema, codes drawn from the rule catalog, and the stable
//!   (file, line, code) diagnostic ordering.
//! - Bench results (`--bench`, from `harness` or `fig12_efficiency`'s
//!   `DEEPEYE_BENCH_OUT`): versioned schema, stage rows naming their
//!   spans, internally consistent robust timings.
//! - Stage budgets (`--budgets`): a harness document's per-stage medians
//!   against the ceilings of the stage table (`deepeye_bench::perf::STAGES`).
//! - Executor cost reports (`--cost`, from `harness --cost-out` or the
//!   CLI `--cost-out`): `deepeye-cost/v1` schema, the operator
//!   taxonomy, and the exactness invariant — per-candidate costs sum
//!   to the worker flush totals, the rollup groups, and the grand
//!   totals, per operator.
//!
//! Usage: `trace_check [<trace.json> ...] [--metrics <metrics.json>]...
//! [--provenance <prov.json>]... [--lint-report <report.json>]...
//! [--bench <bench.json>]... [--budgets <bench.json>]...
//! [--cost <cost.json>]...`
//!
//! Exits nonzero (via `ExitCode`, so the workspace `clippy::exit` lint
//! stays intact) if any file fails validation — CI runs this against the
//! quickstart example's exports.

use deepeye_analyze::validate_lint_report;
use deepeye_bench::perf::{check_budgets, validate_bench_json};
use deepeye_core::validate_provenance_json;
use deepeye_obs::{validate_chrome_trace, validate_cost_json, validate_metrics_json};
use std::process::ExitCode;

enum Kind {
    Trace,
    Metrics,
    Provenance,
    LintReport,
    Bench,
    Budgets,
    Cost,
}

fn main() -> ExitCode {
    let mut jobs: Vec<(Kind, String)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => match args.next() {
                Some(path) => jobs.push((Kind::Metrics, path)),
                None => return usage(),
            },
            "--provenance" => match args.next() {
                Some(path) => jobs.push((Kind::Provenance, path)),
                None => return usage(),
            },
            "--lint-report" => match args.next() {
                Some(path) => jobs.push((Kind::LintReport, path)),
                None => return usage(),
            },
            "--bench" => match args.next() {
                Some(path) => jobs.push((Kind::Bench, path)),
                None => return usage(),
            },
            "--budgets" => match args.next() {
                Some(path) => jobs.push((Kind::Budgets, path)),
                None => return usage(),
            },
            "--cost" => match args.next() {
                Some(path) => jobs.push((Kind::Cost, path)),
                None => return usage(),
            },
            _ => jobs.push((Kind::Trace, arg)),
        }
    }
    if jobs.is_empty() {
        return usage();
    }
    let mut failed = false;
    for (kind, path) in &jobs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        match kind {
            Kind::Trace => match validate_chrome_trace(&text) {
                Ok(summary) => {
                    println!(
                        "{path}: ok — {} events, {} spans, depth {}, {} thread lane(s)",
                        summary.events, summary.spans, summary.max_depth, summary.threads
                    );
                    if summary.spans == 0 {
                        eprintln!("{path}: no spans recorded — was the observer enabled?");
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("{path}: INVALID — {e}");
                    failed = true;
                }
            },
            Kind::Metrics => match validate_metrics_json(&text) {
                Ok(summary) => {
                    println!(
                        "{path}: ok — {} counters, {} histograms, {} stages",
                        summary.counters, summary.histograms, summary.stages
                    );
                    if summary.stages == 0 {
                        eprintln!("{path}: no stages recorded — was the observer enabled?");
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("{path}: INVALID — {e}");
                    failed = true;
                }
            },
            Kind::Provenance => match validate_provenance_json(&text) {
                Ok(summary) => {
                    println!(
                        "{path}: ok — {} records ({} ranked, {} rejected/pruned)",
                        summary.records, summary.ranked, summary.rejected
                    );
                    if summary.records == 0 {
                        eprintln!("{path}: no records — was provenance enabled?");
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("{path}: INVALID — {e}");
                    failed = true;
                }
            },
            Kind::Bench => match validate_bench_json(&text) {
                Ok(summary) => {
                    println!(
                        "{path}: ok — {} with {} scenario(s), {} stage row(s)",
                        summary.experiment, summary.scenarios, summary.stage_rows
                    );
                }
                Err(e) => {
                    eprintln!("{path}: INVALID — {e}");
                    failed = true;
                }
            },
            Kind::Budgets => match check_budgets(&text) {
                Ok(violations) if violations.is_empty() => {
                    println!("{path}: ok — all stage medians within budget");
                }
                Ok(violations) => {
                    for v in &violations {
                        eprintln!("{path}: {v}");
                    }
                    failed = true;
                }
                Err(e) => {
                    eprintln!("{path}: INVALID — {e}");
                    failed = true;
                }
            },
            Kind::Cost => match validate_cost_json(&text) {
                Ok(summary) => {
                    println!(
                        "{path}: ok — {} candidate(s), {} worker flush(es), {} group(s), \
                         {} total op(s)",
                        summary.candidates, summary.workers, summary.groups, summary.total_ops
                    );
                    if summary.candidates == 0 {
                        eprintln!("{path}: no candidates recorded — was cost profiling enabled?");
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("{path}: INVALID — {e}");
                    failed = true;
                }
            },
            Kind::LintReport => match validate_lint_report(&text) {
                Ok(summary) => {
                    println!(
                        "{path}: ok — {} rules over {} files: {} violation(s), {} suppressed; \
                         call graph: {}/{} calls resolved across {} functions; \
                         effects: {}/{} theorem-scoped functions pure when disabled",
                        summary.rules,
                        summary.files_scanned,
                        summary.diagnostics,
                        summary.suppressed,
                        summary.resolved,
                        summary.calls,
                        summary.functions,
                        summary.pure_when_disabled,
                        summary.effect_rows
                    );
                    if summary.diagnostics > 0 {
                        eprintln!("{path}: report records unsuppressed violations");
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("{path}: INVALID — {e}");
                    failed = true;
                }
            },
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace_check [<trace.json> ...] [--metrics <metrics.json>]... \
         [--provenance <prov.json>]... [--lint-report <report.json>]... \
         [--bench <bench.json>]... [--budgets <bench.json>]... \
         [--cost <cost.json>]..."
    );
    ExitCode::FAILURE
}
