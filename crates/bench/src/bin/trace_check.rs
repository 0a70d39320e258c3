//! Validate the JSON artifacts the observability and provenance layers
//! export:
//!
//! - Chrome trace-event files (`--trace-out`, `DEEPEYE_TRACE_OUT`):
//!   well-formed JSON, known phase types, balanced name-matched B/E
//!   pairs, monotone per-lane timestamps.
//! - Metrics files (`--metrics-out`, `DEEPEYE_METRICS_OUT`): schema,
//!   non-negative integer counters, ordered stage quantiles
//!   (`p50 ≤ p95 ≤ p99 ≤ total`).
//! - Provenance files (`--provenance-out`): schema, known outcomes, the
//!   tournament leaf invariant, and hybrid scores that recompute from
//!   their recorded parts.
//!
//! Usage: `trace_check [<trace.json> ...] [--metrics <metrics.json>]...
//! [--provenance <prov.json>]...`
//!
//! Exits nonzero (via `ExitCode`, so the workspace `clippy::exit` lint
//! stays intact) if any file fails validation — CI runs this against the
//! quickstart example's and the CLI's exports. `harness` documents have
//! their own reader, `perfgate`.

use deepeye_core::validate_provenance_json;
use deepeye_obs::{validate_chrome_trace, validate_metrics_json};
use std::process::ExitCode;

enum Kind {
    Trace,
    Metrics,
    Provenance,
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
                        "{path}: ok — {} counters, {} stages",
                        summary.counters, summary.stages
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
         [--provenance <prov.json>]..."
    );
    ExitCode::FAILURE
}
