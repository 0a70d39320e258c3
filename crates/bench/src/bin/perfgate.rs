//! The perf-regression gate: compare two `harness` result documents
//! (baseline vs current) with noise-aware thresholds and exit nonzero
//! when any (scenario, stage) median regressed past its allowance —
//! naming the scenario, stage, and span in the verdict. Documents of
//! different schema versions are refused, not compared.
//!
//! Usage: `perfgate <baseline.json> <current.json>
//! [--scenarios a,b] [--rel FRAC] [--iqr-mult X] [--floor-ns N]`
//!
//! A stage regresses when `current_median > baseline_median +
//! max(rel × baseline_median, iqr_mult × max(IQRs), floor_ns)` — see
//! `deepeye_bench::perf::GateConfig` for the rationale behind each term.
//!
//! `--scenarios` restricts the gate to a baseline subset, so a smoke
//! run can gate against a full-matrix baseline without tripping the
//! lost-coverage error. `perfdiff` attributes a failure to the span
//! paths that grew.

// Experiment drivers are report scripts: aborting on a broken
// invariant is the right behavior, so the workspace unwrap/panic
// lints are relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::perf::{perf_gate_scoped, GateConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = GateConfig::default();
    let mut paths: Vec<String> = Vec::new();
    let mut scenarios: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => Ok(v),
            None => Err(format!("{flag} needs a value")),
        };
        let parsed = match arg.as_str() {
            "--scenarios" => value("--scenarios").map(|v| {
                scenarios = Some(
                    v.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect(),
                );
            }),
            "--rel" => value("--rel").and_then(|v| {
                v.parse()
                    .map(|r| cfg.rel = r)
                    .map_err(|e| format!("--rel: {e}"))
            }),
            "--iqr-mult" => value("--iqr-mult").and_then(|v| {
                v.parse()
                    .map(|m| cfg.iqr_mult = m)
                    .map_err(|e| format!("--iqr-mult: {e}"))
            }),
            "--floor-ns" => value("--floor-ns").and_then(|v| {
                v.parse()
                    .map(|f| cfg.floor_ns = f)
                    .map_err(|e| format!("--floor-ns: {e}"))
            }),
            _ => {
                paths.push(arg);
                Ok(())
            }
        };
        if let Err(e) = parsed {
            eprintln!("perfgate: {e}");
            return usage();
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return usage();
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let report = read(baseline_path)
        .and_then(|baseline| read(current_path).map(|current| (baseline, current)))
        .and_then(|(baseline, current)| {
            perf_gate_scoped(&baseline, &current, &cfg, scenarios.as_deref())
        });
    match report {
        Ok(report) => {
            println!(
                "perfgate: compared {} stage(s) (rel {}, iqr-mult {}, floor {} ns)",
                report.compared, cfg.rel, cfg.iqr_mult, cfg.floor_ns
            );
            if report.regressions.is_empty() {
                println!("perfgate: OK — no regressions");
                ExitCode::SUCCESS
            } else {
                for r in &report.regressions {
                    eprintln!("perfgate: {}", r.describe());
                }
                eprintln!("perfgate: {} regression(s)", report.regressions.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfgate: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfgate <baseline.json> <current.json> \
         [--scenarios a,b] \
         [--rel FRAC] [--iqr-mult X] [--floor-ns N]"
    );
    ExitCode::FAILURE
}
