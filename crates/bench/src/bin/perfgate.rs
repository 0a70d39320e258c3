//! The perf gate: the one reader of `harness` documents. It validates a
//! baseline and a current document, checks the current run's stage
//! budgets, compares the (scenario, stage) medians with noise-aware
//! thresholds, and says where the time went — naming the scenario, stage,
//! and span of every regression.
//!
//! Usage: `perfgate <baseline.json> <current.json>
//! [--scenarios a,b] [--rel FRAC] [--iqr-mult X] [--floor-ns N] [--github]`
//!
//! A stage regresses when `current_median > baseline_median +
//! max(rel × baseline_median, iqr_mult × max(IQRs), floor_ns)` — see
//! `deepeye_bench::diff::GateConfig` for the rationale behind each term.
//! The report lists the largest stage deltas, the span paths whose self
//! time moved the most (when both runs covered the same scenarios and
//! passes), and a headline naming the path below a regressed stage that
//! grew the most; `--github` adds the headline and the top significant
//! stages as `::notice` workflow commands.
//!
//! `--scenarios` restricts the comparison to a baseline subset, so a smoke
//! run can gate against a full-matrix baseline. The exit status is 1 on a
//! regression, a budget violation, an in-scope (scenario, stage) pair the
//! current run lacks, a scenario the baseline lacks, a `--scenarios`
//! value that names none (`,` or `""`), or an unreadable or invalid
//! document.

use deepeye_bench::diff::{diff_runs, parse_scenarios, GateConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = GateConfig::default();
    let mut paths: Vec<String> = Vec::new();
    let mut scenarios: Option<Vec<String>> = None;
    let mut github = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let parsed = match arg.as_str() {
            "--scenarios" => {
                value(&arg, args.next()).map(|v: String| scenarios = Some(parse_scenarios(&v)))
            }
            "--rel" => value(&arg, args.next()).map(|r| cfg.rel = r),
            "--iqr-mult" => value(&arg, args.next()).map(|m| cfg.iqr_mult = m),
            "--floor-ns" => value(&arg, args.next()).map(|f| cfg.floor_ns = f),
            "--github" => {
                github = true;
                Ok(())
            }
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
        .and_then(|(baseline, current)| diff_runs(&baseline, &current, &cfg, scenarios.as_deref()));
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfgate: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if github {
        for notice in report.github_notices() {
            println!("{notice}");
        }
    }
    let failures = report.failures();
    for failure in &failures {
        eprintln!("perfgate: {failure}");
    }
    if failures.is_empty() {
        println!(
            "perfgate: OK — {} stage(s) compared (rel {}, iqr-mult {}, floor {} ns), \
             no regression, every median within budget",
            report.stages.len(),
            cfg.rel,
            cfg.iqr_mult,
            cfg.floor_ns
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perfgate: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

/// The value after `flag`, parsed.
fn value<T: std::str::FromStr>(flag: &str, next: Option<String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let text = next.ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfgate <baseline.json> <current.json> \
         [--scenarios a,b] \
         [--rel FRAC] [--iqr-mult X] [--floor-ns N] [--github]"
    );
    ExitCode::FAILURE
}
