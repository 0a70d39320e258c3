//! Cross-run performance differ: compare two `harness` result documents
//! and explain *why* the numbers moved, not just that they did. Stage
//! medians are diffed with the same noise-aware allowance `perfgate`
//! enforces (so the two tools never disagree about significance), and
//! span-path self times from folded-stack files (or the documents'
//! `"stages"` tails) rank where the wall time went — e.g. "execute
//! regressed 1.9 ms; most growth in
//! …/pipeline.execute/execute.worker/execute.features (+1.8 ms)".
//!
//! Usage: `perfdiff <baseline.json> <current.json>
//! [--stacks-base F --stacks-cur F] [--rel FRAC] [--iqr-mult X]
//! [--floor-ns N] [--top N] [--github]`
//!
//! Exit status: 0 on a successful diff (even one full of regressions —
//! `perfdiff` diagnoses, `perfgate` gates), nonzero on unreadable or
//! invalid inputs.

// Experiment drivers are report scripts: aborting on a broken
// invariant is the right behavior, so the workspace unwrap/panic
// lints are relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::diff::diff_runs;
use deepeye_bench::perf::GateConfig;
use std::process::ExitCode;

#[derive(Default)]
struct Args {
    baseline: Option<String>,
    current: Option<String>,
    stacks_base: Option<String>,
    stacks_cur: Option<String>,
    top: usize,
    github: bool,
}

fn main() -> ExitCode {
    let mut cfg = GateConfig::default();
    let mut parsed = Args {
        top: 10,
        ..Args::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => Ok(v),
            None => Err(format!("{flag} needs a value")),
        };
        let result = match arg.as_str() {
            "--stacks-base" => value("--stacks-base").map(|v| parsed.stacks_base = Some(v)),
            "--stacks-cur" => value("--stacks-cur").map(|v| parsed.stacks_cur = Some(v)),
            "--top" => value("--top").and_then(|v| {
                v.parse()
                    .map(|n| parsed.top = n)
                    .map_err(|e| format!("--top: {e}"))
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
            "--github" => {
                parsed.github = true;
                Ok(())
            }
            _ if parsed.baseline.is_none() => {
                parsed.baseline = Some(arg);
                Ok(())
            }
            _ if parsed.current.is_none() => {
                parsed.current = Some(arg);
                Ok(())
            }
            other => Err(format!("unexpected argument {other:?}")),
        };
        if let Err(e) = result {
            eprintln!("perfdiff: {e}");
            return usage();
        }
    }
    let (Some(baseline_path), Some(current_path)) = (&parsed.baseline, &parsed.current) else {
        return usage();
    };
    // Both stack files or neither — a one-sided diff would silently
    // compare against nothing.
    if parsed.stacks_base.is_some() != parsed.stacks_cur.is_some() {
        eprintln!("perfdiff: --stacks-base/--stacks-cur must be given together");
        return usage();
    }
    match run(&parsed, baseline_path, current_path, &cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfdiff: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    parsed: &Args,
    baseline_path: &str,
    current_path: &str,
    cfg: &GateConfig,
) -> Result<(), String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let stacks = match (&parsed.stacks_base, &parsed.stacks_cur) {
        (Some(b), Some(c)) => Some((read(b)?, read(c)?)),
        _ => None,
    };
    let report = diff_runs(
        &baseline,
        &current,
        stacks.as_ref().map(|(b, c)| (b.as_str(), c.as_str())),
        cfg,
    )?;
    print!("{}", report.render(parsed.top));
    if parsed.github {
        for notice in report.github_notices(parsed.top.min(3)) {
            println!("{notice}");
        }
    }
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfdiff <baseline.json> <current.json> \
         [--stacks-base F --stacks-cur F] \
         [--rel FRAC] [--iqr-mult X] [--floor-ns N] [--top N] [--github]"
    );
    ExitCode::FAILURE
}
