//! The continuous-performance harness: runs the fixed scenario matrix
//! through the shipping pipeline — each repetition ingests the scenario
//! table's CSV bytes, then runs `recommend` and `recommend_progressive`.
//! Every stage sample is read from the span that stage opens
//! (`deepeye_bench::perf::STAGES`), and the run writes the versioned
//! `BENCH_results.json` document that `perfgate` diffs and `trace_check
//! --bench --budgets` validates.
//!
//! Usage: `harness [--smoke] [--out <path>] [--warmup N] [--reps N]
//! [--stacks <path>] [--flame <path>] [--cost-out <path>]`
//!
//! `--cost-out` runs the pipeline with per-candidate cost profiling and
//! writes the `deepeye-cost/v1` operator-attribution document (after
//! asserting the per-candidate totals equal the `cost.*` counters the
//! workers flushed, and running it through the validator).
//!
//! `--smoke` keeps only the smallest scenario (CI mode). `--stacks` /
//! `--flame` additionally export the run's span tree as a folded-stack
//! file / self-contained flame SVG.

use deepeye_bench::perf::{results_json, run_scenario, scenario_matrix, Models, STAGES};
use deepeye_obs::{validate_cost_json, CostCollector, Observer, Op};
use std::process::ExitCode;

struct Args {
    smoke: bool,
    out: String,
    warmup: usize,
    reps: usize,
    stacks: Option<String>,
    flame: Option<String>,
    cost_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        out: "BENCH_results.json".to_owned(),
        warmup: 1,
        reps: 5,
        stacks: None,
        flame: None,
        cost_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = value("--out")?,
            "--warmup" => {
                parsed.warmup = value("--warmup")?
                    .parse()
                    .map_err(|e| format!("--warmup: {e}"))?;
            }
            "--reps" => {
                let reps: usize = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
                parsed.reps = reps;
            }
            "--stacks" => parsed.stacks = Some(value("--stacks")?),
            "--flame" => parsed.flame = Some(value("--flame")?),
            "--cost-out" => parsed.cost_out = Some(value("--cost-out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Write the executor cost report, first checking the exactness
/// invariant — the collector's per-candidate totals must equal the
/// registry's `cost.*` counters, which are flushed inside the
/// `execute.worker` spans (so a mismatch means a worker's work escaped
/// attribution) — then the document's own validator. Also prints the
/// per-group rollup table to stderr.
fn write_cost_report(path: &str, costs: &CostCollector, obs: &Observer) -> Result<(), String> {
    let report = costs.report();
    let snap = obs.snapshot();
    for op in Op::ALL {
        let counter = snap.counter(op.metric());
        let total = report.totals.get(op);
        if total != counter {
            return Err(format!(
                "cost invariant broke: collector total {total} for {} != worker counter {counter}",
                op.metric()
            ));
        }
    }
    let doc = report.to_json();
    validate_cost_json(&doc).map_err(|e| format!("cost document invalid: {e}"))?;
    write(path, &doc, "executor cost report")?;
    eprint!("{}", report.cost_table());
    Ok(())
}

fn write(path: &str, text: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("harness: wrote {what} to {path}");
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    eprintln!(
        "harness: {} matrix, warmup {}, reps {}",
        if args.smoke { "smoke" } else { "full" },
        args.warmup,
        args.reps
    );
    // Offline phase (untimed): train the recognizer and the LTR ranker
    // once; the matrix measures the online pipeline only.
    let models = Models::train(0.03);
    let obs = Observer::enabled();
    let costs = if args.cost_out.is_some() {
        CostCollector::enabled()
    } else {
        CostCollector::disabled()
    };
    let eye = models.pipeline(&obs, &costs);
    let mut runs = Vec::new();
    for spec in scenario_matrix(args.smoke) {
        eprintln!(
            "  scenario {} — {} rows x {} columns",
            spec.name, spec.rows, spec.columns
        );
        runs.push(run_scenario(&spec, &eye, &STAGES, args.warmup, args.reps)?);
    }

    write(&args.out, &results_json(&runs, &obs.snapshot()), "results")?;
    if let Some(path) = &args.stacks {
        write(path, &obs.folded_stacks(), "folded stacks")?;
    }
    if let Some(path) = &args.flame {
        write(path, &obs.flame_svg(), "flame SVG")?;
    }
    if let Some(path) = &args.cost_out {
        write_cost_report(path, &costs, &obs)?;
    }
    println!("{}", obs.snapshot().stage_report());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harness: {e}");
            eprintln!(
                "usage: harness [--smoke] [--out <path>] [--warmup N] [--reps N] \
                 [--stacks <path>] [--flame <path>] [--cost-out <path>]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::FAILURE
        }
    }
}
