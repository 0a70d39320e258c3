//! The continuous-performance harness: runs the fixed scenario matrix
//! through the shipping pipeline — each repetition ingests the scenario
//! table's CSV bytes, then runs `recommend` and `recommend_progressive`.
//! Every stage sample is read from the span that stage opens
//! (`deepeye_bench::perf::STAGES`), and the run writes the versioned
//! `BENCH_results.json` document that `perfgate` reads.
//!
//! Usage: `harness [--smoke] [--out <path>] [--warmup N] [--reps N]`
//!
//! `--smoke` keeps only the smallest scenario (CI mode). For a flame view
//! of a run, the CLI's `--flame-out` renders the span tree of any command.

use deepeye_bench::perf::{results_json, run_scenario, scenario_matrix, Models, STAGES};
use deepeye_obs::Observer;
use std::process::ExitCode;

struct Args {
    smoke: bool,
    out: String,
    warmup: usize,
    reps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        out: "BENCH_results.json".to_owned(),
        warmup: 1,
        reps: 5,
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
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
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
    let eye = models.pipeline(&obs);
    let mut runs = Vec::new();
    for spec in scenario_matrix(args.smoke) {
        eprintln!(
            "  scenario {} — {} rows x {} columns",
            spec.name, spec.rows, spec.columns
        );
        runs.push(run_scenario(&spec, &eye, &STAGES, args.warmup, args.reps)?);
    }

    let out = &args.out;
    std::fs::write(out, results_json(&runs, &obs.snapshot()))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("harness: wrote results to {out}");
    println!("{}", obs.snapshot().stage_report());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harness: {e}");
            eprintln!("usage: harness [--smoke] [--out <path>] [--warmup N] [--reps N]");
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
