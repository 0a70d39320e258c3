//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the end-to-end benchmark and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable account goes to stderr. Exits nonzero
//! when any request failed or mismatched its reference.
//!
//! Workloads: `recommend-wide`, `recommend-tall`, `progressive-tall`.

use deepeye_perfbench::{run, Options, Workload};
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::RecommendWide,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                opts.seconds = seconds;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <recommend-wide|recommend-tall|progressive-tall> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            eprint!("{}", report.summary);
            println!("{}", report.json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
