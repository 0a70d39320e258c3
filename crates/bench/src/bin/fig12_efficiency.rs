//! Figure 12: end-to-end running time per test dataset under the four
//! configurations {E, R} × {L, P}, with the enumeration/selection split
//! annotated per bar.
//!
//! Paper findings to reproduce (shape, not absolute times — different
//! hardware): (1) R* always beats E*; (2) *P always beats *L; (3) whole
//! pipelines finish in seconds for reasonably sized data.

// Experiment drivers are report scripts: aborting on a broken
// invariant is the right behavior, so the workspace unwrap/panic
// lints are relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::fmt::{ms, TextTable};
use deepeye_bench::{efficiency, scale_from_env};
use deepeye_datagen::{build_table, test_specs, PerceptionOracle};
use deepeye_obs::Observer;
use std::process::ExitCode;

fn main() -> ExitCode {
    let scale = scale_from_env();
    println!("== Figure 12: efficiency (scale {scale}) ==\n");
    let oracle = PerceptionOracle::default();
    eprintln!("(offline) training learning-to-rank model …");
    let ltr = efficiency::offline_ltr(scale.min(0.1), &oracle);
    let obs = Observer::enabled();
    let mut findings_inverted = 0usize;

    let mut t = TextTable::new([
        "dataset",
        "config",
        "total",
        "enumerate",
        "select",
        "split",
        "#-candidates",
    ]);
    for (i, spec) in test_specs().iter().enumerate() {
        let table = build_table(&spec.scaled(scale));
        eprintln!(
            "running X{} ({}) — {} rows …",
            i + 1,
            spec.name,
            table.row_count()
        );
        let bars = efficiency::run_table_observed(&table, &ltr, 10, &obs);
        for bar in &bars {
            t.row([
                format!("X{}", i + 1),
                bar.label().to_owned(),
                ms(bar.total()),
                ms(bar.enumerate_time),
                ms(bar.select_time),
                bar.annotation(),
                bar.candidates.to_string(),
            ]);
        }
        // Assert the paper's relative findings as we go.
        let get = |l: &str| {
            bars.iter()
                .find(|b| b.label() == l)
                .expect("present")
                .total()
        };
        if get("RL") > get("EL") || get("RP") > get("EP") {
            eprintln!("  note: rules did not speed up X{} at this scale", i + 1);
            findings_inverted += 1;
        }
    }
    t.print();
    println!(
        "\nPaper: RL/RP always faster than EL/EP (rules prune bad candidates);\n\
         EP/RP faster than EL/RL (partial order prunes, LTR scores everything);\n\
         seconds-scale end to end."
    );
    // DEEPEYE_TRACE_OUT=<path> exports the whole run as a Chrome trace
    // (load in Perfetto / chrome://tracing to see the phase timeline).
    if let Ok(path) = std::env::var("DEEPEYE_TRACE_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, obs.chrome_trace_json()).expect("write trace file");
            eprintln!("wrote Chrome trace to {path}");
        }
    }
    // Tiny scales are dominated by constant costs, so an inverted finding
    // there is noise; at report scale it is a real failure and the run
    // must say so in its exit status.
    if scale >= 0.5 && findings_inverted > 0 {
        eprintln!("fig12: {findings_inverted} dataset(s) inverted the paper's R-vs-E finding");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
