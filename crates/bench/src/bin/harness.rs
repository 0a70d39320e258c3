//! The continuous-performance harness: runs the fixed scenario matrix
//! (table shapes × the five pipeline stages) plus an `analyze-workspace`
//! scenario timing the static-analysis pass over the repository source,
//! times each stage over warmup + repeated runs on the span clock, and
//! writes the versioned `BENCH_results.json` document that `perfgate`
//! diffs and `trace_check --bench --budgets` validates.
//!
//! Usage: `harness [--smoke] [--out <path>] [--warmup N] [--reps N]
//! [--stacks <path>] [--flame <path>] [--cost-out <path>]`
//!
//! `--cost-out` runs the execute stage with per-candidate cost profiling
//! and writes the `deepeye-cost/v1` operator-attribution document (after
//! asserting the per-candidate totals equal the `cost.*` counters the
//! workers flushed, and running it through the validator).
//!
//! `--smoke` keeps only the smallest scenario (CI mode). `--stacks` /
//! `--flame` additionally export the run's span tree as a folded-stack
//! file / self-contained flame SVG.

// Experiment drivers are report scripts: aborting on a broken
// invariant is the right behavior, so the workspace unwrap/panic
// lints are relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::perf::{
    record_stage_samples, results_json, scenario_matrix, RobustTiming, ScenarioRun, Stage,
};
use deepeye_core::{
    build_nodes, rank_by_partial_order, ClassifierKind, ProgressiveSelector, Recognizer,
};
use deepeye_datagen::{build_table, recognition_examples, training_tables, PerceptionOracle};
use deepeye_obs::{validate_cost_json, CostCollector, Observer, Op, Stopwatch};
use deepeye_query::UdfRegistry;
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

/// Time one stage: warmup runs (discarded), then `reps` timed runs on the
/// span clock, each under the stage's span so the trace, flame view, and
/// `alloc.*` aggregates attribute the work. The closure receives the
/// stage span's id so cross-thread work (the parallel executor's worker
/// spans) parents under the stage being measured. Returns the raw
/// samples.
fn time_stage<T>(
    obs: &Observer,
    stage: Stage,
    warmup: usize,
    reps: usize,
    mut run: impl FnMut(Option<deepeye_obs::SpanId>) -> T,
) -> Vec<u64> {
    for _ in 0..warmup {
        let span = obs.span(stage.span_name());
        std::hint::black_box(run(span.id()));
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let span = obs.span(stage.span_name());
        let clock = Stopwatch::start();
        std::hint::black_box(run(span.id()));
        samples.push(clock.elapsed_ns());
    }
    samples
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
    std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("harness: wrote executor cost report to {path}");
    eprint!("{}", report.cost_table());
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
    eprintln!(
        "harness: {} matrix, warmup {}, reps {}",
        if args.smoke { "smoke" } else { "full" },
        args.warmup,
        args.reps
    );

    // Offline phase (untimed): train the recognizer and the LTR ranker
    // once; the matrix measures the online pipeline only.
    let oracle = PerceptionOracle::default();
    let train = training_tables(0.03);
    let recognizer = Recognizer::train(
        ClassifierKind::DecisionTree,
        &recognition_examples(&train, &oracle),
    );
    let ltr = deepeye_bench::efficiency::offline_ltr(0.03, &oracle);

    let obs = Observer::enabled();
    let costs = if args.cost_out.is_some() {
        CostCollector::enabled()
    } else {
        CostCollector::disabled()
    };
    let udfs = UdfRegistry::default();
    let mut runs: Vec<ScenarioRun> = Vec::new();
    for spec in scenario_matrix(args.smoke) {
        let table = build_table(&spec.corpus_spec());
        eprintln!(
            "  scenario {} — {} rows x {} columns",
            spec.name,
            table.row_count(),
            table.column_count()
        );
        let mut stages: Vec<(Stage, RobustTiming)> = Vec::new();
        let queries = deepeye_core::rules::rule_based_queries(&table);
        let nodes = build_nodes(
            &table,
            queries.clone(),
            &udfs,
            false,
            true,
            &obs,
            None,
            &CostCollector::disabled(),
        );
        for stage in Stage::PIPELINE {
            let samples = match stage {
                Stage::Enumerate => time_stage(&obs, stage, args.warmup, args.reps, |_| {
                    deepeye_core::rules::rule_based_queries(&table)
                }),
                Stage::Execute => time_stage(&obs, stage, args.warmup, args.reps, |parent| {
                    build_nodes(
                        &table,
                        queries.clone(),
                        &udfs,
                        true,
                        true,
                        &obs,
                        parent,
                        &costs,
                    )
                }),
                Stage::Recognize => time_stage(&obs, stage, args.warmup, args.reps, |_| {
                    nodes.iter().filter(|n| recognizer.is_good(n)).count()
                }),
                // The two rankings `Hybrid` combines.
                Stage::Rank => time_stage(&obs, stage, args.warmup, args.reps, |_| {
                    (rank_by_partial_order(&nodes), ltr.rank(&nodes))
                }),
                Stage::TopK => time_stage(&obs, stage, args.warmup, args.reps, |_| {
                    ProgressiveSelector::new(&table, &udfs).top_k_observed(10, &obs)
                }),
                Stage::Analyze => unreachable!("analyze runs in its own scenario"),
            };
            record_stage_samples(&obs, stage, &samples);
            stages.push((stage, RobustTiming::from_samples(&samples)));
        }
        runs.push(ScenarioRun {
            name: spec.name.to_owned(),
            rows: table.row_count(),
            columns: table.column_count(),
            stages,
        });
    }

    // The static-analysis pass gets its own scenario: it measures the
    // workspace source (lex + call graph + interprocedural rules), not a
    // scenario table, so `rows`/`columns` report files scanned and rule
    // count instead of a table shape.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root exists");
    let files_scanned = deepeye_analyze::Workspace::load(root)
        .expect("workspace loads")
        .files
        .len();
    eprintln!(
        "  scenario analyze-workspace — {} files x {} rules",
        files_scanned,
        deepeye_analyze::rules::RULES.len()
    );
    let samples = time_stage(&obs, Stage::Analyze, args.warmup, args.reps, |_| {
        let ws = deepeye_analyze::Workspace::load(root).expect("workspace loads");
        deepeye_analyze::lint::run(&ws, &deepeye_analyze::Baseline::default())
    });
    record_stage_samples(&obs, Stage::Analyze, &samples);
    runs.push(ScenarioRun {
        name: "analyze-workspace".to_owned(),
        rows: files_scanned,
        columns: deepeye_analyze::rules::RULES.len(),
        stages: vec![(Stage::Analyze, RobustTiming::from_samples(&samples))],
    });

    let json = results_json(&runs, &obs.snapshot());
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("harness: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("harness: wrote {}", args.out);
    if let Some(path) = &args.stacks {
        if let Err(e) = std::fs::write(path, obs.folded_stacks()) {
            eprintln!("harness: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("harness: wrote folded stacks to {path}");
    }
    if let Some(path) = &args.flame {
        if let Err(e) = std::fs::write(path, obs.flame_svg()) {
            eprintln!("harness: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("harness: wrote flame SVG to {path}");
    }
    if let Some(path) = &args.cost_out {
        if let Err(e) = write_cost_report(path, &costs, &obs) {
            eprintln!("harness: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", obs.snapshot().stage_report());
    ExitCode::SUCCESS
}
