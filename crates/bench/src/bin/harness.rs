//! The continuous-performance harness: runs the fixed scenario matrix
//! (table shapes × the five pipeline stages) plus an `analyze-workspace`
//! scenario timing the static-analysis pass over the repository source,
//! times each stage over warmup + repeated runs on the span clock, and
//! writes the versioned `BENCH_results.json` document that `perfgate`
//! diffs and `trace_check --bench --budgets` validates.
//!
//! Usage: `harness [--smoke] [--out <path>] [--warmup N] [--reps N]
//! [--stacks <path>] [--flame <path>] [--cost-out <path>]
//! [--soak N [--capacity C] [--telemetry-out <path>]
//! [--health-out <path>] [--slo metric=max]...]`
//!
//! `--cost-out` runs the execute stage with per-candidate cost profiling
//! and writes the `deepeye-cost/v1` operator-attribution document (after
//! asserting the per-candidate totals equal the `cost.*` counters the
//! workers flushed, and running it through the validator).
//!
//! `--smoke` keeps only the smallest scenario (CI mode). `--stacks` /
//! `--flame` additionally export the run's span tree as a folded-stack
//! file / self-contained flame SVG.
//!
//! `--soak N` switches to flight-recorder mode: the pipeline runs N
//! times under a bounded recorder (`--capacity`, default 4096) with the
//! stage budgets armed as stall watchdog ceilings, one telemetry tick
//! per iteration (streamed to `--telemetry-out` when given, validated
//! in-process always), asserting `retained ≤ capacity` throughout, and
//! the steady-state stage medians land in the same bench document.
//!
//! Soak mode also drives the **health engine** on every tick: each
//! telemetry line feeds per-metric ring timeseries scored by the drift,
//! robust-z, and growth detectors, with the `perf::BUDGETS` ceilings
//! armed as SLO objectives (plus any `--slo metric=max` overrides,
//! repeatable — CI uses a deliberately tight one as a negative test).
//! The final `deepeye-health/v1` document goes to `--health-out` when
//! given, and a verdict firing at page severity fails the run — after
//! the telemetry stream and health document are written, so a failed
//! soak still leaves an inspectable pair on disk.

// Experiment drivers are report scripts: aborting on a broken
// invariant is the right behavior, so the workspace unwrap/panic
// lints are relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::perf::{
    health_objectives, record_stage_samples, results_json, scenario_matrix, stall_budgets,
    RobustTiming, ScenarioRun, Stage,
};
use deepeye_core::{
    build_nodes, rank_by_partial_order, ClassifierKind, ProgressiveSelector, Recognizer,
};
use deepeye_datagen::{build_table, recognition_examples, training_tables, PerceptionOracle};
use deepeye_obs::{
    validate_cost_json, validate_health_json, validate_telemetry_jsonl, CostCollector,
    HealthConfig, Observer, Op, RecorderConfig, Severity, SloObjective, Stopwatch, TelemetryCursor,
};
use deepeye_query::UdfRegistry;
use std::process::ExitCode;

struct Args {
    smoke: bool,
    out: String,
    warmup: usize,
    reps: usize,
    stacks: Option<String>,
    flame: Option<String>,
    soak: Option<usize>,
    capacity: usize,
    telemetry_out: Option<String>,
    health_out: Option<String>,
    slo: Vec<(String, f64)>,
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
        soak: None,
        capacity: 4096,
        telemetry_out: None,
        health_out: None,
        slo: Vec::new(),
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
            "--soak" => {
                let iters: usize = value("--soak")?
                    .parse()
                    .map_err(|e| format!("--soak: {e}"))?;
                if iters == 0 {
                    return Err("--soak must be at least 1".into());
                }
                parsed.soak = Some(iters);
            }
            "--capacity" => {
                let capacity: usize = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
                if capacity == 0 {
                    return Err("--capacity must be at least 1 (0 would be unbounded)".into());
                }
                parsed.capacity = capacity;
            }
            "--telemetry-out" => parsed.telemetry_out = Some(value("--telemetry-out")?),
            "--health-out" => parsed.health_out = Some(value("--health-out")?),
            "--slo" => {
                let spec = value("--slo")?;
                let (metric, max) = spec
                    .split_once('=')
                    .ok_or(format!("--slo wants metric=max, got {spec:?}"))?;
                let max: f64 = max.parse().map_err(|e| format!("--slo {metric}: {e}"))?;
                if !(max.is_finite() && max > 0.0) {
                    return Err(format!("--slo {metric}: ceiling must be positive"));
                }
                parsed.slo.push((metric.to_owned(), max));
            }
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

/// Write the telemetry stream and health document to their `--*-out`
/// paths (when given). Called on success *and* on early error paths —
/// a failed soak must still leave an inspectable stream and verdict on
/// disk.
fn flush_soak_outputs(args: &Args, stream: &str, obs: &Observer) -> Result<(), String> {
    if let Some(path) = &args.telemetry_out {
        std::fs::write(path, stream).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("harness: wrote telemetry to {path}");
    }
    if let Some(path) = &args.health_out {
        let doc = obs
            .health_report()
            .ok_or("health engine missing on soak observer")?;
        validate_health_json(&doc).map_err(|e| format!("health document invalid: {e}"))?;
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("harness: wrote health document to {path}");
    }
    Ok(())
}

/// Soak mode: drive the full online pipeline `iters` times under a
/// bounded flight recorder with the stage budgets armed, emitting one
/// telemetry tick per iteration (each also feeding the health engine)
/// and checking the retention invariant throughout. A broken invariant
/// stops the run but still flushes a final tick plus the telemetry and
/// health documents before exiting nonzero. The steady-state per-stage
/// timings land in the usual bench document so `perfgate` /
/// `trace_check --bench` read soak runs unchanged; a health verdict
/// firing at page severity fails the run after everything is written.
fn soak_main(args: &Args, iters: usize) -> ExitCode {
    eprintln!(
        "harness: soak — {iters} iterations, recorder capacity {}",
        args.capacity
    );

    // Offline phase (untimed), as in matrix mode.
    let oracle = PerceptionOracle::default();
    let train = training_tables(0.03);
    let recognizer = Recognizer::train(
        ClassifierKind::DecisionTree,
        &recognition_examples(&train, &oracle),
    );
    let ltr = deepeye_bench::efficiency::offline_ltr(0.03, &oracle);

    // Budgets become runtime SLOs; `--slo` overrides ride along (CI's
    // negative test arms a deliberately unreachable ceiling).
    let mut objectives = health_objectives();
    objectives.extend(args.slo.iter().map(|(metric, max)| SloObjective {
        metric: metric.clone(),
        max_value: *max,
        source: "--slo".to_owned(),
    }));
    let obs = Observer::with_health(
        RecorderConfig::bounded(args.capacity).with_budgets(stall_budgets()),
        HealthConfig::default().with_objectives(objectives),
    );
    let costs = if args.cost_out.is_some() {
        CostCollector::enabled()
    } else {
        CostCollector::disabled()
    };
    let udfs = UdfRegistry::default();
    let spec = scenario_matrix(true)
        .into_iter()
        .next()
        .expect("smoke matrix is non-empty");
    let table = build_table(&spec.corpus_spec());
    eprintln!(
        "  table {} — {} rows x {} columns",
        spec.name,
        table.row_count(),
        table.column_count()
    );

    let mut cursor = TelemetryCursor::default();
    let mut stream = String::new();
    let mut samples: [Vec<u64>; 5] = Default::default();
    let mut soak_err: Option<String> = None;
    for iter in 0..iters {
        let mut iter_ns = [0u64; 5];
        let queries = {
            let _span = obs.span(Stage::Enumerate.span_name());
            let clock = Stopwatch::start();
            let q = deepeye_core::rules::rule_based_queries(&table);
            iter_ns[0] = clock.elapsed_ns();
            q
        };
        let nodes = {
            let span = obs.span(Stage::Execute.span_name());
            let clock = Stopwatch::start();
            let n = build_nodes(&table, queries, &udfs, true, true, &obs, span.id(), &costs);
            iter_ns[1] = clock.elapsed_ns();
            n
        };
        {
            let _span = obs.span(Stage::Recognize.span_name());
            let clock = Stopwatch::start();
            std::hint::black_box(nodes.iter().filter(|n| recognizer.is_good(n)).count());
            iter_ns[2] = clock.elapsed_ns();
        }
        {
            let _span = obs.span(Stage::Rank.span_name());
            let clock = Stopwatch::start();
            // The two rankings `Hybrid` combines.
            std::hint::black_box((rank_by_partial_order(&nodes), ltr.rank(&nodes)));
            iter_ns[3] = clock.elapsed_ns();
        }
        {
            let _span = obs.span(Stage::TopK.span_name());
            let clock = Stopwatch::start();
            std::hint::black_box(ProgressiveSelector::new(&table, &udfs).top_k_observed(10, &obs));
            iter_ns[4] = clock.elapsed_ns();
        }
        for ((stage, &ns), all) in Stage::PIPELINE.iter().zip(&iter_ns).zip(&mut samples) {
            record_stage_samples(&obs, *stage, &[ns]);
            all.push(ns);
        }

        // One tick per iteration: interval deltas, retention, stalls —
        // and one health-engine ingest riding the same line.
        if let Some(line) = obs.telemetry_tick(&mut cursor) {
            stream.push_str(&line);
        }
        let retention = obs.retention();
        if retention.retained > args.capacity {
            soak_err = Some(format!(
                "iteration {iter}: retained {} exceeds capacity {}",
                retention.retained, args.capacity
            ));
            break;
        }
        if retention.retained as u64 + retention.dropped != retention.finished {
            soak_err = Some(format!("iteration {iter}: retention accounting broke"));
            break;
        }
    }

    // Flush one final tick regardless of how the loop ended, so the
    // stream's tail (and the health engine) reflect the state at exit.
    if let Some(line) = obs.telemetry_tick(&mut cursor) {
        stream.push_str(&line);
    }

    if let Some(e) = soak_err {
        eprintln!("harness: soak failed: {e}");
        if let Err(e) = flush_soak_outputs(args, &stream, &obs) {
            eprintln!("harness: {e}");
        }
        return ExitCode::FAILURE;
    }

    let retention = obs.retention();
    eprintln!(
        "  spans: finished {}, retained {}, dropped {}",
        retention.finished, retention.retained, retention.dropped
    );

    // The tick stream must satisfy its own validator before anything is
    // written — a soak that produces an invalid stream is a failed soak
    // (but still an inspectable one: the outputs are flushed first).
    let summary = match validate_telemetry_jsonl(&stream) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("harness: telemetry stream invalid: {e}");
            if let Err(e) = flush_soak_outputs(args, &stream, &obs) {
                eprintln!("harness: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "  telemetry: {} ticks, {} stalls, max retained {}",
        summary.ticks, summary.stalls, summary.max_retained
    );
    if let Err(e) = flush_soak_outputs(args, &stream, &obs) {
        eprintln!("harness: {e}");
        return ExitCode::FAILURE;
    }

    let run = ScenarioRun {
        name: format!("soak-{}x{}", table.row_count(), table.column_count()),
        rows: table.row_count(),
        columns: table.column_count(),
        stages: Stage::PIPELINE
            .into_iter()
            .zip(&samples)
            .map(|(stage, all)| (stage, RobustTiming::from_samples(all)))
            .collect(),
    };
    let json = results_json(&[run], &obs.snapshot());
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("harness: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("harness: wrote {}", args.out);
    if let Some(path) = &args.cost_out {
        if let Err(e) = write_cost_report(path, &costs, &obs) {
            eprintln!("harness: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Health rollup last: warns are reported and survivable, a firing
    // page verdict fails the run (every document is already on disk).
    let mut paging = false;
    for v in obs.health_verdicts().iter().filter(|v| v.firing) {
        eprintln!(
            "harness: health {} [{}] {}: {}",
            v.severity.as_str(),
            v.detector,
            v.metric,
            v.detail
        );
        if v.severity == Severity::Page {
            paging = true;
        }
    }
    if paging {
        eprintln!("harness: health verdict firing at page severity");
        return ExitCode::FAILURE;
    }

    println!("{}", obs.snapshot().stage_report());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harness: {e}");
            eprintln!(
                "usage: harness [--smoke] [--out <path>] [--warmup N] [--reps N] \
                 [--stacks <path>] [--flame <path>] [--cost-out <path>] \
                 [--soak N [--capacity C] [--telemetry-out <path>] \
                 [--health-out <path>] [--slo metric=max]...]"
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(iters) = args.soak {
        return soak_main(&args, iters);
    }
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
