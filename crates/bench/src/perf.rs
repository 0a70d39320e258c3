//! Continuous performance observability: the scenario runner behind the
//! `harness` binary and the perf acceptance tests, robust (median/IQR)
//! timing summaries, the versioned `BENCH_results.json` schema shared with
//! `fig12_efficiency`'s `DEEPEYE_BENCH_OUT` export, the noise-aware
//! regression gate behind `perfgate`, and the per-stage latency budgets
//! checked by `trace_check --budgets`.
//!
//! One ruler: a scenario runs the shipping pipeline from CSV bytes, and
//! each stage's sample is read from the span the product opens for it
//! ([`STAGES`]), so the bench document, the trace and the stage report
//! are three views of one measurement. One schema, three consumers:
//! `harness` writes it, `perfgate` diffs two of them, `trace_check
//! --bench` validates any of them.

use deepeye_core::{
    ClassifierKind, DeepEye, DeepEyeConfig, EnumerationMode, HybridRanker, LtrRanker,
    RankingMethod, Recognizer,
};
use deepeye_data::{table_from_csv_str, DataType, Table};
use deepeye_datagen::{
    build_table, ranking_examples, recognition_examples, training_tables, CorpusSpec,
    PerceptionOracle,
};
use deepeye_obs::json::escape;
use deepeye_obs::{Json, Observer, Snapshot};

/// Version tag every bench JSON document carries. Bump when a field is
/// added, removed, or changes meaning; `perfgate` refuses to compare
/// documents whose schemas differ.
pub const BENCH_SCHEMA: &str = "deepeye-bench/v2";

/// The JSON field names of the `harness` document, in document order.
/// DESIGN.md §9 documents each one; a doc-sync test walks this list
/// against both the prose and a generated document, so renaming a field
/// here without updating the docs (or vice versa) fails the build.
pub const SCHEMA_FIELDS: &[&str] = &[
    "schema",
    "experiment",
    "scenarios",
    "name",
    "rows",
    "columns",
    "stages",
    "stage",
    "span",
    "reps",
    "median_ns",
    "iqr_ns",
    "min_ns",
    "max_ns",
    "counters",
    "p50_ns",
    "p95_ns",
    "p99_ns",
];

/// One timed stage: its name in the document, the span whose closing is
/// its sample, and its latency ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    pub name: &'static str,
    pub span: &'static str,
    /// The budget: the stage's median in any scenario must stay under
    /// this (`trace_check --budgets`). Ceilings are deliberately generous
    /// — they catch order-of-magnitude pathologies (accidental quadratic
    /// loops, lost parallelism), not percent-level drift; `perfgate` owns
    /// the fine-grained comparison.
    pub max_median_ns: u64,
}

const fn stage(name: &'static str, span: &'static str, max_median_ns: u64) -> Stage {
    Stage {
        name,
        span,
        max_median_ns,
    }
}

/// Every stage the harness times, in pipeline order. The runner opens
/// `pipeline.ingest` around its CSV ingest, as the CLI does around its
/// load; every other span is the product's own.
pub const STAGES: [Stage; 8] = [
    stage("ingest", "pipeline.ingest", 10_000_000_000),
    stage("recommend", "pipeline.recommend", 120_000_000_000),
    stage("enumerate", "pipeline.enumerate", 2_000_000_000),
    stage("execute", "pipeline.execute", 60_000_000_000),
    stage("recognize", "pipeline.recognize", 10_000_000_000),
    stage("rank", "pipeline.rank", 20_000_000_000),
    stage("partial_order", "rank.partial_order", 20_000_000_000),
    stage("progressive", "pipeline.progressive", 60_000_000_000),
];

impl Stage {
    /// The row of [`STAGES`] named `name`.
    pub fn named(name: &str) -> Option<&'static Stage> {
        STAGES.iter().find(|s| s.name == name)
    }
}

/// One cell of the scenario matrix: a seeded synthetic table shape.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    pub name: &'static str,
    pub rows: usize,
    pub columns: usize,
    pub seed: u64,
}

impl ScenarioSpec {
    /// The corpus generator's spec for this scenario.
    pub fn corpus_spec(&self) -> CorpusSpec {
        CorpusSpec {
            name: self.name.to_owned(),
            rows: self.rows,
            cols: self.columns,
            seed: self.seed,
        }
    }
}

/// The fixed scenario matrix (rows × columns). `smoke` keeps only the
/// smallest shape so CI finishes in seconds; the full matrix spans the
/// row and column ranges of the paper's Table III corpus.
pub fn scenario_matrix(smoke: bool) -> Vec<ScenarioSpec> {
    let full = vec![
        ScenarioSpec {
            name: "s-300x5",
            rows: 300,
            columns: 5,
            seed: 9_001,
        },
        ScenarioSpec {
            name: "m-1500x8",
            rows: 1_500,
            columns: 8,
            seed: 9_002,
        },
        ScenarioSpec {
            name: "m-1500x16",
            rows: 1_500,
            columns: 16,
            seed: 9_003,
        },
        ScenarioSpec {
            name: "l-6000x8",
            rows: 6_000,
            columns: 8,
            seed: 9_004,
        },
    ];
    if smoke {
        full.into_iter().take(1).collect()
    } else {
        full
    }
}

/// Robust summary of one stage's repetition samples: median and
/// interquartile range instead of mean/stddev, so a single descheduled
/// repetition does not move the number the gate compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustTiming {
    pub reps: usize,
    pub median_ns: u64,
    pub iqr_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl RobustTiming {
    /// Summarize raw nanosecond samples. Empty input yields all zeros.
    pub fn from_samples(samples: &[u64]) -> RobustTiming {
        if samples.is_empty() {
            return RobustTiming {
                reps: 0,
                median_ns: 0,
                iqr_ns: 0,
                min_ns: 0,
                max_ns: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let at = |q_num: usize, q_den: usize| sorted[(n - 1) * q_num / q_den];
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2
        };
        RobustTiming {
            reps: n,
            median_ns: median,
            iqr_ns: at(3, 4).saturating_sub(at(1, 4)),
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
        }
    }
}

/// One scenario's timed stages.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    pub name: String,
    pub rows: usize,
    pub columns: usize,
    pub stages: Vec<(Stage, RobustTiming)>,
}

/// The `k` every scenario asks `recommend` and `recommend_progressive`
/// for.
const TOP_K: usize = 10;

/// The trained models of the shipping configuration. They train once,
/// untimed, so a scenario measures the online pipeline only.
pub struct Models {
    recognizer: Recognizer,
    ltr: LtrRanker,
}

impl Models {
    /// Train the DecisionTree recognizer and the LambdaMART ranker on
    /// `training_tables(scale)`, labelled by the default perception oracle.
    pub fn train(scale: f64) -> Models {
        let oracle = PerceptionOracle::default();
        let train = training_tables(scale);
        let examples = recognition_examples(&train, &oracle);
        Models {
            recognizer: Recognizer::train(ClassifierKind::DecisionTree, &examples),
            ltr: LtrRanker::fit(&ranking_examples(&train, &oracle)),
        }
    }

    /// The shipping pipeline around these models — rule-based
    /// enumeration, the recognizer, `Hybrid` ranking, parallel execution
    /// — recording into `obs`.
    pub fn pipeline(&self, obs: &Observer) -> DeepEye {
        DeepEye::new(DeepEyeConfig {
            enumeration: EnumerationMode::RuleBased,
            recognizer: Some(self.recognizer.clone()),
            ranking: RankingMethod::Hybrid(self.ltr.clone(), HybridRanker::default()),
            parallel: true,
            observer: obs.clone(),
            ..DeepEyeConfig::default()
        })
    }
}

/// A table as CSV text with a header row, quoting the fields that need it.
fn csv_text(table: &Table) -> String {
    let field = |s: &str| {
        if s.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    };
    let header: Vec<String> = table.columns().iter().map(|c| field(c.name())).collect();
    let mut out = header.join(",") + "\n";
    for row in 0..table.row_count() {
        let cells: Vec<String> = (0..table.column_count())
            .map(|col| field(&table.value(row, col).to_string()))
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Run one data scenario through `eye`. The scenario's table is written
/// as CSV once; the bytes must re-ingest with the table's column names and
/// types. Each of `warmup` + `reps` repetitions then ingests the bytes
/// under a `pipeline.ingest` span and runs `recommend` and
/// `recommend_progressive` at k = `TOP_K`; `stages` are read from the spans
/// of the observer `eye` records into.
pub fn run_scenario(
    spec: &ScenarioSpec,
    eye: &DeepEye,
    stages: &[Stage],
    warmup: usize,
    reps: usize,
) -> Result<ScenarioRun, String> {
    let table = build_table(&spec.corpus_spec());
    let csv = csv_text(&table);
    let ingest = || table_from_csv_str(spec.name, &csv).map_err(|e| format!("{}: {e}", spec.name));
    let schema = |t: &Table| -> Vec<(String, DataType)> {
        t.columns()
            .iter()
            .map(|c| (c.name().to_owned(), c.data_type()))
            .collect()
    };
    let (generated, ingested) = (schema(&table), schema(&ingest()?));
    if generated != ingested {
        return Err(format!(
            "scenario {}: its CSV re-ingests as {ingested:?}, not {generated:?}",
            spec.name
        ));
    }
    let obs = &eye.config().observer;
    let stages = time_stages(obs, spec.name, stages, warmup, reps, || {
        let table = {
            let _ingest = obs.span("pipeline.ingest");
            ingest()?
        };
        std::hint::black_box(eye.recommend(&table, TOP_K));
        std::hint::black_box(eye.recommend_progressive(&table, TOP_K));
        Ok(())
    })?;
    Ok(ScenarioRun {
        name: spec.name.to_owned(),
        rows: table.row_count(),
        columns: table.column_count(),
        stages,
    })
}

/// Run `rep` `warmup` + `reps` times. Each stage's sample is the growth of
/// its span's total duration ([`Observer::stage_duration`]) over one run;
/// warmup samples are discarded. A stage whose span does not close exactly
/// once in a run fails the scenario.
fn time_stages(
    obs: &Observer,
    scenario: &str,
    stages: &[Stage],
    warmup: usize,
    reps: usize,
    mut rep: impl FnMut() -> Result<(), String>,
) -> Result<Vec<(Stage, RobustTiming)>, String> {
    let mut samples = vec![Vec::with_capacity(reps); stages.len()];
    for run in 0..warmup + reps {
        let totals = |s: &Stage| (obs.stage_count(s.span), obs.stage_duration(s.span));
        let before: Vec<_> = stages.iter().map(totals).collect();
        rep()?;
        for ((stage, (count, duration)), samples) in stages.iter().zip(before).zip(&mut samples) {
            let (count_after, duration_after) = totals(stage);
            let closed = count_after - count;
            if closed != 1 {
                return Err(format!(
                    "scenario {scenario}: stage {:?} span {:?} closed {closed} times in one \
                     repetition, not once",
                    stage.name, stage.span
                ));
            }
            if run >= warmup {
                samples.push((duration_after - duration).as_nanos() as u64);
            }
        }
    }
    let timings = samples.iter().map(|s| RobustTiming::from_samples(s));
    Ok(stages.iter().copied().zip(timings).collect())
}

/// Render the `harness` results document (schema [`BENCH_SCHEMA`],
/// experiment `harness`): per-scenario robust stage timings plus the
/// observer's counters and per-path stage aggregates from the same run.
pub fn results_json(scenarios: &[ScenarioRun], snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
    out.push_str("  \"experiment\": \"harness\",\n");
    out.push_str("  \"scenarios\": [");
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"rows\": {}, \"columns\": {}, \"stages\": [",
            escape(&s.name),
            s.rows,
            s.columns
        ));
        for (j, (stage, t)) in s.stages.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\n      {{\"stage\": \"{}\", \"span\": \"{}\", \"reps\": {}, \
                 \"median_ns\": {}, \"iqr_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                stage.name, stage.span, t.reps, t.median_ns, t.iqr_ns, t.min_ns, t.max_ns
            ));
        }
        out.push_str("\n    ]}");
    }
    if !scenarios.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&snapshot.json_members());
    out.push_str("}\n");
    out
}

/// What [`validate_bench_json`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSummary {
    pub experiment: String,
    /// Scenario (or dataset, for `fig12_efficiency`) count.
    pub scenarios: usize,
    /// Total stage (or bar) rows across scenarios.
    pub stage_rows: usize,
}

fn non_negative(value: Option<&Json>, what: &str) -> Result<f64, String> {
    let v = value
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what} must be a number"))?;
    if v < 0.0 {
        return Err(format!("{what} is negative"));
    }
    Ok(v)
}

fn str_field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what} missing string field {key:?}"))
}

/// Validate a versioned bench document: schema tag, experiment kind,
/// per-scenario stage rows that name a stage of [`STAGES`] and its span
/// and whose summaries are internally consistent (`min ≤ median ≤ max`),
/// and non-negative counters.
pub fn validate_bench_json(text: &str) -> Result<BenchSummary, String> {
    let doc = deepeye_obs::parse_json(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = str_field(&doc, "schema", "document")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (this build reads {BENCH_SCHEMA:?})"
        ));
    }
    let experiment = str_field(&doc, "experiment", "document")?;
    let mut stage_rows = 0usize;
    let scenarios = match experiment {
        "harness" => {
            let scenarios = doc
                .get("scenarios")
                .and_then(Json::as_array)
                .ok_or("harness document missing scenarios array")?;
            if scenarios.is_empty() {
                return Err("harness document has no scenarios".into());
            }
            for s in scenarios {
                let name = str_field(s, "name", "scenario")?;
                non_negative(s.get("rows"), &format!("scenario {name:?} rows"))?;
                non_negative(s.get("columns"), &format!("scenario {name:?} columns"))?;
                let stages = s
                    .get("stages")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("scenario {name:?} missing stages array"))?;
                if stages.is_empty() {
                    return Err(format!("scenario {name:?} has no stage rows"));
                }
                for row in stages {
                    stage_rows += 1;
                    let stage_name = str_field(row, "stage", "stage row")?;
                    let stage = Stage::named(stage_name).ok_or_else(|| {
                        format!("scenario {name:?}: unknown stage {stage_name:?}")
                    })?;
                    let span = str_field(row, "span", "stage row")?;
                    if span != stage.span {
                        return Err(format!(
                            "stage {stage_name:?} span {span:?} should be {:?}",
                            stage.span
                        ));
                    }
                    let what = format!("scenario {name:?} stage {stage_name:?}");
                    let reps = non_negative(row.get("reps"), &format!("{what} reps"))?;
                    if reps < 1.0 {
                        return Err(format!("{what} has zero repetitions"));
                    }
                    let median = non_negative(row.get("median_ns"), &format!("{what} median_ns"))?;
                    non_negative(row.get("iqr_ns"), &format!("{what} iqr_ns"))?;
                    let min = non_negative(row.get("min_ns"), &format!("{what} min_ns"))?;
                    let max = non_negative(row.get("max_ns"), &format!("{what} max_ns"))?;
                    if !(min <= median && median <= max) {
                        return Err(format!(
                            "{what}: min/median/max out of order ({min} / {median} / {max})"
                        ));
                    }
                }
            }
            scenarios.len()
        }
        "fig12_efficiency" => {
            let datasets = doc
                .get("datasets")
                .and_then(Json::as_array)
                .ok_or("fig12_efficiency document missing datasets array")?;
            if datasets.is_empty() {
                return Err("fig12_efficiency document has no datasets".into());
            }
            for d in datasets {
                let name = str_field(d, "name", "dataset")?;
                non_negative(d.get("rows"), &format!("dataset {name:?} rows"))?;
                let bars = d
                    .get("bars")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("dataset {name:?} missing bars array"))?;
                for bar in bars {
                    stage_rows += 1;
                    let config = str_field(bar, "config", "bar")?;
                    let what = format!("dataset {name:?} bar {config:?}");
                    let e = non_negative(bar.get("enumerate_ns"), &format!("{what} enumerate_ns"))?;
                    let s = non_negative(bar.get("select_ns"), &format!("{what} select_ns"))?;
                    let total = non_negative(bar.get("total_ns"), &format!("{what} total_ns"))?;
                    if total + 0.5 < e.max(s) {
                        return Err(format!("{what}: total_ns below its parts"));
                    }
                }
            }
            datasets.len()
        }
        other => return Err(format!("unknown experiment {other:?}")),
    };
    let counters = doc
        .get("counters")
        .and_then(Json::as_object)
        .ok_or("document missing counters object")?;
    for (name, value) in counters {
        non_negative(Some(value), &format!("counter {name:?}"))?;
    }
    Ok(BenchSummary {
        experiment: experiment.to_owned(),
        scenarios,
        stage_rows,
    })
}

/// Gate thresholds. A stage regresses when its current median exceeds the
/// baseline median by more than the *largest* of three allowances:
/// relative slack (`rel` × baseline), noise slack (`iqr_mult` × the wider
/// of the two runs' IQRs), and an absolute floor (`floor_ns`) under which
/// deltas are scheduler noise no matter the ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    pub rel: f64,
    pub iqr_mult: f64,
    pub floor_ns: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            rel: 0.30,
            iqr_mult: 3.0,
            floor_ns: 500_000,
        }
    }
}

/// One gate failure: the stage, the numbers, and the line it crossed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    pub scenario: String,
    pub stage: String,
    pub span: String,
    pub baseline_ns: u64,
    pub current_ns: u64,
    pub allowed_ns: u64,
}

impl Regression {
    /// The one-line verdict `perfgate` prints.
    pub fn describe(&self) -> String {
        format!(
            "REGRESSION {} / {} ({}): median {} -> {} (allowed <= {})",
            self.scenario,
            self.stage,
            self.span,
            self.baseline_ns,
            self.current_ns,
            self.allowed_ns
        )
    }
}

/// The gate's full verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateReport {
    /// (scenario, stage) pairs compared.
    pub compared: usize,
    pub regressions: Vec<Regression>,
}

/// One comparable gate row: (scenario, stage, span, median_ns, iqr_ns).
pub(crate) type StageMedianRow = (String, String, String, u64, u64);

/// Parse a harness document's per-scenario stage rows — shared between
/// the gate ([`perf_gate`]), the budget check, and the cross-run differ
/// (`crate::diff`).
pub(crate) fn stage_medians(text: &str, which: &str) -> Result<Vec<StageMedianRow>, String> {
    let summary = validate_bench_json(text).map_err(|e| format!("{which}: {e}"))?;
    if summary.experiment != "harness" {
        return Err(format!(
            "{which}: perfgate compares harness documents, got {:?}",
            summary.experiment
        ));
    }
    let doc = deepeye_obs::parse_json(text).map_err(|e| format!("{which}: {e}"))?;
    let mut rows = Vec::new();
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{which}: missing scenarios"))?;
    for s in scenarios {
        let name = str_field(s, "name", "scenario")?.to_owned();
        let stages = s
            .get("stages")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{which}: scenario {name:?} missing stages"))?;
        for row in stages {
            let stage = str_field(row, "stage", "stage row")?.to_owned();
            let span = str_field(row, "span", "stage row")?.to_owned();
            let median = non_negative(row.get("median_ns"), "median_ns")? as u64;
            let iqr = non_negative(row.get("iqr_ns"), "iqr_ns")? as u64;
            rows.push((name.clone(), stage, span, median, iqr));
        }
    }
    Ok(rows)
}

/// Compare two harness documents. Errors on malformed input or when the
/// current run dropped a (scenario, stage) pair the baseline covers —
/// silently losing coverage must not read as "no regression".
pub fn perf_gate(baseline: &str, current: &str, cfg: &GateConfig) -> Result<GateReport, String> {
    perf_gate_scoped(baseline, current, cfg, None)
}

/// [`perf_gate`] restricted to a scenario subset: when `scenarios` is
/// given, only baseline rows for those scenarios are compared, so a
/// smoke run (e.g. CI's `--smoke` matrix) can gate against a baseline
/// regenerated from the full matrix without tripping the lost-coverage
/// error. Requesting a scenario the baseline does not cover is an error
/// — a typo must not read as "nothing to gate".
pub fn perf_gate_scoped(
    baseline: &str,
    current: &str,
    cfg: &GateConfig,
    scenarios: Option<&[String]>,
) -> Result<GateReport, String> {
    let mut base_rows = stage_medians(baseline, "baseline")?;
    let cur_rows = stage_medians(current, "current")?;
    if let Some(only) = scenarios {
        for want in only {
            if !base_rows.iter().any(|(s, ..)| s == want) {
                return Err(format!("baseline has no scenario {want:?}"));
            }
        }
        base_rows.retain(|(s, ..)| only.iter().any(|want| want == s));
    }
    let mut report = GateReport {
        compared: 0,
        regressions: Vec::new(),
    };
    for (scenario, stage, span, base_median, base_iqr) in &base_rows {
        let cur = cur_rows
            .iter()
            .find(|(s, st, ..)| s == scenario && st == stage)
            .ok_or_else(|| format!("current run is missing baseline stage {scenario} / {stage}"))?;
        let (_, _, _, cur_median, cur_iqr) = cur;
        report.compared += 1;
        let rel_slack = (cfg.rel * *base_median as f64) as u64;
        let noise_slack = ((*base_iqr).max(*cur_iqr) as f64 * cfg.iqr_mult) as u64;
        let allowed = base_median + rel_slack.max(noise_slack).max(cfg.floor_ns);
        if *cur_median > allowed {
            report.regressions.push(Regression {
                scenario: scenario.clone(),
                stage: stage.clone(),
                span: span.clone(),
                baseline_ns: *base_median,
                current_ns: *cur_median,
                allowed_ns: allowed,
            });
        }
    }
    Ok(report)
}

/// Check a harness document against each stage's `max_median_ns`.
/// Returns the list of violations (empty = within budget); errors on
/// malformed input.
pub fn check_budgets(text: &str) -> Result<Vec<String>, String> {
    let rows = stage_medians(text, "budgets")?;
    let mut violations = Vec::new();
    for (scenario, stage, span, median, _) in rows {
        // `stage_medians` validated the document, so every row names a
        // stage of the table.
        let ceiling = Stage::named(&stage).map_or(0, |s| s.max_median_ns);
        if median > ceiling {
            violations.push(format!(
                "BUDGET {scenario} / {stage} ({span}): median {median} ns exceeds ceiling \
                 {ceiling} ns"
            ));
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> String {
        let obs = Observer::enabled();
        {
            let _s = obs.span("pipeline.ingest");
        }
        let runs = vec![ScenarioRun {
            name: "s-300x5".into(),
            rows: 300,
            columns: 5,
            stages: STAGES
                .iter()
                .map(|&st| (st, RobustTiming::from_samples(&[900, 1_000, 1_100, 5_000])))
                .collect(),
        }];
        results_json(&runs, &obs.snapshot())
    }

    #[test]
    fn robust_timing_resists_outliers() {
        let calm = RobustTiming::from_samples(&[100, 101, 99, 100, 102]);
        assert_eq!(calm.median_ns, 100);
        assert!(calm.iqr_ns <= 3);
        // One 100x outlier barely moves the median and never the min.
        let noisy = RobustTiming::from_samples(&[100, 101, 99, 100, 10_000]);
        assert_eq!(noisy.median_ns, 100);
        assert_eq!(noisy.min_ns, 99);
        assert_eq!(noisy.max_ns, 10_000);
        let empty = RobustTiming::from_samples(&[]);
        assert_eq!(empty.reps, 0);
        assert_eq!(empty.median_ns, 0);
    }

    #[test]
    fn stage_table_rows_are_distinct_and_budgeted() {
        for (i, stage) in STAGES.iter().enumerate() {
            assert_eq!(Stage::named(stage.name), Some(stage));
            assert!(stage.max_median_ns > 0, "{} has a ceiling", stage.name);
            let later = &STAGES[i + 1..];
            assert!(later
                .iter()
                .all(|s| s.name != stage.name && s.span != stage.span));
        }
        assert_eq!(Stage::named("compile"), None);
        // Every stage is the product's: ingest and partial-order scoring
        // included, nothing the harness runs beside the pipeline.
        for name in ["ingest", "partial_order"] {
            assert!(STAGES.iter().any(|s| s.name == name), "{name}");
        }
        assert!(STAGES.iter().all(|s| !s.span.starts_with("harness.")));
    }

    #[test]
    fn results_json_validates() {
        let text = sample_doc();
        let summary = validate_bench_json(&text).expect("valid");
        assert_eq!(summary.experiment, "harness");
        assert_eq!(summary.scenarios, 1);
        assert_eq!(summary.stage_rows, STAGES.len());
        // Every documented schema field appears in the document.
        for field in SCHEMA_FIELDS {
            assert!(
                text.contains(&format!("\"{field}\"")),
                "field {field:?} missing from generated document"
            );
        }
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let good = sample_doc();
        for (broken, why) in [
            (
                good.replace("deepeye-bench/v2", "deepeye-bench/v0"),
                "schema",
            ),
            (good.replace("\"harness\"", "\"mystery\""), "experiment"),
            (
                good.replace("\"pipeline.enumerate\"", "\"pipeline.enumarate\""),
                "span",
            ),
            (
                good.replace("\"stage\": \"rank\"", "\"stage\": \"sort\""),
                "stage",
            ),
            (
                good.replace("\"median_ns\": 1050", "\"median_ns\": 999999"),
                "ordering",
            ),
        ] {
            assert!(
                validate_bench_json(&broken).is_err(),
                "validator should reject broken {why}"
            );
        }
    }

    #[test]
    fn gate_passes_identical_runs_and_names_regressed_stage() {
        let doc = sample_doc();
        let cfg = GateConfig::default();
        let clean = perf_gate(&doc, &doc, &cfg).expect("gate runs");
        assert_eq!(clean.compared, STAGES.len());
        assert!(clean.regressions.is_empty(), "run vs itself is clean");

        // A synthetic 2000x slowdown in one stage (well past floor_ns).
        let slow = doc.replacen("\"median_ns\": 1050", "\"median_ns\": 2100000000", 1);
        let slow = slow.replacen("\"max_ns\": 5000", "\"max_ns\": 2100000000", 1);
        let report = perf_gate(&doc, &slow, &cfg).expect("gate runs");
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.stage, "ingest", "first stage row is the slowed one");
        assert_eq!(r.span, "pipeline.ingest");
        assert!(r.describe().contains("REGRESSION"));
        assert!(r.describe().contains("pipeline.ingest"));
    }

    #[test]
    fn gate_refuses_to_compare_schema_versions() {
        let v2 = sample_doc();
        let v1 = v2.replace(BENCH_SCHEMA, "deepeye-bench/v1");
        for (base, cur) in [(&v1, &v2), (&v2, &v1)] {
            let err = perf_gate(base, cur, &GateConfig::default()).unwrap_err();
            assert!(err.contains("deepeye-bench/v1"), "{err}");
        }
    }

    #[test]
    fn gate_noise_allowance_tolerates_wide_iqr() {
        let doc = sample_doc();
        // Same medians but declare a huge IQR: a delta within iqr_mult×IQR
        // must not trip the gate even when it exceeds the relative slack.
        let base = doc.replace("\"iqr_ns\": 200", "\"iqr_ns\": 3000000000");
        let cur = base.replace("\"median_ns\": 1050", "\"median_ns\": 2000000000");
        let cur = cur.replace("\"max_ns\": 5000", "\"max_ns\": 2000000000");
        let report = perf_gate(&base, &cur, &GateConfig::default()).expect("gate runs");
        assert!(
            report.regressions.is_empty(),
            "delta inside the noise band passes: {:?}",
            report.regressions
        );
    }

    #[test]
    fn gate_rejects_lost_coverage() {
        let doc = sample_doc();
        let obs = Observer::enabled();
        let runs = vec![ScenarioRun {
            name: "s-300x5".into(),
            rows: 300,
            columns: 5,
            stages: vec![(STAGES[0], RobustTiming::from_samples(&[100]))],
        }];
        let reduced = results_json(&runs, &obs.snapshot());
        let err = perf_gate(&doc, &reduced, &GateConfig::default()).unwrap_err();
        assert!(err.contains("missing"), "error names the lost pair: {err}");
    }

    #[test]
    fn budgets_pass_sane_runs_and_flag_pathologies() {
        let doc = sample_doc();
        assert_eq!(
            check_budgets(&doc).expect("valid doc"),
            Vec::<String>::new()
        );
        let slow = doc.replacen("\"median_ns\": 1050", "\"median_ns\": 11000000000", 1);
        let slow = slow.replacen("\"max_ns\": 5000", "\"max_ns\": 11000000000", 1);
        let violations = check_budgets(&slow).expect("valid doc");
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("ingest"));
        assert!(violations[0].contains("pipeline.ingest"));
    }

    #[test]
    fn scenario_matrix_shapes() {
        let smoke = scenario_matrix(true);
        assert_eq!(smoke.len(), 1);
        let full = scenario_matrix(false);
        assert!(full.len() >= 3, "full matrix spans rows and columns");
        let spec = smoke[0].corpus_spec();
        assert_eq!(spec.rows, 300);
        assert_eq!(spec.cols, 5);
        // Distinct seeds: scenarios are independent tables.
        let mut seeds: Vec<u64> = full.iter().map(|s| s.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), full.len());
    }
}
