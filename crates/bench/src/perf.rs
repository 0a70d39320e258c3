//! Continuous performance observability: the scenario matrix behind the
//! `harness` binary, robust (median/IQR) timing summaries, the versioned
//! `BENCH_results.json` schema shared with `fig12_efficiency`'s
//! `DEEPEYE_BENCH_OUT` export, the noise-aware regression gate behind
//! `perfgate`, and the declarative per-stage latency budgets checked by
//! `trace_check --budgets`.
//!
//! One schema, three consumers: `harness` writes it, `perfgate` diffs two
//! of them, `trace_check --bench` validates any of them. Every stage row
//! names the registry histogram (`bench.*_ns`) its samples were recorded
//! into, so the JSON artifact, the metrics export, and the central metric
//! registry ([`deepeye_obs::metrics`]) stay three views of one
//! measurement — `deepeye-analyze` rule `A0007` fails the build when the
//! three drift.

use deepeye_datagen::CorpusSpec;
use deepeye_obs::json::escape;
use deepeye_obs::{Json, Observer, Snapshot};

/// Version tag every bench JSON document carries. Bump when a field is
/// added, removed, or changes meaning; `perfgate` refuses to compare
/// documents whose schemas differ.
pub const BENCH_SCHEMA: &str = "deepeye-bench/v1";

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
    "metric",
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

/// The stages the harness times: the five online pipeline stages
/// ([`Stage::PIPELINE`], run per data scenario) plus the static-analysis
/// pass (`Analyze`, run once over the workspace source in its own
/// scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Enumerate,
    Execute,
    Recognize,
    Rank,
    TopK,
    Analyze,
}

impl Stage {
    /// All stages, pipeline order first, then the analyze pass.
    pub const ALL: [Stage; 6] = [
        Stage::Enumerate,
        Stage::Execute,
        Stage::Recognize,
        Stage::Rank,
        Stage::TopK,
        Stage::Analyze,
    ];

    /// The five online pipeline stages, in pipeline order — what each
    /// data scenario times. `Analyze` is deliberately excluded: it runs
    /// over the workspace source, not over a scenario's table.
    pub const PIPELINE: [Stage; 5] = [
        Stage::Enumerate,
        Stage::Execute,
        Stage::Recognize,
        Stage::Rank,
        Stage::TopK,
    ];

    /// Stable lowercase name used in the JSON artifact and gate output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Enumerate => "enumerate",
            Stage::Execute => "execute",
            Stage::Recognize => "recognize",
            Stage::Rank => "rank",
            Stage::TopK => "topk",
            Stage::Analyze => "analyze",
        }
    }

    /// The registry histogram this stage's samples land in.
    pub fn metric(self) -> &'static str {
        match self {
            Stage::Enumerate => "bench.enumerate_ns",
            Stage::Execute => "bench.execute_ns",
            Stage::Recognize => "bench.recognize_ns",
            Stage::Rank => "bench.rank_ns",
            Stage::TopK => "bench.topk_ns",
            Stage::Analyze => "bench.analyze_ns",
        }
    }

    /// Span name the harness opens around each timed repetition, so the
    /// trace, the flame view, and the per-stage `alloc.*` aggregates
    /// attribute to the stage being measured.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Enumerate => "harness.enumerate",
            Stage::Execute => "harness.execute",
            Stage::Recognize => "harness.recognize",
            Stage::Rank => "harness.rank",
            Stage::TopK => "harness.topk",
            Stage::Analyze => "harness.analyze",
        }
    }

    /// Parse the stable name back (gate input validation).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Record one stage's raw samples into its registry histogram. Spelled as
/// one literal call per arm — not `record_many_ns(stage.metric(), ..)` —
/// so the metric-registry lint (A0005/A0007) sees each `bench.*_ns` name
/// used at a real call site.
pub fn record_stage_samples(obs: &Observer, stage: Stage, samples: &[u64]) {
    match stage {
        Stage::Enumerate => obs.record_many_ns("bench.enumerate_ns", samples),
        Stage::Execute => obs.record_many_ns("bench.execute_ns", samples),
        Stage::Recognize => obs.record_many_ns("bench.recognize_ns", samples),
        Stage::Rank => obs.record_many_ns("bench.rank_ns", samples),
        Stage::TopK => obs.record_many_ns("bench.topk_ns", samples),
        Stage::Analyze => obs.record_many_ns("bench.analyze_ns", samples),
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
                "\n      {{\"stage\": \"{}\", \"metric\": \"{}\", \"reps\": {}, \
                 \"median_ns\": {}, \"iqr_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                stage.name(),
                stage.metric(),
                t.reps,
                t.median_ns,
                t.iqr_ns,
                t.min_ns,
                t.max_ns
            ));
        }
        out.push_str("\n    ]}");
    }
    if !scenarios.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&snapshot_tail(snapshot));
    out
}

/// The shared `counters` / `stages` tail of every bench document, read
/// from a metrics snapshot (same numbers `metrics_json` exports).
pub fn snapshot_tail(snapshot: &Snapshot) -> String {
    let mut out = String::from("  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", escape(name), value));
    }
    if !snapshot.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"stages\": {");
    for (i, s) in snapshot.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \
             \"p95_ns\": {}, \"p99_ns\": {}, \"alloc_count\": {}, \
             \"alloc_bytes\": {}, \"alloc_peak\": {}}}",
            escape(&s.path),
            s.count,
            s.total_ns,
            s.p50_ns,
            s.p95_ns,
            s.p99_ns,
            s.alloc_count,
            s.alloc_bytes,
            s.alloc_peak
        ));
    }
    if !snapshot.stages.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
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
/// per-scenario stage rows whose metric names are registered histograms
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
                    let stage = Stage::from_name(stage_name).ok_or_else(|| {
                        format!("scenario {name:?}: unknown stage {stage_name:?}")
                    })?;
                    let metric = str_field(row, "metric", "stage row")?;
                    if !deepeye_obs::metrics::is_histogram(metric) {
                        return Err(format!(
                            "stage {stage_name:?} metric {metric:?} is not a registered histogram"
                        ));
                    }
                    if metric != stage.metric() {
                        return Err(format!(
                            "stage {stage_name:?} metric {metric:?} should be {:?}",
                            stage.metric()
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
    pub metric: String,
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
            self.metric,
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

/// One comparable gate row: (scenario, stage, metric, median_ns, iqr_ns).
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
            let metric = str_field(row, "metric", "stage row")?.to_owned();
            let median = non_negative(row.get("median_ns"), "median_ns")? as u64;
            let iqr = non_negative(row.get("iqr_ns"), "iqr_ns")? as u64;
            rows.push((name.clone(), stage, metric, median, iqr));
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
    for (scenario, stage, metric, base_median, base_iqr) in &base_rows {
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
                metric: metric.clone(),
                baseline_ns: *base_median,
                current_ns: *cur_median,
                allowed_ns: allowed,
            });
        }
    }
    Ok(report)
}

/// A per-stage latency ceiling: the median of any harness scenario must
/// stay under `max_median_ns`. Ceilings are deliberately generous — they
/// catch order-of-magnitude pathologies (accidental quadratic loops,
/// lost parallelism), not percent-level drift; `perfgate` owns the
/// fine-grained comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBudget {
    pub stage: Stage,
    pub max_median_ns: u64,
}

impl StageBudget {
    /// The registry histogram this budget constrains.
    pub fn metric(&self) -> &'static str {
        self.stage.metric()
    }
}

/// The budget table, one ceiling per stage, in pipeline order. Its one
/// consumer is the offline gate, [`check_budgets`] (`trace_check
/// --budgets`).
pub const BUDGETS: &[StageBudget] = &[
    StageBudget {
        stage: Stage::Enumerate,
        max_median_ns: 2_000_000_000,
    },
    StageBudget {
        stage: Stage::Execute,
        max_median_ns: 60_000_000_000,
    },
    StageBudget {
        stage: Stage::Recognize,
        max_median_ns: 10_000_000_000,
    },
    StageBudget {
        stage: Stage::Rank,
        max_median_ns: 20_000_000_000,
    },
    StageBudget {
        stage: Stage::TopK,
        max_median_ns: 60_000_000_000,
    },
    // The analyze pass lexes every workspace file and runs the
    // interprocedural rules; generous like the rest — the ceiling exists
    // to catch an accidental quadratic fixpoint, not second-level drift.
    StageBudget {
        stage: Stage::Analyze,
        max_median_ns: 30_000_000_000,
    },
];

/// Check a harness document against [`BUDGETS`]. Returns the list of
/// violations (empty = within budget); errors on malformed input.
pub fn check_budgets(text: &str) -> Result<Vec<String>, String> {
    let rows = stage_medians(text, "budgets")?;
    let mut violations = Vec::new();
    for (scenario, stage, metric, median, _) in rows {
        let budget = BUDGETS
            .iter()
            .find(|b| b.stage.name() == stage)
            .ok_or_else(|| format!("no budget declared for stage {stage:?}"))?;
        if median > budget.max_median_ns {
            violations.push(format!(
                "BUDGET {scenario} / {stage} ({metric}): median {median} ns exceeds ceiling {} ns",
                budget.max_median_ns
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
            let _s = obs.span("harness.enumerate");
            record_stage_samples(&obs, Stage::Enumerate, &[100, 200, 300]);
        }
        let runs = vec![ScenarioRun {
            name: "s-300x5".into(),
            rows: 300,
            columns: 5,
            stages: Stage::PIPELINE
                .into_iter()
                .map(|st| (st, RobustTiming::from_samples(&[900, 1_000, 1_100, 5_000])))
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
    fn stage_names_metrics_and_budgets_line_up() {
        assert_eq!(Stage::ALL.len(), BUDGETS.len());
        for (stage, budget) in Stage::ALL.into_iter().zip(BUDGETS) {
            assert_eq!(stage, budget.stage, "budget table is in pipeline order");
            assert!(deepeye_obs::metrics::is_histogram(stage.metric()));
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert!(stage.span_name().starts_with("harness."));
        }
        assert_eq!(Stage::from_name("compile"), None);
        // PIPELINE is ALL minus the workspace-level analyze pass.
        assert!(!Stage::PIPELINE.contains(&Stage::Analyze));
        assert!(Stage::ALL.contains(&Stage::Analyze));
        assert_eq!(Stage::PIPELINE.len() + 1, Stage::ALL.len());
    }

    #[test]
    fn analyze_scenario_rows_validate() {
        let obs = Observer::enabled();
        record_stage_samples(&obs, Stage::Analyze, &[1_000, 2_000, 3_000]);
        let runs = vec![ScenarioRun {
            name: "analyze-workspace".into(),
            rows: 0,
            columns: 0,
            stages: vec![(
                Stage::Analyze,
                RobustTiming::from_samples(&[1_000, 2_000, 3_000]),
            )],
        }];
        let text = results_json(&runs, &obs.snapshot());
        let summary = validate_bench_json(&text).expect("valid");
        assert_eq!(summary.stage_rows, 1);
        assert!(text.contains("bench.analyze_ns"));
    }

    #[test]
    fn results_json_validates() {
        let text = sample_doc();
        let summary = validate_bench_json(&text).expect("valid");
        assert_eq!(summary.experiment, "harness");
        assert_eq!(summary.scenarios, 1);
        assert_eq!(summary.stage_rows, 5);
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
                good.replace("deepeye-bench/v1", "deepeye-bench/v0"),
                "schema",
            ),
            (good.replace("\"harness\"", "\"mystery\""), "experiment"),
            (
                good.replace("bench.enumerate_ns", "bench.enumarate_ns"),
                "metric",
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
        assert_eq!(clean.compared, 5);
        assert!(clean.regressions.is_empty(), "run vs itself is clean");

        // A synthetic 2000x slowdown in one stage (well past floor_ns).
        let slow = doc.replacen("\"median_ns\": 1050", "\"median_ns\": 2100000000", 1);
        let slow = slow.replacen("\"max_ns\": 5000", "\"max_ns\": 2100000000", 1);
        let report = perf_gate(&doc, &slow, &cfg).expect("gate runs");
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.stage, "enumerate", "first stage row is the slowed one");
        assert_eq!(r.metric, "bench.enumerate_ns");
        assert!(r.describe().contains("REGRESSION"));
        assert!(r.describe().contains("bench.enumerate_ns"));
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
            stages: vec![(Stage::Enumerate, RobustTiming::from_samples(&[100]))],
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
        let slow = doc.replacen("\"median_ns\": 1050", "\"median_ns\": 3000000000", 1);
        let slow = slow.replacen("\"max_ns\": 5000", "\"max_ns\": 3000000000", 1);
        let violations = check_budgets(&slow).expect("valid doc");
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("enumerate"));
        assert!(violations[0].contains("bench.enumerate_ns"));
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
