//! Acceptance tests for the continuous-performance layer: a miniature
//! harness run drives the shipping pipeline through the same scenario
//! runner as the `harness` binary, and the resulting artifacts must
//! satisfy the layer's contract — gate self-consistency, regression
//! naming, one close per stage span and repetition, execute's split into
//! its two child spans, folded-stack coverage, the gate's span-path
//! attribution, and schema/doc sync.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::diff::{diff_runs, GateConfig};
use deepeye_bench::perf::{
    read_bench, results_json, run_scenario, Models, ScenarioSpec, Stage, SCHEMA_FIELDS, STAGES,
};
use deepeye_obs::{Json, Observer};
use std::sync::OnceLock;

/// The scenario every test runs: a small generated table.
const MINI: ScenarioSpec = ScenarioSpec {
    name: "mini-250x5",
    rows: 250,
    columns: 5,
    seed: 7,
};

/// The shipping models, trained once for the whole test binary.
fn models() -> &'static Models {
    static MODELS: OnceLock<Models> = OnceLock::new();
    MODELS.get_or_init(|| Models::train(0.03))
}

/// A scaled-down harness pass: the mini scenario through the shipping
/// pipeline for `reps` repetitions, recorded into `obs`.
fn mini_harness(obs: &Observer, reps: usize) -> String {
    let eye = models().pipeline(obs);
    let run = run_scenario(&MINI, &eye, &STAGES, 0, reps).expect("scenario runs");
    results_json(&[run], &obs.snapshot())
}

#[test]
fn two_harness_runs_pass_the_gate() {
    let doc_a = mini_harness(&Observer::enabled(), 3);
    let doc_b = mini_harness(&Observer::enabled(), 3);
    for doc in [&doc_a, &doc_b] {
        let read = read_bench(doc).expect("document validates");
        assert_eq!(read.rows.len(), STAGES.len());
        for stage in ["ingest", "partial_order", "progressive"] {
            assert!(doc.contains(&format!("\"stage\": \"{stage}\"")), "{stage}");
        }
    }
    // Debug-build timings are noisy; the CI gate's generous smoke
    // thresholds are what we model here.
    let cfg = GateConfig {
        rel: 5.0,
        iqr_mult: 5.0,
        floor_ns: 200_000_000,
    };
    let report = diff_runs(&doc_a, &doc_b, &cfg, None).expect("gate runs");
    assert_eq!(report.stages.len(), STAGES.len());
    assert!(
        report.failures().is_empty(),
        "two back-to-back runs pass, within budget: {:?}",
        report.failures()
    );
    // Equal scenarios × passes: the span-path layer is compared.
    assert_eq!(report.paths_skipped, None);
}

#[test]
fn synthetic_slowdown_names_stage_and_span() {
    let baseline = mini_harness(&Observer::enabled(), 3);
    // The same document with one stage's median doubled — the shape of a
    // real 2x regression in `recognize`.
    let current = double_stage_median(&baseline, "recognize");
    let report = diff_runs(&baseline, &current, &GateConfig::default(), None).expect("gate runs");
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "exactly the slowed stage: {failures:?}");
    assert!(
        failures[0].starts_with("REGRESSION mini-250x5 / recognize (pipeline.recognize): median "),
        "{failures:?}"
    );
}

#[test]
fn a_span_that_does_not_close_once_fails_the_run() {
    let ghost = Stage {
        name: "ghost",
        span: "pipeline.ghost",
        max_median_ns: 1,
    };
    let eye = models().pipeline(&Observer::enabled());
    let err = run_scenario(&MINI, &eye, &[STAGES[0], ghost], 0, 1).unwrap_err();
    assert!(err.contains("mini-250x5"), "{err}");
    assert!(
        err.contains("\"ghost\"") && err.contains("closed 0 times"),
        "{err}"
    );
    // A disabled observer closes no span at all.
    let blind = models().pipeline(&Observer::disabled());
    let err = run_scenario(&MINI, &blind, &STAGES, 0, 1).unwrap_err();
    assert!(
        err.contains("\"ingest\"") && err.contains("closed 0 times"),
        "{err}"
    );
}

#[test]
fn folded_stacks_cover_root_span_time() {
    let obs = Observer::enabled();
    let _doc = mini_harness(&obs, 2);
    let folded = obs.folded_stacks();
    assert!(!folded.is_empty(), "non-empty folded-stack export");
    // Sum of self-times per root frame vs total root inclusive time.
    let mut per_root: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for line in folded.lines() {
        let (path, ns) = line.rsplit_once(' ').expect("folded line shape");
        let root = path.split(';').next().expect("non-empty path");
        *per_root.entry(root).or_default() += ns.parse::<u64>().expect("ns");
    }
    let total_folded: u64 = per_root.values().sum();
    let total_roots: u64 = obs
        .finished_spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns)
        .sum();
    assert!(total_roots > 0);
    assert!(
        total_folded * 100 >= total_roots * 95,
        "folded stacks account for >= 95% of root span time \
         (folded {total_folded} vs roots {total_roots})"
    );
}

#[test]
fn schema_fields_match_design_doc() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md readable");
    let start = design
        .find("## 9. Performance observability")
        .expect("DESIGN.md has section 9 on performance observability");
    let end = design[start + 1..]
        .find("\n## ")
        .map(|i| start + 1 + i)
        .unwrap_or(design.len());
    let section = &design[start..end];
    assert!(
        section.contains("`perfgate`"),
        "section 9 documents the gate"
    );
    let doc = mini_harness(&Observer::enabled(), 1);
    for field in SCHEMA_FIELDS {
        assert!(
            section.contains(&format!("`{field}`")),
            "DESIGN.md section 9 must document schema field {field:?}"
        );
        assert!(
            doc.contains(&format!("\"{field}\"")),
            "generated document must carry schema field {field:?}"
        );
    }
}

/// Double one stage's median in a harness document, keeping everything
/// else byte-identical — the shape of a clean synthetic regression.
fn double_stage_median(doc: &str, stage: &str) -> String {
    let parsed = deepeye_obs::parse_json(doc).expect("valid");
    let row = parsed.get("scenarios").and_then(Json::as_array).unwrap()[0]
        .get("stages")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|r| r.get("stage").and_then(Json::as_str) == Some(stage))
        .unwrap_or_else(|| panic!("{stage} row"));
    let median = row.get("median_ns").and_then(Json::as_f64).unwrap() as u64;
    let max = row.get("max_ns").and_then(Json::as_f64).unwrap() as u64;
    let slowed = (median * 2).max(median + 1_000_000_000);
    let current = doc
        .replacen(
            &format!("\"median_ns\": {median}, \"iqr_ns\""),
            &format!("\"median_ns\": {slowed}, \"iqr_ns\""),
            1,
        )
        .replacen(
            &format!("\"max_ns\": {max}"),
            &format!("\"max_ns\": {}", slowed.max(max)),
            1,
        );
    assert_ne!(doc, current, "substitution must hit");
    current
}

#[test]
fn execute_children_cover_the_worker() {
    let obs = Observer::enabled();
    let _doc = mini_harness(&obs, 2);
    let workers = obs.stage_count("execute.worker");
    assert!(workers >= 2, "one worker span or more per repetition");
    for child in ["execute.charts", "execute.features"] {
        assert_eq!(
            obs.stage_count(child),
            workers,
            "{child} closes once per worker"
        );
    }
    let worker = obs.stage_duration("execute.worker");
    let children = obs.stage_duration("execute.charts") + obs.stage_duration("execute.features");
    assert!(
        children.as_nanos() * 10 >= worker.as_nanos() * 9,
        "the two phases cover >= 90% of the worker span ({children:?} of {worker:?})"
    );
}

/// Add `delta_ns` to the `total_ns` of each of `paths` in a document's
/// `"stages"` tail.
fn inflate_paths(doc: &str, paths: &[&str], delta_ns: u64) -> String {
    let parsed = deepeye_obs::parse_json(doc).expect("valid");
    let tail = parsed.get("stages").expect("stages tail");
    let mut out = doc.to_owned();
    for path in paths {
        let agg = tail
            .get(path)
            .unwrap_or_else(|| panic!("{path} in the tail"));
        let field = |key: &str| agg.get(key).and_then(Json::as_f64).unwrap() as u64;
        let (count, total) = (field("count"), field("total_ns"));
        let row = |ns: u64| format!("\"{path}\": {{\"count\": {count}, \"total_ns\": {ns},");
        let inflated = out.replacen(&row(total), &row(total + delta_ns), 1);
        assert_ne!(inflated, out, "substitution must hit {path}");
        out = inflated;
    }
    out
}

#[test]
fn perfgate_attributes_synthetic_execute_slowdown() {
    // Acceptance shape: a 2x execute slowdown whose time all lands in
    // feature extraction must make the gate name the execute stage and
    // the `execute.features` span path as the top attribution.
    let baseline = mini_harness(&Observer::enabled(), 2);
    let current = double_stage_median(&baseline, "execute");
    let features = "pipeline.recommend/pipeline.execute/execute.worker/execute.features";
    // The slowdown shows in the features span and, inclusively, in
    // every ancestor.
    let ancestors = [
        "pipeline.recommend",
        "pipeline.recommend/pipeline.execute",
        "pipeline.recommend/pipeline.execute/execute.worker",
        features,
    ];
    let current = inflate_paths(&current, &ancestors, 1_000_000_000);

    let report = diff_runs(&baseline, &current, &GateConfig::default(), None).expect("diff runs");
    let top = report.top_regression().expect("execute regressed");
    assert_eq!(top.stage.name, "execute");
    let headline = report.attribution().expect("causal headline");
    assert!(headline.starts_with("execute regressed"), "{headline}");
    assert!(
        headline.contains(&format!("most growth in {features} (+1.00s)")),
        "{headline}"
    );
    // Self times: only the features path moved.
    let grown: Vec<&str> = report
        .paths
        .iter()
        .filter(|p| p.delta_ns > 0)
        .map(|p| p.path.as_str())
        .collect();
    assert_eq!(grown, [features], "{:?}", report.paths);
    // The GitHub rendering survives the workflow-command quoting rules.
    for notice in report.github_notices() {
        assert!(notice.starts_with("::notice title=perfgate"), "{notice}");
        assert!(!notice.contains('\n'), "{notice}");
    }
}
