//! Acceptance tests for the continuous-performance layer: a miniature
//! harness run drives the shipping pipeline through the same scenario
//! runner as the `harness` binary, and the resulting artifacts must
//! satisfy the layer's contract — gate self-consistency, regression
//! naming, span accounting, folded-stack coverage, alloc columns in the
//! metrics document, and schema/doc sync.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::diff::diff_runs;
use deepeye_bench::perf::{
    check_budgets, perf_gate, results_json, run_scenario, validate_bench_json, GateConfig, Models,
    ScenarioSpec, Stage, SCHEMA_FIELDS, STAGES,
};
use deepeye_obs::{validate_cost_json, CostAcc, CostCollector, Observer, Op};
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
    mini_harness_with(obs, reps, &CostCollector::disabled())
}

/// [`mini_harness`] with cost profiling: when `costs` is enabled the
/// executor collects per-candidate operator counts and flushes the
/// `cost.*` counters.
fn mini_harness_with(obs: &Observer, reps: usize, costs: &CostCollector) -> String {
    let eye = models().pipeline(obs, costs);
    let run = run_scenario(&MINI, &eye, &STAGES, 0, reps).expect("scenario runs");
    results_json(&[run], &obs.snapshot())
}

#[test]
fn two_harness_runs_pass_the_gate() {
    let doc_a = mini_harness(&Observer::enabled(), 3);
    let doc_b = mini_harness(&Observer::enabled(), 3);
    for doc in [&doc_a, &doc_b] {
        let summary = validate_bench_json(doc).expect("document validates");
        assert_eq!(summary.experiment, "harness");
        assert_eq!(summary.stage_rows, STAGES.len());
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
    let report = perf_gate(&doc_a, &doc_b, &cfg).expect("gate runs");
    assert_eq!(report.compared, STAGES.len());
    assert!(
        report.regressions.is_empty(),
        "two back-to-back runs pass: {:?}",
        report.regressions
    );
    assert_eq!(check_budgets(&doc_a).expect("valid"), Vec::<String>::new());
}

#[test]
fn synthetic_slowdown_names_stage_and_span() {
    let obs = Observer::enabled();
    let baseline = mini_harness(&obs, 3);
    // Rebuild the same document with one stage's median doubled — the
    // shape of a real 2x regression in `recognize`.
    let doc = deepeye_obs::parse_json(&baseline).expect("valid");
    let row = doc
        .get("scenarios")
        .and_then(deepeye_obs::Json::as_array)
        .unwrap()[0]
        .get("stages")
        .and_then(deepeye_obs::Json::as_array)
        .unwrap()
        .iter()
        .find(|r| r.get("stage").and_then(deepeye_obs::Json::as_str) == Some("recognize"))
        .expect("recognize row");
    let median = row
        .get("median_ns")
        .and_then(deepeye_obs::Json::as_f64)
        .unwrap() as u64;
    let max = row
        .get("max_ns")
        .and_then(deepeye_obs::Json::as_f64)
        .unwrap() as u64;
    let slowed_median = (median * 2).max(median + 1_000_000_000);
    let current = baseline
        .replacen(
            &format!("\"median_ns\": {median}, \"iqr_ns\""),
            &format!("\"median_ns\": {slowed_median}, \"iqr_ns\""),
            1,
        )
        .replacen(
            &format!("\"max_ns\": {max}"),
            &format!("\"max_ns\": {}", slowed_median.max(max)),
            1,
        );
    assert_ne!(baseline, current, "substitution must hit");
    let report = perf_gate(&baseline, &current, &GateConfig::default()).expect("gate runs");
    assert_eq!(report.regressions.len(), 1, "exactly the slowed stage");
    let r = &report.regressions[0];
    assert_eq!(r.stage, "recognize");
    assert_eq!(r.span, "pipeline.recognize");
    assert_eq!(r.scenario, "mini-250x5");
}

#[test]
fn a_span_that_does_not_close_once_fails_the_run() {
    let ghost = Stage {
        name: "ghost",
        span: "pipeline.ghost",
        max_median_ns: 1,
    };
    let eye = models().pipeline(&Observer::enabled(), &CostCollector::disabled());
    let err = run_scenario(&MINI, &eye, &[STAGES[0], ghost], 0, 1).unwrap_err();
    assert!(err.contains("mini-250x5"), "{err}");
    assert!(
        err.contains("\"ghost\"") && err.contains("closed 0 times"),
        "{err}"
    );
    // A disabled observer closes no span at all.
    let blind = models().pipeline(&Observer::disabled(), &CostCollector::disabled());
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
fn metrics_document_carries_alloc_columns_per_stage() {
    let obs = Observer::enabled();
    let _doc = mini_harness(&obs, 2);
    let snapshot = obs.snapshot();
    let metrics = snapshot.metrics_json();
    deepeye_obs::validate_metrics_json(&metrics).expect("metrics validate with alloc fields");
    for field in ["alloc_count", "alloc_bytes", "alloc_peak"] {
        assert!(metrics.contains(field), "{field} present in metrics JSON");
    }
    // The execute stage materializes nodes, so its inclusive aggregate
    // must carry attributed bytes.
    let execute = snapshot.stage("pipeline.execute").expect("execute stage");
    assert!(execute.alloc_bytes > 0, "execute attributed bytes");
    assert!(execute.alloc_count > 0, "execute attributed count");
    assert!(execute.alloc_peak <= execute.alloc_bytes);
    // The human report shows the columns too.
    let report = snapshot.stage_report();
    assert!(report.contains("alloc"), "stage report has alloc columns");
}

#[test]
fn schema_fields_match_design_doc() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md readable");
    let start = design
        .find("## 9. Performance observability")
        .expect("DESIGN.md has section 9 on performance observability");
    let end = design[start..]
        .find("\n## 10.")
        .map(|i| start + i)
        .unwrap_or(design.len());
    let section = &design[start..end];
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
    let row = parsed
        .get("scenarios")
        .and_then(deepeye_obs::Json::as_array)
        .unwrap()[0]
        .get("stages")
        .and_then(deepeye_obs::Json::as_array)
        .unwrap()
        .iter()
        .find(|r| r.get("stage").and_then(deepeye_obs::Json::as_str) == Some(stage))
        .unwrap_or_else(|| panic!("{stage} row"));
    let median = row
        .get("median_ns")
        .and_then(deepeye_obs::Json::as_f64)
        .unwrap() as u64;
    let max = row
        .get("max_ns")
        .and_then(deepeye_obs::Json::as_f64)
        .unwrap() as u64;
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
fn costed_run_validates_and_matches_worker_counters() {
    let obs = Observer::enabled();
    let costs = CostCollector::enabled();
    let _doc = mini_harness_with(&obs, 2, &costs);
    let report = costs.report();
    assert!(!report.candidates.is_empty(), "candidates collected");
    let summary = validate_cost_json(&report.to_json()).expect("cost document validates");
    assert!(summary.total_ops > 0);
    assert_eq!(summary.candidates, report.candidates.len());
    // The exactness invariant across surfaces: collector totals equal
    // the `cost.*` counters the workers flushed under their
    // `execute.worker` spans — no operation lost or double-counted.
    let snapshot = obs.snapshot();
    for op in Op::ALL {
        assert_eq!(
            report.totals.get(op),
            snapshot.counter(op.metric()),
            "collector total vs worker counter for {}",
            op.metric()
        );
    }
}

#[test]
fn perfdiff_attributes_synthetic_execute_slowdown() {
    // Acceptance shape: a 2x execute slowdown plus an inflated
    // group-probe count must make perfdiff name the execute stage and
    // the probe bucket as the top attribution.
    let costs = CostCollector::enabled();
    let baseline = mini_harness_with(&Observer::enabled(), 2, &costs);
    let base_report = costs.report();
    assert!(!base_report.candidates.is_empty());
    let current = double_stage_median(&baseline, "execute");

    // A "current" cost document with 8x the group-hash probes, rebuilt
    // through a collector so the exactness invariant still holds.
    let cur_costs = CostCollector::enabled();
    let inflated: Vec<deepeye_obs::CandidateCost> = base_report
        .candidates
        .iter()
        .cloned()
        .map(|mut c| {
            c.costs
                .add(Op::GroupProbes, c.costs.get(Op::GroupProbes) * 7 + 1);
            c
        })
        .collect();
    cur_costs.record_worker(inflated);
    let base_cost_doc = base_report.to_json();
    let cur_cost_doc = cur_costs.report().to_json();

    let report = diff_runs(
        &baseline,
        &current,
        None,
        Some((&base_cost_doc, &cur_cost_doc)),
        &GateConfig::default(),
    )
    .expect("diff runs");
    let top = report.top_regression().expect("execute regressed");
    assert_eq!(top.stage, "execute");
    assert!(top.significant);
    let headline = report.attribution().expect("causal headline");
    assert!(headline.starts_with("execute regressed"), "{headline}");
    assert!(
        headline.contains("attributed to group_probes on"),
        "{headline}"
    );
    let bucket = &report.buckets[0];
    assert_eq!(bucket.op, "group_probes", "inflated bucket ranks first");
    assert!(bucket.delta > 0);
    // Growth spreads across rollup groups, but every growing bucket is
    // a probe bucket — probes own all of the attributed growth (shares
    // are per-bucket integer percentages, so their sum truncates low).
    assert!(
        report
            .buckets
            .iter()
            .filter(|b| b.delta > 0)
            .all(|b| b.op == "group_probes"),
        "only probe buckets grew"
    );
    let probe_share: u64 = report
        .buckets
        .iter()
        .filter(|b| b.op == "group_probes")
        .map(|b| b.share_pct)
        .sum();
    assert!(
        probe_share >= 80,
        "probes dominate the growth: {probe_share}%"
    );
    // The GitHub rendering survives the workflow-command quoting rules.
    for notice in report.github_notices(3) {
        assert!(notice.starts_with("::notice title=perfdiff"), "{notice}");
        assert!(!notice.contains('\n'), "{notice}");
    }
}
