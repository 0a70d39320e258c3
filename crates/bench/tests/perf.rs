//! Acceptance tests for the continuous-performance layer: a miniature
//! in-process harness run drives the real pipeline stages, and the
//! resulting artifacts must satisfy the layer's contract — gate
//! self-consistency, regression naming, folded-stack coverage, alloc
//! columns in the metrics document, and schema/doc sync.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::diff::diff_runs;
use deepeye_bench::perf::{
    check_budgets, perf_gate, record_stage_samples, results_json, validate_bench_json, GateConfig,
    RobustTiming, ScenarioRun, Stage, BUDGETS, SCHEMA_FIELDS,
};
use deepeye_core::{build_nodes, ProgressiveSelector};
use deepeye_datagen::flight_table;
use deepeye_obs::{validate_cost_json, CostAcc, CostCollector, Observer, Op, Stopwatch};
use deepeye_query::UdfRegistry;

/// A scaled-down harness pass over one small table: every stage timed
/// under its span for `reps` repetitions, samples recorded into the
/// `bench.*` histograms, robust summaries into the document.
fn mini_harness(obs: &Observer, reps: usize) -> String {
    mini_harness_with(obs, reps, &CostCollector::disabled())
}

/// [`mini_harness`] with cost profiling: the execute stage runs through
/// the costed parallel builder, so `costs` (when enabled) collects
/// per-candidate operator counts and flushes the `cost.*` counters.
fn mini_harness_with(obs: &Observer, reps: usize, costs: &CostCollector) -> String {
    let table = flight_table(7, 250);
    let udfs = UdfRegistry::default();
    let queries = deepeye_core::rules::rule_based_queries(&table);
    let nodes = build_nodes(
        &table,
        queries.clone(),
        &udfs,
        false,
        true,
        obs,
        None,
        &CostCollector::disabled(),
    );
    let mut stages: Vec<(Stage, RobustTiming)> = Vec::new();
    for stage in Stage::PIPELINE {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let span = obs.span(stage.span_name());
            let clock = Stopwatch::start();
            match stage {
                Stage::Enumerate => {
                    std::hint::black_box(deepeye_core::rules::rule_based_queries(&table));
                }
                Stage::Execute => {
                    std::hint::black_box(build_nodes(
                        &table,
                        queries.clone(),
                        &udfs,
                        true,
                        true,
                        obs,
                        span.id(),
                        costs,
                    ));
                }
                Stage::Recognize => {
                    std::hint::black_box(nodes.iter().filter(|n| n.source_rows() > 0).count());
                }
                Stage::Rank => {
                    std::hint::black_box(deepeye_core::compute_factors(&nodes));
                }
                Stage::TopK => {
                    std::hint::black_box(
                        ProgressiveSelector::new(&table, &udfs).top_k_observed(5, obs),
                    );
                }
                Stage::Analyze => unreachable!("analyze is not a per-table pipeline stage"),
            }
            samples.push(clock.elapsed_ns());
        }
        record_stage_samples(obs, stage, &samples);
        stages.push((stage, RobustTiming::from_samples(&samples)));
    }
    let runs = vec![ScenarioRun {
        name: "mini-250x5".into(),
        rows: table.row_count(),
        columns: table.column_count(),
        stages,
    }];
    results_json(&runs, &obs.snapshot())
}

#[test]
fn two_harness_runs_pass_the_gate() {
    let doc_a = mini_harness(&Observer::enabled(), 3);
    let doc_b = mini_harness(&Observer::enabled(), 3);
    for doc in [&doc_a, &doc_b] {
        let summary = validate_bench_json(doc).expect("document validates");
        assert_eq!(summary.experiment, "harness");
        assert_eq!(summary.stage_rows, 5);
    }
    // Debug-build timings are noisy; the CI gate's generous smoke
    // thresholds are what we model here.
    let cfg = GateConfig {
        rel: 5.0,
        iqr_mult: 5.0,
        floor_ns: 200_000_000,
    };
    let report = perf_gate(&doc_a, &doc_b, &cfg).expect("gate runs");
    assert_eq!(report.compared, 5);
    assert!(
        report.regressions.is_empty(),
        "two back-to-back runs pass: {:?}",
        report.regressions
    );
    assert_eq!(check_budgets(&doc_a).expect("valid"), Vec::<String>::new());
}

#[test]
fn synthetic_slowdown_names_stage_and_metric() {
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
    assert_eq!(r.metric, "bench.recognize_ns");
    assert_eq!(r.scenario, "mini-250x5");
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
    let execute = snapshot.stage("harness.execute").expect("execute stage");
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

#[test]
fn budget_table_covers_every_stage() {
    for stage in Stage::ALL {
        let budget = BUDGETS
            .iter()
            .find(|b| b.stage == stage)
            .expect("every stage has a budget");
        assert!(budget.max_median_ns > 0);
        assert!(deepeye_obs::metrics::is_histogram(budget.metric()));
    }
}
