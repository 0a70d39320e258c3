//! Acceptance tests for the pipeline observability layer: a default-config
//! run must emit (a) a stage report with nonzero enumerate/execute/rank
//! timings, (b) a JSON metrics snapshot whose counters match the
//! pipeline's own `SelectionStats`, and (c) a Chrome trace with balanced
//! span events — and a disabled observer must record nothing.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye::core::{DeepEye, DeepEyeConfig, ProgressiveSelector};
use deepeye::obs::{parse_json, validate_chrome_trace, Observer};
use deepeye::query::UdfRegistry;
use deepeye_data::{Table, TableBuilder};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

fn sales_table() -> Table {
    let mut region = Vec::new();
    let mut revenue = Vec::new();
    let mut units = Vec::new();
    for m in 0..12 {
        for (r, base) in [("North", 100.0), ("South", 80.0), ("East", 60.0)] {
            region.push(r.to_owned());
            revenue.push(base + m as f64 * 5.0);
            units.push((m * 2 + 1) as f64);
        }
    }
    TableBuilder::new("sales")
        .text("region", region)
        .numeric("revenue", revenue)
        .numeric("units", units)
        .build()
        .unwrap()
}

fn observed_eye(obs: &Observer) -> DeepEye {
    DeepEye::new(DeepEyeConfig {
        observer: obs.clone(),
        ..Default::default()
    })
}

#[test]
fn stage_report_has_nonzero_pipeline_timings() {
    let obs = Observer::enabled();
    let recs = observed_eye(&obs).recommend(&sales_table(), 5);
    assert!(!recs.is_empty());
    for stage in ["pipeline.enumerate", "pipeline.execute", "pipeline.rank"] {
        assert!(
            obs.stage_duration(stage) > Duration::ZERO,
            "{stage} has no recorded time:\n{}",
            obs.stage_report()
        );
    }
    let report = obs.stage_report();
    for needle in [
        "pipeline.recommend",
        "pipeline.enumerate",
        "pipeline.execute",
        "execute.worker",
        "execute.charts",
        "execute.features",
        "pipeline.rank",
        "rank.partial_order",
        "enumerate.candidates",
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle}:\n{report}"
        );
    }
}

#[test]
fn metrics_snapshot_matches_pipeline_counters() {
    let obs = Observer::enabled();
    let eye = observed_eye(&obs);
    let t = sales_table();
    let _ = eye.recommend(&t, 5);
    let json = parse_json(&obs.metrics_json()).expect("metrics JSON parses");
    let counters = json.get("counters").expect("counters object");
    for name in ["enumerate.candidates", "exec.ok", "exec.err", "rank.nodes"] {
        let exported = counters
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("counter {name} missing"));
        assert_eq!(exported as u64, obs.counter(name), "{name}");
    }
    // Every enumerated candidate was either executed ok or failed.
    assert_eq!(
        obs.counter("enumerate.candidates"),
        obs.counter("exec.ok") + obs.counter("exec.err")
    );
    // Execute's two phases: one span each per worker, exported under
    // the worker's path.
    let stages = json.get("stages").expect("stages object");
    let worker = "pipeline.recommend/pipeline.execute/execute.worker";
    let count = |path: &str| {
        stages
            .get(path)
            .and_then(|s| s.get("count"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("stage {path} missing"))
    };
    for child in ["execute.charts", "execute.features"] {
        assert_eq!(
            count(&format!("{worker}/{child}")),
            count(worker),
            "{child}"
        );
    }
}

#[test]
fn progressive_metrics_match_selection_stats() {
    let obs = Observer::enabled();
    let eye = observed_eye(&obs);
    let t = sales_table();
    let recs = eye.recommend_progressive(&t, 3);
    assert!(!recs.is_empty());
    // Reference run of the same tournament with no observer.
    let udfs = UdfRegistry::default();
    let (_, stats) = ProgressiveSelector::new(&t, &udfs).top_k(3);
    let json = parse_json(&obs.metrics_json()).expect("metrics JSON parses");
    let counters = json.get("counters").expect("counters object");
    for (name, want) in [
        ("progressive.leaves_materialized", stats.leaves_materialized),
        ("progressive.leaves_pruned", stats.leaves_pruned),
        ("progressive.leaves_total", stats.leaves_total),
        ("progressive.nodes_generated", stats.nodes_generated),
        ("progressive.shared_scans", stats.shared_scans),
    ] {
        let exported = counters
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("counter {name} missing"));
        assert_eq!(exported as usize, want, "{name}");
    }
    // Each materialized leaf is one `progressive.leaf` span under the
    // tournament's span.
    assert!(stats.leaves_materialized > 0, "{stats:?}");
    let leaf_path = "pipeline.progressive/progressive.top_k/progressive.leaf";
    let leaves = json
        .get("stages")
        .and_then(|s| s.get(leaf_path))
        .and_then(|s| s.get("count"))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("stage {leaf_path} missing"));
    assert_eq!(leaves as usize, stats.leaves_materialized);
}

#[test]
fn chrome_trace_is_balanced() {
    let obs = Observer::enabled();
    let eye = observed_eye(&obs);
    let t = sales_table();
    let _ = eye.recommend(&t, 5);
    let _ = eye.recommend_progressive(&t, 3);
    let trace = obs.chrome_trace_json();
    let summary = validate_chrome_trace(&trace).expect("trace validates");
    assert_eq!(summary.spans, obs.finished_spans().len());
    assert!(summary.max_depth >= 2, "nested spans expected: {summary:?}");
}

#[test]
fn parallel_and_sequential_counters_agree() {
    let t = sales_table();
    let run = |parallel: bool| {
        let obs = Observer::enabled();
        let eye = DeepEye::new(DeepEyeConfig {
            observer: obs.clone(),
            parallel,
            ..Default::default()
        });
        let recs = eye.recommend(&t, 5);
        (obs, recs)
    };
    let (par, par_recs) = run(true);
    let (seq, seq_recs) = run(false);
    assert_eq!(par_recs.len(), seq_recs.len());
    for name in ["enumerate.candidates", "exec.ok", "exec.err", "rank.nodes"] {
        assert_eq!(par.counter(name), seq.counter(name), "{name}");
    }
    for obs in [&par, &seq] {
        let workers = obs.stage_count("execute.worker");
        assert_eq!(obs.stage_count("execute.charts"), workers);
        assert_eq!(obs.stage_count("execute.features"), workers);
    }
}

/// A table with enough columns that `recommend` enumerates at least 32
/// candidates, so its parallel run cuts the work into worker chunks.
fn wide_table() -> Table {
    let n = 60;
    TableBuilder::new("wide")
        .text("region", (0..n).map(|i| ["North", "South", "East"][i % 3]))
        .text("channel", (0..n).map(|i| ["web", "store"][i % 2]))
        .numeric("revenue", (0..n).map(|i| 50.0 + (i * 7 % 31) as f64))
        .numeric("units", (0..n).map(|i| (i % 9) as f64))
        .numeric("cost", (0..n).map(|i| 20.0 + (i * 3 % 17) as f64))
        .build()
        .unwrap()
}

#[test]
fn every_worker_splits_into_charts_and_features() {
    let t = wide_table();
    for parallel in [false, true] {
        let obs = Observer::enabled();
        let eye = DeepEye::new(DeepEyeConfig {
            observer: obs.clone(),
            parallel,
            ..Default::default()
        });
        assert!(!eye.recommend(&t, 5).is_empty());
        assert!(
            obs.counter("enumerate.candidates") >= 32,
            "parallel = {parallel}"
        );
        let workers = obs.stage_count("execute.worker");
        assert!(workers >= 1);
        if !parallel {
            assert_eq!(workers, 1);
        }
        for child in ["execute.charts", "execute.features"] {
            assert_eq!(
                obs.stage_count(child),
                workers,
                "{child}, parallel = {parallel}"
            );
        }
    }
}

#[test]
fn disabled_observer_records_nothing() {
    let config = DeepEyeConfig::default();
    assert!(!config.observer.is_enabled());
    let obs = config.observer.clone();
    let eye = DeepEye::new(config);
    let recs = eye.recommend(&sales_table(), 5);
    assert!(!recs.is_empty());
    assert!(obs.finished_spans().is_empty());
    assert_eq!(obs.counter("enumerate.candidates"), 0);
    assert_eq!(obs.counter("exec.ok"), 0);
    let summary = validate_chrome_trace(&obs.chrome_trace_json()).expect("empty trace validates");
    assert_eq!(summary.spans, 0);
}

#[test]
fn cli_exports_metrics_and_trace() {
    let dir = std::env::temp_dir().join(format!("deepeye-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("sales.csv");
    let mut csv = String::from("month,region,revenue\n");
    for m in 1..=12 {
        for (r, base) in [("North", 100.0), ("South", 80.0)] {
            csv.push_str(&format!("2015-{m:02},{r},{:.0}\n", base + m as f64 * 5.0));
        }
    }
    std::fs::write(&csv_path, csv).unwrap();
    let metrics: PathBuf = dir.join("metrics.json");
    let trace: PathBuf = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_deepeye"))
        .args([
            "recommend",
            csv_path.to_str().unwrap(),
            "3",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pipeline stage report"), "stderr: {stderr}");
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    let json = parse_json(&metrics_text).expect("metrics JSON parses");
    assert!(json.get("counters").is_some());
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let summary = validate_chrome_trace(&trace_text).expect("trace validates");
    assert!(summary.spans > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_dangling_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_deepeye"))
        .args(["recommend", "x.csv", "--trace-out"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
