//! Self-test: every workload at a tiny scale, end to end and traced. The
//! printed metrics must be exactly the ones `BENCHMARK.json` declares, with
//! their units; no request may fail; and the traced run's on-path layer
//! means plus `trace.unattributed_ms` must add up to its request mean.

use deepeye_obs::{parse_json, Json};
use deepeye_perfbench::{run, Options, Report, Workload};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{section} entry without {key}"))
            .to_owned()
    };
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: 0.02,
    };
    run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// The result line carries exactly the declared metrics, each with its
/// unit and a finite value.
fn assert_prints(report: &Report, declared: &[(String, String)], label: &str) {
    let printed: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    assert_eq!(printed, declared, "{label}: metric names and units");
    let line = parse_json(&report.json()).expect("result line parses");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), declared.len(), "{label}: no extra metrics");
    for (name, unit) in declared {
        let m = line.get("metrics").and_then(|ms| ms.get(name));
        let m = m.unwrap_or_else(|| panic!("{label}: {name} missing from the line"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{label}: {name} = {value}");
    }
}

#[test]
fn end_to_end_runs_print_every_metric_and_fail_nothing() {
    let declared = declared("end_to_end");
    for workload in Workload::ALL {
        let report = tiny(workload, false);
        assert!(report.attempted > 0);
        assert_eq!(
            report.failed,
            0,
            "{}: error_rate must be 0",
            workload.name()
        );
        assert_prints(&report, &declared, workload.name());
        for name in ["latency_p50_ms", "tables_per_s", "setup_s", "peak_rss_mb"] {
            let value = report.metric(name).unwrap_or_default();
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_account_for_the_request() {
    let declared = declared("per_layer");
    for workload in Workload::ALL {
        let report = tiny(workload, true);
        assert_eq!(
            report.failed,
            0,
            "{}: error_rate must be 0",
            workload.name()
        );
        assert_prints(&report, &declared, workload.name());
        let split = report.trace.as_ref().expect("traced runs report a split");
        assert!(!split.layers.is_empty());
        let layers: f64 = split.layers.iter().map(|(_, ms)| ms).sum();
        let unattributed = report.metric("trace.unattributed_ms").unwrap_or(f64::NAN);
        assert!(
            (layers + unattributed - split.request_ms).abs() <= 1e-9 * split.request_ms,
            "{}: layers {layers} + unattributed {unattributed} != request {}",
            workload.name(),
            split.request_ms
        );
        // The layers are disjoint intervals inside the request.
        assert!(unattributed >= 0.0, "{}: {unattributed}", workload.name());
    }
}
