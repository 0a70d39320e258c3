//! Aggregation and the human/JSON exporters.
//!
//! A [`Snapshot`] reads the observer's per-*path* aggregates
//! (`pipeline.recommend/pipeline.execute/execute.worker`), carrying
//! counters and histogram summaries alongside. The same snapshot feeds
//! both the human-readable stage report and the JSON metrics export, so
//! every consumer reads identical numbers. Aggregates are maintained at
//! span close.

use crate::alloc::{fmt_bytes, AllocStats};
use crate::hist::HistSummary;
use crate::json::escape;
use crate::observer::State;

/// Aggregate of all spans sharing one path (root-to-leaf name chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAgg {
    /// Slash-joined name chain, e.g. `pipeline.recommend/pipeline.rank`.
    pub path: String,
    /// Leaf name of the path.
    pub name: &'static str,
    /// Nesting depth (0 = root).
    pub depth: usize,
    pub count: u64,
    pub total_ns: u64,
    /// Median span duration at this path (log2-bucket approximation).
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Inclusive attributed allocation events (this path and everything
    /// underneath it).
    pub alloc_count: u64,
    /// Inclusive attributed bytes.
    pub alloc_bytes: u64,
    /// Sum of per-span live-byte peaks underneath this path — an upper
    /// bound on concurrent live bytes, never an undercount.
    pub alloc_peak: u64,
}

/// Point-in-time aggregate view of an observer's recordings.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Stage aggregates sorted by path (so children follow parents).
    pub stages: Vec<StageAgg>,
    pub counters: Vec<(String, u64)>,
    pub hists: Vec<(String, HistSummary)>,
}

impl Snapshot {
    pub(crate) fn build(state: &State) -> Snapshot {
        let aggs = &state.paths.aggs;
        // Fold every path's self allocation stats into all of its
        // ancestors, so stage aggregates read inclusive. A child is
        // always interned after its parent (the parent was open when the
        // child started), so one reverse index walk propagates
        // grandchildren before their parents move up. A path whose spans
        // are all still open at snapshot time has `count == 0` and is
        // skipped from the export rather than invented.
        let mut inclusive: Vec<AllocStats> = aggs.iter().map(|a| a.alloc).collect();
        for i in (0..aggs.len()).rev() {
            let Some(parent) = aggs.get(i).and_then(|a| a.parent) else {
                continue;
            };
            let stats = inclusive.get(i).copied().unwrap_or_default();
            if let Some(slot) = inclusive.get_mut(parent as usize) {
                slot.merge(&stats);
            }
        }
        let mut stages: Vec<StageAgg> = aggs
            .iter()
            .zip(inclusive.iter())
            .filter(|(a, _)| a.count > 0)
            .map(|(a, alloc)| StageAgg {
                path: a.path.clone(),
                name: a.name,
                depth: a.depth,
                count: a.count,
                total_ns: a.total_ns,
                p50_ns: a.hist.quantile(0.50),
                p95_ns: a.hist.quantile(0.95),
                p99_ns: a.hist.quantile(0.99),
                alloc_count: alloc.count,
                alloc_bytes: alloc.bytes,
                alloc_peak: alloc.peak,
            })
            .collect();
        stages.sort_by(|a, b| a.path.cmp(&b.path));
        Snapshot {
            stages,
            counters: state
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            hists: state
                .hists
                .iter()
                .map(|(k, h)| ((*k).to_owned(), h.summary()))
                .collect(),
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Stage aggregate whose leaf name matches (first in path order).
    pub fn stage(&self, name: &str) -> Option<&StageAgg> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The human-readable per-stage report.
    pub fn stage_report(&self) -> String {
        let mut out = String::from("== pipeline stage report ==\n");
        if self.stages.is_empty() {
            out.push_str("(no spans recorded)\n");
        } else {
            let name_width = self
                .stages
                .iter()
                .map(|s| 2 * s.depth + s.name.len())
                .max()
                .unwrap_or(0)
                .max("stage".len());
            out.push_str(&format!(
                "{:<name_width$}  {:>6}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>8}  {:>10}  {:>10}\n",
                "stage", "count", "total", "mean", "p50", "p95", "p99", "allocs", "alloc", "peak"
            ));
            for s in &self.stages {
                let mean_ns = s.total_ns.checked_div(s.count).unwrap_or(0);
                out.push_str(&format!(
                    "{:<name_width$}  {:>6}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>8}  {:>10}  {:>10}\n",
                    format!("{}{}", "  ".repeat(s.depth), s.name),
                    s.count,
                    fmt_duration(s.total_ns),
                    fmt_duration(mean_ns),
                    fmt_duration(s.p50_ns),
                    fmt_duration(s.p95_ns),
                    fmt_duration(s.p99_ns),
                    s.alloc_count,
                    fmt_bytes(s.alloc_bytes),
                    fmt_bytes(s.alloc_peak),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            let width = self
                .counters
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("\nhistograms:\n");
            for (name, h) in &self.hists {
                out.push_str(&format!(
                    "  {name}  count={} mean={} p50={} p95={} p99={} max={}\n",
                    h.count,
                    fmt_duration(h.mean as u64),
                    fmt_duration(h.p50),
                    fmt_duration(h.p95),
                    fmt_duration(h.p99),
                    fmt_duration(h.max),
                ));
            }
        }
        out
    }

    /// The JSON metrics export: counters, histogram summaries, and span
    /// aggregates keyed by path.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(name), value));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean,
                h.p50,
                h.p95,
                h.p99
            ));
        }
        if !self.hists.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"stages\": {");
        for (i, s) in self.stages.iter().enumerate() {
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
        if !self.stages.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Summary returned by [`validate_metrics_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSummary {
    pub counters: usize,
    pub histograms: usize,
    pub stages: usize,
}

fn non_negative_int(v: &crate::json::Json, what: &str) -> Result<u64, String> {
    let x = v
        .as_f64()
        .ok_or_else(|| format!("{what} is not a number"))?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(format!("{what} = {x} is not a non-negative integer"));
    }
    Ok(x as u64)
}

/// Validate a [`Snapshot::metrics_json`] document: the three top-level
/// objects must be present, counters must be non-negative integers, and
/// each histogram summary must be internally consistent (all eight fields
/// present; when `count > 0`, `min ≤ p50 ≤ p95 ≤ p99 ≤ max`,
/// `min ≤ mean ≤ max`, and `sum ≥ max`). Every stage must carry ordered
/// `p50_ns ≤ p95_ns ≤ p99_ns` duration quantiles with `p99_ns ≤
/// total_ns`, plus the three `alloc_*` attribution fields with
/// `alloc_peak ≤ alloc_bytes` and no bytes without events.
pub fn validate_metrics_json(text: &str) -> Result<MetricsSummary, String> {
    use crate::json::{parse_json, Json};
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let counters = doc
        .get("counters")
        .and_then(Json::as_object)
        .ok_or("missing `counters` object")?;
    for (name, value) in counters {
        non_negative_int(value, &format!("counter `{name}`"))?;
    }
    let hists = doc
        .get("histograms")
        .and_then(Json::as_object)
        .ok_or("missing `histograms` object")?;
    for (name, h) in hists {
        let field = |key: &str| -> Result<u64, String> {
            non_negative_int(
                h.get(key)
                    .ok_or_else(|| format!("histogram `{name}` missing `{key}`"))?,
                &format!("histogram `{name}`.{key}"),
            )
        };
        let count = field("count")?;
        let sum = field("sum_ns")?;
        let min = field("min_ns")?;
        let max = field("max_ns")?;
        let mean = h
            .get("mean_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("histogram `{name}` missing `mean_ns`"))?;
        let p50 = field("p50_ns")?;
        let p95 = field("p95_ns")?;
        let p99 = field("p99_ns")?;
        if count > 0 {
            if !(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max) {
                return Err(format!(
                    "histogram `{name}` percentiles not monotonic: \
                     min {min} p50 {p50} p95 {p95} p99 {p99} max {max}"
                ));
            }
            if mean < min as f64 || mean > max as f64 {
                return Err(format!(
                    "histogram `{name}` mean {mean} outside [{min}, {max}]"
                ));
            }
            if sum < max {
                return Err(format!("histogram `{name}` sum {sum} < max {max}"));
            }
        }
    }
    let stages = doc
        .get("stages")
        .and_then(Json::as_object)
        .ok_or("missing `stages` object")?;
    for (path, s) in stages {
        let count = non_negative_int(
            s.get("count")
                .ok_or_else(|| format!("stage `{path}` missing `count`"))?,
            &format!("stage `{path}`.count"),
        )?;
        if count == 0 {
            return Err(format!("stage `{path}` has zero count"));
        }
        let total_ns = non_negative_int(
            s.get("total_ns")
                .ok_or_else(|| format!("stage `{path}` missing `total_ns`"))?,
            &format!("stage `{path}`.total_ns"),
        )?;
        let stage_field = |key: &str| -> Result<u64, String> {
            non_negative_int(
                s.get(key)
                    .ok_or_else(|| format!("stage `{path}` missing `{key}`"))?,
                &format!("stage `{path}`.{key}"),
            )
        };
        let p50 = stage_field("p50_ns")?;
        let p95 = stage_field("p95_ns")?;
        let p99 = stage_field("p99_ns")?;
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "stage `{path}` quantiles not monotonic: p50 {p50} p95 {p95} p99 {p99}"
            ));
        }
        if p99 > total_ns {
            return Err(format!(
                "stage `{path}` p99 {p99} exceeds total_ns {total_ns}"
            ));
        }
        let alloc_field = |key: &str| -> Result<u64, String> {
            non_negative_int(
                s.get(key)
                    .ok_or_else(|| format!("stage `{path}` missing `{key}`"))?,
                &format!("stage `{path}`.{key}"),
            )
        };
        let alloc_count = alloc_field("alloc_count")?;
        let alloc_bytes = alloc_field("alloc_bytes")?;
        let alloc_peak = alloc_field("alloc_peak")?;
        if alloc_peak > alloc_bytes {
            return Err(format!(
                "stage `{path}` alloc_peak {alloc_peak} exceeds alloc_bytes {alloc_bytes}"
            ));
        }
        if alloc_count == 0 && alloc_bytes > 0 {
            return Err(format!(
                "stage `{path}` has {alloc_bytes} attributed bytes but zero events"
            ));
        }
    }
    Ok(MetricsSummary {
        counters: counters.len(),
        histograms: hists.len(),
        stages: stages.len(),
    })
}

/// Render nanoseconds human-readably (`532ns`, `1.2µs`, `43ms`, `2.1s`).
pub fn fmt_duration(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};
    use crate::Observer;

    fn sample_observer() -> Observer {
        let obs = Observer::enabled();
        {
            let _root = obs.span("pipeline.recommend");
            {
                let _e = obs.span("pipeline.enumerate");
                obs.alloc_many(2, 64);
            }
            {
                let _x = obs.span("pipeline.execute");
                obs.alloc(192);
            }
        }
        obs.incr("enumerate.candidates", 12);
        obs.record_many_ns("progressive.leaf_ns", &[100, 2_000, 30_000]);
        obs
    }

    #[test]
    fn stage_paths_nest() {
        let snap = sample_observer().snapshot();
        let paths: Vec<&str> = snap.stages.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"pipeline.recommend"));
        assert!(paths.contains(&"pipeline.recommend/pipeline.enumerate"));
        assert!(paths.contains(&"pipeline.recommend/pipeline.execute"));
        let root = snap.stage("pipeline.recommend").expect("root present");
        assert_eq!(root.depth, 0);
        assert_eq!(root.count, 1);
        let child = snap.stage("pipeline.enumerate").expect("child present");
        assert_eq!(child.depth, 1);
    }

    #[test]
    fn repeated_spans_aggregate() {
        let obs = Observer::enabled();
        for _ in 0..5 {
            let _s = obs.span("op");
        }
        let snap = obs.snapshot();
        assert_eq!(snap.stage("op").map(|s| s.count), Some(5));
        assert_eq!(snap.stages.len(), 1);
    }

    #[test]
    fn stage_report_renders_everything() {
        let report = sample_observer().stage_report();
        assert!(report.contains("pipeline.recommend"));
        assert!(report.contains("  pipeline.enumerate"), "indented child");
        assert!(report.contains("enumerate.candidates"));
        assert!(report.contains("progressive.leaf_ns"));
        assert!(report.contains("count=3"));
    }

    #[test]
    fn empty_report_renders() {
        let report = Observer::enabled().stage_report();
        assert!(report.contains("no spans recorded"));
    }

    #[test]
    fn alloc_aggregates_are_inclusive() {
        let snap = sample_observer().snapshot();
        let root = snap.stage("pipeline.recommend").expect("root");
        assert_eq!(root.alloc_count, 3, "root folds both children in");
        assert_eq!(root.alloc_bytes, 256);
        assert_eq!(root.alloc_peak, 256);
        let enumerate = snap.stage("pipeline.enumerate").expect("child");
        assert_eq!(enumerate.alloc_count, 2);
        assert_eq!(enumerate.alloc_bytes, 64);
        // Children never exceed the parent's inclusive totals.
        let child_bytes: u64 = snap
            .stages
            .iter()
            .filter(|s| s.depth == 1)
            .map(|s| s.alloc_bytes)
            .sum();
        assert!(child_bytes <= root.alloc_bytes);
    }

    #[test]
    fn stage_report_shows_alloc_columns() {
        let report = sample_observer().stage_report();
        assert!(report.contains("allocs"), "alloc column header");
        assert!(report.contains("256B"), "inclusive root bytes rendered");
    }

    #[test]
    fn metrics_json_carries_alloc_fields() {
        let doc = parse_json(&sample_observer().metrics_json()).expect("valid JSON");
        let root = doc
            .get("stages")
            .and_then(|s| s.get("pipeline.recommend"))
            .expect("root stage exported");
        assert_eq!(root.get("alloc_count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(root.get("alloc_bytes").and_then(Json::as_f64), Some(256.0));
        assert_eq!(root.get("alloc_peak").and_then(Json::as_f64), Some(256.0));
    }

    #[test]
    fn validator_rejects_inconsistent_alloc_fields() {
        // Missing field.
        let doc = sample_observer()
            .metrics_json()
            .replace("\"alloc_peak\": ", "\"alloc_peek\": ");
        assert!(validate_metrics_json(&doc).unwrap_err().contains("alloc"));
        // Peak above bytes.
        let doc = sample_observer()
            .metrics_json()
            .replace("\"alloc_peak\": 256", "\"alloc_peak\": 999");
        assert!(validate_metrics_json(&doc).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn metrics_json_is_valid_and_faithful() {
        let obs = sample_observer();
        let doc = parse_json(&obs.metrics_json()).expect("valid JSON");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("enumerate.candidates"))
                .and_then(Json::as_f64),
            Some(12.0)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("progressive.leaf_ns"))
            .expect("histogram exported");
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(hist.get("sum_ns").and_then(Json::as_f64), Some(32_100.0));
        let stages = doc.get("stages").and_then(Json::as_object).expect("stages");
        assert!(stages
            .iter()
            .any(|(k, _)| k == "pipeline.recommend/pipeline.execute"));
    }

    #[test]
    fn disabled_metrics_json_is_valid() {
        let doc = parse_json(&Observer::disabled().metrics_json()).expect("valid JSON");
        assert!(doc
            .get("counters")
            .and_then(Json::as_object)
            .map(<[(String, Json)]>::is_empty)
            .unwrap_or(false));
    }

    #[test]
    fn validator_accepts_real_exports() {
        let summary =
            validate_metrics_json(&sample_observer().metrics_json()).expect("valid metrics");
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.histograms, 1);
        assert!(summary.stages >= 3);
        // The empty (disabled) export is also well-formed.
        let empty = validate_metrics_json(&Observer::disabled().metrics_json()).unwrap();
        assert_eq!(empty.counters, 0);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_metrics_json("not json").is_err());
        assert!(validate_metrics_json("{}")
            .unwrap_err()
            .contains("counters"));
        // Percentile order violated.
        let doc = sample_observer()
            .metrics_json()
            .replace("\"p50_ns\": ", "\"p50_ns\": 99999999999, \"ignored\": ");
        assert!(validate_metrics_json(&doc)
            .unwrap_err()
            .contains("monotonic"));
        // Negative counter.
        let doc = sample_observer().metrics_json().replace(
            "\"enumerate.candidates\": 12",
            "\"enumerate.candidates\": -3",
        );
        assert!(validate_metrics_json(&doc)
            .unwrap_err()
            .contains("non-negative"));
    }

    #[test]
    fn stage_quantiles_are_exported_and_ordered() {
        let obs = Observer::enabled();
        for _ in 0..20 {
            let _s = obs.span("op");
        }
        let snap = obs.snapshot();
        let op = snap.stage("op").expect("aggregated");
        assert!(op.p50_ns <= op.p95_ns && op.p95_ns <= op.p99_ns);
        assert!(op.p99_ns <= op.total_ns);
        let report = snap.stage_report();
        for col in ["p50", "p95", "p99"] {
            assert!(report.contains(col), "missing column {col}");
        }
        let doc = parse_json(&snap.metrics_json()).expect("valid JSON");
        let stage = doc.get("stages").and_then(|s| s.get("op")).expect("op row");
        for key in ["p50_ns", "p95_ns", "p99_ns"] {
            assert!(
                stage.get(key).and_then(Json::as_f64).is_some(),
                "missing {key}"
            );
        }
    }

    #[test]
    fn validator_rejects_broken_stage_quantiles() {
        // Missing stage quantile field.
        let bad = r#"{"counters": {}, "histograms": {}, "stages": {"op":
            {"count": 1, "total_ns": 10, "p95_ns": 1, "p99_ns": 1,
             "alloc_count": 0, "alloc_bytes": 0, "alloc_peak": 0}}}"#;
        assert!(validate_metrics_json(bad).unwrap_err().contains("p50_ns"));
        // Out-of-order stage quantiles.
        let bad = r#"{"counters": {}, "histograms": {}, "stages": {"op":
            {"count": 1, "total_ns": 10, "p50_ns": 9, "p95_ns": 1, "p99_ns": 10,
             "alloc_count": 0, "alloc_bytes": 0, "alloc_peak": 0}}}"#;
        assert!(validate_metrics_json(bad)
            .unwrap_err()
            .contains("monotonic"));
        // Stage quantile above total_ns is impossible.
        let obs = Observer::enabled();
        {
            let _s = obs.span("op");
        }
        let json = obs.metrics_json();
        let op = parse_json(&json)
            .ok()
            .and_then(|d| {
                d.get("stages")
                    .and_then(|s| s.get("op"))
                    .and_then(|s| s.get("total_ns"))
                    .and_then(Json::as_f64)
            })
            .expect("total exported") as u64;
        let bad = json.replace(
            &format!("\"total_ns\": {op}"),
            &format!("\"total_ns\": {op}, \"p99_ns\": {}", op + 10),
        );
        assert!(validate_metrics_json(&bad).unwrap_err().contains("p99"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(0), "0ns");
        assert_eq!(fmt_duration(532), "532ns");
        assert_eq!(fmt_duration(1_200), "1.2µs");
        assert_eq!(fmt_duration(43_000_000), "43.0ms");
        assert_eq!(fmt_duration(2_100_000_000), "2.10s");
    }
}
