//! Aggregation and the human/JSON exporters.
//!
//! A [`Snapshot`] groups the observer's finished spans by *path*
//! (`pipeline.recommend/pipeline.execute/execute.worker`, the same paths
//! the flame views draw) and carries the counters alongside. Each path's
//! count, total and p50/p95/p99 are computed from its spans' recorded
//! durations when the snapshot is taken; the quantiles are nearest-rank,
//! so each one is a duration some span measured. The same snapshot feeds
//! the human-readable stage report, the JSON metrics export and the bench
//! documents' tail, so every consumer reads identical numbers.

use crate::json::escape;
use crate::observer::{span_paths, SpanRecord};
use std::collections::BTreeMap;

/// Aggregate of all spans sharing one path (root-to-leaf name chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAgg {
    /// Slash-joined name chain, e.g. `pipeline.recommend/pipeline.rank`.
    pub path: String,
    /// Leaf name of the path.
    pub name: &'static str,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// How many spans at this path finished.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Nearest-rank median of their durations ([`nearest_rank`]): a
    /// duration one of them measured.
    pub p50_ns: u64,
    /// Nearest-rank 95th percentile of their durations.
    pub p95_ns: u64,
    /// Nearest-rank 99th percentile of their durations.
    pub p99_ns: u64,
}

/// The nearest-rank `percent`-th percentile of ascending samples: the
/// smallest sample with at least `percent`% of the samples at or below
/// it, `sorted[⌈percent·n/100⌉ − 1]` (the smallest sample at 0; above
/// 100 reads as 100). 0 when there are no samples.
pub fn nearest_rank(sorted: &[u64], percent: u8) -> u64 {
    let rank = (sorted.len() * usize::from(percent.min(100))).div_ceil(100);
    sorted
        .get(rank.saturating_sub(1))
        .copied()
        .unwrap_or_default()
}

/// Point-in-time aggregate view of an observer's recordings.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Stage aggregates sorted by path (so children follow parents).
    pub stages: Vec<StageAgg>,
    pub counters: Vec<(String, u64)>,
}

impl Snapshot {
    /// Group finished spans by path; only finished spans count, so a
    /// path whose spans are all still open is absent, not invented.
    pub(crate) fn build(spans: &[SpanRecord], counters: &BTreeMap<&'static str, u64>) -> Snapshot {
        let mut durations: BTreeMap<String, (&'static str, usize, Vec<u64>)> = BTreeMap::new();
        for (span, path) in spans.iter().zip(span_paths(spans)) {
            durations
                .entry(path.join("/"))
                .or_insert_with(|| (span.name, path.len() - 1, Vec::new()))
                .2
                .push(span.dur_ns);
        }
        let stages = durations
            .into_iter()
            .map(|(path, (name, depth, mut ns))| {
                ns.sort_unstable();
                StageAgg {
                    path,
                    name,
                    depth,
                    count: ns.len() as u64,
                    total_ns: ns.iter().sum(),
                    p50_ns: nearest_rank(&ns, 50),
                    p95_ns: nearest_rank(&ns, 95),
                    p99_ns: nearest_rank(&ns, 99),
                }
            })
            .collect();
        Snapshot {
            stages,
            counters: counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
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
                "{:<name_width$}  {:>6}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                "stage", "count", "total", "mean", "p50", "p95", "p99"
            ));
            for s in &self.stages {
                let mean_ns = s.total_ns.checked_div(s.count).unwrap_or(0);
                out.push_str(&format!(
                    "{:<name_width$}  {:>6}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                    format!("{}{}", "  ".repeat(s.depth), s.name),
                    s.count,
                    fmt_duration(s.total_ns),
                    fmt_duration(mean_ns),
                    fmt_duration(s.p50_ns),
                    fmt_duration(s.p95_ns),
                    fmt_duration(s.p99_ns),
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
        out
    }

    /// The JSON metrics export: counters and span aggregates keyed by
    /// path.
    pub fn metrics_json(&self) -> String {
        format!("{{\n{}}}\n", self.json_members())
    }

    /// The `counters` and `stages` members as they sit inside a top-level
    /// JSON object (two-space indent, trailing newline): the body of
    /// [`metrics_json`](Self::metrics_json) and the tail of every bench
    /// document, each of which closes the object after them.
    pub fn json_members(&self) -> String {
        let mut out = String::from("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(name), value));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"stages\": {");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \
                 \"p95_ns\": {}, \"p99_ns\": {}}}",
                escape(&s.path),
                s.count,
                s.total_ns,
                s.p50_ns,
                s.p95_ns,
                s.p99_ns
            ));
        }
        if !self.stages.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n");
        out
    }
}

/// Summary returned by [`validate_metrics_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSummary {
    pub counters: usize,
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

/// Validate a [`Snapshot::metrics_json`] document: the two top-level
/// objects must be present and counters must be non-negative integers.
/// Every stage must carry ordered `p50_ns ≤ p95_ns ≤ p99_ns` duration
/// quantiles with `p99_ns ≤ total_ns`.
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
    }
    Ok(MetricsSummary {
        counters: counters.len(),
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
            }
            {
                let _x = obs.span("pipeline.execute");
            }
        }
        obs.incr("enumerate.candidates", 12);
        for _ in 0..3 {
            let _leaf = obs.span("progressive.leaf");
        }
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
        let leaf = report
            .lines()
            .find(|l| l.starts_with("progressive.leaf"))
            .expect("leaf row");
        assert_eq!(leaf.split_whitespace().nth(1), Some("3"), "{leaf}");
    }

    #[test]
    fn empty_report_renders() {
        let report = Observer::enabled().stage_report();
        assert!(report.contains("no spans recorded"));
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
        let members: Vec<&str> = doc
            .as_object()
            .map(|m| m.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default();
        assert_eq!(members, ["counters", "stages"]);
        let leaf = doc
            .get("stages")
            .and_then(|s| s.get("progressive.leaf"))
            .expect("leaf path exported");
        let recorded = obs
            .snapshot()
            .stage("progressive.leaf")
            .map(|s| s.total_ns as f64);
        assert_eq!(leaf.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(leaf.get("total_ns").and_then(Json::as_f64), recorded);
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
        assert_eq!(summary.stages, 4);
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
        let bad = r#"{"counters": {}, "stages": {"op":
            {"count": 1, "total_ns": 10, "p95_ns": 1, "p99_ns": 1}}}"#;
        assert!(validate_metrics_json(bad).unwrap_err().contains("p50_ns"));
        // Out-of-order stage quantiles.
        let bad = r#"{"counters": {}, "stages": {"op":
            {"count": 1, "total_ns": 10, "p50_ns": 9, "p95_ns": 1, "p99_ns": 10}}}"#;
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
