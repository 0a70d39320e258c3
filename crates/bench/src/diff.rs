//! Cross-run performance diffing: compare two harness runs and say not
//! just *that* a stage moved but *where*. [`diff_runs`] takes two
//! `deepeye-bench/v2` documents and produces a [`DiffReport`] with two
//! delta layers ranked by absolute contribution:
//!
//! - **stages** — per (scenario, stage) median deltas, flagged
//!   significant with the same [`GateConfig`] allowance `perfgate` uses,
//!   so the differ and the gate never disagree about what counts;
//! - **paths** — per span-path self-time deltas, from the documents'
//!   `"stages"` aggregate tails (each path's total less its direct
//!   children's; a path whose children overlapped in either document
//!   has no self time and is left out).
//!
//! The headline ties the layers together: the regressed stage and the
//! span path below its span that grew the most — *"execute regressed
//! 1.9 ms; most growth in …/execute.worker/execute.features (+1.8 ms)"*.

use crate::perf::{stage_medians, GateConfig};
use deepeye_obs::json::Json;
use deepeye_obs::{fmt_duration, parse_json};
use std::collections::BTreeMap;

/// One (scenario, stage) median delta between two harness runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDelta {
    pub scenario: String,
    pub stage: String,
    /// The span the stage is read from (`pipeline.execute`, …).
    pub span: String,
    pub baseline_ns: u64,
    pub current_ns: u64,
    /// `current - baseline`; positive means slower.
    pub delta_ns: i64,
    /// True when the delta crosses the [`GateConfig`] allowance — the
    /// exact line `perfgate` would fail on (in either direction).
    pub significant: bool,
}

impl StageDelta {
    /// `+1.90 ms` / `-300.00 µs` style signed delta.
    pub fn delta_str(&self) -> String {
        signed_duration(self.delta_ns)
    }
}

/// One span-path self-time delta (from the documents' `"stages"`
/// tails).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathDelta {
    pub path: String,
    pub baseline_ns: u64,
    pub current_ns: u64,
    pub delta_ns: i64,
}

/// The assembled cross-run diff. Every vector is sorted by descending
/// absolute delta — index 0 is the biggest mover.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    pub stages: Vec<StageDelta>,
    pub paths: Vec<PathDelta>,
    /// (scenario, stage) pairs the baseline covers but the current run
    /// dropped — lost coverage must not read as "no delta".
    pub lost: Vec<String>,
    /// (scenario, stage) pairs new in the current run.
    pub gained: Vec<String>,
}

/// Format a signed nanosecond delta with an explicit sign.
fn signed_duration(ns: i64) -> String {
    let magnitude = fmt_duration(ns.unsigned_abs());
    if ns < 0 {
        format!("-{magnitude}")
    } else {
        format!("+{magnitude}")
    }
}

/// `diff_stages` output: the stage deltas plus the `scenario / stage`
/// pairs present only in the baseline (lost) or only in the current
/// document (gained).
pub type StageDiff = (Vec<StageDelta>, Vec<String>, Vec<String>);

/// Diff the per-scenario stage medians of two harness documents, using
/// the gate allowance to mark significance. Unlike [`crate::perf::perf_gate`]
/// this never fails on lost coverage — a differ is a diagnostic tool —
/// but it records dropped and gained pairs so the report can say so.
pub fn diff_stages(baseline: &str, current: &str, cfg: &GateConfig) -> Result<StageDiff, String> {
    let base_rows = stage_medians(baseline, "baseline")?;
    let cur_rows = stage_medians(current, "current")?;
    let mut stages = Vec::new();
    let mut lost = Vec::new();
    for (scenario, stage, span, base_median, base_iqr) in &base_rows {
        let Some((_, _, _, cur_median, cur_iqr)) = cur_rows
            .iter()
            .find(|(s, st, ..)| s == scenario && st == stage)
        else {
            lost.push(format!("{scenario} / {stage}"));
            continue;
        };
        let rel_slack = (cfg.rel * *base_median as f64) as u64;
        let noise_slack = ((*base_iqr).max(*cur_iqr) as f64 * cfg.iqr_mult) as u64;
        let allowance = rel_slack.max(noise_slack).max(cfg.floor_ns);
        let delta_ns = *cur_median as i64 - *base_median as i64;
        stages.push(StageDelta {
            scenario: scenario.clone(),
            stage: stage.clone(),
            span: span.clone(),
            baseline_ns: *base_median,
            current_ns: *cur_median,
            delta_ns,
            significant: delta_ns.unsigned_abs() > allowance,
        });
    }
    let gained = cur_rows
        .iter()
        .filter(|(s, st, ..)| !base_rows.iter().any(|(bs, bst, ..)| bs == s && bst == st))
        .map(|(s, st, ..)| format!("{s} / {st}"))
        .collect();
    stages.sort_by_key(|d| std::cmp::Reverse(d.delta_ns.unsigned_abs()));
    Ok((stages, lost, gained))
}

/// Parse the `"stages"` aggregate tail of a bench document into a span
/// path → self-time map: each path's `total_ns` less its direct
/// children's. A path whose direct children sum to more than its own
/// total ran them in parallel, so its self time is undefined: it maps to
/// `None`. Documents written before the tail existed yield an empty map.
fn doc_path_map(text: &str, which: &str) -> Result<BTreeMap<String, Option<u64>>, String> {
    let doc = parse_json(text).map_err(|e| format!("{which}: {e}"))?;
    let Some(stages) = doc.get("stages").and_then(Json::as_object) else {
        return Ok(BTreeMap::new());
    };
    let mut totals = BTreeMap::new();
    for (path, agg) in stages {
        let total = agg
            .get("total_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{which}: stage path {path:?} missing total_ns"))?;
        totals.insert(path.clone(), total.max(0.0) as u64);
    }
    let mut own: BTreeMap<String, Option<u64>> = totals
        .iter()
        .map(|(path, &total)| (path.clone(), Some(total)))
        .collect();
    for (path, total) in &totals {
        let parent = path.rsplit_once('/').and_then(|(p, _)| own.get_mut(p));
        if let Some(parent) = parent {
            *parent = parent.and_then(|ns| ns.checked_sub(*total));
        }
    }
    Ok(own)
}

/// Diff two path → ns maps, dropping paths without a self time in
/// either document and sub-`floor_ns` deltas (scheduler noise no matter
/// the ratio), and ranking by absolute delta.
fn diff_path_maps(
    base: BTreeMap<String, Option<u64>>,
    cur: BTreeMap<String, Option<u64>>,
    floor_ns: u64,
) -> Vec<PathDelta> {
    let mut keys: Vec<&String> = base.keys().chain(cur.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut out: Vec<PathDelta> = keys
        .into_iter()
        .filter_map(|path| {
            let b = base.get(path).copied().unwrap_or(Some(0))?;
            let c = cur.get(path).copied().unwrap_or(Some(0))?;
            Some(PathDelta {
                path: path.clone(),
                baseline_ns: b,
                current_ns: c,
                delta_ns: c as i64 - b as i64,
            })
        })
        .filter(|d| d.delta_ns.unsigned_abs() >= floor_ns)
        .collect();
    out.sort_by_key(|d| std::cmp::Reverse(d.delta_ns.unsigned_abs()));
    out
}

/// Assemble the full cross-run diff: stage medians and the span paths
/// of the documents' `"stages"` tails.
pub fn diff_runs(baseline: &str, current: &str, cfg: &GateConfig) -> Result<DiffReport, String> {
    let (stages, lost, gained) = diff_stages(baseline, current, cfg)?;
    let paths = diff_path_maps(
        doc_path_map(baseline, "baseline")?,
        doc_path_map(current, "current")?,
        cfg.floor_ns,
    );
    Ok(DiffReport {
        stages,
        paths,
        lost,
        gained,
    })
}

impl DiffReport {
    /// The biggest significant regression, if any stage crossed the
    /// gate allowance in the slow direction.
    pub fn top_regression(&self) -> Option<&StageDelta> {
        self.stages.iter().find(|d| d.significant && d.delta_ns > 0)
    }

    /// The span path below `span` whose self time grew the most, if
    /// any grew past the floor.
    pub fn top_path_below(&self, span: &str) -> Option<&PathDelta> {
        // `paths` is sorted by |delta|, so the first growing path below
        // `span` grew the most.
        self.paths.iter().find(|p| {
            let mut frames = p.path.split('/');
            p.delta_ns > 0 && frames.any(|f| f == span) && frames.next().is_some()
        })
    }

    /// The one-line causal headline: the top significant stage
    /// regression, attributed to the span path below the stage's span
    /// that grew the most — e.g. *"execute regressed 1.90 ms (…); most
    /// growth in …/execute.worker/execute.features (+1.80 ms)"*. `None`
    /// when nothing significant regressed.
    pub fn attribution(&self) -> Option<String> {
        let top = self.top_regression()?;
        let mut line = format!(
            "{} regressed {} ({} -> {})",
            top.stage,
            fmt_duration(top.delta_ns.unsigned_abs()),
            fmt_duration(top.baseline_ns),
            fmt_duration(top.current_ns)
        );
        if let Some(path) = self.top_path_below(&top.span) {
            line.push_str(&format!(
                "; most growth in {} ({})",
                path.path,
                signed_duration(path.delta_ns)
            ));
        }
        Some(line)
    }

    /// Human-readable multi-section report, each section capped at
    /// `top` rows (ranked by absolute delta).
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        if let Some(headline) = self.attribution() {
            out.push_str(&format!("perfdiff: {headline}\n"));
        } else {
            out.push_str("perfdiff: no significant stage regression\n");
        }
        out.push_str(&format!(
            "\nstage medians ({} compared, {} significant):\n",
            self.stages.len(),
            self.stages.iter().filter(|d| d.significant).count()
        ));
        for d in self.stages.iter().take(top) {
            out.push_str(&format!(
                "  {:<4} {:<24} {:<10} {:>12} -> {:<12} {}\n",
                if d.significant { "SIG" } else { "" },
                format!("{} / {}", d.scenario, d.stage),
                d.delta_str(),
                fmt_duration(d.baseline_ns),
                fmt_duration(d.current_ns),
                d.span
            ));
        }
        if !self.paths.is_empty() {
            out.push_str(&format!(
                "\nspan paths (self time, top {top} by |delta|):\n"
            ));
            for p in self.paths.iter().take(top) {
                out.push_str(&format!(
                    "  {:<10} {:<52} {:>12} -> {}\n",
                    signed_duration(p.delta_ns),
                    p.path,
                    fmt_duration(p.baseline_ns),
                    fmt_duration(p.current_ns)
                ));
            }
        }
        for (what, list) in [("lost", &self.lost), ("gained", &self.gained)] {
            if !list.is_empty() {
                out.push_str(&format!("\ncoverage {what}: {}\n", list.join(", ")));
            }
        }
        out
    }

    /// GitHub Actions `::notice` workflow commands for the top movers —
    /// the headline first, then one notice per significant stage delta,
    /// each naming the path below its span that grew the most.
    /// Newlines are `%0A`-escaped per the workflow-command quoting
    /// rules (and `%` itself first), matching `analyze --github`.
    pub fn github_notices(&self, top: usize) -> Vec<String> {
        let escape = |s: &str| {
            s.replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A")
        };
        let mut out = Vec::new();
        if let Some(headline) = self.attribution() {
            out.push(format!("::notice title=perfdiff::{}", escape(&headline)));
        }
        for d in self.stages.iter().filter(|d| d.significant).take(top) {
            let mut message = format!(
                "{} / {} ({}): median {} -> {} ({})",
                d.scenario,
                d.stage,
                d.span,
                d.baseline_ns,
                d.current_ns,
                d.delta_str()
            );
            if let Some(path) = self.top_path_below(&d.span) {
                message.push_str(&format!(
                    "\ntop span path: {} ({})",
                    path.path,
                    signed_duration(path.delta_ns)
                ));
            }
            out.push(format!(
                "::notice title=perfdiff {} / {}::{}",
                d.scenario,
                d.stage,
                escape(&message)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{results_json, RobustTiming, ScenarioRun, STAGES};
    use deepeye_obs::Observer;

    const FEATURES: &str = "pipeline.recommend/pipeline.execute/execute.worker/execute.features";

    /// A one-scenario document whose `execute` median is `execute_ns`
    /// (every other stage 1 ms), with a `"stages"` tail in which
    /// `execute.features` takes `features_ns` and everything else in
    /// execute stays fixed.
    fn doc_with(execute_ns: u64, features_ns: u64) -> String {
        let runs = vec![ScenarioRun {
            name: "s-300x5".into(),
            rows: 300,
            columns: 5,
            stages: STAGES
                .iter()
                .map(|&st| {
                    let ns = if st.name == "execute" {
                        execute_ns
                    } else {
                        1_000_000
                    };
                    (st, RobustTiming::from_samples(&[ns, ns, ns]))
                })
                .collect(),
        }];
        let worker = 2_000_000 + features_ns + 500_000;
        let tail = [
            ("pipeline.recommend/pipeline.execute", worker + 500_000),
            ("pipeline.recommend/pipeline.execute/execute.worker", worker),
            (
                "pipeline.recommend/pipeline.execute/execute.worker/execute.charts",
                2_000_000,
            ),
            (FEATURES, features_ns),
        ]
        .map(|(path, ns)| format!("\"{path}\": {{\"count\": 1, \"total_ns\": {ns}}}"))
        .join(", ");
        let doc = results_json(&runs, &Observer::enabled().snapshot());
        doc.replace("\"stages\": {}", &format!("\"stages\": {{{tail}}}"))
    }

    #[test]
    fn identical_runs_diff_clean() {
        let doc = doc_with(10_000_000, 7_000_000);
        let report = diff_runs(&doc, &doc, &GateConfig::default()).unwrap();
        assert!(report.top_regression().is_none());
        assert!(report.attribution().is_none());
        assert_eq!(report.stages.len(), STAGES.len());
        assert!(report.stages.iter().all(|d| !d.significant));
        assert!(report.paths.is_empty());
        assert!(report.lost.is_empty() && report.gained.is_empty());
        assert!(report.render(5).contains("no significant stage regression"));
    }

    #[test]
    fn doubled_execute_names_stage_and_span_path() {
        let base = doc_with(10_000_000, 7_000_000);
        let cur = doc_with(20_000_000, 17_000_000);
        let report = diff_runs(&base, &cur, &GateConfig::default()).unwrap();
        let top = report.top_regression().expect("execute regressed");
        assert_eq!(top.stage, "execute");
        assert_eq!(top.delta_ns, 10_000_000);
        let headline = report.attribution().expect("headline");
        assert!(headline.starts_with("execute regressed"), "{headline}");
        assert!(
            headline.ends_with(&format!("most growth in {FEATURES} (+10.0ms)")),
            "{headline}"
        );
        // Self time: the worker and execute spans grew only through their
        // child, so the features path is the one mover.
        assert_eq!(report.paths.len(), 1, "{:?}", report.paths);
        let rendered = report.render(5);
        assert!(rendered.contains("SIG"), "{rendered}");
        assert!(rendered.contains("span paths (self time"), "{rendered}");
    }

    #[test]
    fn parent_of_overlapping_children_is_no_mover() {
        const EXECUTE: &str = "pipeline.recommend/pipeline.execute";
        let total = |ns: u64| format!("\"{EXECUTE}\": {{\"count\": 1, \"total_ns\": {ns}}}");
        // One tree. The baseline's execute span has 14 ms of self time;
        // in the current run its workers (11.5 ms) overlap inside 8 ms.
        let base = doc_with(10_000_000, 7_000_000).replace(&total(10_000_000), &total(23_500_000));
        let cur = doc_with(10_000_000, 9_000_000).replace(&total(12_000_000), &total(8_000_000));
        let report = diff_runs(&base, &cur, &GateConfig::default()).unwrap();
        // Execute has no self time to compare; its children stay in.
        assert_eq!(report.paths.len(), 1, "{:?}", report.paths);
        assert_eq!(report.paths[0].path, FEATURES);
        assert_eq!(report.paths[0].delta_ns, 2_000_000);
    }

    #[test]
    fn improvements_are_significant_but_not_regressions() {
        let base = doc_with(20_000_000, 7_000_000);
        let cur = doc_with(10_000_000, 7_000_000);
        let report = diff_runs(&base, &cur, &GateConfig::default()).unwrap();
        let exec = report.stages.iter().find(|d| d.stage == "execute").unwrap();
        assert!(exec.significant);
        assert!(exec.delta_ns < 0);
        assert!(report.top_regression().is_none());
    }

    #[test]
    fn github_notices_escape_newlines() {
        let base = doc_with(10_000_000, 7_000_000);
        let cur = doc_with(20_000_000, 17_000_000);
        let report = diff_runs(&base, &cur, &GateConfig::default()).unwrap();
        let notices = report.github_notices(3);
        assert!(notices.len() >= 2, "{notices:?}");
        assert!(notices[0].starts_with("::notice title=perfdiff::"));
        for n in &notices {
            assert!(!n.contains('\n'), "one line per workflow command: {n}");
        }
        assert!(
            notices[1].contains(&format!("%0Atop span path: {FEATURES}")),
            "{:?}",
            notices[1]
        );
    }

    #[test]
    fn lost_and_gained_coverage_is_reported() {
        let base = doc_with(10_000_000, 7_000_000);
        let cur = base.replace("s-300x5", "s-600x5");
        let report = diff_runs(&base, &cur, &GateConfig::default()).unwrap();
        assert_eq!(report.stages.len(), 0);
        assert_eq!(report.lost.len(), STAGES.len());
        assert_eq!(report.gained.len(), STAGES.len());
        assert!(report.render(5).contains("coverage lost"));
    }
}
