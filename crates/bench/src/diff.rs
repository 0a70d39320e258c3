//! The perf gate behind `perfgate`: compare two harness runs and say not
//! just *that* a stage moved but *where*. [`diff_runs`] reads a baseline
//! and a current `deepeye-bench/v2` document ([`crate::perf::read_bench`])
//! and produces a [`DiffReport`] with two delta layers ranked by absolute
//! contribution:
//!
//! - **stages** — per (scenario, stage) median deltas, significant when
//!   they cross the one [`GateConfig`] allowance (in either direction); a
//!   significant slowdown is a regression;
//! - **paths** — per span-path self-time deltas, from the documents'
//!   `"stages"` aggregate tails (each path's total less its direct
//!   children's; a path whose children overlapped in either document
//!   has no self time and is left out). Tails sum over every scenario and
//!   pass of a run, so they are compared only between runs whose root
//!   stage spans closed equally often.
//!
//! The headline ties the layers together: the regressed stage and the
//! span path below its span that grew the most — *"execute regressed
//! 1.9 ms; most growth in …/execute.worker/execute.features (+1.8 ms)"*.
//! The gate fails on a regression, on a (scenario, stage) pair the
//! baseline covers that the current run lacks, and on a current median
//! over its budget ([`check_budgets`]).

use crate::perf::{check_budgets, read_bench, BenchDoc, PathTotal, Stage, StageRow, STAGES};
use deepeye_obs::fmt_duration;
use std::collections::BTreeMap;

/// Gate thresholds. A stage regresses when its current median exceeds the
/// baseline median by more than the *largest* of three allowances:
/// relative slack (`rel` × baseline), noise slack (`iqr_mult` × the wider
/// of the two runs' IQRs), and an absolute floor (`floor_ns`) under which
/// deltas are scheduler noise no matter the ratio. The floor also drops
/// span-path deltas.
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

/// Rows per section of [`DiffReport::render`].
const REPORT_ROWS: usize = 10;

/// Significant stage deltas [`DiffReport::github_notices`] annotates.
const NOTICES: usize = 3;

/// One (scenario, stage) median delta between two harness runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDelta {
    pub scenario: String,
    /// The stage and the span it is read from.
    pub stage: &'static Stage,
    pub baseline_ns: u64,
    pub current_ns: u64,
    /// `current - baseline`; positive means slower.
    pub delta_ns: i64,
    /// The [`GateConfig`] allowance around the baseline median.
    pub allowance_ns: u64,
}

impl StageDelta {
    /// True when the delta crosses the allowance, in either direction.
    pub fn significant(&self) -> bool {
        self.delta_ns.unsigned_abs() > self.allowance_ns
    }

    /// True when the stage slowed past its allowance.
    pub fn regressed(&self) -> bool {
        self.delta_ns > 0 && self.significant()
    }

    /// The one-line verdict the gate prints for a regression.
    pub fn describe(&self) -> String {
        format!(
            "REGRESSION {} / {} ({}): median {} -> {} (allowed <= {})",
            self.scenario,
            self.stage.name,
            self.stage.span,
            self.baseline_ns,
            self.current_ns,
            self.baseline_ns + self.allowance_ns
        )
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

/// The assembled cross-run diff. Every delta vector is sorted by
/// descending absolute delta — index 0 is the biggest mover.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    pub stages: Vec<StageDelta>,
    pub paths: Vec<PathDelta>,
    /// Why the span-path layer was not compared, when it was not.
    pub paths_skipped: Option<String>,
    /// In-scope (scenario, stage) pairs the baseline covers but the
    /// current run dropped — lost coverage must not read as "no delta".
    pub lost: Vec<String>,
    /// (scenario, stage) pairs new in the current run.
    pub gained: Vec<String>,
    /// The current run's `BUDGET …` lines.
    pub budgets: Vec<String>,
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
type StageDiff = (Vec<StageDelta>, Vec<String>, Vec<String>);

/// Diff per-scenario stage medians, each against its allowance
/// `max(rel × baseline median, iqr_mult × the wider IQR, floor_ns)`.
fn diff_stages(base_rows: &[StageRow], cur_rows: &[StageRow], cfg: &GateConfig) -> StageDiff {
    let same = |a: &StageRow, b: &StageRow| a.scenario == b.scenario && a.stage == b.stage;
    let mut stages = Vec::new();
    let mut lost = Vec::new();
    for base in base_rows {
        let Some(cur) = cur_rows.iter().find(|cur| same(base, cur)) else {
            lost.push(format!("{} / {}", base.scenario, base.stage.name));
            continue;
        };
        let rel_slack = (cfg.rel * base.median_ns as f64) as u64;
        let noise_slack = (base.iqr_ns.max(cur.iqr_ns) as f64 * cfg.iqr_mult) as u64;
        stages.push(StageDelta {
            scenario: base.scenario.clone(),
            stage: base.stage,
            baseline_ns: base.median_ns,
            current_ns: cur.median_ns,
            delta_ns: cur.median_ns as i64 - base.median_ns as i64,
            allowance_ns: rel_slack.max(noise_slack).max(cfg.floor_ns),
        });
    }
    let gained = cur_rows
        .iter()
        .filter(|cur| !base_rows.iter().any(|base| same(base, cur)))
        .map(|cur| format!("{} / {}", cur.scenario, cur.stage.name))
        .collect();
    stages.sort_by_key(|d| std::cmp::Reverse(d.delta_ns.unsigned_abs()));
    (stages, lost, gained)
}

/// Why two documents' tails cannot be compared path by path, if they
/// cannot: a stage span at the root of the tails (`pipeline.ingest`,
/// `pipeline.recommend`, `pipeline.progressive`) closed a different
/// number of times in each, so the runs covered different scenarios or
/// passes and their totals sum over different work.
fn incomparable_paths(base: &BenchDoc, cur: &BenchDoc) -> Option<String> {
    let closed = |doc: &BenchDoc, span: &str| doc.paths.get(span).map_or(0, |p| p.count);
    STAGES
        .iter()
        .map(|stage| stage.span)
        .find(|span| closed(base, span) != closed(cur, span))
        .map(|span| {
            format!(
                "{span} closed {} times in the baseline and {} in the current run \
                 (different scenarios × passes)",
                closed(base, span),
                closed(cur, span)
            )
        })
}

/// Each tail path's self time: its total less its direct children's. A
/// path whose direct children sum to more than its own total ran them in
/// parallel, so its self time is undefined: it maps to `None`.
fn self_times(paths: &BTreeMap<String, PathTotal>) -> BTreeMap<&str, Option<u64>> {
    let mut own: BTreeMap<&str, Option<u64>> = paths
        .iter()
        .map(|(path, p)| (path.as_str(), Some(p.total_ns)))
        .collect();
    for (path, p) in paths {
        let parent = path.rsplit_once('/').and_then(|(q, _)| own.get_mut(q));
        if let Some(parent) = parent {
            *parent = parent.and_then(|ns| ns.checked_sub(p.total_ns));
        }
    }
    own
}

/// Diff two path → self-time maps, dropping paths without a self time in
/// either document and sub-`floor_ns` deltas (scheduler noise no matter
/// the ratio), and ranking by absolute delta.
fn diff_path_maps(
    base: BTreeMap<&str, Option<u64>>,
    cur: BTreeMap<&str, Option<u64>>,
    floor_ns: u64,
) -> Vec<PathDelta> {
    let mut keys: Vec<&str> = base.keys().chain(cur.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    let mut out: Vec<PathDelta> = keys
        .into_iter()
        .filter_map(|path| {
            let b = base.get(path).copied().unwrap_or(Some(0))?;
            let c = cur.get(path).copied().unwrap_or(Some(0))?;
            Some(PathDelta {
                path: path.to_owned(),
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

/// The scenarios a `--scenarios a,b` value names: comma-separated,
/// trimmed, blanks dropped, so `,` and `""` name none — a scope
/// [`diff_runs`] refuses.
pub fn parse_scenarios(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Read both harness documents and assemble the full cross-run diff:
/// stage medians, the span paths of the `"stages"` tails when the runs
/// are comparable, and the current run's budget violations.
///
/// When `scenarios` is given, only those scenarios' rows are compared
/// (every current row is still budgeted), so
/// a smoke run (e.g. CI's `--smoke` matrix) can gate against a baseline
/// recorded from the full matrix. An empty scope, or naming a scenario
/// the baseline does not cover, is an error — a typo must not read as
/// "nothing to gate" — as is an unreadable document or one of another
/// schema.
pub fn diff_runs(
    baseline: &str,
    current: &str,
    cfg: &GateConfig,
    scenarios: Option<&[String]>,
) -> Result<DiffReport, String> {
    let mut base = read_bench(baseline).map_err(|e| format!("baseline: {e}"))?;
    let mut cur = read_bench(current).map_err(|e| format!("current: {e}"))?;
    // Every row of the current run is budgeted, in scope or not.
    let budgets = check_budgets(&cur);
    if let Some(only) = scenarios {
        if only.is_empty() {
            return Err("empty scenario scope: name at least one scenario".to_owned());
        }
        if let Some(want) = only
            .iter()
            .find(|want| !base.rows.iter().any(|row| row.scenario == **want))
        {
            return Err(format!("baseline has no scenario {want:?}"));
        }
        for doc in [&mut base, &mut cur] {
            doc.rows.retain(|row| only.contains(&row.scenario));
        }
    }
    let (stages, lost, gained) = diff_stages(&base.rows, &cur.rows, cfg);
    let paths_skipped = incomparable_paths(&base, &cur);
    let paths = match paths_skipped {
        Some(_) => Vec::new(),
        None => diff_path_maps(
            self_times(&base.paths),
            self_times(&cur.paths),
            cfg.floor_ns,
        ),
    };
    Ok(DiffReport {
        stages,
        paths,
        paths_skipped,
        lost,
        gained,
        budgets,
    })
}

impl DiffReport {
    /// Every line the gate fails on: regressions (biggest first), lost
    /// in-scope coverage, and budget violations. Empty means the gate
    /// passes.
    pub fn failures(&self) -> Vec<String> {
        let regressions = self.stages.iter().filter(|d| d.regressed());
        let lost = self
            .lost
            .iter()
            .map(|pair| format!("current run is missing baseline stage {pair}"));
        regressions
            .map(StageDelta::describe)
            .chain(lost)
            .chain(self.budgets.iter().cloned())
            .collect()
    }

    /// The biggest regression, if any stage crossed the gate allowance in
    /// the slow direction.
    pub fn top_regression(&self) -> Option<&StageDelta> {
        self.stages.iter().find(|d| d.regressed())
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

    /// The one-line causal headline: the top stage regression, attributed
    /// to the span path below the stage's span that grew the most — e.g.
    /// *"execute regressed 1.90 ms (…); most growth in
    /// …/execute.worker/execute.features (+1.80 ms)"*. `None` when nothing
    /// regressed.
    pub fn attribution(&self) -> Option<String> {
        let top = self.top_regression()?;
        let mut line = format!(
            "{} regressed {} ({} -> {})",
            top.stage.name,
            fmt_duration(top.delta_ns.unsigned_abs()),
            fmt_duration(top.baseline_ns),
            fmt_duration(top.current_ns)
        );
        if let Some(path) = self.top_path_below(top.stage.span) {
            line.push_str(&format!(
                "; most growth in {} ({})",
                path.path,
                signed_duration(path.delta_ns)
            ));
        }
        Some(line)
    }

    /// Human-readable multi-section report, each section capped at
    /// ten rows (ranked by absolute delta).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(headline) = self.attribution() {
            out.push_str(&format!("perfgate: {headline}\n"));
        } else {
            out.push_str("perfgate: no significant stage regression\n");
        }
        out.push_str(&format!(
            "\nstage medians ({} compared, {} significant):\n",
            self.stages.len(),
            self.stages.iter().filter(|d| d.significant()).count()
        ));
        for d in self.stages.iter().take(REPORT_ROWS) {
            out.push_str(&format!(
                "  {:<4} {:<24} {:<10} {:>12} -> {:<12} {}\n",
                if d.significant() { "SIG" } else { "" },
                format!("{} / {}", d.scenario, d.stage.name),
                signed_duration(d.delta_ns),
                fmt_duration(d.baseline_ns),
                fmt_duration(d.current_ns),
                d.stage.span
            ));
        }
        if let Some(why) = &self.paths_skipped {
            out.push_str(&format!("\nspan paths: not compared, {why}\n"));
        } else if !self.paths.is_empty() {
            out.push_str(&format!(
                "\nspan paths (self time, top {REPORT_ROWS} by |delta|):\n"
            ));
            for p in self.paths.iter().take(REPORT_ROWS) {
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
    /// the headline first, then one notice per significant stage delta
    /// (at most three), each naming the path below its span that
    /// grew the most. Newlines are `%0A`-escaped per the workflow-command
    /// quoting rules (and `%` itself first), matching `analyze --github`.
    pub fn github_notices(&self) -> Vec<String> {
        let escape = |s: &str| {
            s.replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A")
        };
        let mut out = Vec::new();
        if let Some(headline) = self.attribution() {
            out.push(format!("::notice title=perfgate::{}", escape(&headline)));
        }
        for d in self.stages.iter().filter(|d| d.significant()).take(NOTICES) {
            let mut message = format!(
                "{} / {} ({}): median {} -> {} ({})",
                d.scenario,
                d.stage.name,
                d.stage.span,
                d.baseline_ns,
                d.current_ns,
                signed_duration(d.delta_ns)
            );
            if let Some(path) = self.top_path_below(d.stage.span) {
                message.push_str(&format!(
                    "\ntop span path: {} ({})",
                    path.path,
                    signed_duration(path.delta_ns)
                ));
            }
            out.push(format!(
                "::notice title=perfgate {} / {}::{}",
                d.scenario,
                d.stage.name,
                escape(&message)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{results_json, RobustTiming, ScenarioRun, BENCH_SCHEMA};
    use deepeye_obs::Observer;

    const FEATURES: &str = "pipeline.recommend/pipeline.execute/execute.worker/execute.features";

    /// A one-scenario `s-300x5` document whose `execute` median is
    /// `execute_ns` (every other stage 1 ms, no spread), with a
    /// `"stages"` tail in which each root stage span closed 6 times (one
    /// smoke pass: a warmup and five repetitions) and `execute.features`
    /// takes `features_ns`, everything else in execute staying fixed.
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
            ("pipeline.ingest", 6, 1_000_000),
            ("pipeline.progressive", 6, 2_000_000),
            ("pipeline.recommend", 6, worker + 1_500_000),
            ("pipeline.recommend/pipeline.execute", 1, worker + 500_000),
            (
                "pipeline.recommend/pipeline.execute/execute.worker",
                1,
                worker,
            ),
            (
                "pipeline.recommend/pipeline.execute/execute.worker/execute.charts",
                1,
                2_000_000,
            ),
            (FEATURES, 1, features_ns),
        ]
        .map(|(path, count, ns)| format!("\"{path}\": {{\"count\": {count}, \"total_ns\": {ns}}}"))
        .join(", ");
        let doc = results_json(&runs, &Observer::enabled().snapshot());
        doc.replace("\"stages\": {}", &format!("\"stages\": {{{tail}}}"))
    }

    fn diff(base: &str, cur: &str) -> DiffReport {
        diff_runs(base, cur, &GateConfig::default(), None).unwrap()
    }

    #[test]
    fn identical_runs_diff_clean() {
        let doc = doc_with(10_000_000, 7_000_000);
        let report = diff(&doc, &doc);
        assert!(report.failures().is_empty());
        assert!(report.top_regression().is_none());
        assert!(report.attribution().is_none());
        assert_eq!(report.stages.len(), STAGES.len());
        assert!(report.stages.iter().all(|d| !d.significant()));
        assert!(report.paths.is_empty() && report.paths_skipped.is_none());
        assert!(report.lost.is_empty() && report.gained.is_empty());
        assert!(report.render().contains("no significant stage regression"));
    }

    #[test]
    fn doubled_execute_names_stage_and_span_path() {
        let base = doc_with(10_000_000, 7_000_000);
        let cur = doc_with(20_000_000, 17_000_000);
        let report = diff(&base, &cur);
        let top = report.top_regression().expect("execute regressed");
        assert_eq!(top.stage.name, "execute");
        assert_eq!(top.delta_ns, 10_000_000);
        // rel 30% of 10 ms beats the floor and the (zero) spread.
        assert_eq!(
            report.failures(),
            [
                "REGRESSION s-300x5 / execute (pipeline.execute): median 10000000 -> \
              20000000 (allowed <= 13000000)"
            ]
        );
        let headline = report.attribution().expect("headline");
        assert!(headline.starts_with("execute regressed"), "{headline}");
        assert!(
            headline.ends_with(&format!("most growth in {FEATURES} (+10.0ms)")),
            "{headline}"
        );
        // Self time: the recommend, execute and worker spans grew only
        // through their child, so the features path is the one mover.
        assert!(report.paths_skipped.is_none());
        assert_eq!(report.paths.len(), 1, "{:?}", report.paths);
        let rendered = report.render();
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
        let report = diff(&base, &cur);
        // Execute has no self time to compare; its children stay in (and
        // recommend, whose child outlasts it in the baseline, leaves too).
        assert_eq!(report.paths.len(), 1, "{:?}", report.paths);
        assert_eq!(report.paths[0].path, FEATURES);
        assert_eq!(report.paths[0].delta_ns, 2_000_000);
    }

    #[test]
    fn improvements_are_significant_but_not_regressions() {
        let base = doc_with(20_000_000, 7_000_000);
        let cur = doc_with(10_000_000, 7_000_000);
        let report = diff(&base, &cur);
        let exec = report
            .stages
            .iter()
            .find(|d| d.stage.name == "execute")
            .unwrap();
        assert!(exec.significant());
        assert!(exec.delta_ns < 0);
        assert!(report.top_regression().is_none());
        assert!(report.failures().is_empty());
    }

    #[test]
    fn wide_iqr_tolerates_a_delta_past_the_relative_slack() {
        // Same medians but a huge declared spread: a delta within
        // iqr_mult × IQR must not fail even when it clears rel × median.
        let base =
            doc_with(10_000_000, 7_000_000).replace("\"iqr_ns\": 0", "\"iqr_ns\": 3000000000");
        let cur = doc_with(2_000_000_000, 7_000_000);
        let report = diff(&base, &cur);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        assert!(report.stages.iter().all(|d| !d.significant()));
    }

    #[test]
    fn other_schema_versions_are_refused() {
        let v2 = doc_with(10_000_000, 7_000_000);
        let v1 = v2.replace(BENCH_SCHEMA, "deepeye-bench/v1");
        for (base, cur, which) in [(&v1, &v2, "baseline"), (&v2, &v1, "current")] {
            let err = diff_runs(base, cur, &GateConfig::default(), None).unwrap_err();
            assert!(err.starts_with(which), "{err}");
            assert!(err.contains("deepeye-bench/v1"), "{err}");
        }
    }

    #[test]
    fn lost_and_gained_coverage_is_reported() {
        let base = doc_with(10_000_000, 7_000_000);
        let cur = base.replace("s-300x5", "s-600x5");
        let report = diff(&base, &cur);
        assert_eq!(report.stages.len(), 0);
        assert_eq!(report.lost.len(), STAGES.len());
        assert_eq!(report.gained.len(), STAGES.len());
        // Lost coverage fails the gate, one line per pair.
        let failures = report.failures();
        assert_eq!(failures.len(), STAGES.len());
        assert_eq!(
            failures[0],
            "current run is missing baseline stage s-300x5 / ingest"
        );
        assert!(report
            .render()
            .contains("coverage lost: s-300x5 / ingest, s-300x5 / recommend"));
    }

    #[test]
    fn budget_violations_fail() {
        let base = doc_with(10_000_000, 7_000_000);
        let cur = doc_with(70_000_000_000, 7_000_000);
        let failures = diff(&base, &cur).failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("REGRESSION s-300x5 / execute"));
        assert_eq!(
            failures[1],
            "BUDGET s-300x5 / execute (pipeline.execute): median 70000000000 ns exceeds \
             ceiling 60000000000 ns"
        );
    }

    #[test]
    fn two_smoke_runs_compare_span_paths() {
        let smoke = doc_with(10_000_000, 7_000_000);
        let slower = doc_with(10_000_000, 9_000_000);
        let report = diff(&smoke, &slower);
        assert!(report.paths_skipped.is_none());
        assert_eq!(report.paths.len(), 1, "{:?}", report.paths);
        assert_eq!(report.paths[0].path, FEATURES);
    }

    #[test]
    fn smoke_run_against_the_full_matrix_baseline() {
        // CI's shape: the committed baseline ran all four scenarios, the
        // smoke run one of them, with CI's thresholds.
        let full = include_str!("../../../BENCH_baseline.json");
        let smoke = doc_with(10_000_000, 9_000_000);
        let ci = GateConfig {
            rel: 4.0,
            iqr_mult: 6.0,
            floor_ns: 500_000_000,
        };
        let only = ["s-300x5".to_owned()];
        let report = diff_runs(full, &smoke, &ci, Some(&only)).unwrap();
        assert_eq!(report.stages.len(), STAGES.len());
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        // Out-of-scope baseline rows are no lost coverage.
        assert!(report.lost.is_empty());
        let rendered = report.render();
        assert!(!rendered.contains("coverage lost"), "{rendered}");
        // The baseline's root spans closed 24 times against the smoke
        // run's 6, so the tails are not compared.
        assert!(report.paths.is_empty(), "{:?}", report.paths);
        let why = "pipeline.ingest closed 24 times in the baseline and 6 in the current run \
                   (different scenarios × passes)";
        assert_eq!(report.paths_skipped.as_deref(), Some(why));
        assert!(rendered.contains(&format!("\nspan paths: not compared, {why}\n")));
        // Unscoped, the other scenarios' rows are lost coverage.
        let unscoped = diff_runs(full, &smoke, &ci, None).unwrap();
        assert_eq!(unscoped.lost.len(), 3 * STAGES.len());
        assert_eq!(unscoped.failures().len(), 3 * STAGES.len());
        // Budgets cover the whole current run, scope or not.
        let slow = smoke.replace("s-300x5", "l-6000x8").replace(
            "\"median_ns\": 10000000, \"iqr_ns\": 0, \"min_ns\": 10000000, \"max_ns\": 10000000",
            "\"median_ns\": 70000000000, \"iqr_ns\": 0, \"min_ns\": 70000000000, \"max_ns\": 70000000000",
        );
        let two = smoke.replacen(
            "\"scenarios\": [",
            &format!("\"scenarios\": [{},", scenario(&slow)),
            1,
        );
        let report = diff_runs(full, &two, &ci, Some(&only)).unwrap();
        assert_eq!(report.stages.len(), STAGES.len());
        assert_eq!(report.failures(), report.budgets);
        assert!(
            report.budgets[0].starts_with("BUDGET l-6000x8 / execute"),
            "{:?}",
            report.budgets
        );
        // A scope naming a scenario the baseline lacks is an error.
        let typo = ["s-300x5".to_owned(), "x-nope".to_owned()];
        let err = diff_runs(full, &smoke, &ci, Some(&typo)).unwrap_err();
        assert_eq!(err, "baseline has no scenario \"x-nope\"");
    }

    #[test]
    fn empty_scope_is_an_error() {
        // `--scenarios ,` and `--scenarios ""` both parse to no scenario;
        // gating nothing must not pass against a doubled execute median.
        let full = include_str!("../../../BENCH_baseline.json");
        let doubled = full.replace(
            "\"median_ns\": 18641750, \"iqr_ns\": 853415, \"min_ns\": 18191779, \"max_ns\": 19210967",
            "\"median_ns\": 37283500, \"iqr_ns\": 853415, \"min_ns\": 36383558, \"max_ns\": 38421934",
        );
        let cfg = GateConfig::default();
        let scoped = diff_runs(full, &doubled, &cfg, Some(&["m-1500x16".to_owned()])).unwrap();
        assert!(
            scoped.failures()[0].starts_with("REGRESSION m-1500x16 / execute"),
            "{:?}",
            scoped.failures()
        );
        for spelling in [",", ""] {
            let only = parse_scenarios(spelling);
            let err = diff_runs(full, &doubled, &cfg, Some(&only)).unwrap_err();
            assert_eq!(err, "empty scenario scope: name at least one scenario");
        }
    }

    /// The one scenario object of a [`doc_with`] document.
    fn scenario(doc: &str) -> &str {
        let start = doc.find("\n    {\"name\"").unwrap();
        let end = doc.find("\n    ]}").unwrap() + "\n    ]}".len();
        &doc[start..end]
    }

    #[test]
    fn github_notices_escape_newlines() {
        let base = doc_with(10_000_000, 7_000_000);
        let cur = doc_with(20_000_000, 17_000_000);
        let notices = diff(&base, &cur).github_notices();
        assert!(notices.len() >= 2, "{notices:?}");
        assert!(notices[0].starts_with("::notice title=perfgate::"));
        for n in &notices {
            assert!(!n.contains('\n'), "one line per workflow command: {n}");
        }
        assert!(
            notices[1].contains(&format!("%0Atop span path: {FEATURES}")),
            "{:?}",
            notices[1]
        );
    }
}
