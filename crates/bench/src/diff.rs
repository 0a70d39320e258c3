//! Cross-run performance diffing: compare two harness runs and say not
//! just *that* a stage moved but *why*. [`diff_runs`] takes two
//! `deepeye-bench/v2` documents and, optionally, two folded-stack files
//! and two `deepeye-cost/v1` documents, and produces a [`DiffReport`]
//! with three delta layers ranked by absolute contribution:
//!
//! - **stages** — per (scenario, stage) median deltas, flagged
//!   significant with the same [`GateConfig`] allowance `perfgate` uses,
//!   so the differ and the gate never disagree about what counts;
//! - **paths** — per span-path wall-time deltas, from folded-stack files
//!   when given, else from the documents' `"stages"` aggregate tails;
//! - **buckets** — per (chart/transform/signature × operator) executor
//!   work-count deltas from the cost documents, each carrying its share
//!   of the total count growth.
//!
//! The headline ties the layers together: *"execute regressed 1.9 ms;
//! 87% attributed to group_probes on categorical*temporal pairs"*.

use crate::perf::{stage_medians, GateConfig};
use deepeye_obs::json::Json;
use deepeye_obs::{fmt_duration, parse_json, validate_cost_json, Op};
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

/// One span-path wall-time delta (from folded stacks or the documents'
/// `"stages"` tails).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathDelta {
    pub path: String,
    pub baseline_ns: u64,
    pub current_ns: u64,
    pub delta_ns: i64,
}

/// One (rollup group × operator) executor work-count delta between two
/// cost documents.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketDelta {
    /// `chart/transform/signature` rollup label.
    pub group: String,
    /// The column-pair type signature alone (`categorical*temporal`).
    pub signature: String,
    /// Stable operator name (`group_probes`, …).
    pub op: &'static str,
    pub baseline: u64,
    pub current: u64,
    /// `current - baseline` operator count; positive means more work.
    pub delta: i64,
    /// This bucket's percentage of the total op-count *growth* across
    /// all buckets (0 when the bucket shrank or nothing grew).
    pub share_pct: u64,
}

/// The assembled cross-run diff. Every vector is sorted by descending
/// absolute delta — index 0 is the biggest mover.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    pub stages: Vec<StageDelta>,
    pub paths: Vec<PathDelta>,
    pub buckets: Vec<BucketDelta>,
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

/// Parse folded-stack text (`path;to;frame <self_ns>` lines) into a
/// path → total map. Duplicate paths sum; malformed lines error.
fn folded_map(text: &str, which: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (path, ns) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("{which}: line {} is not `path ns`", i + 1))?;
        let ns: u64 = ns
            .trim()
            .parse()
            .map_err(|e| format!("{which}: line {}: {e}", i + 1))?;
        *out.entry(path.to_owned()).or_insert(0) += ns;
    }
    Ok(out)
}

/// Parse the `"stages"` aggregate tail of a bench document into a span
/// path → `total_ns` map. Documents written before the tail existed
/// yield an empty map.
fn doc_path_map(text: &str, which: &str) -> Result<BTreeMap<String, u64>, String> {
    let doc = parse_json(text).map_err(|e| format!("{which}: {e}"))?;
    let mut out = BTreeMap::new();
    let Some(stages) = doc.get("stages").and_then(Json::as_object) else {
        return Ok(out);
    };
    for (path, agg) in stages {
        let total = agg
            .get("total_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{which}: stage path {path:?} missing total_ns"))?;
        out.insert(path.clone(), total.max(0.0) as u64);
    }
    Ok(out)
}

/// Diff two path → ns maps, dropping sub-`floor_ns` deltas (scheduler
/// noise no matter the ratio) and ranking by absolute delta.
fn diff_path_maps(
    base: BTreeMap<String, u64>,
    cur: BTreeMap<String, u64>,
    floor_ns: u64,
) -> Vec<PathDelta> {
    let mut keys: Vec<&String> = base.keys().chain(cur.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut out: Vec<PathDelta> = keys
        .into_iter()
        .map(|path| {
            let b = base.get(path).copied().unwrap_or(0);
            let c = cur.get(path).copied().unwrap_or(0);
            PathDelta {
                path: path.clone(),
                baseline_ns: b,
                current_ns: c,
                delta_ns: c as i64 - b as i64,
            }
        })
        .filter(|d| d.delta_ns.unsigned_abs() >= floor_ns)
        .collect();
    out.sort_by_key(|d| std::cmp::Reverse(d.delta_ns.unsigned_abs()));
    out
}

/// Parse a validated cost document's rollup groups into
/// (label, signature) → per-operator counts.
type GroupCounts = BTreeMap<(String, String), BTreeMap<&'static str, u64>>;

fn cost_group_map(text: &str, which: &str) -> Result<GroupCounts, String> {
    validate_cost_json(text).map_err(|e| format!("{which}: {e}"))?;
    let doc = parse_json(text).map_err(|e| format!("{which}: {e}"))?;
    let mut out: GroupCounts = BTreeMap::new();
    let groups = doc
        .get("groups")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{which}: missing groups"))?;
    for g in groups {
        let field = |key: &str| {
            g.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{which}: group missing {key:?}"))
        };
        let label = format!(
            "{}/{}/{}",
            field("chart")?,
            field("transform")?,
            field("signature")?
        );
        let signature = field("signature")?;
        let costs = g
            .get("costs")
            .ok_or_else(|| format!("{which}: group {label} missing costs"))?;
        let mut counts = BTreeMap::new();
        for op in Op::ALL {
            let n = costs
                .get(op.name())
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                .max(0.0) as u64;
            counts.insert(op.name(), n);
        }
        out.insert((label, signature), counts);
    }
    Ok(out)
}

/// Diff two cost documents per (rollup group × operator), attributing
/// to each growing bucket its share of the total op-count growth.
pub fn diff_cost(baseline: &str, current: &str) -> Result<Vec<BucketDelta>, String> {
    let base = cost_group_map(baseline, "baseline cost doc")?;
    let cur = cost_group_map(current, "current cost doc")?;
    let mut keys: Vec<&(String, String)> = base.keys().chain(cur.keys()).collect();
    keys.sort();
    keys.dedup();
    let empty = BTreeMap::new();
    let mut buckets = Vec::new();
    for key in keys {
        let b = base.get(key).unwrap_or(&empty);
        let c = cur.get(key).unwrap_or(&empty);
        for op in Op::ALL {
            let bn = b.get(op.name()).copied().unwrap_or(0);
            let cn = c.get(op.name()).copied().unwrap_or(0);
            if bn == cn {
                continue;
            }
            buckets.push(BucketDelta {
                group: key.0.clone(),
                signature: key.1.clone(),
                op: op.name(),
                baseline: bn,
                current: cn,
                delta: cn as i64 - bn as i64,
                share_pct: 0,
            });
        }
    }
    let grown: u64 = buckets
        .iter()
        .filter(|b| b.delta > 0)
        .map(|b| b.delta.unsigned_abs())
        .sum();
    for b in &mut buckets {
        if b.delta > 0 {
            if let Some(share) = (100 * b.delta.unsigned_abs()).checked_div(grown) {
                b.share_pct = share;
            }
        }
    }
    buckets.sort_by_key(|b| std::cmp::Reverse(b.delta.unsigned_abs()));
    Ok(buckets)
}

/// Assemble the full cross-run diff. `stacks` and `costs` are optional
/// `(baseline, current)` text pairs; when `stacks` is absent the span
/// paths come from the documents' `"stages"` tails.
pub fn diff_runs(
    baseline: &str,
    current: &str,
    stacks: Option<(&str, &str)>,
    costs: Option<(&str, &str)>,
    cfg: &GateConfig,
) -> Result<DiffReport, String> {
    let (stages, lost, gained) = diff_stages(baseline, current, cfg)?;
    let paths = match stacks {
        Some((b, c)) => diff_path_maps(
            folded_map(b, "baseline stacks")?,
            folded_map(c, "current stacks")?,
            cfg.floor_ns,
        ),
        None => diff_path_maps(
            doc_path_map(baseline, "baseline")?,
            doc_path_map(current, "current")?,
            cfg.floor_ns,
        ),
    };
    let buckets = match costs {
        Some((b, c)) => diff_cost(b, c)?,
        None => Vec::new(),
    };
    Ok(DiffReport {
        stages,
        paths,
        buckets,
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

    /// The one-line causal headline: the top significant stage
    /// regression, attributed to the top growing operator bucket when
    /// cost documents were supplied — e.g. *"execute regressed 1.90 ms;
    /// 87% attributed to group_probes on categorical*temporal pairs"*.
    /// `None` when nothing significant regressed.
    pub fn attribution(&self) -> Option<String> {
        let top = self.top_regression()?;
        let mut line = format!(
            "{} regressed {} ({} -> {})",
            top.stage,
            fmt_duration(top.delta_ns.unsigned_abs()),
            fmt_duration(top.baseline_ns),
            fmt_duration(top.current_ns)
        );
        if let Some(bucket) = self.buckets.iter().find(|b| b.delta > 0) {
            line.push_str(&format!(
                "; {}% attributed to {} on {} pairs",
                bucket.share_pct, bucket.op, bucket.signature
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
            out.push_str(&format!("\nspan paths (top {top} by |delta|):\n"));
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
        if !self.buckets.is_empty() {
            out.push_str(&format!("\noperator buckets (top {top} by |delta|):\n"));
            for b in self.buckets.iter().take(top) {
                out.push_str(&format!(
                    "  {:>+14} {:<18} {:<44} {:>3}% of growth\n",
                    b.delta, b.op, b.group, b.share_pct
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
    /// the headline first, then one notice per significant stage delta.
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
            if let Some(bucket) = self.buckets.iter().find(|b| b.delta > 0) {
                message.push_str(&format!(
                    "\ntop operator bucket: {} on {} ({:+}, {}% of growth)",
                    bucket.op, bucket.group, bucket.delta, bucket.share_pct
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
    use deepeye_obs::{CandidateCost, CostAcc, CostCollector, Observer, Op as CostOp, OpCosts};

    fn doc_with(execute_ns: u64) -> String {
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
        results_json(&runs, &Observer::enabled().snapshot())
    }

    fn cost_doc(probes: u64) -> String {
        let costs = CostCollector::enabled();
        let mut oc = OpCosts::default();
        oc.add(CostOp::RowsScanned, 300);
        oc.add(CostOp::GroupProbes, probes);
        oc.add(CostOp::OutputRows, 5);
        costs.record_worker(vec![CandidateCost {
            id: "q1".into(),
            chart: "bar".into(),
            transform: "group".into(),
            signature: "categorical*temporal".into(),
            builds: 1,
            costs: oc,
        }]);
        costs.report().to_json()
    }

    #[test]
    fn identical_runs_diff_clean() {
        let doc = doc_with(10_000_000);
        let report = diff_runs(&doc, &doc, None, None, &GateConfig::default()).unwrap();
        assert!(report.top_regression().is_none());
        assert!(report.attribution().is_none());
        assert_eq!(report.stages.len(), STAGES.len());
        assert!(report.stages.iter().all(|d| !d.significant));
        assert!(report.lost.is_empty() && report.gained.is_empty());
        assert!(report.render(5).contains("no significant stage regression"));
    }

    #[test]
    fn doubled_execute_names_stage_and_bucket() {
        let base = doc_with(10_000_000);
        let cur = doc_with(20_000_000);
        let report = diff_runs(
            &base,
            &cur,
            None,
            Some((&cost_doc(1_000), &cost_doc(9_000))),
            &GateConfig::default(),
        )
        .unwrap();
        let top = report.top_regression().expect("execute regressed");
        assert_eq!(top.stage, "execute");
        assert_eq!(top.delta_ns, 10_000_000);
        let headline = report.attribution().expect("headline");
        assert!(headline.starts_with("execute regressed"), "{headline}");
        assert!(
            headline.contains("attributed to group_probes on categorical*temporal pairs"),
            "{headline}"
        );
        // The probe bucket explains 100% of the growth.
        let bucket = &report.buckets[0];
        assert_eq!(bucket.op, "group_probes");
        assert_eq!(bucket.delta, 8_000);
        assert_eq!(bucket.share_pct, 100);
        let rendered = report.render(5);
        assert!(rendered.contains("SIG"), "{rendered}");
        assert!(rendered.contains("operator buckets"), "{rendered}");
    }

    #[test]
    fn improvements_are_significant_but_not_regressions() {
        let base = doc_with(20_000_000);
        let cur = doc_with(10_000_000);
        let report = diff_runs(&base, &cur, None, None, &GateConfig::default()).unwrap();
        let exec = report.stages.iter().find(|d| d.stage == "execute").unwrap();
        assert!(exec.significant);
        assert!(exec.delta_ns < 0);
        assert!(report.top_regression().is_none());
    }

    #[test]
    fn folded_stacks_rank_span_paths() {
        let base = "pipeline.recommend;pipeline.execute 10000000\npipeline.recommend 500\n";
        let cur = "pipeline.recommend;pipeline.execute 25000000\npipeline.recommend 600\n";
        let doc = doc_with(10_000_000);
        let report =
            diff_runs(&doc, &doc, Some((base, cur)), None, &GateConfig::default()).unwrap();
        // The 100-ns path is under the floor; only the execute path stays.
        assert_eq!(report.paths.len(), 1);
        assert_eq!(report.paths[0].path, "pipeline.recommend;pipeline.execute");
        assert_eq!(report.paths[0].delta_ns, 15_000_000);
    }

    #[test]
    fn github_notices_escape_newlines() {
        let base = doc_with(10_000_000);
        let cur = doc_with(20_000_000);
        let report = diff_runs(
            &base,
            &cur,
            None,
            Some((&cost_doc(1_000), &cost_doc(9_000))),
            &GateConfig::default(),
        )
        .unwrap();
        let notices = report.github_notices(3);
        assert!(notices.len() >= 2, "{notices:?}");
        assert!(notices[0].starts_with("::notice title=perfdiff::"));
        for n in &notices {
            assert!(!n.contains('\n'), "one line per workflow command: {n}");
        }
        assert!(
            notices[1].contains("%0Atop operator bucket: group_probes"),
            "{:?}",
            notices[1]
        );
    }

    #[test]
    fn lost_and_gained_coverage_is_reported() {
        let base = doc_with(10_000_000);
        let cur = base.replace("s-300x5", "s-600x5");
        let report = diff_runs(&base, &cur, None, None, &GateConfig::default()).unwrap();
        assert_eq!(report.stages.len(), 0);
        assert_eq!(report.lost.len(), STAGES.len());
        assert_eq!(report.gained.len(), STAGES.len());
        assert!(report.render(5).contains("coverage lost"));
    }

    #[test]
    fn cost_diff_rejects_invalid_documents() {
        let bad = cost_doc(10).replace("deepeye-cost/v1", "deepeye-cost/v0");
        let err = diff_cost(&bad, &cost_doc(10)).unwrap_err();
        assert!(err.contains("baseline cost doc"), "{err}");
    }
}
