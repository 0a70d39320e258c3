//! The health engine: online anomaly detection and SLO verdicts over
//! the telemetry stream, emitted as versioned `deepeye-health/v1`
//! documents.
//!
//! The flight recorder (PR 7) made a long-lived process *record* its
//! own behaviour; nothing consumed those ticks in-process — regressions
//! were only caught offline by `perfgate` against a committed baseline.
//! [`HealthEngine`] closes that loop. Each telemetry line is ingested
//! into per-metric [`RingSeries`] rings (counter deltas as
//! `counter.<name>`, stage interval quantiles as
//! `stage.<path>.p50_ns`/`p95_ns`/`p99_ns`, allocation deltas as
//! `alloc.count`/`alloc.bytes`, span retention as `spans.retained`, and
//! process RSS as `proc.rss_bytes`), then a set of pluggable
//! [`Detector`]s scores the fresh samples:
//!
//! - **EWMA drift** (`ewma_drift`, warn): the newest sample against an
//!   exponentially weighted moving average of the preceding window — a
//!   sudden slowdown fires even before the median moves.
//! - **Robust z-score** (`robust_z`, warn): deviation from the window
//!   median in units of `1.4826 × MAD`, so a single outlier cannot
//!   poison its own baseline the way a mean/stddev score would; a
//!   relative-deviation floor keeps a collapsed MAD from promoting
//!   sub-percent jitter on ultra-stable series.
//! - **Monotonic growth** (`monotonic_growth`, page): a strictly
//!   increasing RSS window with a material relative rise — the leak
//!   signature that quantile detectors are blind to.
//! - **SLO objectives** (`slo`, page): hard ceilings on the windowed
//!   median of a metric. The bench crate derives these from
//!   `perf::BUDGETS`, so the CI latency budgets double as runtime
//!   objectives.
//!
//! Anomaly detectors are evaluated on every ingested tick and *latch*:
//! the first firing occurrence per (metric, detector) pair is kept, so
//! a transient mid-run spike still appears in the final document. SLO
//! verdicts are recomputed from current ring state at report time and
//! are always listed, firing or not — an all-healthy document still
//! names the objectives it was checked against. Detectors recompute
//! statelessly from ring contents, which makes them deterministic under
//! tick-batching (the property tests pin this down).
//!
//! [`validate_health_json`] is the consuming-side mirror.

use crate::json::{escape, parse_json, Json};
use crate::series::{stats_of, RingSeries};
use crate::telemetry::TELEMETRY_SCHEMA;
use std::collections::BTreeMap;

/// Schema tag stamped on every health document.
pub const HEALTH_SCHEMA: &str = "deepeye-health/v1";

/// Every JSON field name a health document may carry, for the doc-sync
/// and analyze-rule checks (A0020): each must appear in DESIGN.md §13.
pub const HEALTH_FIELDS: &[&str] = &[
    "schema",
    "ticks",
    "status",
    "series",
    "objectives",
    "verdicts",
    "metric",
    "count",
    "last",
    "min",
    "max",
    "mean",
    "median",
    "mad",
    "max_value",
    "source",
    "detector",
    "severity",
    "firing",
    "value",
    "threshold",
    "detail",
];

/// Recent-window width used for SLO median checks and series gauges.
const SLO_WINDOW: usize = 8;

/// Normal-consistency factor turning a MAD into a stddev-comparable
/// scale (1 / Φ⁻¹(3/4)).
const MAD_SCALE: f64 = 1.4826;

/// How loud a verdict is. The soak harness fails a run only on firing
/// `Page` verdicts; `Warn` verdicts are reported but survivable, so the
/// statistical detectors (which can trip on a noisy CI machine) never
/// fail a healthy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a look; does not fail a soak run.
    Warn,
    /// Actionable now; fails a soak run.
    Page,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }
}

/// A hard ceiling on the windowed median of one metric. The bench
/// crate derives one objective per `perf::BUDGETS` row; `--slo`
/// overrides add synthetic ones in CI.
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    /// Series name, e.g. `stage.harness.execute.p50_ns`.
    pub metric: String,
    /// Maximum acceptable windowed median.
    pub max_value: f64,
    /// Where the ceiling came from, e.g. `perf::BUDGETS` or `--slo`.
    pub source: String,
}

/// One detector's judgement of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Series name the verdict is about.
    pub metric: String,
    /// Detector that produced it (`ewma_drift`, `robust_z`,
    /// `monotonic_growth`, `slo`).
    pub detector: &'static str,
    pub severity: Severity,
    /// Whether the detector considers the condition present.
    pub firing: bool,
    /// The observed statistic the detector scored.
    pub value: f64,
    /// The level `value` was compared against.
    pub threshold: f64,
    /// Human-readable explanation naming the evidence.
    pub detail: String,
}

/// A pluggable anomaly detector. Implementations must be pure functions
/// of the ring contents they are shown — the engine re-evaluates them
/// on every tick and latches the first firing occurrence, and the
/// determinism property tests assume batching N samples into one tick
/// cannot change a verdict.
pub trait Detector: Send + Sync {
    /// Stable identifier used as the verdict's `detector` field.
    fn name(&self) -> &'static str;
    fn severity(&self) -> Severity;
    /// Whether this detector watches `metric` at all.
    fn applies_to(&self, metric: &str) -> bool;
    /// Score the series; `None` when not firing or when the window is
    /// too small to judge (detectors never fire on empty windows).
    fn evaluate(&self, metric: &str, series: &RingSeries) -> Option<Verdict>;
}

/// EWMA drift: the newest sample against an exponentially weighted
/// moving average of everything before it. Fires when
/// `last > (1 + rel_threshold) × ewma`.
#[derive(Debug, Clone)]
pub struct EwmaDrift {
    /// Smoothing factor in (0, 1]; higher tracks faster.
    pub alpha: f64,
    /// Relative excursion over baseline required to fire; the default
    /// 1.5 fires at 2.5× baseline, so a 3× stage slowdown trips it.
    pub rel_threshold: f64,
    /// Samples required before judging (baseline must be warm).
    pub min_samples: usize,
}

impl Default for EwmaDrift {
    fn default() -> Self {
        EwmaDrift {
            alpha: 0.3,
            rel_threshold: 1.5,
            min_samples: 16,
        }
    }
}

impl Detector for EwmaDrift {
    fn name(&self) -> &'static str {
        "ewma_drift"
    }

    fn severity(&self) -> Severity {
        Severity::Warn
    }

    fn applies_to(&self, metric: &str) -> bool {
        metric.starts_with("stage.")
    }

    fn evaluate(&self, metric: &str, series: &RingSeries) -> Option<Verdict> {
        let vals = series.window(0);
        if vals.len() < self.min_samples.max(2) {
            return None;
        }
        let (last, base) = vals.split_last()?;
        let mut ewma = base.first().copied()?;
        for &v in base.iter().skip(1) {
            ewma = self.alpha * v + (1.0 - self.alpha) * ewma;
        }
        if ewma <= 0.0 {
            return None;
        }
        let threshold = (1.0 + self.rel_threshold) * ewma;
        if *last <= threshold {
            return None;
        }
        Some(Verdict {
            metric: metric.to_owned(),
            detector: self.name(),
            severity: self.severity(),
            firing: true,
            value: *last,
            threshold,
            detail: format!(
                "last sample {last:.0} exceeds {threshold:.0} \
                 (EWMA baseline {ewma:.0} + {:.0}% drift allowance)",
                self.rel_threshold * 100.0
            ),
        })
    }
}

/// Robust z-score: deviation of the newest sample from the window
/// median, in units of `1.4826 × MAD`. Fires on `|z| > threshold`;
/// never fires when the MAD is zero (a flat series has no scale), and
/// never fires unless the deviation also clears `min_rel_dev` of the
/// median — a near-flat window collapses the MAD until sub-percent
/// timing jitter scores double-digit z, and a 0.3% excursion is not an
/// anomaly no matter how stable the baseline was.
#[derive(Debug, Clone)]
pub struct RobustZ {
    /// Absolute z-score required to fire.
    pub threshold: f64,
    /// Samples required before judging.
    pub min_samples: usize,
    /// Minimum |x − median| / |median| for a firing verdict, so a
    /// collapsed MAD cannot promote noise (e.g. 0.05 = 5%).
    pub min_rel_dev: f64,
}

impl Default for RobustZ {
    fn default() -> Self {
        RobustZ {
            threshold: 8.0,
            min_samples: 16,
            min_rel_dev: 0.05,
        }
    }
}

impl Detector for RobustZ {
    fn name(&self) -> &'static str {
        "robust_z"
    }

    fn severity(&self) -> Severity {
        Severity::Warn
    }

    fn applies_to(&self, metric: &str) -> bool {
        metric.starts_with("stage.")
    }

    fn evaluate(&self, metric: &str, series: &RingSeries) -> Option<Verdict> {
        let vals = series.window(0);
        if vals.len() < self.min_samples.max(2) {
            return None;
        }
        let (last, base) = vals.split_last()?;
        let stats = stats_of(base)?;
        // MAD is non-negative by construction, so zero is the only
        // degenerate value (flat window) — and a flat window has no
        // meaningful z-score.
        let scale = MAD_SCALE * stats.mad;
        if scale == 0.0 {
            return None;
        }
        let z = (*last - stats.median) / scale;
        if z.abs() <= self.threshold {
            return None;
        }
        // Deviation floor, checked multiplicatively so a zero median
        // degrades to "any deviation clears it" rather than a division.
        if (*last - stats.median).abs() <= self.min_rel_dev * stats.median.abs() {
            return None;
        }
        Some(Verdict {
            metric: metric.to_owned(),
            detector: self.name(),
            severity: self.severity(),
            firing: true,
            value: z,
            threshold: self.threshold,
            detail: format!(
                "robust z {z:.1} beyond ±{:.1} (median {:.0}, scaled MAD {scale:.1})",
                self.threshold, stats.median
            ),
        })
    }
}

/// Monotonic growth: a full window of strictly increasing samples with
/// a material total rise — the leak signature. Watches RSS by default;
/// a healthy allocator plateaus (equal consecutive readings break
/// strictness), so this pages only on genuinely unbounded growth.
#[derive(Debug, Clone)]
pub struct MonotonicGrowth {
    /// Consecutive strictly-rising samples required.
    pub window: usize,
    /// Minimum relative rise across the window, e.g. 0.10 = 10%.
    pub min_rise_rel: f64,
    /// Series this detector watches.
    pub metrics: Vec<String>,
}

impl Default for MonotonicGrowth {
    fn default() -> Self {
        MonotonicGrowth {
            window: 16,
            min_rise_rel: 0.10,
            metrics: vec!["proc.rss_bytes".to_owned()],
        }
    }
}

impl Detector for MonotonicGrowth {
    fn name(&self) -> &'static str {
        "monotonic_growth"
    }

    fn severity(&self) -> Severity {
        Severity::Page
    }

    fn applies_to(&self, metric: &str) -> bool {
        self.metrics.iter().any(|m| m == metric)
    }

    fn evaluate(&self, metric: &str, series: &RingSeries) -> Option<Verdict> {
        let vals = series.window(self.window);
        if vals.len() < self.window.max(2) {
            return None;
        }
        let strictly_rising = vals.windows(2).all(|w| match w {
            [a, b] => a < b,
            _ => false,
        });
        let first = vals.first().copied()?;
        let last = vals.last().copied()?;
        if !strictly_rising {
            return None;
        }
        if first > 0.0 {
            let rise = (last - first) / first;
            if rise <= self.min_rise_rel {
                return None;
            }
            Some(Verdict {
                metric: metric.to_owned(),
                detector: self.name(),
                severity: self.severity(),
                firing: true,
                value: rise,
                threshold: self.min_rise_rel,
                detail: format!(
                    "strictly increasing for {} samples, +{:.1}% ({first:.0} to {last:.0})",
                    vals.len(),
                    rise * 100.0
                ),
            })
        } else {
            None
        }
    }
}

/// The standard detector set: EWMA drift, robust z-score, and RSS
/// monotonic growth, all with default tuning.
pub fn default_detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(EwmaDrift::default()),
        Box::new(RobustZ::default()),
        Box::new(MonotonicGrowth::default()),
    ]
}

/// Configuration for [`HealthEngine`] (and `Observer::with_health`).
pub struct HealthConfig {
    /// Per-metric ring capacity (samples retained), clamped to ≥ 1.
    pub capacity: usize,
    /// SLO ceilings to check at report time.
    pub objectives: Vec<SloObjective>,
    /// Anomaly detectors evaluated on every tick.
    pub detectors: Vec<Box<dyn Detector>>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            capacity: 512,
            objectives: Vec::new(),
            detectors: default_detectors(),
        }
    }
}

impl HealthConfig {
    /// Replace the SLO objective list.
    pub fn with_objectives(mut self, objectives: Vec<SloObjective>) -> Self {
        self.objectives = objectives;
        self
    }

    /// Replace the detector set.
    pub fn with_detectors(mut self, detectors: Vec<Box<dyn Detector>>) -> Self {
        self.detectors = detectors;
        self
    }
}

/// The report-time rollup: overall status plus every verdict (latched
/// anomaly firings and current SLO judgements).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Telemetry ticks ingested.
    pub ticks: u64,
    /// `"ok"`, `"warn"`, or `"page"` — page iff any firing page
    /// verdict, warn iff anything else fires, ok otherwise.
    pub status: &'static str,
    pub verdicts: Vec<Verdict>,
}

/// In-process health evaluation over the telemetry stream: per-metric
/// ring timeseries, per-tick anomaly detection with first-firing
/// latching, and report-time SLO verdicts.
pub struct HealthEngine {
    capacity: usize,
    objectives: Vec<SloObjective>,
    detectors: Vec<Box<dyn Detector>>,
    series: BTreeMap<String, RingSeries>,
    /// First firing occurrence per (metric, detector).
    latched: BTreeMap<(String, &'static str), Verdict>,
    ticks: u64,
}

impl std::fmt::Debug for HealthEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthEngine")
            .field("ticks", &self.ticks)
            .field("series", &self.series.len())
            .field("latched", &self.latched.len())
            .finish()
    }
}

impl HealthEngine {
    pub fn new(config: HealthConfig) -> Self {
        HealthEngine {
            capacity: config.capacity.max(1),
            objectives: config.objectives,
            detectors: config.detectors,
            series: BTreeMap::new(),
            latched: BTreeMap::new(),
            ticks: 0,
        }
    }

    /// Telemetry ticks ingested so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Distinct metric series currently tracked.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    fn push_sample(&mut self, metric: String, value: f64) {
        let cap = self.capacity;
        self.series
            .entry(metric)
            .or_insert_with(|| RingSeries::new(cap))
            .push(value);
    }

    /// Ingest one `deepeye-telemetry/v1` line: push every sample it
    /// carries into the per-metric rings, then run the anomaly
    /// detectors and latch any first-time firings. Errors name the
    /// offending metric so soak failures localize quickly.
    pub fn ingest_line(&mut self, line: &str) -> Result<(), String> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Err("empty telemetry line".to_owned());
        }
        let doc = parse_json(trimmed).map_err(|e| format!("telemetry line: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(TELEMETRY_SCHEMA) => {}
            Some(other) => return Err(format!("unexpected telemetry schema {other:?}")),
            None => return Err("telemetry line missing `schema`".to_owned()),
        }
        let counters = doc
            .get("counters")
            .and_then(Json::as_object)
            .ok_or("telemetry line missing `counters` object")?;
        for (name, v) in counters {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("counter `{name}` is not numeric"))?;
            self.push_sample(format!("counter.{name}"), x);
        }
        let stages = doc
            .get("stages")
            .and_then(Json::as_object)
            .ok_or("telemetry line missing `stages` object")?;
        for (path, s) in stages {
            for q in ["p50_ns", "p95_ns", "p99_ns"] {
                let x = s
                    .get(q)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("stage `{path}` missing numeric `{q}`"))?;
                self.push_sample(format!("stage.{path}.{q}"), x);
            }
        }
        let alloc = doc.get("alloc").ok_or("telemetry line missing `alloc`")?;
        for key in ["count", "bytes"] {
            let x = alloc
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("alloc missing numeric `{key}`"))?;
            self.push_sample(format!("alloc.{key}"), x);
        }
        let spans = doc.get("spans").ok_or("telemetry line missing `spans`")?;
        let retained = spans
            .get("retained")
            .and_then(Json::as_f64)
            .ok_or("spans missing numeric `retained`")?;
        self.push_sample("spans.retained".to_owned(), retained);
        let proc = doc.get("proc").ok_or("telemetry line missing `proc`")?;
        let rss = proc
            .get("rss_bytes")
            .and_then(Json::as_f64)
            .ok_or("proc missing numeric `rss_bytes`")?;
        self.push_sample("proc.rss_bytes".to_owned(), rss);

        self.ticks = self.ticks.saturating_add(1);

        // Latch pass: first firing occurrence per (metric, detector).
        for (metric, series) in &self.series {
            for det in &self.detectors {
                if !det.applies_to(metric) {
                    continue;
                }
                let key = (metric.clone(), det.name());
                if self.latched.contains_key(&key) {
                    continue;
                }
                if let Some(mut verdict) = det.evaluate(metric, series) {
                    if verdict.firing {
                        verdict.detail =
                            format!("{} (first fired at tick {})", verdict.detail, self.ticks);
                        self.latched.insert(key, verdict);
                    }
                }
            }
        }
        Ok(())
    }

    /// The current SLO judgement for one objective (always produced,
    /// firing or not, so healthy documents still name their ceilings).
    fn slo_verdict(&self, obj: &SloObjective) -> Verdict {
        match self
            .series
            .get(&obj.metric)
            .and_then(|s| s.window_stats(SLO_WINDOW))
        {
            Some(stats) => {
                let firing = stats.median > obj.max_value;
                Verdict {
                    metric: obj.metric.clone(),
                    detector: "slo",
                    severity: Severity::Page,
                    firing,
                    value: stats.median,
                    threshold: obj.max_value,
                    detail: format!(
                        "windowed median {:.0} vs ceiling {:.0} over last {} samples ({})",
                        stats.median, obj.max_value, stats.count, obj.source
                    ),
                }
            }
            None => Verdict {
                metric: obj.metric.clone(),
                detector: "slo",
                severity: Severity::Page,
                firing: false,
                value: 0.0,
                threshold: obj.max_value,
                detail: format!("no samples yet ({})", obj.source),
            },
        }
    }

    /// All current verdicts: one per SLO objective plus every latched
    /// anomaly firing, pages first, then warns, then quiet objectives.
    pub fn verdicts(&self) -> Vec<Verdict> {
        let mut out: Vec<Verdict> = self
            .objectives
            .iter()
            .map(|obj| self.slo_verdict(obj))
            .collect();
        out.extend(self.latched.values().cloned());
        out.sort_by(|a, b| {
            b.firing
                .cmp(&a.firing)
                .then(b.severity.cmp(&a.severity))
                .then(a.metric.cmp(&b.metric))
                .then(a.detector.cmp(b.detector))
        });
        out
    }

    /// Roll verdicts into an overall status string.
    fn status_of(verdicts: &[Verdict]) -> &'static str {
        let mut firing = false;
        for v in verdicts {
            if !v.firing {
                continue;
            }
            if v.severity == Severity::Page {
                return "page";
            }
            firing = true;
        }
        if firing {
            "warn"
        } else {
            "ok"
        }
    }

    /// The structured report: ticks, rolled-up status, all verdicts.
    pub fn report(&self) -> HealthReport {
        let verdicts = self.verdicts();
        let status = HealthEngine::status_of(&verdicts);
        HealthReport {
            ticks: self.ticks,
            status,
            verdicts,
        }
    }

    /// Render the full `deepeye-health/v1` document (one JSON object,
    /// trailing newline): schema, ticks, status, per-series windowed
    /// stats, objectives, and verdicts.
    pub fn report_json(&self) -> String {
        let report = self.report();
        let mut series_parts: Vec<String> = Vec::new();
        for (metric, ring) in &self.series {
            if let Some(stats) = ring.window_stats(0) {
                let last = ring.last().unwrap_or(0.0);
                series_parts.push(format!(
                    "{{\"metric\":\"{}\",\"count\":{},\"last\":{},\"min\":{},\"max\":{},\
                     \"mean\":{},\"median\":{},\"mad\":{}}}",
                    escape(metric),
                    stats.count,
                    fmt_num(last),
                    fmt_num(stats.min),
                    fmt_num(stats.max),
                    fmt_num(stats.mean),
                    fmt_num(stats.median),
                    fmt_num(stats.mad)
                ));
            }
        }
        let objective_parts: Vec<String> = self
            .objectives
            .iter()
            .map(|o| {
                format!(
                    "{{\"metric\":\"{}\",\"max_value\":{},\"source\":\"{}\"}}",
                    escape(&o.metric),
                    fmt_num(o.max_value),
                    escape(&o.source)
                )
            })
            .collect();
        let verdict_parts: Vec<String> = report
            .verdicts
            .iter()
            .map(|v| {
                format!(
                    "{{\"metric\":\"{}\",\"detector\":\"{}\",\"severity\":\"{}\",\
                     \"firing\":{},\"value\":{},\"threshold\":{},\"detail\":\"{}\"}}",
                    escape(&v.metric),
                    v.detector,
                    v.severity.as_str(),
                    v.firing,
                    fmt_num(v.value),
                    fmt_num(v.threshold),
                    escape(&v.detail)
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{HEALTH_SCHEMA}\",\"ticks\":{},\"status\":\"{}\",\
             \"series\":[{}],\"objectives\":[{}],\"verdicts\":[{}]}}\n",
            report.ticks,
            report.status,
            series_parts.join(","),
            objective_parts.join(","),
            verdict_parts.join(",")
        )
    }
}

/// Format a float for JSON: finite values via the shortest round-trip
/// representation, non-finite clamped to 0 (the document must stay
/// parseable).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Summary returned by a successful [`validate_health_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSummary {
    /// Telemetry ticks the document covers.
    pub ticks: u64,
    /// Metric series described.
    pub series: usize,
    /// SLO objectives listed.
    pub objectives: usize,
    /// Verdicts listed (firing or not).
    pub verdicts: usize,
    /// Verdicts firing.
    pub firing: usize,
    /// Rolled-up status string.
    pub status: String,
}

fn req_num(obj: &Json, key: &str, what: &str) -> Result<f64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what} missing numeric `{key}`"))?;
    if !v.is_finite() {
        return Err(format!("{what}.{key} is not finite"));
    }
    Ok(v)
}

fn req_str<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    let s = obj
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what} missing string `{key}`"))?;
    if s.is_empty() {
        return Err(format!("{what}.{key} is empty"));
    }
    Ok(s)
}

/// Validate a `deepeye-health/v1` document: schema tag, well-formed
/// series stats (`count ≥ 1`, `min ≤ median ≤ max`, `mad ≥ 0`),
/// well-formed objectives and verdicts (known severities, finite
/// numerics), and a `status` consistent with the firing verdicts
/// (`page` iff a page fires, `warn` iff only warns fire, `ok`
/// otherwise).
pub fn validate_health_json(text: &str) -> Result<HealthSummary, String> {
    let doc = parse_json(text.trim()).map_err(|e| format!("health document: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(HEALTH_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema {other:?}")),
        None => return Err("missing `schema`".to_owned()),
    }
    let ticks = req_num(&doc, "ticks", "document")?;
    if ticks < 0.0 || ticks.fract() != 0.0 {
        return Err(format!("ticks {ticks} is not a non-negative integer"));
    }
    let status = req_str(&doc, "status", "document")?;
    if !matches!(status, "ok" | "warn" | "page") {
        return Err(format!("unknown status {status:?}"));
    }

    let series = doc
        .get("series")
        .and_then(Json::as_array)
        .ok_or("missing `series` array")?;
    for (i, entry) in series.iter().enumerate() {
        let what = format!("series {i}");
        let metric = req_str(entry, "metric", &what)?;
        let what = format!("series `{metric}`");
        let count = req_num(entry, "count", &what)?;
        if count < 1.0 || count.fract() != 0.0 {
            return Err(format!("{what} count {count} is not a positive integer"));
        }
        req_num(entry, "last", &what)?;
        let min = req_num(entry, "min", &what)?;
        let max = req_num(entry, "max", &what)?;
        req_num(entry, "mean", &what)?;
        let median = req_num(entry, "median", &what)?;
        let mad = req_num(entry, "mad", &what)?;
        if !(min <= median && median <= max) {
            return Err(format!(
                "{what} stats inconsistent: min {min} median {median} max {max}"
            ));
        }
        if mad < 0.0 {
            return Err(format!("{what} mad {mad} is negative"));
        }
    }

    let objectives = doc
        .get("objectives")
        .and_then(Json::as_array)
        .ok_or("missing `objectives` array")?;
    for (i, entry) in objectives.iter().enumerate() {
        let what = format!("objective {i}");
        let metric = req_str(entry, "metric", &what)?;
        let what = format!("objective `{metric}`");
        let max_value = req_num(entry, "max_value", &what)?;
        if max_value <= 0.0 {
            return Err(format!("{what} max_value {max_value} is not positive"));
        }
        req_str(entry, "source", &what)?;
    }

    let verdicts = doc
        .get("verdicts")
        .and_then(Json::as_array)
        .ok_or("missing `verdicts` array")?;
    let mut firing = 0usize;
    let mut page_firing = false;
    let mut warn_firing = false;
    for (i, entry) in verdicts.iter().enumerate() {
        let what = format!("verdict {i}");
        let metric = req_str(entry, "metric", &what)?;
        let what = format!("verdict `{metric}`");
        req_str(entry, "detector", &what)?;
        let severity = req_str(entry, "severity", &what)?;
        if !matches!(severity, "warn" | "page") {
            return Err(format!("{what} has unknown severity {severity:?}"));
        }
        let is_firing = entry
            .get("firing")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{what} missing boolean `firing`"))?;
        req_num(entry, "value", &what)?;
        req_num(entry, "threshold", &what)?;
        req_str(entry, "detail", &what)?;
        if is_firing {
            firing += 1;
            if severity == "page" {
                page_firing = true;
            } else {
                warn_firing = true;
            }
        }
    }
    let expected = if page_firing {
        "page"
    } else if warn_firing {
        "warn"
    } else {
        "ok"
    };
    if status != expected {
        return Err(format!(
            "status {status:?} inconsistent with firing verdicts (expected {expected:?})"
        ));
    }
    Ok(HealthSummary {
        ticks: ticks as u64,
        series: series.len(),
        objectives: objectives.len(),
        verdicts: verdicts.len(),
        firing,
        status: status.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic but fully valid telemetry line: one stage with the
    /// given quantiles, plus steady counters/alloc/spans/proc parts.
    fn tick_line(seq: u64, p50: u64, rss: u64) -> String {
        let t_ns = seq * 1_000_000;
        format!(
            "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"seq\":{seq},\"t_ns\":{t_ns},\
             \"interval_ns\":1000000,\"counters\":{{\"exec.ok\":5}},\"hists\":{{}},\
             \"stages\":{{\"harness.execute\":{{\"count\":1,\"total_ns\":{p50},\
             \"p50_ns\":{p50},\"p95_ns\":{p50},\"p99_ns\":{p50}}}}},\
             \"alloc\":{{\"count\":2,\"bytes\":64}},\
             \"spans\":{{\"finished\":{seq},\"retained\":{seq},\"dropped\":0,\"capacity\":0}},\
             \"proc\":{{\"rss_bytes\":{rss},\"cpu_user_ticks\":1,\"cpu_sys_ticks\":1}},\
             \"stalls\":[]}}\n"
        )
    }

    fn steady_engine(ticks: u64) -> HealthEngine {
        let mut engine = HealthEngine::new(HealthConfig::default());
        for seq in 1..=ticks {
            // Small deterministic jitter: ±2% around 1ms.
            let jitter = (seq % 5) * 4_000;
            engine
                .ingest_line(&tick_line(seq, 1_000_000 + jitter, 50_000_000))
                .expect("valid line");
        }
        engine
    }

    #[test]
    fn steady_stream_reports_ok() {
        let engine = steady_engine(40);
        let report = engine.report();
        assert_eq!(report.ticks, 40);
        assert_eq!(report.status, "ok");
        assert!(report.verdicts.iter().all(|v| !v.firing));
        let doc = engine.report_json();
        let summary = validate_health_json(&doc).expect("valid document");
        assert_eq!(summary.status, "ok");
        assert_eq!(summary.firing, 0);
        assert!(summary.series > 0);
    }

    #[test]
    fn injected_slowdown_fires_drift_on_the_stage_metric() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        for seq in 1..=60 {
            let p50 = if seq > 40 { 3_000_000 } else { 1_000_000 };
            engine
                .ingest_line(&tick_line(seq, p50, 50_000_000))
                .expect("valid line");
        }
        let report = engine.report();
        assert_eq!(report.status, "warn");
        let fired: Vec<&Verdict> = report.verdicts.iter().filter(|v| v.firing).collect();
        assert!(!fired.is_empty());
        assert!(
            fired
                .iter()
                .any(|v| v.metric.contains("stage.harness.execute") && v.detector == "ewma_drift"),
            "drift verdict names the stage metric: {fired:?}"
        );
        let doc = engine.report_json();
        let summary = validate_health_json(&doc).expect("valid document");
        assert_eq!(summary.status, "warn");
        assert!(summary.firing >= 1);
    }

    #[test]
    fn slo_objective_pages_when_median_exceeds_ceiling() {
        let config = HealthConfig::default().with_objectives(vec![SloObjective {
            metric: "stage.harness.execute.p50_ns".to_owned(),
            max_value: 500_000.0,
            source: "test".to_owned(),
        }]);
        let mut engine = HealthEngine::new(config);
        for seq in 1..=20 {
            engine
                .ingest_line(&tick_line(seq, 1_000_000, 50_000_000))
                .expect("valid line");
        }
        let report = engine.report();
        assert_eq!(report.status, "page");
        let slo = report
            .verdicts
            .iter()
            .find(|v| v.detector == "slo")
            .expect("slo verdict present");
        assert!(slo.firing);
        assert_eq!(slo.severity, Severity::Page);
        assert_eq!(slo.metric, "stage.harness.execute.p50_ns");
        let summary = validate_health_json(&engine.report_json()).expect("valid document");
        assert_eq!(summary.status, "page");
    }

    #[test]
    fn quiet_objective_is_listed_but_not_firing() {
        let config = HealthConfig::default().with_objectives(vec![SloObjective {
            metric: "stage.harness.execute.p50_ns".to_owned(),
            max_value: 60_000_000_000.0,
            source: "perf::BUDGETS".to_owned(),
        }]);
        let mut engine = HealthEngine::new(config);
        for seq in 1..=10 {
            engine
                .ingest_line(&tick_line(seq, 1_000_000, 50_000_000))
                .expect("valid line");
        }
        let report = engine.report();
        assert_eq!(report.status, "ok");
        assert_eq!(report.verdicts.len(), 1, "objective listed even when quiet");
        let summary = validate_health_json(&engine.report_json()).expect("valid document");
        assert_eq!(summary.objectives, 1);
        assert_eq!(summary.verdicts, 1);
        assert_eq!(summary.firing, 0);
    }

    #[test]
    fn monotonic_rss_growth_pages() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        for seq in 1..=24 {
            // RSS grows 2% per tick, strictly — a leak signature.
            let rss = 50_000_000 + seq * 1_000_000;
            engine
                .ingest_line(&tick_line(seq, 1_000_000, rss))
                .expect("valid line");
        }
        let report = engine.report();
        assert_eq!(report.status, "page");
        assert!(report
            .verdicts
            .iter()
            .any(|v| v.firing && v.detector == "monotonic_growth" && v.metric == "proc.rss_bytes"));
    }

    #[test]
    fn detectors_do_not_fire_on_empty_or_tiny_windows() {
        let drift = EwmaDrift::default();
        let z = RobustZ::default();
        let growth = MonotonicGrowth::default();
        let empty = RingSeries::new(8);
        assert!(drift.evaluate("stage.x.p50_ns", &empty).is_none());
        assert!(z.evaluate("stage.x.p50_ns", &empty).is_none());
        assert!(growth.evaluate("proc.rss_bytes", &empty).is_none());
        let mut one = RingSeries::new(8);
        one.push(1_000_000.0);
        assert!(drift.evaluate("stage.x.p50_ns", &one).is_none());
        assert!(z.evaluate("stage.x.p50_ns", &one).is_none());
        assert!(growth.evaluate("proc.rss_bytes", &one).is_none());
    }

    #[test]
    fn flat_series_never_fires_robust_z() {
        let z = RobustZ::default();
        let mut s = RingSeries::new(64);
        for _ in 0..32 {
            s.push(1_000_000.0);
        }
        // MAD is zero: a flat series has no scale, so even a huge jump
        // is judged by drift, not z.
        s.push(50_000_000.0);
        assert!(z.evaluate("stage.x.p50_ns", &s).is_none());
    }

    #[test]
    fn near_flat_series_needs_a_material_deviation_to_fire_z() {
        let z = RobustZ::default();
        // ~10ms series with ±30µs jitter: the MAD collapses to tens of
        // microseconds, so a 0.5% excursion scores a huge z — but it is
        // below the relative floor and must not fire.
        let mut s = RingSeries::new(64);
        for i in 0..32u32 {
            s.push(10_000_000.0 + f64::from(i % 3) * 30_000.0);
        }
        s.push(10_050_000.0);
        assert!(z.evaluate("stage.x.p50_ns", &s).is_none());
        // A 3x excursion clears both the z threshold and the floor.
        let mut s = RingSeries::new(64);
        for i in 0..32u32 {
            s.push(10_000_000.0 + f64::from(i % 3) * 30_000.0);
        }
        s.push(30_000_000.0);
        let v = z.evaluate("stage.x.p50_ns", &s).unwrap();
        assert!(v.firing);
        assert!(v.value > 8.0);
    }

    #[test]
    fn ingest_errors_name_the_offending_metric() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        assert!(engine.ingest_line("").is_err());
        assert!(engine
            .ingest_line("{\"schema\":\"other/v1\"}")
            .unwrap_err()
            .contains("schema"));
        let bad = tick_line(1, 1_000_000, 1).replace("\"exec.ok\":5", "\"exec.ok\":\"x\"");
        assert!(engine.ingest_line(&bad).unwrap_err().contains("exec.ok"));
        let bad = tick_line(1, 1_000_000, 1).replace(",\"p95_ns\":1000000", "");
        let err = engine.ingest_line(&bad).unwrap_err();
        assert!(
            err.contains("harness.execute") && err.contains("p95_ns"),
            "stage errors name path and field: {err}"
        );
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_health_json("").is_err());
        assert!(validate_health_json("not json").is_err());
        let engine = steady_engine(20);
        let doc = engine.report_json();
        let bad = doc.replace("deepeye-health/v1", "deepeye-health/v0");
        assert!(validate_health_json(&bad).unwrap_err().contains("schema"));
        let bad = doc.replace("\"status\":\"ok\"", "\"status\":\"page\"");
        assert!(validate_health_json(&bad)
            .unwrap_err()
            .contains("inconsistent"));
        let bad = doc.replace("\"status\":\"ok\"", "\"status\":\"great\"");
        assert!(validate_health_json(&bad).unwrap_err().contains("status"));
    }

    #[test]
    fn latched_verdicts_survive_recovery() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        // 30 steady ticks, a 10-tick spike, then 30 steady again.
        for seq in 1..=70 {
            let p50 = if (31..=40).contains(&seq) {
                5_000_000
            } else {
                1_000_000
            };
            engine
                .ingest_line(&tick_line(seq, p50, 50_000_000))
                .expect("valid line");
        }
        let report = engine.report();
        assert_eq!(report.status, "warn", "mid-run spike stays latched");
        assert!(report
            .verdicts
            .iter()
            .any(|v| v.firing && v.detail.contains("first fired at tick")));
    }
}
