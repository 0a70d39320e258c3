//! The efficiency experiment behind Figure 12: end-to-end time from a
//! dataset to selected visualizations under the four configurations
//! {E, R} × {L, P} — exhaustive vs rule-based enumeration crossed with
//! learning-to-rank vs partial-order selection — with the enumeration /
//! selection percentage split the paper annotates on each bar.

use deepeye_core::{
    build_nodes_parallel, compute_factors, partial_order::raw_match_quality, LtrRanker, VisNode,
};
use deepeye_datagen::{ranking_examples, training_tables, PerceptionOracle};
use deepeye_obs::Observer;
use deepeye_query::{all_queries, UdfRegistry};
use std::time::Duration;

/// Enumeration mode of a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enumeration {
    Exhaustive,
    RuleBased,
}

/// Selection mode of a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    LearningToRank,
    PartialOrder,
}

/// One of the four bars of Figure 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyBar {
    pub enumeration: Enumeration,
    pub selection: Selection,
    pub enumerate_time: Duration,
    pub select_time: Duration,
    pub candidates: usize,
}

impl EfficiencyBar {
    pub fn total(&self) -> Duration {
        self.enumerate_time + self.select_time
    }

    /// The paper's bar annotation, e.g. `E20%/L80%`.
    pub fn annotation(&self) -> String {
        let total = self.total().as_secs_f64().max(1e-9);
        let e_pct = 100.0 * self.enumerate_time.as_secs_f64() / total;
        let e = match self.enumeration {
            Enumeration::Exhaustive => "E",
            Enumeration::RuleBased => "R",
        };
        let s = match self.selection {
            Selection::LearningToRank => "L",
            Selection::PartialOrder => "P",
        };
        format!("{e}{:.0}%/{s}{:.0}%", e_pct, 100.0 - e_pct)
    }

    /// Short config label: EL / EP / RL / RP.
    pub fn label(&self) -> &'static str {
        match (self.enumeration, self.selection) {
            (Enumeration::Exhaustive, Selection::LearningToRank) => "EL",
            (Enumeration::Exhaustive, Selection::PartialOrder) => "EP",
            (Enumeration::RuleBased, Selection::LearningToRank) => "RL",
            (Enumeration::RuleBased, Selection::PartialOrder) => "RP",
        }
    }
}

/// Enumerate candidates under a mode and build their nodes with the
/// shipping builder (`build_nodes_parallel`: shared scans, features once
/// per distinct series, duplicates by id dropped). The phase runs under
/// an `enumerate.exhaustive` / `enumerate.rules` span and its wall time
/// is read back from the observer's monotonic clock. Nodes are slimmed
/// right after feature extraction to bound memory on exhaustive runs
/// over large tables.
fn enumerate_candidates(
    table: &deepeye_data::Table,
    mode: Enumeration,
    udfs: &UdfRegistry,
    obs: &Observer,
) -> (Vec<VisNode>, Duration) {
    let span = obs.span(match mode {
        Enumeration::Exhaustive => "enumerate.exhaustive",
        Enumeration::RuleBased => "enumerate.rules",
    });
    let id = span.id();
    let queries: Vec<deepeye_query::VisQuery> = match mode {
        Enumeration::Exhaustive => all_queries(table).collect(),
        Enumeration::RuleBased => deepeye_core::rules::rule_based_queries(table),
    };
    let nodes = build_nodes_parallel(table, queries, udfs, true);
    drop(span);
    let elapsed = id.and_then(|i| obs.span_duration(i)).unwrap_or_default();
    (nodes, elapsed)
}

/// How many times each selection phase runs; the fastest run is its time.
const SELECT_RUNS: usize = 5;

/// The span name of one configuration's selection phase.
fn select_span_name(enumeration: Enumeration, selection: Selection) -> &'static str {
    match (enumeration, selection) {
        (Enumeration::Exhaustive, Selection::LearningToRank) => "select.EL",
        (Enumeration::Exhaustive, Selection::PartialOrder) => "select.EP",
        (Enumeration::RuleBased, Selection::LearningToRank) => "select.RL",
        (Enumeration::RuleBased, Selection::PartialOrder) => "select.RP",
    }
}

/// Run the four configurations on one table. `ltr` must already be
/// trained (training time is offline in the paper's Figure 4 and excluded
/// from the online measurement).
pub fn run_table(table: &deepeye_data::Table, ltr: &LtrRanker, k: usize) -> Vec<EfficiencyBar> {
    run_table_observed(table, ltr, k, &Observer::enabled())
}

/// [`run_table`] against a caller-provided observer, so a driver can
/// export the full trace (e.g. `fig12_efficiency` honoring
/// `DEEPEYE_TRACE_OUT`). All phase timings come from the observer's span
/// clock, which is also what the exported trace shows — one source of
/// truth for both the table and the timeline.
pub fn run_table_observed(
    table: &deepeye_data::Table,
    ltr: &LtrRanker,
    k: usize,
    obs: &Observer,
) -> Vec<EfficiencyBar> {
    let udfs = UdfRegistry::default();
    let mut bars = Vec::with_capacity(4);
    for enumeration in [Enumeration::Exhaustive, Enumeration::RuleBased] {
        let (nodes, enumerate_time) = enumerate_candidates(table, enumeration, &udfs, obs);
        for selection in [Selection::LearningToRank, Selection::PartialOrder] {
            // A select phase takes milliseconds, so one timing is mostly
            // scheduler noise: report the fastest of `SELECT_RUNS`.
            let select_time = (0..SELECT_RUNS)
                .map(|_| {
                    let span = obs.span(select_span_name(enumeration, selection));
                    let id = span.id();
                    let order = match selection {
                        Selection::LearningToRank => ltr.rank(&nodes),
                        // The §V-optimized partial-order top-k the paper's
                        // efficiency experiment measures: the composite
                        // factor score of §V-B ((M + Q + W)/3, leaf-local)
                        // sorted best-first — linear in the candidate
                        // count, unlike the full Algorithm-1 graph ranking
                        // used for Figure 11's quality numbers.
                        Selection::PartialOrder => {
                            let factors = compute_factors(&nodes);
                            let m_raw: Vec<f64> = nodes.iter().map(raw_match_quality).collect();
                            let mut order: Vec<usize> = (0..nodes.len()).collect();
                            order.sort_by(|&a, &b| {
                                let sa = m_raw[a] + factors[a].q + factors[a].w;
                                let sb = m_raw[b] + factors[b].q + factors[b].w;
                                sb.total_cmp(&sa).then(a.cmp(&b))
                            });
                            order
                        }
                    };
                    let _top: Vec<usize> = order.into_iter().take(k).collect();
                    drop(span);
                    id.and_then(|i| obs.span_duration(i)).unwrap_or_default()
                })
                .min()
                .unwrap_or_default();
            bars.push(EfficiencyBar {
                enumeration,
                selection,
                enumerate_time,
                select_time,
                candidates: nodes.len(),
            });
        }
    }
    bars
}

/// Train the LTR model used by the L configurations (offline phase).
pub fn offline_ltr(scale: f64, oracle: &PerceptionOracle) -> LtrRanker {
    let train = training_tables(scale);
    let groups = ranking_examples(&train, oracle);
    LtrRanker::fit(&groups)
}

/// One dataset's Figure-12 results, for the machine-readable export.
#[derive(Debug, Clone)]
pub struct DatasetRun {
    pub name: String,
    pub rows: usize,
    pub bars: Vec<EfficiencyBar>,
}

/// The machine-readable `BENCH_efficiency.json` document: per-dataset bar
/// timings plus the observer's counters and per-path stage aggregates
/// from the same run (so `progressive.leaves_pruned` et al. land next to
/// the wall-clock numbers they explain). Written by `fig12_efficiency`
/// when `DEEPEYE_BENCH_OUT` is set.
pub fn bench_json(scale: f64, datasets: &[DatasetRun], snapshot: &deepeye_obs::Snapshot) -> String {
    use deepeye_obs::json::escape;
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema\": \"{}\",\n",
        crate::perf::BENCH_SCHEMA
    ));
    out.push_str("  \"experiment\": \"fig12_efficiency\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str("  \"datasets\": [");
    for (i, d) in datasets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"rows\": {}, \"bars\": [",
            escape(&d.name),
            d.rows
        ));
        for (j, b) in d.bars.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"config\": \"{}\", \"enumerate_ns\": {}, \"select_ns\": {}, \
                 \"total_ns\": {}, \"candidates\": {}, \"annotation\": \"{}\"}}",
                b.label(),
                b.enumerate_time.as_nanos(),
                b.select_time.as_nanos(),
                b.total().as_nanos(),
                b.candidates,
                escape(&b.annotation())
            ));
        }
        out.push_str("]}");
    }
    if !datasets.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&snapshot.json_members());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_datagen::flight_table;

    #[test]
    fn figure_12_shape_holds() {
        let oracle = PerceptionOracle::default();
        let ltr = offline_ltr(0.03, &oracle);
        let table = flight_table(5, 1_500);
        let bars = run_table(&table, &ltr, 10);
        assert_eq!(bars.len(), 4);
        let get = |label: &str| {
            bars.iter()
                .find(|b| b.label() == label)
                .copied()
                .expect("all four configs present")
        };
        let (el, ep, rl, rp) = (get("EL"), get("EP"), get("RL"), get("RP"));
        // Finding (1): rules reduce running time — R* faster than E*.
        assert!(
            rl.total() < el.total(),
            "RL {:?} < EL {:?}",
            rl.total(),
            el.total()
        );
        assert!(
            rp.total() < ep.total(),
            "RP {:?} < EP {:?}",
            rp.total(),
            ep.total()
        );
        // Rule-based enumeration also yields far fewer candidates.
        assert!(rl.candidates * 2 < el.candidates);
        // Annotations render.
        assert!(el.annotation().starts_with('E'));
        assert!(rp.annotation().contains('P'));
    }

    #[test]
    fn selection_times_are_measured() {
        let oracle = PerceptionOracle::default();
        let ltr = offline_ltr(0.03, &oracle);
        let table = flight_table(6, 400);
        for bar in run_table(&table, &ltr, 5) {
            assert!(bar.total() > Duration::ZERO);
            assert!(bar.candidates > 0);
        }
    }

    #[test]
    fn bench_json_is_valid_and_carries_counters() {
        let oracle = PerceptionOracle::default();
        let ltr = offline_ltr(0.03, &oracle);
        let table = flight_table(4, 200);
        let obs = Observer::enabled();
        let bars = run_table_observed(&table, &ltr, 5, &obs);
        // The progressive tournament (run separately by the driver) feeds
        // the pruning counters the export carries.
        let udfs = UdfRegistry::default();
        deepeye_core::ProgressiveSelector::new(&table, &udfs).top_k_observed(5, &obs);
        let runs = vec![DatasetRun {
            name: "X1".into(),
            rows: table.row_count(),
            bars,
        }];
        let text = bench_json(0.03, &runs, &obs.snapshot());
        let summary = crate::perf::validate_bench_json(&text).expect("versioned schema validates");
        assert_eq!(summary.experiment, "fig12_efficiency");
        assert_eq!(summary.scenarios, 1);
        let doc = deepeye_obs::parse_json(&text).expect("valid JSON");
        let datasets = doc
            .get("datasets")
            .and_then(deepeye_obs::Json::as_array)
            .expect("datasets");
        assert_eq!(datasets.len(), 1);
        let bars = datasets[0]
            .get("bars")
            .and_then(deepeye_obs::Json::as_array)
            .expect("bars");
        assert_eq!(bars.len(), 4);
        assert_eq!(
            bars[0].get("config").and_then(deepeye_obs::Json::as_str),
            Some("EL")
        );
        let counters = doc.get("counters").expect("counters");
        assert!(counters
            .get("progressive.leaves_total")
            .and_then(deepeye_obs::Json::as_f64)
            .is_some_and(|v| v >= 1.0));
    }

    #[test]
    fn observed_run_exports_balanced_trace() {
        // The bench phases are spans on the shared observer clock: the
        // durations in the bars and the exported Chrome trace agree, and
        // the trace validates (balanced B/E pairs).
        let oracle = PerceptionOracle::default();
        let ltr = offline_ltr(0.03, &oracle);
        let table = flight_table(4, 200);
        let obs = Observer::enabled();
        let bars = run_table_observed(&table, &ltr, 5, &obs);
        assert_eq!(bars.len(), 4);
        // Two enumerate spans + `SELECT_RUNS` spans per select phase.
        let spans = obs.finished_spans();
        assert_eq!(spans.len(), 2 + 4 * SELECT_RUNS);
        let trace = obs.chrome_trace_json();
        let summary = deepeye_obs::validate_chrome_trace(&trace).expect("trace validates");
        assert_eq!(summary.spans, 2 + 4 * SELECT_RUNS);
        // Bar timings come from those spans, so stage totals must match.
        let enum_total: Duration = bars.iter().map(|b| b.enumerate_time).sum::<Duration>();
        // Each enumerate span is shared by two bars: the distinct span sum
        // is half the per-bar sum.
        let span_total =
            obs.stage_duration("enumerate.exhaustive") + obs.stage_duration("enumerate.rules");
        assert_eq!(enum_total, span_total + span_total);
    }
}
