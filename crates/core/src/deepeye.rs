//! The top-level DeepEye API: configure an enumeration mode, an optional
//! recognizer, and a ranking method; get back the top-k visualizations of a
//! table (the full online pipeline of Figure 4).

use crate::features::{line_trend, slice_entropy};
use crate::graph::{order_by_log_scores, partial_order_log_scores};
use crate::node::{variant_key, VisNode};
use crate::partial_order::{compute_factor_breakdowns, FactorBreakdown, Factors};
use crate::progressive::ProgressiveSelector;
use crate::provenance::{DominanceSummary, HybridParts, Outcome, Provenance, RankBreakdown, TOP_N};
use crate::ranking::{order_by_score, HybridRanker, LtrRanker};
use crate::recognition::Recognizer;
use crate::rules;
use deepeye_data::Table;
use deepeye_obs::Observer;
use deepeye_query::{queries_with_verdict, UdfRegistry, VisQuery};

/// How candidate visualizations are enumerated (the `E`/`R` split of the
/// efficiency experiment, Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnumerationMode {
    /// The raw §II-B search space (`528·m(m−1) + 264·m` queries), keeping
    /// whichever execute successfully.
    Exhaustive,
    /// Only candidates admitted by the §V-A rules.
    #[default]
    RuleBased,
}

/// Which ranking method orders the valid nodes (the `L`/`P` split of
/// Figure 12, plus the hybrid of §IV-D).
#[derive(Debug, Clone, Default)]
pub enum RankingMethod {
    /// Partial-order graph, Algorithm 1.
    #[default]
    PartialOrder,
    /// Trained LambdaMART over the 14-feature vectors.
    LearningToRank(LtrRanker),
    /// `l_v + α·p_v` position blend of both.
    Hybrid(LtrRanker, HybridRanker),
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct DeepEyeConfig {
    pub enumeration: EnumerationMode,
    /// Recognition classifier filtering bad candidates; `None` keeps all
    /// executable candidates (useful before a model is trained).
    pub recognizer: Option<Recognizer>,
    pub ranking: RankingMethod,
    /// Run the pipeline's parallel sites across threads (§VI-D: the task
    /// is "trivially parallelizable"): candidate execution in
    /// [`DeepEye::recommend`] and leaf materialization in
    /// [`DeepEye::recommend_progressive`]. With `false` both run on the
    /// calling thread. Output is identical either way.
    pub parallel: bool,
    /// Observability hook: spans (each path with its duration quantiles)
    /// and counters for every pipeline stage. Defaults to
    /// [`Observer::disabled`], which costs one branch per instrumentation
    /// site and allocates nothing — pass [`Observer::enabled`] to collect
    /// and export.
    pub observer: Observer,
    /// Decision-provenance hook: records a per-candidate [`Explanation`]
    /// (sema verdict, classifier evidence, factor breakdown, dominance,
    /// rank parts, prune reason). Defaults to [`Provenance::disabled`] —
    /// one branch per site, nothing allocated — pass
    /// [`Provenance::enabled`] to collect and export.
    ///
    /// [`Explanation`]: crate::provenance::Explanation
    pub provenance: Provenance,
}

impl Default for DeepEyeConfig {
    fn default() -> Self {
        DeepEyeConfig {
            enumeration: EnumerationMode::default(),
            recognizer: None,
            ranking: RankingMethod::default(),
            parallel: true,
            observer: Observer::disabled(),
            provenance: Provenance::disabled(),
        }
    }
}

/// A ranked recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// 1-based rank.
    pub rank: usize,
    pub node: VisNode,
    /// Factor triple (M, Q, W) under the partial order, for explanation.
    /// [`DeepEye::recommend_progressive`] fills all three slots with its
    /// composite score instead (its scoring is leaf-local, not the
    /// set-normalized triple).
    pub factors: crate::partial_order::Factors,
}

impl Recommendation {
    /// Vega-Lite-style JSON spec of this chart.
    pub fn spec(&self) -> String {
        crate::render::vega_lite_spec(&self.node)
    }

    /// The query in the paper's visualization language.
    pub fn query_text(&self, table_name: &str) -> String {
        self.node.query.to_language(table_name)
    }

    /// A human-readable explanation of why this chart ranked where it
    /// did, grounded in the partial-order factors: the rendered view of
    /// [`Recommendation::explanation`] — the same record/render split the
    /// provenance export uses, so the CLI `explain` subcommand and this
    /// method can never drift apart.
    pub fn explain(&self) -> String {
        self.explanation().render()
    }

    /// The structured [`Explanation`] record behind [`explain`]
    /// (self-contained view: raw M is recomputed per Eqs. 1–4; the
    /// set-relative raw W is not recoverable from a single node, so it
    /// mirrors the normalized value).
    ///
    /// [`Explanation`]: crate::provenance::Explanation
    /// [`explain`]: Recommendation::explain
    pub fn explanation(&self) -> crate::provenance::Explanation {
        let mut e = crate::provenance::Explanation::new(self.node.id());
        e.chart = self.node.chart_type().name().to_owned();
        e.outcome = Outcome::Ranked(self.rank);
        e.factors = Some(FactorBreakdown {
            raw_m: crate::partial_order::raw_match_quality(&self.node),
            m: self.factors.m,
            q: self.factors.q,
            raw_w: self.factors.w,
            w: self.factors.w,
        });
        e.notes = narrative_notes(&self.node, &self.factors);
        e
    }
}

/// The chart-specific "why" sentences for a ranked node — shared between
/// [`Recommendation::explanation`] and the top-N provenance records.
fn narrative_notes(node: &VisNode, f: &Factors) -> Vec<String> {
    let mut parts: Vec<String> = Vec::new();
    match node.chart_type() {
        deepeye_query::ChartType::Scatter => {
            parts.push(format!(
                "The plotted series are {}correlated (|c| = {:.2}).",
                if node.features.correlation.abs() >= 0.5 {
                    "strongly "
                } else {
                    "weakly "
                },
                node.features.correlation.abs()
            ));
        }
        deepeye_query::ChartType::Line => {
            let trend = line_trend(&node.data.series);
            parts.push(if trend.follows_distribution {
                format!("The series follows a clear trend (fit {:.2}).", trend.fit)
            } else {
                "The series shows no clear trend.".to_owned()
            });
        }
        deepeye_query::ChartType::Bar => {
            parts.push(format!(
                "{} bars is a legible comparison.",
                node.transformed_rows()
            ));
        }
        deepeye_query::ChartType::Pie => {
            let entropy = slice_entropy(&node.data.series);
            parts.push(format!(
                "{} slices with {} size diversity.",
                node.transformed_rows(),
                if entropy > 0.8 {
                    "even"
                } else if entropy > 0.4 {
                    "varied"
                } else {
                    "one dominant"
                }
            ));
        }
    }
    if node.query.transform != deepeye_query::Transform::None {
        parts.push(format!(
            "The transform condenses {} rows into {} marks (Q = {:.2}).",
            node.source_rows(),
            node.transformed_rows(),
            f.q
        ));
    }
    parts.push(format!(
        "Its columns ({}) appear in {} of the valid charts (W = {:.2}).",
        node.columns().join(", "),
        if f.w > 0.8 {
            "most"
        } else if f.w > 0.4 {
            "many"
        } else {
            "few"
        },
        f.w
    ));
    parts
}

/// One ranking method's per-node scores and the best-first order they
/// induce.
struct Ranked {
    scores: Vec<f64>,
    order: Vec<usize>,
}

/// Node `i`'s place in the partial order, from one pass over the factors:
/// how many nodes it strictly dominates and is dominated by, and the
/// heaviest Eq. 9 edge each way (the lowest index among equal weights).
fn dominance_summary(nodes: &[VisNode], factors: &[Factors], i: usize) -> DominanceSummary {
    let fi = factors[i];
    let mut summary = DominanceSummary::default();
    let (mut out, mut into) = (None, None);
    let heavier = |best: &mut Option<(usize, f64)>, j: usize, w: f64| {
        if best.is_none_or(|(_, b)| w > b) {
            *best = Some((j, w));
        }
    };
    for (j, fj) in factors.iter().enumerate() {
        if fi.strictly_dominates(fj) {
            summary.dominates += 1;
            heavier(&mut out, j, fi.edge_weight(fj));
        } else if fj.strictly_dominates(&fi) {
            summary.dominated_by += 1;
            heavier(&mut into, j, fj.edge_weight(&fi));
        }
    }
    summary.strongest_out = out.map(|(j, w)| (nodes[j].id(), w));
    summary.strongest_in = into.map(|(j, w)| (nodes[j].id(), w));
    summary
}

/// The DeepEye system.
#[derive(Debug, Clone, Default)]
pub struct DeepEye {
    config: DeepEyeConfig,
    udfs: UdfRegistry,
}

impl DeepEye {
    pub fn new(config: DeepEyeConfig) -> Self {
        DeepEye {
            config,
            udfs: UdfRegistry::default(),
        }
    }

    /// Default pipeline: rule-based enumeration, no classifier, partial
    /// order ranking — works out of the box with no training data.
    pub fn with_defaults() -> Self {
        Self::new(DeepEyeConfig::default())
    }

    pub fn config(&self) -> &DeepEyeConfig {
        &self.config
    }

    pub fn udfs_mut(&mut self) -> &mut UdfRegistry {
        &mut self.udfs
    }

    /// Enumerate, execute, and (optionally) classifier-filter the candidate
    /// nodes of a table.
    pub fn candidates(&self, table: &Table) -> Vec<VisNode> {
        let obs = &self.config.observer;
        let prov = &self.config.provenance;
        prov.set_table(table.name());
        let queries: Vec<VisQuery> = {
            let _enumerate = obs.span("pipeline.enumerate");
            match self.config.enumeration {
                // The statically-executable subset: identical resulting nodes
                // (ill-typed queries would only fail execution below), minus
                // the wasted error paths. With provenance on, each candidate
                // also records why sema admitted or rejected it.
                EnumerationMode::Exhaustive => {
                    let mut out = Vec::new();
                    let mut sema_rejected = 0u64;
                    for (q, verdict) in queries_with_verdict(table, &self.udfs) {
                        obs.incr("enumerate.raw", 1);
                        match verdict {
                            Some(diag) => {
                                obs.incr("sema.rejected", 1);
                                sema_rejected += 1;
                                if prov.is_enabled() {
                                    let id = crate::provenance::query_id(&q);
                                    prov.record_rejected(&id, Outcome::SemaRejected, |e| {
                                        e.query = q.to_language(table.name());
                                        e.chart = q.chart.name().to_owned();
                                        e.sema.push((diag.code.as_str().to_owned(), diag.message));
                                    });
                                }
                            }
                            None => {
                                obs.incr("enumerate.candidates", 1);
                                if prov.is_enabled() {
                                    let id = crate::provenance::query_id(&q);
                                    prov.record(&id, |e| {
                                        e.query = q.to_language(table.name());
                                        e.chart = q.chart.name().to_owned();
                                        e.outcome = Outcome::Enumerated;
                                    });
                                }
                                out.push(q);
                            }
                        }
                    }
                    if prov.is_enabled() {
                        let enumerated = out.len() as u64;
                        prov.bump(|c| {
                            c.enumerated += enumerated;
                            c.sema_rejected += sema_rejected;
                        });
                    }
                    out
                }
                EnumerationMode::RuleBased => {
                    let qs = rules::rule_based_queries(table);
                    obs.incr("enumerate.candidates", qs.len() as u64);
                    if prov.is_enabled() {
                        for q in &qs {
                            let id = crate::provenance::query_id(q);
                            prov.record(&id, |e| {
                                e.query = q.to_language(table.name());
                                e.chart = q.chart.name().to_owned();
                                e.outcome = Outcome::Enumerated;
                            });
                        }
                        let n = qs.len() as u64;
                        prov.bump(|c| c.enumerated += n);
                    }
                    qs
                }
            }
        };
        // Ids of everything admitted to execution, so execution failures
        // (runtime errors, empty results) can be charged to their candidate.
        let admitted: Vec<String> = if prov.is_enabled() {
            queries.iter().map(crate::provenance::query_id).collect()
        } else {
            Vec::new()
        };
        let nodes = {
            let execute = obs.span("pipeline.execute");
            crate::parallel::build_nodes(
                table,
                queries,
                &self.udfs,
                false,
                self.config.parallel,
                obs,
                execute.id(),
            )
        };
        if prov.is_enabled() {
            let built: std::collections::HashSet<String> = nodes.iter().map(VisNode::id).collect();
            let mut failed = 0u64;
            for id in &admitted {
                if !built.contains(id) {
                    failed += 1;
                    prov.record_rejected(id, Outcome::ExecFailed, |e| {
                        e.notes
                            .push("Execution failed (runtime error or empty result).".to_owned());
                    });
                }
            }
            if failed > 0 {
                prov.bump(|c| c.exec_failed += failed);
            }
        }
        match &self.config.recognizer {
            Some(r) => r.filter_good_explained(nodes, obs, prov),
            None => nodes,
        }
    }

    /// The full pipeline: candidates → recognition filter → ranking →
    /// top-k recommendations.
    ///
    /// Single-mark charts are dropped before ranking: the paper zeroes the
    /// significance of `d(X) = 1` charts (Eqs. 1–2), and without this a
    /// huge-compression transform (e.g. binning monthly data by
    /// minute-of-hour into one bucket) rides its perfect Q score into the
    /// top-k. [`DeepEye::candidates`] stays unfiltered — the experiment
    /// ground truth labels every executable candidate, like the paper's
    /// annotators did.
    pub fn recommend(&self, table: &Table, k: usize) -> Vec<Recommendation> {
        let _recommend = self.config.observer.span("pipeline.recommend");
        let prov = &self.config.provenance;
        let all = self.candidates(table);
        let mut nodes: Vec<VisNode> = Vec::with_capacity(all.len());
        let mut single_mark = 0u64;
        for n in all {
            if n.data.series.len() >= 2 {
                nodes.push(n);
            } else if prov.is_enabled() {
                single_mark += 1;
                let marks = n.data.series.len();
                prov.record_rejected(&n.id(), Outcome::SingleMark, |e| {
                    e.chart = n.chart_type().name().to_owned();
                    e.notes.push(format!(
                        "Dropped before ranking: only {marks} mark(s), \
                         d(X) = 1 significance is zeroed (Eqs. 1-2)."
                    ));
                });
            }
        }
        if prov.is_enabled() && single_mark > 0 {
            prov.bump(|c| c.single_mark += single_mark);
        }
        self.rank_nodes(nodes, k)
    }

    /// Rank an existing node set and return the top-k.
    ///
    /// ORDER BY variants of one chart have identical factors and would
    /// occupy adjacent ranks; the returned list keeps only the best-ranked
    /// variant per (chart, columns, transform, aggregate) — the
    /// deduplicated pages DeepEye's UI shows (Figure 9).
    pub fn rank_nodes(&self, nodes: Vec<VisNode>, k: usize) -> Vec<Recommendation> {
        if nodes.is_empty() {
            return Vec::new();
        }
        let obs = &self.config.observer;
        let prov = &self.config.provenance;
        let _rank = obs.span("pipeline.rank");
        obs.incr("rank.nodes", nodes.len() as u64);
        let breakdowns = compute_factor_breakdowns(&nodes);
        let factors: Vec<Factors> = breakdowns.iter().map(FactorBreakdown::factors).collect();
        // Each method the configuration runs scores the nodes once; the
        // provenance records reuse those scores and orders.
        let partial_order = || {
            let _span = obs.span("rank.partial_order");
            let scores = partial_order_log_scores(&factors);
            Ranked {
                order: order_by_log_scores(&factors, &scores),
                scores,
            }
        };
        let learning_to_rank = |ltr: &LtrRanker| {
            let _span = obs.span("rank.ltr");
            let scores: Vec<f64> = nodes.iter().map(|n| ltr.score(n)).collect();
            Ranked {
                order: order_by_score(&scores),
                scores,
            }
        };
        let (order, po, ltr) = match &self.config.ranking {
            RankingMethod::PartialOrder => {
                let po = partial_order();
                (po.order.clone(), Some(po), None)
            }
            RankingMethod::LearningToRank(ltr) => {
                let ltr = learning_to_rank(ltr);
                (ltr.order.clone(), None, Some(ltr))
            }
            RankingMethod::Hybrid(ltr, hybrid) => {
                let _span = obs.span("rank.hybrid");
                let (ltr, po) = (learning_to_rank(ltr), partial_order());
                (hybrid.combine(&ltr.order, &po.order), Some(po), Some(ltr))
            }
        };
        if prov.is_enabled() {
            self.record_rank_provenance(
                &nodes,
                &breakdowns,
                &factors,
                &order,
                po.as_ref(),
                ltr.as_ref(),
            );
        }
        let mut seen = std::collections::HashSet::new();
        let mut nodes: Vec<Option<VisNode>> = nodes.into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(k.min(nodes.len()));
        let mut ranked = 0u64;
        for idx in order {
            if out.len() >= k {
                break;
            }
            // Rankers emit each index at most once; a repeat is a ranker bug,
            // surfaced in debug builds and skipped in release.
            let Some(key) = nodes[idx].as_ref().map(|n| variant_key(&n.query)) else {
                debug_assert!(false, "ranking emitted index {idx} twice");
                continue;
            };
            if !seen.insert(key) {
                continue;
            }
            let Some(node) = nodes[idx].take() else {
                continue;
            };
            if prov.is_enabled() {
                ranked += 1;
                let rank = out.len() + 1;
                prov.record(&node.id(), |e| e.outcome = Outcome::Ranked(rank));
            }
            out.push(Recommendation {
                rank: out.len() + 1,
                node,
                factors: factors[idx],
            });
        }
        if prov.is_enabled() && ranked > 0 {
            prov.bump(|c| c.ranked += ranked);
        }
        out
    }

    /// Fill the per-node ranking provenance: factor breakdowns, the
    /// scores and positions of each ranking method that ran, and — for
    /// the candidates landing in the top [`TOP_N`] pre-dedup
    /// positions — a dominance summary and the narrative notes.
    fn record_rank_provenance(
        &self,
        nodes: &[VisNode],
        breakdowns: &[FactorBreakdown],
        factors: &[Factors],
        order: &[usize],
        po: Option<&Ranked>,
        ltr: Option<&Ranked>,
    ) {
        let prov = &self.config.provenance;
        // Callers only reach here when provenance is on; the guard keeps
        // the invariant locally checkable (analyze rule A0002) and makes
        // a stray unguarded call harmless.
        if !prov.is_enabled() {
            return;
        }
        let n = nodes.len();
        // Position of each node in an order; `None` for a method that did
        // not run.
        let positions = |ranked: &[usize]| {
            let mut pos = vec![None; n];
            for (p, &i) in ranked.iter().enumerate() {
                pos[i] = Some(p);
            }
            pos
        };
        let final_pos = positions(order);
        let po_pos = positions(po.map_or(&[][..], |r| &r.order));
        let ltr_pos = positions(ltr.map_or(&[][..], |r| &r.order));
        let hybrid = match &self.config.ranking {
            RankingMethod::Hybrid(_, hybrid) => Some(hybrid),
            _ => None,
        };

        for (i, node) in nodes.iter().enumerate() {
            let rank_bd = RankBreakdown {
                po_log_score: po.map(|r| r.scores[i]),
                po_pos: po_pos[i],
                ltr_score: ltr.map(|r| r.scores[i]),
                ltr_pos: ltr_pos[i],
                hybrid: hybrid.map(|h| {
                    let (l, p) = (ltr_pos[i].unwrap_or(0), po_pos[i].unwrap_or(0));
                    HybridParts {
                        l_pos: l,
                        p_pos: p,
                        alpha: h.alpha,
                        combined: h.combined_score(l, p),
                    }
                }),
                final_pos: final_pos[i],
            };
            let breakdown = breakdowns[i];
            let (dominance, notes) = if final_pos[i].is_some_and(|p| p < TOP_N) {
                (
                    Some(dominance_summary(nodes, factors, i)),
                    narrative_notes(node, &factors[i]),
                )
            } else {
                (None, Vec::new())
            };
            prov.record(&node.id(), |e| {
                if e.chart.is_empty() {
                    e.chart = node.chart_type().name().to_owned();
                }
                e.factors = Some(breakdown);
                e.rank = Some(rank_bd);
                if dominance.is_some() {
                    e.dominance = dominance;
                }
                if !notes.is_empty() {
                    e.notes = notes;
                }
            });
        }
    }

    /// Fast top-k via the progressive tournament of §V-B (rule-based
    /// enumeration and composite scoring; skips the classifier and the
    /// global graph). Best when only a handful of charts is needed from a
    /// wide table.
    pub fn recommend_progressive(&self, table: &Table, k: usize) -> Vec<Recommendation> {
        let obs = &self.config.observer;
        let prov = &self.config.provenance;
        let _progressive = obs.span("pipeline.progressive");
        prov.set_table(table.name());
        let selector = ProgressiveSelector::new(table, &self.udfs);
        let parallel = self.config.parallel;
        let width = |leaves| {
            if parallel {
                selector.batch_width(leaves)
            } else {
                1
            }
        };
        let (scored, _) = selector.tournament(k, obs, prov, width, false);
        scored
            .into_iter()
            .enumerate()
            .map(|(i, s)| Recommendation {
                rank: i + 1,
                factors: crate::partial_order::Factors {
                    m: s.score,
                    q: s.score,
                    w: s.score,
                },
                node: s.node,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognition::{ClassifierKind, LabeledExample};
    use deepeye_data::TableBuilder;
    use deepeye_query::ChartType;

    fn table() -> Table {
        TableBuilder::new("sales")
            .text("region", ["N", "S", "E", "W", "N", "S", "E", "W", "N", "S"])
            .numeric(
                "revenue",
                [10.0, 20.0, 15.0, 30.0, 12.0, 22.0, 18.0, 28.0, 11.0, 21.0],
            )
            .numeric("units", [1.0, 2.0, 1.5, 3.0, 1.2, 2.2, 1.8, 2.8, 1.1, 2.1])
            .build()
            .unwrap()
    }

    #[test]
    fn default_pipeline_recommends() {
        let eye = DeepEye::with_defaults();
        let recs = eye.recommend(&table(), 5);
        assert!(!recs.is_empty());
        assert!(recs.len() <= 5);
        assert_eq!(recs[0].rank, 1);
        // Every recommendation has a renderable spec and query text.
        for r in &recs {
            assert!(r.spec().starts_with('{'));
            assert!(r.query_text("sales").contains("VISUALIZE"));
        }
    }

    #[test]
    fn exhaustive_mode_finds_more_candidates() {
        let rule = DeepEye::with_defaults();
        let exhaustive = DeepEye::new(DeepEyeConfig {
            enumeration: EnumerationMode::Exhaustive,
            ..Default::default()
        });
        let t = table();
        let rule_n = rule.candidates(&t).len();
        let ex_n = exhaustive.candidates(&t).len();
        assert!(ex_n > rule_n, "exhaustive {ex_n} vs rules {rule_n}");
    }

    #[test]
    fn recognizer_filters_candidates() {
        // A recognizer trained to reject everything.
        let t = table();
        let eye = DeepEye::with_defaults();
        let nodes = eye.candidates(&t);
        let examples: Vec<LabeledExample> = nodes
            .iter()
            .map(|n| LabeledExample::from_node(n, false))
            .collect();
        let reject_all = Recognizer::train(ClassifierKind::DecisionTree, &examples);
        let eye = DeepEye::new(DeepEyeConfig {
            recognizer: Some(reject_all),
            ..Default::default()
        });
        assert!(eye.candidates(&t).is_empty());
        assert!(eye.recommend(&t, 3).is_empty());
    }

    #[test]
    fn progressive_recommendations_ordered() {
        let eye = DeepEye::with_defaults();
        let recs = eye.recommend_progressive(&table(), 4);
        assert!(!recs.is_empty());
        for w in recs.windows(2) {
            assert!(w[0].factors.m >= w[1].factors.m);
        }
    }

    #[test]
    fn unbounded_k_returns_everything_once() {
        // Regression: k = usize::MAX must not overflow the output
        // capacity, and returns every deduplicated chart.
        let eye = DeepEye::with_defaults();
        let recs = eye.recommend(&table(), usize::MAX);
        assert!(!recs.is_empty());
        let mut keys: Vec<String> = recs
            .iter()
            .map(|r| {
                format!(
                    "{}|{}|{:?}|{:?}|{:?}",
                    r.node.query.chart,
                    r.node.query.x,
                    r.node.query.y,
                    r.node.query.transform,
                    r.node.query.aggregate
                )
            })
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(before, keys.len(), "order variants deduplicated");
    }

    #[test]
    fn zero_k_returns_nothing() {
        let (eye, t) = (DeepEye::with_defaults(), table());
        assert!(eye.recommend(&t, 0).is_empty());
        assert!(eye.rank_nodes(eye.candidates(&t), 0).is_empty());
        assert!(eye.recommend_progressive(&t, 0).is_empty());
    }

    #[test]
    fn recommendations_are_deduplicated() {
        let eye = DeepEye::with_defaults();
        let recs = eye.recommend(&table(), 50);
        let mut ids: Vec<String> = recs.iter().map(|r| r.node.id()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(before, ids.len());
    }

    #[test]
    fn correlated_columns_yield_scatter() {
        // revenue and units are strongly correlated → a scatter should rank
        // among the candidates.
        let eye = DeepEye::with_defaults();
        let nodes = eye.candidates(&table());
        assert!(nodes.iter().any(|n| n.chart_type() == ChartType::Scatter));
    }
}
