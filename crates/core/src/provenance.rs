//! Decision provenance: the EXPLAIN layer over the whole pipeline.
//!
//! PR 2's observer answers *where time went*; this module answers *why
//! each decision came out the way it did*. For every candidate
//! visualization it accumulates one structured [`Explanation`]: the sema
//! verdict that admitted or rejected the query, the classifier evidence
//! (CART decision path, SVM margin, or Bayes per-class log-likelihoods),
//! the raw and normalized M/Q/W factor breakdown (Eqs. 1–8), dominance
//! in/out-edges with Eq. 9 weights, the LTR score and the hybrid
//! `l_v + α·p_v` combination, and — for candidates that never surfaced —
//! the prune reason from the progressive tournament.
//!
//! The collection handle, [`Provenance`], mirrors the [`Observer`] hook
//! pattern exactly: a cheaply cloneable `Option<Arc<_>>` that records
//! into a shared sink when enabled and costs a single branch — no
//! allocation, no locking — when disabled (the default). Memory is
//! bounded by three constants: the top [`TOP_N`] candidates get dominance
//! detail; rejected candidates beyond [`REJECTED_SAMPLES`] keep a minimal
//! id + outcome record (so accounting still reconciles
//! candidate-for-candidate with the observer counters) but drop the
//! per-decision detail; and a hard record ceiling ([`MAX_RECORDS`])
//! guards pathological enumerations.
//!
//! [`Observer`]: deepeye_obs::Observer

use crate::partial_order::FactorBreakdown;
use deepeye_obs::json::escape;
use deepeye_obs::{parse_json, Json};
use deepeye_query::VisQuery;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Stable identity of a candidate query — the same string
/// [`crate::VisNode::id`] produces, computable *before* execution so
/// sema-rejected and exec-failed candidates share the id space with
/// built nodes. In column names `\` is written `\\` and `|` is written
/// `\|`, so distinct queries never share an id, whatever their columns
/// are called.
pub fn query_id(q: &VisQuery) -> String {
    format!(
        "{}|{}|{}|{:?}|{:?}|{:?}",
        q.chart,
        escape_name(&q.x),
        escape_name(q.y.as_deref().unwrap_or("")),
        q.transform,
        q.aggregate,
        q.order,
    )
}

/// `name` as [`query_id`] writes it; a name without `\` or `|` is
/// unchanged.
pub(crate) fn escape_name(name: &str) -> Cow<'_, str> {
    if name.contains(['\\', '|']) {
        Cow::Owned(name.replace('\\', "\\\\").replace('|', "\\|"))
    } else {
        Cow::Borrowed(name)
    }
}

/// What finally happened to a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// Enumerated and admitted by sema; later stages not (yet) recorded.
    #[default]
    Enumerated,
    /// Rejected by static semantic analysis before execution.
    SemaRejected,
    /// Admitted by sema but failed during execution.
    ExecFailed,
    /// Executed, but the recognizer classified it as not-good.
    ClassifierRejected,
    /// Kept by the recognizer but dropped for having fewer than two marks.
    SingleMark,
    /// Survived recognition; not ranked into the final top-k.
    Kept,
    /// Emitted in the final top-k at this 1-based rank.
    Ranked(usize),
    /// Materialized in the progressive tournament but lost the final heap.
    TournamentLost,
    /// Won the progressive tournament at this 1-based rank.
    TournamentRanked(usize),
    /// A (column, transform) tournament leaf evicted by its upper bound.
    LeafPruned,
    /// A (column, transform) tournament leaf that was materialized.
    LeafMaterialized,
}

impl Outcome {
    /// Stable kind string used in the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Enumerated => "enumerated",
            Outcome::SemaRejected => "sema_rejected",
            Outcome::ExecFailed => "exec_failed",
            Outcome::ClassifierRejected => "classifier_rejected",
            Outcome::SingleMark => "single_mark",
            Outcome::Kept => "kept",
            Outcome::Ranked(_) => "ranked",
            Outcome::TournamentLost => "tournament_lost",
            Outcome::TournamentRanked(_) => "tournament_ranked",
            Outcome::LeafPruned => "leaf_pruned",
            Outcome::LeafMaterialized => "leaf_materialized",
        }
    }

    /// 1-based final rank for the ranked outcomes.
    pub fn rank(&self) -> Option<usize> {
        match self {
            Outcome::Ranked(r) | Outcome::TournamentRanked(r) => Some(*r),
            _ => None,
        }
    }

    /// All kind strings [`kind`](Self::kind) can produce (validator table).
    pub fn known_kinds() -> &'static [&'static str] {
        &[
            "enumerated",
            "sema_rejected",
            "exec_failed",
            "classifier_rejected",
            "single_mark",
            "kept",
            "ranked",
            "tournament_lost",
            "tournament_ranked",
            "leaf_pruned",
            "leaf_materialized",
        ]
    }
}

/// One comparison along a recorded CART decision path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStep {
    /// Feature index into [`crate::features::FEATURE_NAMES`].
    pub feature: usize,
    pub threshold: f64,
    /// The candidate's value for that feature.
    pub value: f64,
    pub went_left: bool,
}

/// The recognizer's evidence for its verdict, per classifier family.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierEvidence {
    /// CART: the root-to-leaf comparison chain and the leaf's
    /// positive-class probability.
    Tree {
        path: Vec<TreeStep>,
        leaf_value: f64,
    },
    /// Linear SVM: signed distance to the separating hyperplane.
    Svm { margin: f64 },
    /// Naive Bayes: per-class log-likelihoods (priors included).
    Bayes {
        log_likelihood_good: f64,
        log_likelihood_bad: f64,
    },
}

impl ClassifierEvidence {
    /// The scalar the verdict thresholds on (≥ 0 ⇒ good for margin-style
    /// evidence, ≥ 0.5 for tree leaf probability).
    pub fn score(&self) -> f64 {
        match self {
            ClassifierEvidence::Tree { leaf_value, .. } => *leaf_value,
            ClassifierEvidence::Svm { margin } => *margin,
            ClassifierEvidence::Bayes {
                log_likelihood_good,
                log_likelihood_bad,
            } => log_likelihood_good - log_likelihood_bad,
        }
    }
}

/// A candidate's place in the partial order (Definition 2 / Eq. 9) among
/// all the nodes ranked with it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DominanceSummary {
    /// Number of nodes this candidate strictly dominates.
    pub dominates: usize,
    /// Number of nodes strictly dominating this candidate.
    pub dominated_by: usize,
    /// Heaviest outgoing edge: `(dominated id, Eq. 9 weight)`; the
    /// earliest ranked-set node among equal weights.
    pub strongest_out: Option<(String, f64)>,
    /// Heaviest incoming edge: `(dominating id, Eq. 9 weight)`; the
    /// earliest ranked-set node among equal weights.
    pub strongest_in: Option<(String, f64)>,
}

/// The hybrid combination of §IV-D, recorded part by part so the export
/// can be re-derived: `combined = l_pos + alpha · p_pos` (lower wins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridParts {
    /// 0-based position in the learning-to-rank order.
    pub l_pos: usize,
    /// 0-based position in the partial-order ranking.
    pub p_pos: usize,
    pub alpha: f64,
    pub combined: f64,
}

/// Where a candidate landed in the ranking stage(s).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankBreakdown {
    /// `ln S(v)`, Algorithm 1's score from
    /// [`crate::graph::partial_order_log_scores`] (None when the partial
    /// order was not run; −∞ for sink nodes).
    pub po_log_score: Option<f64>,
    /// 0-based position in the partial-order ranking.
    pub po_pos: Option<usize>,
    /// Raw LambdaMART ensemble score.
    pub ltr_score: Option<f64>,
    /// 0-based position in the LTR ranking.
    pub ltr_pos: Option<usize>,
    /// Hybrid combination, when the hybrid ranker ran.
    pub hybrid: Option<HybridParts>,
    /// 0-based position in the order the active ranker produced
    /// (pre-dedup), when the candidate was ranked at all.
    pub final_pos: Option<usize>,
}

/// Everything recorded about one candidate visualization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Explanation {
    /// Stable candidate id ([`query_id`] / [`crate::VisNode::id`]).
    pub id: String,
    /// The query rendered in the visualization language.
    pub query: String,
    /// Chart type name.
    pub chart: String,
    pub outcome: Outcome,
    /// Sema diagnostics as `(code, message)` pairs — the fatal error for
    /// rejected candidates, warnings for admitted ones.
    pub sema: Vec<(String, String)>,
    pub classifier: Option<ClassifierEvidence>,
    pub factors: Option<FactorBreakdown>,
    pub dominance: Option<DominanceSummary>,
    pub rank: Option<RankBreakdown>,
    /// The score that drove the progressive tournament (a leaf's upper
    /// bound for leaf records, the node's tournament score otherwise).
    pub tournament_score: Option<f64>,
    /// Free-form narrative lines (the chart-specific "why" sentences).
    pub notes: Vec<String>,
}

impl Explanation {
    pub fn new(id: impl Into<String>) -> Self {
        Explanation {
            id: id.into(),
            ..Explanation::default()
        }
    }

    /// The human-readable "why" report for this candidate — the view the
    /// CLI `explain` subcommand and `Recommendation::explain` print. The
    /// factor lines deliberately spell `M = `, `Q = `, `W = ` (CI greps
    /// for them).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let headline = match self.outcome {
            Outcome::Ranked(r) | Outcome::TournamentRanked(r) => {
                format!("Ranked #{r} as a {} chart", self.chart)
            }
            _ => format!(
                "{} ({})",
                if self.chart.is_empty() {
                    self.id.clone()
                } else {
                    format!("{} chart candidate", self.chart)
                },
                self.outcome.kind()
            ),
        };
        out.push_str(&headline);
        if !self.notes.is_empty() {
            out.push_str(": ");
            out.push_str(&self.notes.join(" "));
        }
        out.push('\n');
        if !self.query.is_empty() {
            // The language renders queries one clause per line; the report
            // is indentation-structured, so flatten to one line here.
            out.push_str(&format!("  query: {}\n", self.query.replace('\n', " ")));
        }
        for (code, message) in &self.sema {
            out.push_str(&format!("  sema {code}: {message}\n"));
        }
        if let Some(f) = &self.factors {
            out.push_str(&format!(
                "  M = {:.3} (raw {:.3}), Q = {:.3}, W = {:.3} (raw {:.3})\n",
                f.m, f.raw_m, f.q, f.w, f.raw_w
            ));
        }
        if let Some(c) = &self.classifier {
            match c {
                ClassifierEvidence::Tree { path, leaf_value } => {
                    out.push_str(&format!(
                        "  classifier: decision tree, leaf p(good) = {leaf_value:.3}\n"
                    ));
                    for step in path {
                        let name = crate::features::FEATURE_NAMES
                            .get(step.feature)
                            .copied()
                            .unwrap_or("feature?");
                        out.push_str(&format!(
                            "    {} = {:.3} {} {:.3}\n",
                            name,
                            step.value,
                            if step.went_left { "<=" } else { ">" },
                            step.threshold
                        ));
                    }
                }
                ClassifierEvidence::Svm { margin } => {
                    out.push_str(&format!("  classifier: SVM margin = {margin:.4}\n"));
                }
                ClassifierEvidence::Bayes {
                    log_likelihood_good,
                    log_likelihood_bad,
                } => {
                    out.push_str(&format!(
                        "  classifier: Bayes ln L(good) = {log_likelihood_good:.3}, \
                         ln L(bad) = {log_likelihood_bad:.3}\n"
                    ));
                }
            }
        }
        if let Some(d) = &self.dominance {
            out.push_str(&format!(
                "  dominance: dominates {}, dominated by {}",
                d.dominates, d.dominated_by
            ));
            if let Some((id, w)) = &d.strongest_out {
                out.push_str(&format!("; strongest out +{w:.3} over {id}"));
            }
            if let Some((id, w)) = &d.strongest_in {
                out.push_str(&format!("; strongest in −{w:.3} from {id}"));
            }
            out.push('\n');
        }
        if let Some(r) = &self.rank {
            let mut parts = Vec::new();
            if let Some(p) = r.po_pos {
                let score = r
                    .po_log_score
                    .map(|s| format!(" (ln S = {s:.3})"))
                    .unwrap_or_default();
                parts.push(format!("partial order #{}{}", p + 1, score));
            }
            if let Some(p) = r.ltr_pos {
                let score = r
                    .ltr_score
                    .map(|s| format!(" (score {s:.4})"))
                    .unwrap_or_default();
                parts.push(format!("LTR #{}{}", p + 1, score));
            }
            if let Some(h) = &r.hybrid {
                parts.push(format!(
                    "hybrid {} + {:.2}·{} = {:.2}",
                    h.l_pos, h.alpha, h.p_pos, h.combined
                ));
            }
            if !parts.is_empty() {
                out.push_str(&format!("  rank: {}\n", parts.join(", ")));
            }
        }
        if let Some(s) = self.tournament_score {
            out.push_str(&format!("  tournament score: {s:.4}\n"));
        }
        out
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"id\": \"{}\"", escape(&self.id)));
        out.push_str(&format!(", \"query\": \"{}\"", escape(&self.query)));
        out.push_str(&format!(", \"chart\": \"{}\"", escape(&self.chart)));
        out.push_str(&format!(", \"outcome\": \"{}\"", self.outcome.kind()));
        if let Some(rank) = self.outcome.rank() {
            out.push_str(&format!(", \"rank\": {rank}"));
        }
        if !self.sema.is_empty() {
            out.push_str(", \"sema\": [");
            for (i, (code, message)) in self.sema.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"code\": \"{}\", \"message\": \"{}\"}}",
                    escape(code),
                    escape(message)
                ));
            }
            out.push(']');
        }
        if let Some(c) = &self.classifier {
            out.push_str(", \"classifier\": ");
            match c {
                ClassifierEvidence::Tree { path, leaf_value } => {
                    out.push_str(&format!(
                        "{{\"kind\": \"tree\", \"leaf_value\": {}, \"path\": [",
                        json_f64(*leaf_value)
                    ));
                    for (i, s) in path.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!(
                            "{{\"feature\": {}, \"threshold\": {}, \"value\": {}, \
                             \"went_left\": {}}}",
                            s.feature,
                            json_f64(s.threshold),
                            json_f64(s.value),
                            s.went_left
                        ));
                    }
                    out.push_str("]}");
                }
                ClassifierEvidence::Svm { margin } => {
                    out.push_str(&format!(
                        "{{\"kind\": \"svm\", \"margin\": {}}}",
                        json_f64(*margin)
                    ));
                }
                ClassifierEvidence::Bayes {
                    log_likelihood_good,
                    log_likelihood_bad,
                } => {
                    out.push_str(&format!(
                        "{{\"kind\": \"bayes\", \"log_likelihood_good\": {}, \
                         \"log_likelihood_bad\": {}}}",
                        json_f64(*log_likelihood_good),
                        json_f64(*log_likelihood_bad)
                    ));
                }
            }
        }
        if let Some(f) = &self.factors {
            out.push_str(&format!(
                ", \"factors\": {{\"raw_m\": {}, \"m\": {}, \"q\": {}, \"raw_w\": {}, \
                 \"w\": {}}}",
                json_f64(f.raw_m),
                json_f64(f.m),
                json_f64(f.q),
                json_f64(f.raw_w),
                json_f64(f.w)
            ));
        }
        if let Some(d) = &self.dominance {
            out.push_str(&format!(
                ", \"dominance\": {{\"dominates\": {}, \"dominated_by\": {}",
                d.dominates, d.dominated_by
            ));
            if let Some((id, w)) = &d.strongest_out {
                out.push_str(&format!(
                    ", \"strongest_out\": {{\"id\": \"{}\", \"weight\": {}}}",
                    escape(id),
                    json_f64(*w)
                ));
            }
            if let Some((id, w)) = &d.strongest_in {
                out.push_str(&format!(
                    ", \"strongest_in\": {{\"id\": \"{}\", \"weight\": {}}}",
                    escape(id),
                    json_f64(*w)
                ));
            }
            out.push('}');
        }
        if let Some(r) = &self.rank {
            out.push_str(", \"rank_breakdown\": {");
            let mut first = true;
            let mut field = |out: &mut String, name: &str, value: String| {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("\"{name}\": {value}"));
            };
            if let Some(s) = r.po_log_score {
                field(&mut out, "po_log_score", json_f64(s));
            }
            if let Some(p) = r.po_pos {
                field(&mut out, "po_pos", p.to_string());
            }
            if let Some(s) = r.ltr_score {
                field(&mut out, "ltr_score", json_f64(s));
            }
            if let Some(p) = r.ltr_pos {
                field(&mut out, "ltr_pos", p.to_string());
            }
            if let Some(h) = &r.hybrid {
                field(
                    &mut out,
                    "hybrid",
                    format!(
                        "{{\"l_pos\": {}, \"p_pos\": {}, \"alpha\": {}, \"combined\": {}}}",
                        h.l_pos,
                        h.p_pos,
                        json_f64(h.alpha),
                        json_f64(h.combined)
                    ),
                );
            }
            if let Some(p) = r.final_pos {
                field(&mut out, "final_pos", p.to_string());
            }
            out.push('}');
        }
        if let Some(s) = self.tournament_score {
            out.push_str(&format!(", \"tournament_score\": {}", json_f64(s)));
        }
        if !self.notes.is_empty() {
            out.push_str(", \"notes\": [");
            for (i, n) in self.notes.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", escape(n)));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Serialize a float as JSON: plain decimal when finite (Rust's `f64`
/// Display never produces scientific notation), `null` otherwise.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        String::from("null")
    }
}

/// How many top candidates get full dominance-edge detail.
pub const TOP_N: usize = 16;

/// How many rejected/pruned candidates keep full per-decision detail;
/// beyond this, rejects still get a minimal id + outcome record so the
/// accounting stays exact.
pub const REJECTED_SAMPLES: usize = 64;

/// Hard ceiling on stored records; the excess is counted in
/// `dropped_records` instead of stored.
pub const MAX_RECORDS: usize = 100_000;

/// Pipeline-wide decision tallies, kept alongside the records so the
/// export reconciles with the observer counters by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProvenanceCounts {
    pub enumerated: u64,
    pub sema_rejected: u64,
    pub exec_failed: u64,
    pub classifier_kept: u64,
    pub classifier_rejected: u64,
    pub single_mark: u64,
    pub ranked: u64,
    pub leaves_materialized: u64,
    pub leaves_pruned: u64,
    pub leaves_total: u64,
    pub dropped_records: u64,
}

impl ProvenanceCounts {
    fn to_json(self) -> String {
        format!(
            "{{\"enumerated\": {}, \"sema_rejected\": {}, \"exec_failed\": {}, \
             \"classifier_kept\": {}, \"classifier_rejected\": {}, \"single_mark\": {}, \
             \"ranked\": {}, \"leaves_materialized\": {}, \"leaves_pruned\": {}, \
             \"leaves_total\": {}, \"dropped_records\": {}}}",
            self.enumerated,
            self.sema_rejected,
            self.exec_failed,
            self.classifier_kept,
            self.classifier_rejected,
            self.single_mark,
            self.ranked,
            self.leaves_materialized,
            self.leaves_pruned,
            self.leaves_total,
            self.dropped_records,
        )
    }
}

#[derive(Debug, Default)]
struct State {
    table: String,
    records: Vec<Explanation>,
    index: HashMap<String, usize>,
    counts: ProvenanceCounts,
    detailed_rejects: u64,
}

/// The provenance collection handle carried on `DeepEyeConfig`.
///
/// Mirrors [`deepeye_obs::Observer`]: `Clone` shares the sink, the
/// default is disabled, and every recording method on a disabled handle
/// is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    inner: Option<Arc<Mutex<State>>>,
}

impl Provenance {
    /// A recording collector.
    pub fn enabled() -> Self {
        Provenance {
            inner: Some(Arc::new(Mutex::new(State::default()))),
        }
    }

    /// The no-op collector (the default on `DeepEyeConfig`).
    pub fn disabled() -> Self {
        Provenance { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut State) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let mut state = match inner.lock() {
            Ok(guard) => guard,
            // A panicking recorder cannot corrupt append-only tallies.
            Err(poisoned) => poisoned.into_inner(),
        };
        Some(f(&mut state))
    }

    /// Name of the table the decisions are about.
    pub fn set_table(&self, name: &str) {
        self.with_state(|s| s.table = name.to_owned());
    }

    /// Upsert the record for candidate `id` and let `f` fill it in.
    /// New records beyond [`MAX_RECORDS`] are dropped (and counted).
    pub fn record(&self, id: &str, f: impl FnOnce(&mut Explanation)) {
        self.with_state(|s| match s.index.get(id) {
            Some(&i) => f(&mut s.records[i]),
            None => {
                if s.records.len() >= MAX_RECORDS {
                    s.counts.dropped_records += 1;
                    return;
                }
                let mut e = Explanation::new(id);
                f(&mut e);
                s.index.insert(id.to_owned(), s.records.len());
                s.records.push(e);
            }
        });
    }

    /// Record a rejected/pruned candidate. The first [`REJECTED_SAMPLES`]
    /// distinct rejects keep the full detail `f` provides; later ones
    /// store only id + outcome so every candidate stays accounted for.
    pub fn record_rejected(&self, id: &str, outcome: Outcome, f: impl FnOnce(&mut Explanation)) {
        self.with_state(|s| {
            if let Some(&i) = s.index.get(id) {
                let e = &mut s.records[i];
                e.outcome = outcome;
                if s.detailed_rejects < REJECTED_SAMPLES as u64 {
                    s.detailed_rejects += 1;
                    f(e);
                }
                return;
            }
            if s.records.len() >= MAX_RECORDS {
                s.counts.dropped_records += 1;
                return;
            }
            let mut e = Explanation::new(id);
            e.outcome = outcome;
            if s.detailed_rejects < REJECTED_SAMPLES as u64 {
                s.detailed_rejects += 1;
                f(&mut e);
            }
            s.index.insert(id.to_owned(), s.records.len());
            s.records.push(e);
        });
    }

    /// Mutate the pipeline-wide tallies.
    pub fn bump(&self, f: impl FnOnce(&mut ProvenanceCounts)) {
        self.with_state(|s| f(&mut s.counts));
    }

    /// Point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> ProvenanceLog {
        self.with_state(|s| ProvenanceLog {
            table: s.table.clone(),
            records: s.records.clone(),
            counts: s.counts,
        })
        .unwrap_or_default()
    }

    /// The JSON provenance export (a [`snapshot`](Self::snapshot) view).
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// A point-in-time copy of a [`Provenance`] collector's contents.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    pub table: String,
    pub records: Vec<Explanation>,
    pub counts: ProvenanceCounts,
}

impl ProvenanceLog {
    /// Record by candidate id.
    pub fn find(&self, id: &str) -> Option<&Explanation> {
        self.records.iter().find(|e| e.id == id)
    }

    /// Records with a final rank, sorted by rank.
    pub fn ranked(&self) -> Vec<&Explanation> {
        let mut out: Vec<&Explanation> = self
            .records
            .iter()
            .filter(|e| e.outcome.rank().is_some())
            .collect();
        out.sort_by_key(|e| e.outcome.rank().unwrap_or(usize::MAX));
        out
    }

    /// The JSON provenance document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"table\": \"{}\",\n", escape(&self.table)));
        out.push_str(&format!("  \"counts\": {},\n", self.counts.to_json()));
        out.push_str("  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&r.to_json());
        }
        if !self.records.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The human-readable "why" report over the top `top` ranked
    /// candidates plus a rejection summary.
    pub fn report(&self, top: usize) -> String {
        let mut out = String::from("== why these charts ==\n");
        if !self.table.is_empty() {
            out.push_str(&format!("table: {}\n", self.table));
        }
        let ranked = self.ranked();
        if ranked.is_empty() {
            out.push_str("(no ranked candidates recorded)\n");
        }
        for e in ranked.iter().take(top) {
            out.push('\n');
            out.push_str(&e.render());
        }
        let c = &self.counts;
        out.push_str(&format!(
            "\n{} candidates enumerated; {} sema-rejected, {} failed execution, \
             {} classifier-rejected, {} single-mark, {} ranked.\n",
            c.enumerated + c.sema_rejected,
            c.sema_rejected,
            c.exec_failed,
            c.classifier_rejected,
            c.single_mark,
            c.ranked,
        ));
        if c.leaves_total > 0 {
            out.push_str(&format!(
                "tournament: {} of {} (column, transform) leaves materialized, {} pruned by bound.\n",
                c.leaves_materialized, c.leaves_total, c.leaves_pruned,
            ));
        }
        if c.dropped_records > 0 {
            out.push_str(&format!(
                "({} records dropped by the max_records cap)\n",
                c.dropped_records
            ));
        }
        out
    }
}

/// Summary returned by [`validate_provenance_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvenanceSummary {
    pub records: usize,
    pub ranked: usize,
    pub rejected: usize,
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("counts.{key} missing or not a number"))?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("counts.{key} = {v} is not a non-negative integer"));
    }
    Ok(v as u64)
}

/// Validate a provenance JSON document: schema, known outcomes, the
/// tournament leaf invariant, and that every recorded hybrid score equals
/// `l_pos + alpha·p_pos` to within 1e-9.
pub fn validate_provenance_json(text: &str) -> Result<ProvenanceSummary, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    doc.get("table")
        .and_then(Json::as_str)
        .ok_or("missing `table` string")?;
    let counts = doc.get("counts").ok_or("missing `counts` object")?;
    for key in [
        "enumerated",
        "sema_rejected",
        "exec_failed",
        "classifier_kept",
        "classifier_rejected",
        "single_mark",
        "ranked",
        "leaves_materialized",
        "leaves_pruned",
        "leaves_total",
        "dropped_records",
    ] {
        req_u64(counts, key)?;
    }
    let (mat, pruned, total) = (
        req_u64(counts, "leaves_materialized")?,
        req_u64(counts, "leaves_pruned")?,
        req_u64(counts, "leaves_total")?,
    );
    if mat + pruned != total {
        return Err(format!(
            "leaf invariant violated: {mat} materialized + {pruned} pruned != {total} total"
        ));
    }
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or("missing `records` array")?;
    let mut ranked = 0usize;
    let mut rejected = 0usize;
    for (i, r) in records.iter().enumerate() {
        r.get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("records[{i}] missing `id`"))?;
        let outcome = r
            .get("outcome")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("records[{i}] missing `outcome`"))?;
        if !Outcome::known_kinds().contains(&outcome) {
            return Err(format!("records[{i}] has unknown outcome `{outcome}`"));
        }
        if outcome.ends_with("rejected") || outcome.ends_with("pruned") {
            rejected += 1;
        }
        if outcome == "ranked" || outcome == "tournament_ranked" {
            ranked += 1;
            let rank = r
                .get("rank")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("records[{i}] is ranked but has no `rank`"))?;
            if rank < 1.0 || rank.fract() != 0.0 {
                return Err(format!("records[{i}] has invalid rank {rank}"));
            }
        }
        if let Some(h) = r.get("rank_breakdown").and_then(|b| b.get("hybrid")) {
            let l = h
                .get("l_pos")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("records[{i}] hybrid missing l_pos"))?;
            let p = h
                .get("p_pos")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("records[{i}] hybrid missing p_pos"))?;
            let alpha = h
                .get("alpha")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("records[{i}] hybrid missing alpha"))?;
            let combined = h
                .get("combined")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("records[{i}] hybrid missing combined"))?;
            if (combined - (l + alpha * p)).abs() > 1e-9 {
                return Err(format!(
                    "records[{i}] hybrid score {combined} != {l} + {alpha}·{p}"
                ));
            }
        }
    }
    Ok(ProvenanceSummary {
        records: records.len(),
        ranked,
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Provenance {
        let prov = Provenance::enabled();
        prov.set_table("flights");
        prov.record("bar|carrier|delay|Group|Avg|None", |e| {
            e.query = "VISUALIZE bar ...".into();
            e.chart = "bar".into();
            e.outcome = Outcome::Ranked(1);
            e.factors = Some(FactorBreakdown {
                raw_m: 1.0,
                m: 1.0,
                q: 0.5,
                raw_w: 1.5,
                w: 1.0,
            });
            e.rank = Some(RankBreakdown {
                hybrid: Some(HybridParts {
                    l_pos: 0,
                    p_pos: 1,
                    alpha: 1.0,
                    combined: 1.0,
                }),
                final_pos: Some(0),
                ..RankBreakdown::default()
            });
            e.notes.push("4 bars is a legible comparison.".into());
        });
        prov.record_rejected(
            "pie|carrier|delay|Group|Avg|None",
            Outcome::SemaRejected,
            |e| {
                e.chart = "pie".into();
                e.sema.push((
                    "E0011".into(),
                    "AVG pie has no part-to-whole reading".into(),
                ));
            },
        );
        prov.bump(|c| {
            c.enumerated = 2;
            c.sema_rejected = 1;
            c.ranked = 1;
        });
        prov
    }

    #[test]
    fn disabled_records_nothing() {
        let prov = Provenance::disabled();
        assert!(!prov.is_enabled());
        prov.record("x", |e| e.notes.push("never stored".into()));
        prov.bump(|c| c.enumerated += 1);
        let log = prov.snapshot();
        assert!(log.records.is_empty());
        assert_eq!(log.counts, ProvenanceCounts::default());
    }

    #[test]
    fn record_upserts_by_id() {
        let prov = Provenance::enabled();
        prov.record("a", |e| e.chart = "bar".into());
        prov.record("a", |e| e.outcome = Outcome::Kept);
        let log = prov.snapshot();
        assert_eq!(log.records.len(), 1);
        let e = log.find("a").unwrap();
        assert_eq!(e.chart, "bar");
        assert_eq!(e.outcome, Outcome::Kept);
    }

    #[test]
    fn rejected_sample_cap_keeps_minimal_records() {
        let prov = Provenance::enabled();
        for i in 0..REJECTED_SAMPLES + 3 {
            prov.record_rejected(&format!("r{i}"), Outcome::ClassifierRejected, |e| {
                e.notes.push("detail".into());
            });
        }
        let log = prov.snapshot();
        // Every reject is accounted for...
        assert_eq!(log.records.len(), REJECTED_SAMPLES + 3);
        // ...but only the first `REJECTED_SAMPLES` carry detail.
        let detailed = log.records.iter().filter(|e| !e.notes.is_empty()).count();
        assert_eq!(detailed, REJECTED_SAMPLES);
        for e in &log.records {
            assert_eq!(e.outcome, Outcome::ClassifierRejected);
        }
    }

    #[test]
    fn max_records_cap_counts_drops() {
        let prov = Provenance::enabled();
        for i in 0..MAX_RECORDS + 7 {
            prov.record(&format!("n{i}"), |_| {});
        }
        let log = prov.snapshot();
        assert_eq!(log.records.len(), MAX_RECORDS);
        assert_eq!(log.counts.dropped_records, 7);
    }

    #[test]
    fn json_round_trips_and_validates() {
        let text = sample().to_json();
        let summary = validate_provenance_json(&text).expect("valid provenance");
        assert_eq!(summary.records, 2);
        assert_eq!(summary.ranked, 1);
        assert_eq!(summary.rejected, 1);
        // Spot-check the parse.
        let doc = parse_json(&text).unwrap();
        assert_eq!(doc.get("table").and_then(Json::as_str), Some("flights"));
        let records = doc.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(
            records[0].get("outcome").and_then(Json::as_str),
            Some("ranked")
        );
        assert_eq!(records[0].get("rank").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn validator_rejects_broken_hybrid() {
        let text = sample()
            .to_json()
            .replace("\"combined\": 1", "\"combined\": 9");
        assert!(validate_provenance_json(&text)
            .unwrap_err()
            .contains("hybrid"));
    }

    #[test]
    fn validator_rejects_leaf_imbalance() {
        let prov = Provenance::enabled();
        prov.bump(|c| {
            c.leaves_materialized = 2;
            c.leaves_pruned = 1;
            c.leaves_total = 5;
        });
        assert!(validate_provenance_json(&prov.to_json())
            .unwrap_err()
            .contains("leaf invariant"));
    }

    #[test]
    fn render_mentions_all_three_factors() {
        let log = sample().snapshot();
        let report = log.report(5);
        assert!(report.contains("M = "), "{report}");
        assert!(report.contains("Q = "), "{report}");
        assert!(report.contains("W = "), "{report}");
        assert!(report.contains("Ranked #1 as a bar chart"));
        assert!(report.contains("sema-rejected"));
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let prov = Provenance::enabled();
        prov.record("sink", |e| {
            e.rank = Some(RankBreakdown {
                po_log_score: Some(f64::NEG_INFINITY),
                po_pos: Some(3),
                ..RankBreakdown::default()
            });
        });
        let text = prov.to_json();
        assert!(text.contains("\"po_log_score\": null"), "{text}");
        validate_provenance_json(&text).expect("still valid");
    }

    #[test]
    fn query_id_matches_visnode_format() {
        use deepeye_query::{Aggregate, ChartType, SortOrder, Transform};
        let q = VisQuery {
            chart: ChartType::Bar,
            x: "carrier".into(),
            y: Some("delay".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Avg,
            order: SortOrder::None,
        };
        let id = query_id(&q);
        assert!(id.starts_with("bar|carrier|delay|"), "{id}");
    }

    /// A `|` or `\` in a column name cannot make two queries share an id.
    #[test]
    fn query_ids_escape_separators_in_names() {
        use deepeye_query::{Aggregate, ChartType, SortOrder, Transform};
        let line = |x: &str, y: &str| {
            query_id(&VisQuery {
                chart: ChartType::Line,
                x: x.into(),
                y: Some(y.into()),
                transform: Transform::None,
                aggregate: Aggregate::Raw,
                order: SortOrder::None,
            })
        };
        assert_ne!(line("a", "b|c"), line("a|b", "c"));
        assert_ne!(line("a\\", "|b"), line("a\\|", "b"));
        assert_eq!(line("a|b", "c"), "line|a\\|b|c|None|Raw|None");
        assert_eq!(line("a\\b", "c"), "line|a\\\\b|c|None|Raw|None");
    }
}
