//! Executor cost profiling: per-operator work counters, per-candidate
//! attribution, and the versioned `deepeye-cost/v1` document.
//!
//! The stage-level view (the `pipeline.execute` and `execute.worker` spans)
//! says *that* execution is the hotspot; this module says *why*. The
//! executor threads a [`CostAcc`] through its inner loops and counts the
//! seven operators of [`Op`] — rows scanned, group-hash probes and
//! inserts, bin computations, aggregate updates, sort comparisons, and
//! output cardinality. Costs are deterministic work counts, not wall
//! time: two runs of the same query on the same data produce identical
//! numbers, so cross-run diffs (`perfdiff`) attribute a nanosecond delta
//! to the operator bucket whose count moved.
//!
//! The disabled path is monomorphized away: [`NoCost`] implements
//! [`CostAcc`] as a no-op, so `execute_with` compiles to exactly the
//! uninstrumented loop. The parallel executor's costed path records one
//! [`CandidateCost`] per candidate query into a [`CostCollector`] and
//! flushes once per worker chunk — the exactness invariant (checked by
//! [`validate_cost_json`] and asserted by the harness) is that the
//! per-candidate costs sum to the per-worker flush totals, which are the
//! `execute.worker` stage totals.

use crate::json::{escape, Json};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Version tag every cost JSON document carries. Bump when a field is
/// added, removed, or changes meaning; `perfdiff` refuses to compare
/// documents whose schemas differ.
pub const COST_SCHEMA: &str = "deepeye-cost/v1";

/// The JSON field names of the cost document, in document order.
/// DESIGN.md §12 documents each one; a doc-sync test walks this list
/// against a generated document.
pub const COST_FIELDS: &[&str] = &[
    "schema",
    "operators",
    "totals",
    "workers",
    "groups",
    "candidates",
    "chart",
    "transform",
    "signature",
    "builds",
    "costs",
    "id",
];

/// The executor operator taxonomy, in executor-pipeline order: scan,
/// transform (bin/group-hash), aggregate, order, emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Source rows iterated while computing keys or raw pairs.
    RowsScanned,
    /// Bin-key computations (one per source row under a BIN transform).
    BinComputations,
    /// Group-hash lookups (one per non-null key).
    GroupProbes,
    /// Group-hash insertions (one per distinct bucket).
    GroupInserts,
    /// Aggregate accumulator updates (CNT bump or SUM/AVG add).
    AggUpdates,
    /// Comparator invocations while applying ORDER BY.
    SortComparisons,
    /// Marks in the materialized series (output cardinality).
    OutputRows,
}

impl Op {
    /// All operators, executor-pipeline order.
    pub const ALL: [Op; 7] = [
        Op::RowsScanned,
        Op::BinComputations,
        Op::GroupProbes,
        Op::GroupInserts,
        Op::AggUpdates,
        Op::SortComparisons,
        Op::OutputRows,
    ];

    /// Stable lowercase name used in the JSON artifact and diff output.
    pub fn name(self) -> &'static str {
        match self {
            Op::RowsScanned => "rows_scanned",
            Op::BinComputations => "bin_computations",
            Op::GroupProbes => "group_probes",
            Op::GroupInserts => "group_inserts",
            Op::AggUpdates => "agg_updates",
            Op::SortComparisons => "sort_comparisons",
            Op::OutputRows => "output_rows",
        }
    }

    /// The registry counter this operator's worker totals flush into.
    pub fn metric(self) -> &'static str {
        match self {
            Op::RowsScanned => "cost.rows_scanned",
            Op::BinComputations => "cost.bin_computations",
            Op::GroupProbes => "cost.group_probes",
            Op::GroupInserts => "cost.group_inserts",
            Op::AggUpdates => "cost.agg_updates",
            Op::SortComparisons => "cost.sort_comparisons",
            Op::OutputRows => "cost.output_rows",
        }
    }

    /// Parse the stable name back (validator input).
    pub fn from_name(name: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.name() == name)
    }
}

/// A cost accumulator the executor threads through its loops. The
/// executor is generic over this, so the disabled path ([`NoCost`])
/// monomorphizes to the bare loop.
pub trait CostAcc {
    fn add(&mut self, op: Op, n: u64);
}

/// The no-op accumulator: every `add` compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCost;

impl CostAcc for NoCost {
    #[inline(always)]
    fn add(&mut self, _op: Op, _n: u64) {}
}

/// One operator-count vector: the cost of a candidate, a worker chunk,
/// or a rollup group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCosts {
    counts: [u64; Op::ALL.len()],
}

impl CostAcc for OpCosts {
    #[inline]
    fn add(&mut self, op: Op, n: u64) {
        if let Some(slot) = self.counts.get_mut(op as usize) {
            *slot = slot.saturating_add(n);
        }
    }
}

impl OpCosts {
    /// The count of one operator.
    pub fn get(&self, op: Op) -> u64 {
        self.counts.get(op as usize).copied().unwrap_or(0)
    }

    /// Fold `other` into `self` (saturating; counts never wrap).
    pub fn merge(&mut self, other: &OpCosts) {
        for (slot, v) in self.counts.iter_mut().zip(other.counts) {
            *slot = slot.saturating_add(v);
        }
    }

    /// Sum of all operator counts — the scalar "how much work" number
    /// rollups sort by.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// `(op, count)` pairs in [`Op::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        Op::ALL.into_iter().map(|op| (op, self.get(op)))
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (op, n)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {n}", op.name()));
        }
        out.push('}');
        out
    }
}

/// One candidate query's accumulated executor cost, keyed by the stable
/// candidate id and carrying the rollup dimensions (chart type,
/// transform, column-pair type signature like `categorical*numerical`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateCost {
    pub id: String,
    pub chart: String,
    pub transform: String,
    pub signature: String,
    /// How many times this candidate was executed (harness repetitions
    /// accumulate here instead of duplicating records).
    pub builds: u64,
    pub costs: OpCosts,
}

/// One rollup row: every candidate sharing (chart × transform ×
/// signature), merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCost {
    pub chart: String,
    pub transform: String,
    pub signature: String,
    /// Distinct candidates in the group.
    pub candidates: u64,
    pub builds: u64,
    pub costs: OpCosts,
}

impl GroupCost {
    /// The `chart/transform/signature` label diff output uses.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.chart, self.transform, self.signature)
    }
}

#[derive(Debug, Default)]
struct CostState {
    candidates: BTreeMap<String, CandidateCost>,
    workers: Vec<OpCosts>,
}

fn lock(m: &Mutex<CostState>) -> MutexGuard<'_, CostState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cheaply cloneable handle collecting per-candidate executor costs —
/// the cost-profiling sibling of [`crate::Observer`]: either **enabled**
/// (clones share one sink) or **disabled** (holds nothing; every method
/// is one `Option` check). Workers buffer candidate costs locally and
/// flush once per chunk via [`CostCollector::record_worker`], so the
/// parallel executor takes the lock once per chunk, not per query.
#[derive(Debug, Clone, Default)]
pub struct CostCollector {
    inner: Option<Arc<Mutex<CostState>>>,
}

impl CostCollector {
    /// A collecting handle.
    pub fn enabled() -> CostCollector {
        CostCollector {
            inner: Some(Arc::new(Mutex::new(CostState::default()))),
        }
    }

    /// The no-op handle (the default).
    pub fn disabled() -> CostCollector {
        CostCollector { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Flush one worker chunk: the candidates it built and, implicitly,
    /// the chunk total (computed here, so per-candidate costs sum to the
    /// worker totals *by construction*). Repeated candidate ids merge —
    /// `builds` accumulates and costs add — keeping repeated runs
    /// (harness warmup + reps) one record per candidate.
    pub fn record_worker(&self, candidates: Vec<CandidateCost>) {
        let Some(inner) = &self.inner else { return };
        let mut total = OpCosts::default();
        let mut state = lock(inner);
        for c in candidates {
            total.merge(&c.costs);
            match state.candidates.get_mut(&c.id) {
                Some(existing) => {
                    existing.builds += c.builds;
                    existing.costs.merge(&c.costs);
                }
                None => {
                    state.candidates.insert(c.id.clone(), c);
                }
            }
        }
        state.workers.push(total);
    }

    /// Point-in-time report: candidates (sorted by id), worker flush
    /// totals, the grand total, and the (chart × transform × signature)
    /// rollup. Empty when disabled.
    pub fn report(&self) -> CostReport {
        let Some(inner) = &self.inner else {
            return CostReport::default();
        };
        let state = lock(inner);
        let candidates: Vec<CandidateCost> = state.candidates.values().cloned().collect();
        let workers = state.workers.clone();
        drop(state);
        CostReport::build(candidates, workers)
    }
}

/// The assembled cost view behind the `deepeye-cost/v1` document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Per-candidate costs, sorted by candidate id.
    pub candidates: Vec<CandidateCost>,
    /// One total per worker-chunk flush.
    pub workers: Vec<OpCosts>,
    /// Grand total (= sum of candidates = sum of workers = sum of groups).
    pub totals: OpCosts,
    /// (chart × transform × signature) rollup, sorted by descending
    /// total cost.
    pub groups: Vec<GroupCost>,
}

impl CostReport {
    fn build(candidates: Vec<CandidateCost>, workers: Vec<OpCosts>) -> CostReport {
        let mut totals = OpCosts::default();
        let mut groups: BTreeMap<(String, String, String), GroupCost> = BTreeMap::new();
        for c in &candidates {
            totals.merge(&c.costs);
            let key = (c.chart.clone(), c.transform.clone(), c.signature.clone());
            let g = groups.entry(key).or_insert_with(|| GroupCost {
                chart: c.chart.clone(),
                transform: c.transform.clone(),
                signature: c.signature.clone(),
                candidates: 0,
                builds: 0,
                costs: OpCosts::default(),
            });
            g.candidates += 1;
            g.builds += c.builds;
            g.costs.merge(&c.costs);
        }
        let mut groups: Vec<GroupCost> = groups.into_values().collect();
        groups.sort_by(|a, b| {
            b.costs
                .total()
                .cmp(&a.costs.total())
                .then_with(|| a.label().cmp(&b.label()))
        });
        CostReport {
            candidates,
            workers,
            totals,
            groups,
        }
    }

    /// Render the `deepeye-cost/v1` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{COST_SCHEMA}\",\n"));
        out.push_str("  \"operators\": [");
        for (i, op) in Op::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", op.name()));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"totals\": {},\n", self.totals.json()));
        out.push_str("  \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}", w.json()));
        }
        if !self.workers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"groups\": [");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"chart\": \"{}\", \"transform\": \"{}\", \"signature\": \"{}\", \
                 \"candidates\": {}, \"builds\": {}, \"costs\": {}}}",
                escape(&g.chart),
                escape(&g.transform),
                escape(&g.signature),
                g.candidates,
                g.builds,
                g.costs.json()
            ));
        }
        if !self.groups.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"candidates\": [");
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{}\", \"chart\": \"{}\", \"transform\": \"{}\", \
                 \"signature\": \"{}\", \"builds\": {}, \"costs\": {}}}",
                escape(&c.id),
                escape(&c.chart),
                escape(&c.transform),
                escape(&c.signature),
                c.builds,
                c.costs.json()
            ));
        }
        if !self.candidates.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The human-readable rollup table printed to stderr by
    /// `harness --cost-out` and the CLI: one line per group (descending
    /// total cost, top operators named with their share) plus the grand
    /// totals.
    pub fn cost_table(&self) -> String {
        let mut out = format!(
            "executor cost report — {} candidate(s), {} worker flush(es), {} total op(s)\n",
            self.candidates.len(),
            self.workers.len(),
            self.totals.total()
        );
        for g in &self.groups {
            let total = g.costs.total().max(1);
            let mut ops: Vec<(Op, u64)> = g.costs.iter().filter(|(_, n)| *n > 0).collect();
            ops.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            let tops: Vec<String> = ops
                .iter()
                .take(2)
                .map(|(op, n)| format!("{} {}%", op.name(), 100 * n / total))
                .collect();
            out.push_str(&format!(
                "  {:<44} {:>5} cand  {:>7} builds  {:>12} ops  {}\n",
                g.label(),
                g.candidates,
                g.builds,
                g.costs.total(),
                tops.join(", ")
            ));
        }
        out.push_str("  totals:");
        for (op, n) in self.totals.iter() {
            out.push_str(&format!(" {} {n}", op.name()));
        }
        out.push('\n');
        out
    }
}

/// What [`validate_cost_json`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostSummary {
    pub candidates: usize,
    pub workers: usize,
    pub groups: usize,
    /// Grand total operation count.
    pub total_ops: u64,
}

fn count_field(obj: &Json, key: &str, what: &str) -> Result<u64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what} missing numeric field {key:?}"))?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!(
            "{what} field {key:?} must be a non-negative integer"
        ));
    }
    Ok(v as u64)
}

fn costs_field(obj: &Json, what: &str) -> Result<OpCosts, String> {
    let costs = obj
        .get("costs")
        .ok_or_else(|| format!("{what} missing costs object"))?;
    let entries = costs
        .as_object()
        .ok_or_else(|| format!("{what} costs is not an object"))?;
    let mut out = OpCosts::default();
    for (name, value) in entries {
        let op = Op::from_name(name)
            .ok_or_else(|| format!("{what} costs names unknown operator {name:?}"))?;
        let v = value
            .as_f64()
            .ok_or_else(|| format!("{what} operator {name:?} is not a number"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!(
                "{what} operator {name:?} must be a non-negative integer"
            ));
        }
        out.add(op, v as u64);
    }
    Ok(out)
}

fn op_vector(obj: &Json, what: &str) -> Result<OpCosts, String> {
    let entries = obj
        .as_object()
        .ok_or_else(|| format!("{what} is not an object"))?;
    let mut out = OpCosts::default();
    for (name, value) in entries {
        let op =
            Op::from_name(name).ok_or_else(|| format!("{what} names unknown operator {name:?}"))?;
        let v = value
            .as_f64()
            .ok_or_else(|| format!("{what} operator {name:?} is not a number"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!(
                "{what} operator {name:?} must be a non-negative integer"
            ));
        }
        out.add(op, v as u64);
    }
    Ok(out)
}

/// Validate a `deepeye-cost/v1` document: schema tag, the operator
/// taxonomy, non-negative integer counts, and the exactness invariant —
/// per-candidate costs sum exactly to the worker flush totals (the
/// `execute.worker` stage totals), the grand totals, and the rollup
/// groups, per operator.
pub fn validate_cost_json(text: &str) -> Result<CostSummary, String> {
    let doc = crate::parse_json(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("document missing string field \"schema\"")?;
    if schema != COST_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (this build reads {COST_SCHEMA:?})"
        ));
    }
    let operators = doc
        .get("operators")
        .and_then(Json::as_array)
        .ok_or("document missing operators array")?;
    let names: Vec<&str> = operators.iter().filter_map(Json::as_str).collect();
    let expected: Vec<&str> = Op::ALL.into_iter().map(Op::name).collect();
    if names != expected {
        return Err(format!(
            "operators array {names:?} does not match the taxonomy {expected:?}"
        ));
    }
    let totals = op_vector(
        doc.get("totals").ok_or("document missing totals object")?,
        "totals",
    )?;

    let mut worker_sum = OpCosts::default();
    let workers = doc
        .get("workers")
        .and_then(Json::as_array)
        .ok_or("document missing workers array")?;
    for (i, w) in workers.iter().enumerate() {
        worker_sum.merge(&op_vector(w, &format!("worker {i}"))?);
    }

    let mut candidate_sum = OpCosts::default();
    let mut candidate_builds = 0u64;
    let mut seen_ids: BTreeMap<String, (String, String, String)> = BTreeMap::new();
    let candidates = doc
        .get("candidates")
        .and_then(Json::as_array)
        .ok_or("document missing candidates array")?;
    for c in candidates {
        let id = c
            .get("id")
            .and_then(Json::as_str)
            .ok_or("candidate missing string field \"id\"")?;
        if id.is_empty() {
            return Err("candidate has an empty id".into());
        }
        let what = format!("candidate {id:?}");
        let dims = ["chart", "transform", "signature"].map(|key| {
            c.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{what} missing string field {key:?}"))
        });
        let [chart, transform, signature] = dims;
        let key = (chart?, transform?, signature?);
        if seen_ids.insert(id.to_owned(), key).is_some() {
            return Err(format!("duplicate candidate id {id:?}"));
        }
        candidate_builds += count_field(c, "builds", &what)?;
        candidate_sum.merge(&costs_field(c, &what)?);
    }

    let mut group_sum = OpCosts::default();
    let mut group_candidates = 0u64;
    let mut group_builds = 0u64;
    let mut group_keys: BTreeMap<(String, String, String), u64> = BTreeMap::new();
    let groups = doc
        .get("groups")
        .and_then(Json::as_array)
        .ok_or("document missing groups array")?;
    for g in groups {
        let dims = ["chart", "transform", "signature"].map(|key| {
            g.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("group missing string field {key:?}"))
        });
        let [chart, transform, signature] = dims;
        let key = (chart?, transform?, signature?);
        let what = format!("group {}/{}/{}", key.0, key.1, key.2);
        let cands = count_field(g, "candidates", &what)?;
        if cands == 0 {
            return Err(format!("{what} rolls up zero candidates"));
        }
        group_candidates += cands;
        group_builds += count_field(g, "builds", &what)?;
        group_sum.merge(&costs_field(g, &what)?);
        if group_keys.insert(key.clone(), cands).is_some() {
            return Err(format!("duplicate {what}"));
        }
    }

    // Membership: every candidate's rollup key names a declared group,
    // and the group candidate counts account for every candidate.
    for (id, key) in &seen_ids {
        if !group_keys.contains_key(key) {
            return Err(format!(
                "candidate {id:?} belongs to undeclared group {}/{}/{}",
                key.0, key.1, key.2
            ));
        }
    }
    if group_candidates != seen_ids.len() as u64 {
        return Err(format!(
            "groups roll up {group_candidates} candidate(s), document has {}",
            seen_ids.len()
        ));
    }

    // The exactness invariant, per operator: candidates = workers =
    // groups = totals. Losing a count anywhere must not read as "cheap".
    for op in Op::ALL {
        let t = totals.get(op);
        for (what, sum) in [
            ("candidates", candidate_sum.get(op)),
            ("workers", worker_sum.get(op)),
            ("groups", group_sum.get(op)),
        ] {
            if sum != t {
                return Err(format!(
                    "operator {:?}: {what} sum {sum} != totals {t}",
                    op.name()
                ));
            }
        }
    }
    let builds_total: u64 = candidate_builds;
    if group_builds != builds_total {
        return Err(format!(
            "groups record {group_builds} build(s), candidates record {builds_total}"
        ));
    }
    if !candidates.is_empty() && workers.is_empty() {
        return Err("document has candidates but no worker flushes".into());
    }
    Ok(CostSummary {
        candidates: candidates.len(),
        workers: workers.len(),
        groups: groups.len(),
        total_ops: totals.total(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(id: &str, chart: &str, sig: &str, probes: u64) -> CandidateCost {
        let mut costs = OpCosts::default();
        costs.add(Op::RowsScanned, 10);
        costs.add(Op::GroupProbes, probes);
        costs.add(Op::OutputRows, 3);
        CandidateCost {
            id: id.to_owned(),
            chart: chart.to_owned(),
            transform: "group".to_owned(),
            signature: sig.to_owned(),
            builds: 1,
            costs,
        }
    }

    #[test]
    fn op_taxonomy_is_consistent() {
        assert_eq!(Op::ALL.len(), 7);
        for op in Op::ALL {
            assert_eq!(Op::from_name(op.name()), Some(op));
            assert_eq!(op.metric(), format!("cost.{}", op.name()));
            assert!(crate::metrics::is_counter(op.metric()), "{}", op.metric());
        }
        assert_eq!(Op::from_name("hash_joins"), None);
    }

    #[test]
    fn opcosts_merge_and_total() {
        let mut a = OpCosts::default();
        a.add(Op::RowsScanned, 5);
        let mut b = OpCosts::default();
        b.add(Op::RowsScanned, 2);
        b.add(Op::SortComparisons, 7);
        a.merge(&b);
        assert_eq!(a.get(Op::RowsScanned), 7);
        assert_eq!(a.get(Op::SortComparisons), 7);
        assert_eq!(a.total(), 14);
        assert!(!a.is_zero());
        assert!(OpCosts::default().is_zero());
    }

    #[test]
    fn nocost_is_inert() {
        let mut n = NoCost;
        n.add(Op::RowsScanned, u64::MAX);
        // Nothing to observe — the test is that this compiles and the
        // type carries no state.
        assert_eq!(std::mem::size_of::<NoCost>(), 0);
    }

    #[test]
    fn collector_merges_repeat_candidates() {
        let costs = CostCollector::enabled();
        costs.record_worker(vec![candidate("q1", "bar", "categorical*numerical", 4)]);
        costs.record_worker(vec![
            candidate("q1", "bar", "categorical*numerical", 4),
            candidate("q2", "pie", "categorical", 6),
        ]);
        let report = costs.report();
        assert_eq!(report.candidates.len(), 2);
        assert_eq!(report.workers.len(), 2);
        let q1 = &report.candidates[0];
        assert_eq!(q1.id, "q1");
        assert_eq!(q1.builds, 2);
        assert_eq!(q1.costs.get(Op::GroupProbes), 8);
        // Worker totals and candidate totals agree.
        let mut worker_sum = OpCosts::default();
        for w in &report.workers {
            worker_sum.merge(w);
        }
        assert_eq!(worker_sum, report.totals);
        // Rollup groups cover both dimension keys.
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.groups.iter().map(|g| g.candidates).sum::<u64>(), 2);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let costs = CostCollector::disabled();
        assert!(!costs.is_enabled());
        costs.record_worker(vec![candidate("q1", "bar", "categorical", 1)]);
        let report = costs.report();
        assert!(report.candidates.is_empty());
        assert!(report.workers.is_empty());
        assert!(report.totals.is_zero());
    }

    #[test]
    fn report_json_validates_and_names_every_field() {
        let costs = CostCollector::enabled();
        costs.record_worker(vec![
            candidate("q1", "bar", "categorical*numerical", 4),
            candidate("q2", "pie", "categorical", 6),
        ]);
        let text = costs.report().to_json();
        let summary = validate_cost_json(&text).expect("valid");
        assert_eq!(summary.candidates, 2);
        assert_eq!(summary.workers, 1);
        assert_eq!(summary.groups, 2);
        for field in COST_FIELDS {
            assert!(
                text.contains(&format!("\"{field}\"")),
                "field {field:?} missing from generated document"
            );
        }
        let table = costs.report().cost_table();
        assert!(table.contains("bar/group/categorical*numerical"));
        assert!(table.contains("totals:"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let costs = CostCollector::enabled();
        costs.record_worker(vec![candidate("q1", "bar", "categorical*numerical", 4)]);
        let good = costs.report().to_json();
        assert!(validate_cost_json(&good).is_ok());
        for (broken, why) in [
            (good.replace("deepeye-cost/v1", "deepeye-cost/v0"), "schema"),
            (
                // Only the first occurrence (the totals vector) — the
                // candidate/worker/group copies keep the true count.
                good.replacen("\"group_probes\": 4", "\"group_probes\": 9", 1),
                "sum invariant",
            ),
            (
                good.replace("\"rows_scanned\": 10", "\"rows_scanned\": -1"),
                "negative count",
            ),
            (
                good.replace("rows_scanned", "rows_sacnned"),
                "unknown operator",
            ),
            (
                good.replace("\"candidates\": 1", "\"candidates\": 0"),
                "empty group",
            ),
        ] {
            assert!(
                validate_cost_json(&broken).is_err(),
                "validator should reject broken {why}"
            );
        }
    }

    #[test]
    fn empty_report_is_valid() {
        let report = CostCollector::enabled().report();
        let summary = validate_cost_json(&report.to_json()).expect("valid");
        assert_eq!(summary.candidates, 0);
        assert_eq!(summary.total_ops, 0);
    }
}
