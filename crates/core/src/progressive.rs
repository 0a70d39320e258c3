//! The progressive top-k selector of §V-B.
//!
//! Instead of materializing every candidate visualization and ranking the
//! lot, the selector keeps one lazy *leaf* per (column, type) — the paper's
//! `L_c^X` / `L_n^X` / `L_t^X` lists — and runs a tournament: a leaf is
//! only materialized when its optimistic score bound reaches the top of the
//! heap, and materializing a leaf computes **all** of its charts from one
//! shared scan per transform (§V-B optimization 1). Columns whose bound
//! never surfaces are never scanned at all (optimization 2), and ORDER BY
//! is applied only to the k winners (optimization 3).
//!
//! Scores here are the unnormalized composite `(M + Q + W)/3`: unlike
//! Eq. 5's set-relative normalization this is computable leaf-locally,
//! which is what makes progressive evaluation possible. The tournament is
//! exact for this score: it returns the same top-k as scoring every
//! candidate (see the `matches_exhaustive` tests).

use crate::node::VisNode;
use crate::partial_order::{raw_match_quality, transform_quality};
use crate::rules;
use deepeye_data::{DataType, Table};
use deepeye_query::{execute_batch, Series, SortOrder, Transform, UdfRegistry, VisQuery};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// A node plus its composite progressive score.
#[derive(Debug, Clone)]
pub struct ScoredNode {
    pub node: VisNode,
    pub score: f64,
}

/// Work counters for the efficiency experiments and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Leaves (columns) actually materialized.
    pub leaves_materialized: usize,
    /// Leaves evicted by their bound: still in the heap unmaterialized when
    /// the tournament filled the top-k (their optimistic bound never beat a
    /// realized score, so their columns were never scanned).
    pub leaves_pruned: usize,
    /// Total leaves (columns with any candidate).
    pub leaves_total: usize,
    /// Candidate nodes generated.
    pub nodes_generated: usize,
    /// Table scans performed (one per materialized (column, transform)).
    pub shared_scans: usize,
}

impl SelectionStats {
    /// Fold another stats block into this one, field by field. Worker
    /// threads keep local counters and merge on join; the merged totals
    /// must equal a sequential run's (see the `parallel_stats_merge` test).
    pub fn merge(&mut self, other: &SelectionStats) {
        self.leaves_materialized += other.leaves_materialized;
        self.leaves_pruned += other.leaves_pruned;
        self.leaves_total += other.leaves_total;
        self.nodes_generated += other.nodes_generated;
        self.shared_scans += other.shared_scans;
    }
}

impl std::ops::AddAssign for SelectionStats {
    fn add_assign(&mut self, rhs: SelectionStats) {
        self.merge(&rhs);
    }
}

/// The canonical ORDER BY for a chart in progressive mode: sortable
/// x-scales read left-to-right, categorical scales show largest first.
/// Order does not change the factor scores, so ranking one canonical
/// variant per chart loses nothing.
fn canonical_order(x_prime: DataType) -> SortOrder {
    match x_prime {
        DataType::Numerical | DataType::Temporal => SortOrder::ByX,
        DataType::Categorical => SortOrder::ByY,
    }
}

/// A candidate chart descriptor, known before any scan.
#[derive(Debug, Clone)]
struct Candidate {
    query: VisQuery,
    /// W(v): sum of participating columns' importance, unnormalized.
    w_raw: f64,
}

/// Heap entry: either an unmaterialized leaf with an optimistic bound or a
/// concrete scored node.
enum Entry {
    Leaf { column: usize, bound: f64 },
    Node { score: f64, seq: usize },
}

impl Entry {
    fn key(&self) -> (f64, u8) {
        // Nodes win ties against leaf bounds (a realized score equal to a
        // bound can be emitted without materializing the leaf — the leaf
        // cannot beat it, only match it; index tie-break keeps determinism).
        match self {
            Entry::Leaf { bound, .. } => (*bound, 0),
            Entry::Node { score, .. } => (*score, 1),
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        let (sa, ta) = self.key();
        let (sb, tb) = other.key();
        sa.total_cmp(&sb).then(ta.cmp(&tb))
    }
}

/// Progressive top-k selection over a table.
pub struct ProgressiveSelector<'a> {
    table: &'a Table,
    udfs: &'a UdfRegistry,
}

impl<'a> ProgressiveSelector<'a> {
    pub fn new(table: &'a Table, udfs: &'a UdfRegistry) -> Self {
        ProgressiveSelector { table, udfs }
    }

    /// All canonical candidates grouped by x-column, with raw W weights.
    fn candidates_by_column(&self) -> (Vec<Vec<Candidate>>, f64) {
        let queries = canonical_candidates(self.table);
        // Column importance from candidate membership (computable without
        // executing anything).
        let total = queries.len().max(1) as f64;
        let mut col_count: HashMap<&str, usize> = HashMap::new();
        for q in &queries {
            *col_count.entry(q.x.as_str()).or_insert(0) += 1;
            if let Some(y) = &q.y {
                if *y != q.x {
                    *col_count.entry(y.as_str()).or_insert(0) += 1;
                }
            }
        }
        let importance: HashMap<String, f64> = col_count
            .into_iter()
            .map(|(c, n)| (c.to_owned(), n as f64 / total))
            .collect();

        let mut by_column: Vec<Vec<Candidate>> = vec![Vec::new(); self.table.column_count()];
        let mut max_w: f64 = 0.0;
        for query in queries {
            let mut w_raw = importance.get(&query.x).copied().unwrap_or(0.0);
            if let Some(y) = &query.y {
                if *y != query.x {
                    w_raw += importance.get(y).copied().unwrap_or(0.0);
                }
            }
            max_w = max_w.max(w_raw);
            let Some(col) = self.table.column_index(&query.x) else {
                debug_assert!(false, "candidate references missing column {}", query.x);
                continue;
            };
            by_column[col].push(Candidate { query, w_raw });
        }
        (by_column, max_w.max(1e-12))
    }

    /// Compute the top-k visualizations progressively.
    pub fn top_k(&self, k: usize) -> (Vec<ScoredNode>, SelectionStats) {
        self.top_k_observed(k, &deepeye_obs::Observer::disabled())
    }

    /// [`ProgressiveSelector::top_k`] with observability: runs under a
    /// `progressive.top_k` span, times each leaf materialization into the
    /// `progressive.leaf_ns` histogram, and mirrors the final
    /// [`SelectionStats`] into `progressive.*` counters.
    pub fn top_k_observed(
        &self,
        k: usize,
        obs: &deepeye_obs::Observer,
    ) -> (Vec<ScoredNode>, SelectionStats) {
        self.top_k_explained(k, obs, &crate::provenance::Provenance::disabled())
    }

    /// [`ProgressiveSelector::top_k_observed`] that additionally records
    /// tournament provenance: a `column:<name>` record per leaf (bound,
    /// materialized-or-pruned), a record per materialized candidate
    /// (winner rank or tournament loss), and the leaf-accounting counts.
    /// With provenance disabled this *is* `top_k_observed` — no ids are
    /// formatted, nothing extra allocates.
    pub fn top_k_explained(
        &self,
        k: usize,
        obs: &deepeye_obs::Observer,
        prov: &crate::provenance::Provenance,
    ) -> (Vec<ScoredNode>, SelectionStats) {
        use crate::provenance::Outcome;
        let _span = obs.span("progressive.top_k");
        let explaining = prov.is_enabled();
        let (by_column, max_w) = self.candidates_by_column();
        let mut stats = SelectionStats::default();
        let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
        for (column, cands) in by_column.iter().enumerate() {
            if cands.is_empty() {
                continue;
            }
            stats.leaves_total += 1;
            // Optimistic bound: M ≤ 1, Q ≤ 1, exact W known upfront.
            let w_best = cands.iter().map(|c| c.w_raw).fold(0.0f64, f64::max) / max_w;
            let bound = (1.0 + 1.0 + w_best) / 3.0;
            heap.push(Entry::Leaf { column, bound });
        }

        let mut materialized: Vec<ScoredNode> = Vec::new();
        let mut emitted: Vec<usize> = Vec::new();
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            match heap.pop() {
                None => break,
                Some(Entry::Node { seq, .. }) => {
                    if explaining {
                        emitted.push(seq);
                    }
                    out.push(materialized[seq].clone());
                }
                Some(Entry::Leaf { column, bound }) => {
                    stats.leaves_materialized += 1;
                    if explaining {
                        let name = self
                            .table
                            .column(column)
                            .map(deepeye_data::Column::name)
                            .unwrap_or("?");
                        prov.record(&format!("column:{name}"), |e| {
                            e.outcome = Outcome::LeafMaterialized;
                            e.tournament_score = Some(bound);
                            e.notes
                                .push(format!("Leaf bound {bound:.4} surfaced; column scanned."));
                        });
                    }
                    let leaf_timer = obs.timer("progressive.leaf_ns");
                    let nodes = self.materialize_column(&by_column[column], max_w, &mut stats);
                    drop(leaf_timer);
                    if obs.is_enabled() {
                        // Arena point: leaf materialization is where the
                        // progressive path allocates; charge the batch to
                        // the open `progressive.top_k` span.
                        let bytes: u64 = nodes.iter().map(|s| s.node.approx_heap_bytes()).sum();
                        obs.alloc_many(nodes.len() as u64, bytes);
                    }
                    for scored in nodes {
                        let seq = materialized.len();
                        heap.push(Entry::Node {
                            score: scored.score,
                            seq,
                        });
                        materialized.push(scored);
                    }
                }
            }
        }

        // Leaves still in the heap were evicted by their bound: the top-k
        // filled before their optimistic score surfaced, so their columns
        // were never scanned (§V-B optimization 2).
        stats.leaves_pruned = heap
            .iter()
            .filter(|e| matches!(e, Entry::Leaf { .. }))
            .count();
        if explaining {
            for entry in heap.iter() {
                if let Entry::Leaf { column, bound } = entry {
                    let name = self
                        .table
                        .column(*column)
                        .map(deepeye_data::Column::name)
                        .unwrap_or("?");
                    let bound = *bound;
                    prov.record_rejected(&format!("column:{name}"), Outcome::LeafPruned, |e| {
                        e.tournament_score = Some(bound);
                        e.notes.push(format!(
                            "Bound {bound:.4} never reached the heap top; \
                                 column never scanned."
                        ));
                    });
                }
            }
            for (rank, scored) in out.iter().enumerate() {
                let score = scored.score;
                prov.record(&scored.node.id(), |e| {
                    e.chart = scored.node.chart_type().name().to_owned();
                    e.outcome = Outcome::TournamentRanked(rank + 1);
                    e.tournament_score = Some(score);
                });
            }
            for (seq, scored) in materialized.iter().enumerate() {
                if emitted.contains(&seq) {
                    continue;
                }
                let score = scored.score;
                let chart = scored.node.chart_type().name();
                prov.record_rejected(&scored.node.id(), Outcome::TournamentLost, |e| {
                    e.chart = chart.to_owned();
                    e.tournament_score = Some(score);
                });
            }
            prov.bump(|c| {
                c.leaves_materialized += stats.leaves_materialized as u64;
                c.leaves_pruned += stats.leaves_pruned as u64;
                c.leaves_total += stats.leaves_total as u64;
            });
        }
        obs.incr(
            "progressive.leaves_materialized",
            stats.leaves_materialized as u64,
        );
        obs.incr("progressive.leaves_pruned", stats.leaves_pruned as u64);
        obs.incr("progressive.leaves_total", stats.leaves_total as u64);
        obs.incr("progressive.nodes_generated", stats.nodes_generated as u64);
        obs.incr("progressive.shared_scans", stats.shared_scans as u64);

        // Optimization 3: apply the postponed ORDER BY to the winners only.
        for scored in &mut out {
            apply_order(&mut scored.node);
        }
        (out, stats)
    }

    /// Materialize every candidate of one column through the shared-scan
    /// executor: one key pass and aggregation sweep per transform. ORDER
    /// BY is cleared on aggregated candidates so only the winners are
    /// sorted (optimization 3); features of text-keyed charts depend on
    /// series order, so this is also what the scores are defined over.
    fn materialize_column(
        &self,
        candidates: &[Candidate],
        max_w: f64,
        stats: &mut SelectionStats,
    ) -> Vec<ScoredNode> {
        // Group candidates by transform so each transform scans once.
        let mut by_transform: Vec<(&Transform, Vec<&Candidate>)> = Vec::new();
        for cand in candidates {
            match by_transform
                .iter_mut()
                .find(|(t, _)| **t == cand.query.transform)
            {
                Some((_, list)) => list.push(cand),
                None => by_transform.push((&cand.query.transform, vec![cand])),
            }
        }

        let mut out = Vec::new();
        for (transform, cands) in by_transform {
            // Raw charts execute directly, ORDER BY included.
            let raw = matches!(transform, Transform::None);
            if !raw {
                stats.shared_scans += 1;
            }
            let queries: Vec<VisQuery> = cands
                .iter()
                .map(|c| VisQuery {
                    order: if raw { c.query.order } else { SortOrder::None },
                    ..c.query.clone()
                })
                .collect();
            let results = execute_batch(self.table, &queries, self.udfs);
            for ((cand, mut query), result) in cands.iter().zip(queries).zip(results) {
                if let Ok(data) = result {
                    stats.nodes_generated += 1;
                    query.order = cand.query.order;
                    let node = VisNode::from_chart(self.table, query, data);
                    out.push(self.score_node(node, cand.w_raw, max_w));
                }
            }
        }
        out
    }

    /// Score a materialized node; single-mark charts score the floor (the
    /// paper zeroes d(X)=1 significance, and a perfect Q must not carry a
    /// one-point chart into the top-k — mirrors `DeepEye::recommend`).
    fn score_node(&self, node: VisNode, w_raw: f64, max_w: f64) -> ScoredNode {
        if node.data.series.len() < 2 {
            return ScoredNode { score: 0.0, node };
        }
        let m = raw_match_quality(&node);
        let q = transform_quality(&node);
        let w = w_raw / max_w;
        ScoredNode {
            score: (m + q + w) / 3.0,
            node,
        }
    }
}

/// All canonical candidate queries of a table: the rule-based space with
/// one canonical ORDER BY per (x, transform, y, aggregate, chart).
pub fn canonical_candidates(table: &Table) -> Vec<VisQuery> {
    let mut out = Vec::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for mut q in rules::rule_based_queries(table) {
        let x_type = table
            .column_by_name(&q.x)
            .map(|c| c.data_type())
            .unwrap_or(DataType::Categorical);
        q.order = match q.transform {
            Transform::None => SortOrder::ByX,
            ref t => canonical_order(rules::transformed_x_type(x_type, t)),
        };
        let id = format!(
            "{}|{}|{}|{:?}|{:?}",
            q.chart,
            q.x,
            q.y.as_deref().unwrap_or(""),
            q.transform,
            q.aggregate
        );
        if seen.insert(id) {
            out.push(q);
        }
    }
    out
}

/// Apply the node's postponed ORDER BY to its series in place.
fn apply_order(node: &mut VisNode) {
    if let Series::Keyed(pairs) = &mut node.data.series {
        match node.query.order {
            SortOrder::None => {}
            SortOrder::ByX => pairs.sort_by(|a, b| a.0.total_cmp(&b.0)),
            SortOrder::ByY => pairs.sort_by(|a, b| b.1.total_cmp(&a.1)),
        }
    }
}

/// Exhaustive reference: materialize and score every canonical candidate,
/// sort best-first. Used by tests and the ablation bench to validate the
/// tournament.
pub fn exhaustive_top_k(
    table: &Table,
    udfs: &UdfRegistry,
    k: usize,
) -> (Vec<ScoredNode>, SelectionStats) {
    let selector = ProgressiveSelector::new(table, udfs);
    let (by_column, max_w) = selector.candidates_by_column();
    let mut stats = SelectionStats::default();
    let mut all = Vec::new();
    for cands in &by_column {
        if cands.is_empty() {
            continue;
        }
        stats.leaves_total += 1;
        stats.leaves_materialized += 1;
        all.extend(selector.materialize_column(cands, max_w, &mut stats));
    }
    all.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.node.id().cmp(&b.node.id()))
    });
    all.truncate(k);
    for scored in &mut all {
        apply_order(&mut scored.node);
    }
    (all, stats)
}

/// [`exhaustive_top_k`] with columns materialized across worker threads.
/// Each worker keeps a local [`SelectionStats`] merged on join with
/// [`SelectionStats::merge`]; the merged totals and the returned top-k are
/// identical to the sequential run's.
pub fn exhaustive_top_k_parallel(
    table: &Table,
    udfs: &UdfRegistry,
    k: usize,
) -> (Vec<ScoredNode>, SelectionStats) {
    let selector = ProgressiveSelector::new(table, udfs);
    let (by_column, max_w) = selector.candidates_by_column();
    let occupied: Vec<&Vec<Candidate>> = by_column.iter().filter(|c| !c.is_empty()).collect();
    let workers = crate::parallel::worker_count(occupied.len());
    let chunk = occupied.len().div_ceil(workers.max(1)).max(1);
    let mut stats = SelectionStats::default();
    let mut all: Vec<ScoredNode> = Vec::new();
    std::thread::scope(|scope| {
        let selector = &selector;
        let handles: Vec<_> = occupied
            .chunks(chunk)
            .map(|cols| {
                scope.spawn(move || {
                    let mut local_stats = SelectionStats::default();
                    let mut local_nodes = Vec::new();
                    for cands in cols {
                        local_stats.leaves_total += 1;
                        local_stats.leaves_materialized += 1;
                        local_nodes.extend(selector.materialize_column(
                            cands,
                            max_w,
                            &mut local_stats,
                        ));
                    }
                    (local_nodes, local_stats)
                })
            })
            .collect();
        for h in handles {
            if let Ok((nodes, local)) = h.join() {
                all.extend(nodes);
                stats += local;
            }
        }
    });
    all.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.node.id().cmp(&b.node.id()))
    });
    all.truncate(k);
    for scored in &mut all {
        apply_order(&mut scored.node);
    }
    (all, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::{parse_timestamp, Column, TableBuilder};

    fn mixed_table() -> Table {
        let ts: Vec<_> = (0..12)
            .map(|i| {
                parse_timestamp(&format!(
                    "2015-{:02}-{:02} {:02}:00",
                    i % 12 + 1,
                    i % 28 + 1,
                    (i * 3) % 24
                ))
                .unwrap()
            })
            .collect();
        TableBuilder::new("t")
            .text(
                "carrier",
                [
                    "UA", "AA", "UA", "MQ", "OO", "AA", "UA", "MQ", "OO", "UA", "AA", "MQ",
                ],
            )
            .numeric(
                "delay",
                [5.0, 3.0, -1.0, 2.0, 9.0, 4.0, 1.0, 7.0, 6.0, 2.0, 3.0, 8.0],
            )
            .numeric(
                "passengers",
                [
                    10.0, 30.0, 20.0, 25.0, 40.0, 35.0, 15.0, 22.0, 28.0, 12.0, 33.0, 27.0,
                ],
            )
            .column(Column::temporal("scheduled", ts))
            .build()
            .unwrap()
    }

    #[test]
    fn small_k_skips_leaves() {
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let selector = ProgressiveSelector::new(&t, &udfs);
        let (top, stats) = selector.top_k(1);
        assert_eq!(top.len(), 1);
        assert!(stats.leaves_materialized <= stats.leaves_total, "{stats:?}");
        // Exhaustive materializes everything.
        let (_, exh_stats) = exhaustive_top_k(&t, &udfs, 1);
        assert_eq!(exh_stats.leaves_materialized, exh_stats.leaves_total);
        assert!(stats.nodes_generated <= exh_stats.nodes_generated);
    }

    #[test]
    fn shared_scans_fewer_than_nodes() {
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let (_, stats) = exhaustive_top_k(&t, &udfs, 100);
        assert!(stats.shared_scans > 0);
        assert!(
            stats.shared_scans * 2 < stats.nodes_generated,
            "shared scans {} should amortize over nodes {}",
            stats.shared_scans,
            stats.nodes_generated
        );
    }

    #[test]
    fn shared_scan_matches_direct_execution() {
        // Every progressive node's data must equal executing its query.
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let (top, _) = exhaustive_top_k(&t, &udfs, 1000);
        assert!(!top.is_empty());
        for scored in &top {
            let direct = deepeye_query::execute_with(&t, &scored.node.query, &udfs)
                .expect("progressive produced an executable query");
            assert_eq!(
                scored.node.data.series, direct.series,
                "mismatch for {:?}",
                scored.node.query
            );
        }
    }

    #[test]
    fn results_are_ordered_and_bounded() {
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let (top, _) = ProgressiveSelector::new(&t, &udfs).top_k(8);
        assert!(top.len() <= 8);
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for s in &top {
            assert!((0.0..=1.0).contains(&s.score), "score {}", s.score);
        }
    }

    #[test]
    fn canonical_candidates_are_unique() {
        let t = mixed_table();
        let cands = canonical_candidates(&t);
        let mut ids: Vec<String> = cands.iter().map(|q| format!("{q:?}")).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(before, ids.len());
        assert!(before > 20, "expected a rich candidate set, got {before}");
    }

    #[test]
    fn huge_k_returns_everything() {
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let (top, stats) = ProgressiveSelector::new(&t, &udfs).top_k(10_000);
        assert_eq!(top.len(), stats.nodes_generated);
        assert_eq!(stats.leaves_materialized, stats.leaves_total);
        assert_eq!(stats.leaves_pruned, 0);
    }

    #[test]
    fn parallel_stats_merge_equals_sequential() {
        // Satellite: per-worker SelectionStats merged with += must report
        // exactly the totals of a sequential exhaustive run, and the ranked
        // output must be identical.
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let (seq, seq_stats) = exhaustive_top_k(&t, &udfs, 50);
        let (par, par_stats) = exhaustive_top_k_parallel(&t, &udfs, 50);
        assert_eq!(seq_stats, par_stats);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.node.id(), b.node.id());
            assert!((a.score - b.score).abs() < 1e-15);
        }
    }

    #[test]
    fn stats_merge_is_fieldwise_sum() {
        let a = SelectionStats {
            leaves_materialized: 1,
            leaves_pruned: 2,
            leaves_total: 3,
            nodes_generated: 4,
            shared_scans: 5,
        };
        let b = SelectionStats {
            leaves_materialized: 10,
            leaves_pruned: 20,
            leaves_total: 30,
            nodes_generated: 40,
            shared_scans: 50,
        };
        let mut sum = a;
        sum += b;
        assert_eq!(
            sum,
            SelectionStats {
                leaves_materialized: 11,
                leaves_pruned: 22,
                leaves_total: 33,
                nodes_generated: 44,
                shared_scans: 55,
            }
        );
        let mut via_merge = a;
        via_merge.merge(&b);
        assert_eq!(sum, via_merge);
    }

    #[test]
    fn leaf_accounting_is_exact() {
        // Golden test: materialized + pruned must equal the leaves the
        // exhaustive path enumerates — which is the number of distinct
        // x-columns in the canonical candidate set. Nothing is silently
        // dropped or double-counted, at any k.
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let expected_leaves: std::collections::HashSet<String> = canonical_candidates(&t)
            .iter()
            .map(|q| q.x.clone())
            .collect();
        let (_, exh_stats) = exhaustive_top_k(&t, &udfs, 1);
        assert_eq!(exh_stats.leaves_total, expected_leaves.len());
        let selector = ProgressiveSelector::new(&t, &udfs);
        for k in [1usize, 2, 3, 5, 10, 100, 10_000] {
            let (_, stats) = selector.top_k(k);
            assert_eq!(
                stats.leaves_materialized + stats.leaves_pruned,
                stats.leaves_total,
                "k={k}: {stats:?}"
            );
            assert_eq!(stats.leaves_total, exh_stats.leaves_total, "k={k}");
        }
        // Small k on a wide table must actually prune something.
        let (_, stats) = selector.top_k(1);
        assert!(stats.leaves_pruned > 0, "{stats:?}");
    }

    #[test]
    fn observed_top_k_counters_match_stats() {
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let obs = deepeye_obs::Observer::enabled();
        let selector = ProgressiveSelector::new(&t, &udfs);
        let (top, stats) = selector.top_k_observed(3, &obs);
        let (plain, plain_stats) = selector.top_k(3);
        assert_eq!(top.len(), plain.len());
        assert_eq!(stats, plain_stats);
        assert_eq!(
            obs.counter("progressive.leaves_materialized"),
            stats.leaves_materialized as u64
        );
        assert_eq!(
            obs.counter("progressive.leaves_pruned"),
            stats.leaves_pruned as u64
        );
        assert_eq!(
            obs.counter("progressive.leaves_total"),
            stats.leaves_total as u64
        );
        assert_eq!(
            obs.counter("progressive.nodes_generated"),
            stats.nodes_generated as u64
        );
        assert_eq!(
            obs.counter("progressive.shared_scans"),
            stats.shared_scans as u64
        );
        let snap = obs.snapshot();
        let leaf_hist = snap.hist("progressive.leaf_ns");
        assert!(leaf_hist.is_some_and(|h| h.count == stats.leaves_materialized as u64));
        assert_eq!(obs.finished_spans().len(), 1);
        assert_eq!(obs.finished_spans()[0].name, "progressive.top_k");
    }
}
