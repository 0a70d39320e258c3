//! The progressive top-k selector of §V-B.
//!
//! Instead of materializing every candidate visualization and ranking the
//! lot, the selector keeps one lazy *leaf* per (x column, transform), a
//! finer cut of the paper's per-column `L_c^X` / `L_n^X` / `L_t^X` lists,
//! and runs a tournament: a leaf is only materialized when its optimistic
//! score bound reaches the top of the heap, and materializing a leaf
//! computes **all** of its charts from one shared scan (§V-B optimization
//! 1). A leaf's bound uses no scan of its charts: M ≤ 1, Q = 0 for raw
//! charts, Q = 1 − d/|X| exactly for a GROUP over d distinct keys, Q ≤ 1
//! for a BIN, and the best exact W among its candidates. A GROUP leaf
//! enters the heap with Q ≤ 1 and its column is counted for d only when
//! that loose bound first surfaces, so it goes back with its exact one.
//! Leaves whose bound never surfaces are never counted or scanned at all
//! (optimization 2), and ORDER BY is applied only to the k winners
//! (optimization 3).
//!
//! Scores here are the unnormalized composite `(M + Q + W)/3`: unlike
//! Eq. 5's set-relative normalization this is computable leaf-locally,
//! which is what makes progressive evaluation possible. The tournament is
//! exact for this score and its tie rule: it returns the same top-k, in
//! the same order, as scoring every candidate and sorting by score, then
//! node id ([`exhaustive_top_k`]).

use crate::node::{nodes_from_charts, variant_key, VisNode};
use crate::partial_order::{condensation, raw_match_quality, transform_quality};
use crate::provenance::escape_name;
use crate::rules;
use deepeye_data::{par, Column, DataType, Table};
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

/// Work counters for the efficiency experiments and ablations. A leaf is
/// one (x column, transform) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Leaves actually materialized.
    pub leaves_materialized: usize,
    /// Leaves evicted by their bound: still in the heap unmaterialized when
    /// the tournament filled the top-k (their optimistic bound stayed below
    /// the k-th realized score, so their charts were never computed).
    pub leaves_pruned: usize,
    /// Total leaves ((x column, transform) pairs with any candidate).
    pub leaves_total: usize,
    /// Candidate nodes generated.
    pub nodes_generated: usize,
    /// Table scans performed (one per materialized GROUP or BIN leaf).
    pub shared_scans: usize,
}

impl SelectionStats {
    /// Count a materialized leaf's table scan, if it makes one, and its
    /// charts.
    fn count(&mut self, leaf: &Leaf, charts: &[ScoredNode]) {
        self.shared_scans += usize::from(!leaf.transform.is_none());
        self.nodes_generated += charts.len();
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
#[derive(Debug)]
struct Candidate {
    query: VisQuery,
    /// W(v): sum of participating columns' importance, unnormalized.
    w_raw: f64,
}

/// The candidates of one (x column, transform).
struct Leaf {
    column: usize,
    transform: Transform,
    candidates: Vec<Candidate>,
}

/// Fewest table rows at which the tournament materializes leaves in
/// batches. Below it a leaf's scan costs about what starting and joining a
/// thread does: on 2 vCPUs, batches of two made the tournament up to 28%
/// slower on 300-row tables and up to 13% slower on some 1,200–1,600-row
/// ones; from 2,000 rows it took 0.91–1.03 of its serial time, and
/// 0.80–0.94 on 20,000–50,000-row tables.
const PARALLEL_ROWS: usize = 2_000;

/// The progressive score `(M + Q + W)/3`. Leaf bounds use it too: each
/// operation rounds monotonically, so factors no larger than the bound's
/// never give a larger score.
fn composite(m: f64, q: f64, w: f64) -> f64 {
    (m + q + w) / 3.0
}

/// Heap entry: either an unmaterialized leaf with an optimistic bound or a
/// concrete scored node (`id` is its [`VisNode::id`]). A leaf's bound is
/// [`ProgressiveSelector::bound`] once `counted`, and before that a GROUP
/// leaf's loose one, which takes its Q as 1.
///
/// Entries pop in [`exhaustive_top_k`]'s order: higher score first, then
/// lower node id. A leaf pops before a node whose score equals its bound,
/// because the leaf may hold a chart of that score with a lower id; tied
/// leaves pop in leaf order.
enum Entry {
    Leaf {
        leaf: usize,
        bound: f64,
        counted: bool,
    },
    Node {
        score: f64,
        id: String,
        seq: usize,
    },
}

impl Entry {
    fn value(&self) -> f64 {
        match self {
            Entry::Leaf { bound, .. } => *bound,
            Entry::Node { score, .. } => *score,
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
        // `BinaryHeap` pops the greatest entry.
        self.value()
            .total_cmp(&other.value())
            .then_with(|| match (self, other) {
                (Entry::Leaf { leaf: a, .. }, Entry::Leaf { leaf: b, .. }) => b.cmp(a),
                (Entry::Leaf { .. }, Entry::Node { .. }) => Ordering::Greater,
                (Entry::Node { .. }, Entry::Leaf { .. }) => Ordering::Less,
                (Entry::Node { id: a, .. }, Entry::Node { id: b, .. }) => b.cmp(a),
            })
    }
}

/// Count every leaf that stands at the top of `heap` on its loose bound,
/// putting it back with its exact bound `exact(leaf)`, until the top is a
/// counted leaf, a node, or nothing.
fn count_surfaced(heap: &mut BinaryHeap<Entry>, exact: impl Fn(usize) -> f64) {
    while let Some(mut top) = heap.peek_mut() {
        let Entry::Leaf {
            leaf,
            counted: false,
            ..
        } = *top
        else {
            break;
        };
        *top = Entry::Leaf {
            leaf,
            bound: exact(leaf),
            counted: true,
        };
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

    /// All canonical candidates as leaves, one per (x column, transform)
    /// in order of first appearance, and the max raw W that normalizes
    /// every W.
    fn leaves(&self) -> (Vec<Leaf>, f64) {
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

        let mut leaves: Vec<Leaf> = Vec::new();
        let mut by_column: Vec<Vec<usize>> = vec![Vec::new(); self.table.column_count()];
        let mut max_w: f64 = 0.0;
        for query in queries {
            let mut w_raw = importance.get(&query.x).copied().unwrap_or(0.0);
            if let Some(y) = &query.y {
                if *y != query.x {
                    w_raw += importance.get(y).copied().unwrap_or(0.0);
                }
            }
            max_w = max_w.max(w_raw);
            let Some(column) = self.table.column_index(&query.x) else {
                debug_assert!(false, "candidate references missing column {}", query.x);
                continue;
            };
            let found = by_column[column]
                .iter()
                .copied()
                .find(|&i| leaves[i].transform == query.transform);
            let i = found.unwrap_or_else(|| {
                by_column[column].push(leaves.len());
                leaves.push(Leaf {
                    column,
                    transform: query.transform.clone(),
                    candidates: Vec::new(),
                });
                leaves.len() - 1
            });
            leaves[i].candidates.push(Candidate { query, w_raw });
        }
        (leaves, max_w.max(1e-12))
    }

    /// A leaf's optimistic score, from no scan of its charts. M is at most
    /// 1 for every chart type. Q is 0 for raw charts, at most 1 for a BIN,
    /// and exactly `1 − d/|X|` for a GROUP: its key pass makes one group
    /// per distinct non-null key, which is how [`Column::distinct_count`]
    /// counts. W is the leaf's best exact weight. Q and the score use
    /// [`score_node`](Self::score_node)'s expressions, so rounding never
    /// puts the bound below a score it covers.
    ///
    /// Only a GROUP's Q reads its column, so unless `counted` it is taken
    /// as 1, and the tournament counts the column when the leaf first
    /// surfaces ([`Entry`]). Each operation of [`composite`] rounds
    /// monotonically, so that loose bound is no lower than the exact one.
    fn bound(&self, leaf: &Leaf, max_w: f64, counted: bool) -> f64 {
        let q = match leaf.transform {
            Transform::None => 0.0,
            Transform::Group if counted => condensation(
                self.table
                    .column(leaf.column)
                    .map_or(0, Column::distinct_count),
                self.table.row_count(),
            ),
            Transform::Group | Transform::Bin(_) => 1.0,
        };
        let w_best = leaf
            .candidates
            .iter()
            .map(|c| c.w_raw)
            .fold(0.0f64, f64::max);
        composite(1.0, q, w_best / max_w)
    }

    /// The provenance id of a leaf: `column:<name>|<transform>`, with the
    /// name and the transform written as [`crate::provenance::query_id`]
    /// writes them.
    fn leaf_id(&self, leaf: &Leaf) -> String {
        let name = self.table.column(leaf.column).map_or("?", Column::name);
        format!("column:{}|{:?}", escape_name(name), leaf.transform)
    }

    /// Compute the top-k visualizations progressively, materializing up to
    /// [`par::workers`] leaves at a time on tables of 2,000 rows or more.
    pub fn top_k(&self, k: usize) -> (Vec<ScoredNode>, SelectionStats) {
        self.tournament(
            k,
            &deepeye_obs::Observer::disabled(),
            &crate::provenance::Provenance::disabled(),
            |leaves| self.batch_width(leaves),
            false,
        )
    }

    /// The tournament's batch width: [`par::workers`] over the leaves on a
    /// table of at least [`PARALLEL_ROWS`] rows, and 1 below.
    pub(crate) fn batch_width(&self, leaves: usize) -> usize {
        if self.table.row_count() >= PARALLEL_ROWS {
            par::workers(leaves)
        } else {
            1
        }
    }

    /// [`ProgressiveSelector::top_k`] with batches of at most
    /// `width(leaves)` leaves, counting every GROUP leaf's bound before the
    /// first pop when `count_up_front`.
    ///
    /// It runs under a `progressive.top_k` span, opens one
    /// `progressive.leaf` child span per popped leaf (a batch of leaves is
    /// timed in the span of the leaf that started it), and mirrors the final
    /// [`SelectionStats`] into `progressive.*` counters. With `prov` enabled
    /// it records tournament provenance: a `column:<name>|<transform>`
    /// record per leaf (bound, materialized-or-pruned), a record per
    /// materialized candidate (winner rank or tournament loss), and the
    /// leaf-accounting counts; disabled, no id is formatted.
    ///
    /// When a leaf pops before its charts are ready, the leaves directly
    /// behind it in the heap (up to `width − 1`, stopping at the first node
    /// entry) are popped too, all of them are materialized together through
    /// [`par::map`], and the extra leaves go back into the heap with their
    /// bounds and their charts kept. The heap's order is total (node ids are
    /// unique), so every entry pops in the same sequence at any width, and a
    /// leaf counts in [`SelectionStats`] and provenance only when it pops: a
    /// batch changes when charts are computed, never which are returned. A
    /// kept leaf's charts are ready by its turn, so no unmaterialized leaf
    /// ever stands behind a ready one.
    ///
    /// A leaf on its loose bound is counted whenever it reaches the top,
    /// first thing in a turn or while a batch gathers, and never pops
    /// uncounted. Its loose bound is no lower than its exact one, so the
    /// counted entries pop in the sequence the exact bounds alone give:
    /// counting late changes what is counted, never what pops.
    pub(crate) fn tournament(
        &self,
        k: usize,
        obs: &deepeye_obs::Observer,
        prov: &crate::provenance::Provenance,
        width: impl Fn(usize) -> usize,
        count_up_front: bool,
    ) -> (Vec<ScoredNode>, SelectionStats) {
        use crate::provenance::Outcome;
        let _span = obs.span("progressive.top_k");
        let explaining = prov.is_enabled();
        let (leaves, max_w) = self.leaves();
        let exact = |leaf: usize| self.bound(&leaves[leaf], max_w, true);
        let width = width(leaves.len());
        let mut stats = SelectionStats {
            leaves_total: leaves.len(),
            ..SelectionStats::default()
        };
        let mut heap: BinaryHeap<Entry> = leaves
            .iter()
            .enumerate()
            .map(|(leaf, l)| {
                let counted = count_up_front || l.transform != Transform::Group;
                Entry::Leaf {
                    leaf,
                    bound: self.bound(l, max_w, counted),
                    counted,
                }
            })
            .collect();

        let mut materialized: Vec<ScoredNode> = Vec::new();
        // Charts of leaves materialized ahead of their turn, by leaf.
        let mut ready: Vec<Option<Vec<ScoredNode>>> = leaves.iter().map(|_| None).collect();
        let mut emitted: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        while out.len() < k {
            count_surfaced(&mut heap, exact);
            match heap.pop() {
                None => break,
                Some(Entry::Node { seq, .. }) => {
                    if explaining {
                        emitted.push(seq);
                    }
                    out.push(materialized[seq].clone());
                }
                Some(Entry::Leaf {
                    leaf: index, bound, ..
                }) => {
                    let leaf = &leaves[index];
                    stats.leaves_materialized += 1;
                    if explaining {
                        prov.record(&self.leaf_id(leaf), |e| {
                            e.outcome = Outcome::LeafMaterialized;
                            e.tournament_score = Some(bound);
                            e.notes
                                .push(format!("Leaf bound {bound:.4} surfaced; leaf scanned."));
                        });
                    }
                    let leaf_span = obs.span("progressive.leaf");
                    let nodes = match ready[index].take() {
                        Some(nodes) => nodes,
                        None => {
                            let mut batch = vec![(index, bound)];
                            while batch.len() < width {
                                count_surfaced(&mut heap, exact);
                                let Some(&Entry::Leaf {
                                    leaf: next, bound, ..
                                }) = heap.peek()
                                else {
                                    break;
                                };
                                debug_assert!(ready[next].is_none(), "leaf {next} is ready");
                                heap.pop();
                                batch.push((next, bound));
                            }
                            let mut charts = par::map(&batch, width, |&(i, _)| {
                                self.materialize(&leaves[i], max_w)
                            })
                            .into_iter();
                            let nodes = charts.next().unwrap_or_default();
                            for (&(i, bound), nodes) in batch[1..].iter().zip(charts) {
                                ready[i] = Some(nodes);
                                heap.push(Entry::Leaf {
                                    leaf: i,
                                    bound,
                                    counted: true,
                                });
                            }
                            nodes
                        }
                    };
                    drop(leaf_span);
                    stats.count(leaf, &nodes);
                    debug_assert!(
                        nodes.iter().all(|s| s.score.total_cmp(&bound).is_le()),
                        "a score of leaf {} exceeds its bound {bound}",
                        self.leaf_id(leaf)
                    );
                    for scored in nodes {
                        let seq = materialized.len();
                        heap.push(Entry::Node {
                            score: scored.score,
                            id: scored.node.id(),
                            seq,
                        });
                        materialized.push(scored);
                    }
                }
            }
        }

        // Leaves still in the heap were evicted by their bound: the top-k
        // filled before their optimistic score surfaced, so their charts
        // were never computed (§V-B optimization 2). They are recorded in
        // leaf order, which, unlike the heap's, does not depend on when
        // bounds were counted; each with its exact bound, counted now if
        // the leaf never surfaced.
        let mut pruned: Vec<(usize, Option<f64>)> = heap
            .iter()
            .filter_map(|e| match *e {
                Entry::Leaf {
                    leaf,
                    bound,
                    counted,
                } => Some((leaf, counted.then_some(bound))),
                Entry::Node { .. } => None,
            })
            .collect();
        stats.leaves_pruned = pruned.len();
        if explaining {
            pruned.sort_unstable_by_key(|&(leaf, _)| leaf);
            for (index, bound) in pruned {
                let (leaf, bound) = (&leaves[index], bound.unwrap_or_else(|| exact(index)));
                prov.record_rejected(&self.leaf_id(leaf), Outcome::LeafPruned, |e| {
                    e.tournament_score = Some(bound);
                    e.notes.push(format!(
                        "Bound {bound:.4} never reached the heap top; leaf never scanned."
                    ));
                });
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

    /// Materialize every candidate of one leaf in one `execute_batch`: a
    /// GROUP or BIN leaf is one key pass and aggregation sweep, a raw leaf
    /// executes each chart directly, ORDER BY included. ORDER BY is
    /// cleared on aggregated candidates so only the winners are sorted
    /// (optimization 3); features of text-keyed charts depend on series
    /// order, so this is also what the scores are defined over. The batch
    /// extracts §III's features once per distinct plotted series.
    fn materialize(&self, leaf: &Leaf, max_w: f64) -> Vec<ScoredNode> {
        let raw = leaf.transform.is_none();
        let queries: Vec<VisQuery> = leaf
            .candidates
            .iter()
            .map(|c| VisQuery {
                order: if raw { c.query.order } else { SortOrder::None },
                ..c.query.clone()
            })
            .collect();
        let results = execute_batch(self.table, &queries, self.udfs);
        let (built, executed): (Vec<&Candidate>, Vec<_>) = leaf
            .candidates
            .iter()
            .zip(queries)
            .zip(results)
            .filter_map(|((cand, mut query), result)| {
                query.order = cand.query.order;
                Some((cand, (query, result.ok()?)))
            })
            .unzip();
        built
            .iter()
            .zip(nodes_from_charts(self.table, executed))
            .map(|(cand, node)| self.score_node(node, cand.w_raw, max_w))
            .collect()
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
        ScoredNode {
            score: composite(m, q, w_raw / max_w),
            node,
        }
    }
}

/// All canonical candidate queries of a table: the rule-based space with
/// one canonical ORDER BY per (x, transform, y, aggregate, chart).
pub fn canonical_candidates(table: &Table) -> Vec<VisQuery> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for mut q in rules::rule_based_queries(table) {
        let x_type = table
            .column_by_name(&q.x)
            .map(|c| c.data_type())
            .unwrap_or(DataType::Categorical);
        q.order = match q.transform {
            Transform::None => SortOrder::ByX,
            ref t => canonical_order(rules::transformed_x_type(x_type, t)),
        };
        if seen.insert(variant_key(&q)) {
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
/// sort by score, best first, then by node id. Used by tests and the
/// ablation bench to validate the tournament.
pub fn exhaustive_top_k(
    table: &Table,
    udfs: &UdfRegistry,
    k: usize,
) -> (Vec<ScoredNode>, SelectionStats) {
    let selector = ProgressiveSelector::new(table, udfs);
    let (leaves, max_w) = selector.leaves();
    let mut stats = SelectionStats {
        leaves_total: leaves.len(),
        leaves_materialized: leaves.len(),
        ..SelectionStats::default()
    };
    let mut all = Vec::new();
    for leaf in &leaves {
        let nodes = selector.materialize(leaf, max_w);
        stats.count(leaf, &nodes);
        all.extend(nodes);
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

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::{parse_timestamp, ColumnData, TableBuilder};

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

    /// Grouped categorical and temporal columns with null cells, which
    /// form no group but count in |X|.
    fn nullable_table() -> Table {
        let month = |m: u32| parse_timestamp(&format!("2015-{m:02}-01"));
        let carrier = [
            Some("UA"),
            None,
            Some("AA"),
            Some("UA"),
            None,
            Some("MQ"),
            Some("AA"),
            Some("UA"),
        ];
        TableBuilder::new("nullable")
            .data(
                "carrier",
                ColumnData::Text(carrier.map(|c| c.map(str::to_owned)).to_vec()),
            )
            .data(
                "month",
                ColumnData::Temporal(vec![
                    month(1),
                    month(2),
                    None,
                    month(1),
                    month(3),
                    None,
                    month(2),
                    month(4),
                ]),
            )
            .numeric("delay", [5.0, 3.0, -1.0, 2.0, 9.0, 4.0, 1.0, 7.0])
            .build()
            .unwrap()
    }

    fn one_row_table() -> Table {
        TableBuilder::new("one")
            .text("carrier", ["UA"])
            .numeric("delay", [5.0])
            .numeric("passengers", [10.0])
            .column(Column::temporal(
                "scheduled",
                [parse_timestamp("2015-01-01").unwrap()],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn leaf_bounds_cover_their_scores() {
        // Every realized score is at most its leaf's exact bound, which is
        // at most the bound the leaf enters the heap with, and a GROUP
        // leaf's Q is the exact bound's, bit for bit.
        let udfs = UdfRegistry::default();
        for t in [mixed_table(), nullable_table(), one_row_table()] {
            let selector = ProgressiveSelector::new(&t, &udfs);
            let (leaves, max_w) = selector.leaves();
            let groups = leaves
                .iter()
                .filter(|l| l.transform == Transform::Group)
                .count();
            assert!(groups >= 2, "{}: {groups} GROUP leaves", t.name());
            let mut generated = 0;
            for leaf in &leaves {
                let d = t.column(leaf.column).unwrap().distinct_count();
                let bound = selector.bound(leaf, max_w, true);
                let loose = selector.bound(leaf, max_w, false);
                assert!(bound.total_cmp(&loose).is_le(), "{bound} > {loose}");
                let nodes = selector.materialize(leaf, max_w);
                generated += nodes.len();
                for scored in nodes {
                    assert!(
                        scored.score.total_cmp(&bound).is_le(),
                        "{}: {} scores {} above its leaf's bound {bound}",
                        t.name(),
                        scored.node.id(),
                        scored.score,
                    );
                    if leaf.transform == Transform::Group {
                        assert_eq!(
                            transform_quality(&scored.node).to_bits(),
                            condensation(d, t.row_count()).to_bits(),
                            "{}: {}",
                            t.name(),
                            scored.node.id()
                        );
                    }
                }
            }
            assert!(generated > 0, "{}", t.name());
        }
    }

    fn ids(top: &[ScoredNode]) -> Vec<(String, u64)> {
        top.iter()
            .map(|s| (s.node.id(), s.score.to_bits()))
            .collect()
    }

    /// At each k in `ks` the tournament returns the exhaustive top-k by
    /// node id and score bits, at `top_k`'s own width and at batch widths
    /// 1, 2, 3 and 8, with the same stats at every width.
    fn batch_widths_agree(t: &Table, ks: impl IntoIterator<Item = usize>) {
        let udfs = UdfRegistry::default();
        let selector = ProgressiveSelector::new(t, &udfs);
        let (obs, prov) = (
            deepeye_obs::Observer::disabled(),
            crate::provenance::Provenance::disabled(),
        );
        let (everything, _) = exhaustive_top_k(t, &udfs, usize::MAX);
        for k in ks {
            let want = ids(&everything[..k.min(everything.len())]);
            let (top, serial) = selector.top_k(k);
            assert_eq!(ids(&top), want, "{} at k = {k}", t.name());
            for width in [1, 2, 3, 8] {
                let (top, stats) = selector.tournament(k, &obs, &prov, |_| width, false);
                assert_eq!(ids(&top), want, "{} at k = {k}, width {width}", t.name());
                assert_eq!(stats, serial, "{} at k = {k}, width {width}", t.name());
            }
        }
    }

    #[test]
    fn every_batch_width_returns_the_exhaustive_top_k() {
        let udfs = UdfRegistry::default();
        for t in [mixed_table(), nullable_table(), one_row_table()] {
            let (everything, _) = exhaustive_top_k(&t, &udfs, usize::MAX);
            batch_widths_agree(&t, 0..=everything.len() + 1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn every_batch_width_returns_the_exhaustive_top_k_of_generated_csv(
            text in crate::csv_text::csv_text()
        ) {
            if let Ok(t) = deepeye_data::table_from_csv_str("generated", &text) {
                batch_widths_agree(&t, [0, 1, 3, 10, usize::MAX]);
            }
        }
    }

    /// What a tournament decides: its top-k by node id and score bits,
    /// its stats, and each provenance record's id, outcome and tournament
    /// score bits, in log order.
    type Decisions = (
        Vec<(String, u64)>,
        SelectionStats,
        Vec<(String, String, Option<u64>)>,
    );

    fn decisions(
        selector: &ProgressiveSelector,
        k: usize,
        width: usize,
        count_up_front: bool,
    ) -> Decisions {
        let prov = crate::provenance::Provenance::enabled();
        let obs = deepeye_obs::Observer::disabled();
        let (top, stats) = selector.tournament(k, &obs, &prov, |_| width, count_up_front);
        let records = prov.snapshot().records.into_iter().map(|e| {
            let outcome = format!("{:?}", e.outcome);
            (e.id, outcome, e.tournament_score.map(f64::to_bits))
        });
        (ids(&top), stats, records.collect())
    }

    /// At each k in `ks` and batch widths 1, 2, 3 and 8, GROUP bounds
    /// counted when their leaves surface decide what bounds counted before
    /// the first pop do.
    fn lazy_bounds_agree(t: &Table, ks: impl IntoIterator<Item = usize>) {
        let udfs = UdfRegistry::default();
        let selector = ProgressiveSelector::new(t, &udfs);
        for k in ks {
            for width in [1, 2, 3, 8] {
                assert_eq!(
                    decisions(&selector, k, width, false),
                    decisions(&selector, k, width, true),
                    "{} at k = {k}, width {width}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn lazy_bounds_materialize_and_prune_as_bounds_counted_up_front() {
        let udfs = UdfRegistry::default();
        for t in [mixed_table(), nullable_table(), one_row_table()] {
            let (everything, _) = exhaustive_top_k(&t, &udfs, usize::MAX);
            lazy_bounds_agree(&t, 0..=everything.len() + 1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn lazy_bounds_materialize_and_prune_as_bounds_counted_up_front_on_generated_csv(
            text in crate::csv_text::csv_text()
        ) {
            if let Ok(t) = deepeye_data::table_from_csv_str("generated", &text) {
                lazy_bounds_agree(&t, [0, 1, 3, 10, usize::MAX]);
            }
        }
    }

    #[test]
    fn heap_pops_leaves_at_ties_then_nodes_by_id() {
        let node = |score: f64, id: &str| Entry::Node {
            score,
            id: id.to_owned(),
            seq: 0,
        };
        let mut heap = BinaryHeap::from(vec![
            node(0.5, "b"),
            node(0.5, "a"),
            Entry::Leaf {
                leaf: 1,
                bound: 0.5,
                counted: true,
            },
            node(0.6, "z"),
            Entry::Leaf {
                leaf: 0,
                bound: 0.5,
                counted: false,
            },
        ]);
        let mut order = Vec::new();
        while let Some(entry) = heap.pop() {
            order.push(match entry {
                Entry::Leaf { leaf, .. } => format!("leaf {leaf}"),
                Entry::Node { id, .. } => id,
            });
        }
        assert_eq!(order, ["z", "leaf 0", "leaf 1", "a", "b"]);
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
    fn leaf_accounting_is_exact() {
        // Golden test: materialized + pruned must equal the leaves the
        // exhaustive path enumerates — which is the number of distinct
        // (x column, transform) pairs in the canonical candidate set.
        // Nothing is silently dropped or double-counted, at any k.
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let expected_leaves: std::collections::HashSet<(String, Transform)> =
            canonical_candidates(&t)
                .into_iter()
                .map(|q| (q.x, q.transform))
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
        let prov = crate::provenance::Provenance::disabled();
        let width = |leaves| selector.batch_width(leaves);
        let (top, stats) = selector.tournament(3, &obs, &prov, width, false);
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
        // One `progressive.top_k` span, and one `progressive.leaf` child
        // per materialized leaf.
        let spans = obs.finished_spans();
        assert!(stats.leaves_materialized > 0, "{stats:?}");
        assert_eq!(spans.len(), 1 + stats.leaves_materialized);
        assert_eq!(spans[0].name, "progressive.top_k");
        assert_eq!(spans[0].parent, None);
        for leaf in &spans[1..] {
            assert_eq!(leaf.name, "progressive.leaf");
            assert_eq!(leaf.parent, Some(spans[0].id));
        }
    }
}
