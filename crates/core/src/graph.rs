//! The partial-order scores of §IV-C and Algorithm 1.
//!
//! Nodes are valid visualizations; a directed edge `u → v` with the weight
//! of Eq. 9 exists when `u ≻ v` (strictly better on the partial order).
//! Scores propagate as `S(v) = Σ_{(v,u)∈E} (w(v,u) + S(u))` and the top-k
//! nodes are those with the largest scores.
//!
//! [`partial_order_log_scores`] is the scorer the product ranks with, at
//! every size: it folds the edges without storing them, once per distinct
//! factor triple, in O(n log n + d²) for d distinct triples among n nodes
//! (O(n²) when every triple is distinct). [`DominanceGraph`]
//! materializes the edge set, naively or with the paper's quick-sort
//! pruning, and is Algorithm 1's reference for tests and the pruning
//! ablation.

use crate::partial_order::Factors;

/// Dominance graph over a set of factor triples.
#[derive(Debug, Clone, PartialEq)]
pub struct DominanceGraph {
    factors: Vec<Factors>,
    /// Out-edges: `edges[u]` lists `(v, weight)` with `u ≻ v`.
    edges: Vec<Vec<(usize, f64)>>,
    /// Number of pairwise factor comparisons performed (for the pruning
    /// ablation bench).
    comparisons: usize,
}

impl DominanceGraph {
    /// Build by comparing every ordered pair — the baseline the paper calls
    /// "expensive to enumerate every node pair".
    pub fn build_naive(factors: &[Factors]) -> Self {
        let n = factors.len();
        let mut edges = vec![Vec::new(); n];
        let mut comparisons = 0;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                comparisons += 1;
                if factors[u].strictly_dominates(&factors[v]) {
                    edges[u].push((v, factors[u].edge_weight(&factors[v])));
                }
            }
        }
        DominanceGraph {
            factors: factors.to_vec(),
            edges,
            comparisons,
        }
    }

    /// Build with the paper's quick-sort-style pruning: pick a pivot `v`,
    /// partition the rest into better (`v^≺`), worse (`v^≻`), and
    /// incomparable; every `(better, worse)` pair is then connected by
    /// transitivity without an explicit comparison.
    pub fn build_pruned(factors: &[Factors]) -> Self {
        let n = factors.len();
        let mut edges = vec![Vec::new(); n];
        let mut comparisons = 0usize;
        let all: Vec<usize> = (0..n).collect();
        partition_recurse(factors, &all, &mut edges, &mut comparisons);
        DominanceGraph {
            factors: factors.to_vec(),
            edges,
            comparisons,
        }
    }

    pub fn len(&self) -> usize {
        self.factors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    pub fn comparisons(&self) -> usize {
        self.comparisons
    }

    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Does the edge `u → v` exist?
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edges[u].iter().any(|&(t, _)| t == v)
    }

    /// The score S(v) of every node: 0 for sinks, otherwise the sum of
    /// `w(v, u) + S(u)` over out-edges. Returned in linear scale; on a
    /// densely dominated set the recurrence grows exponentially with chain
    /// length and may saturate to `+inf` — rank with [`Self::log_scores`]
    /// (which [`Self::top_k`] uses) when that matters.
    pub fn scores(&self) -> Vec<f64> {
        self.log_scores().into_iter().map(f64::exp).collect()
    }

    /// `ln S(v)` for every node (`-inf` for sinks). The log-space
    /// computation keeps the induced ranking exact even where linear S
    /// overflows: `ln Σ (w + S(u)) = logsumexp(logaddexp(ln w, ln S(u)))`.
    pub fn log_scores(&self) -> Vec<f64> {
        let n = self.len();
        let mut memo: Vec<Option<f64>> = vec![None; n];
        // Iterative DFS to avoid recursion depth issues on long chains.
        for start in 0..n {
            if memo[start].is_some() {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                if memo[node].is_some() {
                    stack.pop();
                    continue;
                }
                if *child < self.edges[node].len() {
                    let next = self.edges[node][*child].0;
                    *child += 1;
                    if memo[next].is_none() {
                        stack.push((next, 0));
                    }
                } else {
                    // logsumexp over `ln(w) ⊕ ln S(u)` per edge.
                    let terms: Vec<f64> = self.edges[node]
                        .iter()
                        .map(|&(u, w)| {
                            // Children are resolved before their parents by
                            // the DFS above; an unresolved child contributes
                            // nothing (ln 0).
                            log_add(ln_weight(w), memo[u].unwrap_or(f64::NEG_INFINITY))
                        })
                        .collect();
                    memo[node] = Some(log_sum(&terms));
                    stack.pop();
                }
            }
        }
        memo.into_iter()
            .map(|s| s.unwrap_or(f64::NEG_INFINITY))
            .collect()
    }

    /// Algorithm 1: the indices of the top-k nodes by score, best first,
    /// in the order of [`order_by_log_scores`].
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut order = order_by_log_scores(&self.factors, &self.log_scores());
        order.truncate(k);
        order
    }

    /// Full ranking (top-k with k = n).
    pub fn ranking(&self) -> Vec<usize> {
        self.top_k(self.len())
    }
}

/// Algorithm 1's scores `ln S(v)` for every node (`-inf` for sinks), in
/// O(n log n + d²) time and O(n) memory, where d is the number of distinct
/// factor triples: the dominance edges are folded as they are found, never
/// stored, so the scorer runs at any candidate-set size.
///
/// Nodes are sorted in lexicographic `(m, q, w)` order, which extends
/// strict dominance exactly: if `u ≻ v`, `u` is no smaller on every factor
/// and larger on one, so it sorts after `v`. The order compares the
/// factors themselves, so no rounding can put a dominated node after its
/// dominator (a factor sum can: two triples one ulp apart may tie on it).
///
/// Nodes with the same triple dominate the same nodes, so by Eq. 9 they
/// share one score. Bit-identical triples sit in runs of the order; each
/// run becomes one group with a count c, scored once. A group finds every
/// group it dominates already scored, and folds
/// `ln c_h + logaddexp(ln w(g,h), ln S(h))` over them: c_h equal terms of
/// the per-node sum. Every node then takes its group's score. With every
/// triple distinct (d = n) the fold is the per-node O(n²) one, and
/// ln c = 0 leaves its arithmetic unchanged. The result equals
/// [`DominanceGraph::log_scores`] up to the summation order of each node's
/// terms.
pub fn partial_order_log_scores(factors: &[Factors]) -> Vec<f64> {
    // `+ 0.0` maps −0.0 to 0.0: `>=` treats the two as equal, `total_cmp`
    // does not.
    let key = |i: usize| {
        let f = factors[i];
        [f.m + 0.0, f.q + 0.0, f.w + 0.0]
    };
    let cmp = |a: usize, b: usize| {
        let (ka, kb) = (key(a), key(b));
        ka[0]
            .total_cmp(&kb[0])
            .then(ka[1].total_cmp(&kb[1]))
            .then(ka[2].total_cmp(&kb[2]))
    };
    let mut order: Vec<usize> = (0..factors.len()).collect();
    order.sort_by(|&a, &b| cmp(a, b));
    let mut log_s = vec![f64::NEG_INFINITY; factors.len()];
    // (representative triple, ln c, ln S) per group, in sorted order.
    let mut groups: Vec<(Factors, f64, f64)> = Vec::new();
    for run in order.chunk_by(|&a, &b| cmp(a, b).is_eq()) {
        let fg = factors[run[0]];
        let mut acc = f64::NEG_INFINITY;
        // Only groups earlier in the order can be dominated by g.
        for &(fh, ln_count, log_s_h) in &groups {
            if fg.strictly_dominates(&fh) {
                acc = log_add(
                    acc,
                    ln_count + log_add(ln_weight(fg.edge_weight(&fh)), log_s_h),
                );
            }
        }
        groups.push((fg, (run.len() as f64).ln(), acc));
        for &v in run {
            log_s[v] = acc;
        }
    }
    log_s
}

/// Node count above which the partial-order scorer once left the explicit
/// dominance graph for a streaming fold. Nothing in the product switches on
/// it any more; the end-to-end benchmark still reports how many requests
/// rank more nodes than this.
pub const STREAMING_THRESHOLD: usize = 4_000;

/// Node indices best-first by `ln S`: ties break toward the larger factor
/// sum, then the lower index (deterministic output). The partial-order
/// ranking of the product and of [`DominanceGraph::top_k`].
pub fn order_by_log_scores(factors: &[Factors], log_scores: &[f64]) -> Vec<usize> {
    let sum = |i: usize| factors[i].m + factors[i].q + factors[i].w;
    let mut order: Vec<usize> = (0..factors.len()).collect();
    order.sort_by(|&a, &b| {
        log_scores[b]
            .total_cmp(&log_scores[a])
            .then_with(|| sum(b).total_cmp(&sum(a)))
            .then(a.cmp(&b))
    });
    order
}

/// `ln w` of an Eq. 9 edge weight (`-inf` for a non-positive weight).
fn ln_weight(w: f64) -> f64 {
    if w > 0.0 {
        w.ln()
    } else {
        f64::NEG_INFINITY
    }
}

/// `ln(e^a + e^b)` with proper `-inf` handling.
fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// `ln Σ e^{t_i}`; `-inf` for an empty slice (a sink's S = 0).
fn log_sum(terms: &[f64]) -> f64 {
    terms.iter().copied().fold(f64::NEG_INFINITY, log_add)
}

/// Recursive pivot partitioning. Adds the dominance edges *within* `set`.
fn partition_recurse(
    factors: &[Factors],
    set: &[usize],
    edges: &mut [Vec<(usize, f64)>],
    comparisons: &mut usize,
) {
    if set.len() < 2 {
        return;
    }
    // Brute force tiny sets: the bookkeeping outweighs the savings.
    if set.len() <= 8 {
        for (a, &u) in set.iter().enumerate() {
            for &v in set.iter().skip(a + 1) {
                *comparisons += 1;
                if factors[u].strictly_dominates(&factors[v]) {
                    edges[u].push((v, factors[u].edge_weight(&factors[v])));
                } else if factors[v].strictly_dominates(&factors[u]) {
                    edges[v].push((u, factors[v].edge_weight(&factors[u])));
                }
            }
        }
        return;
    }

    let pivot = set[set.len() / 2];
    let mut better = Vec::new(); // strictly dominate the pivot
    let mut worse = Vec::new(); // strictly dominated by the pivot
    let mut incomparable = Vec::new();
    for &v in set {
        if v == pivot {
            continue;
        }
        *comparisons += 1;
        if factors[v].strictly_dominates(&factors[pivot]) {
            edges[v].push((pivot, factors[v].edge_weight(&factors[pivot])));
            better.push(v);
        } else if factors[pivot].strictly_dominates(&factors[v]) {
            edges[pivot].push((v, factors[pivot].edge_weight(&factors[v])));
            worse.push(v);
        } else {
            incomparable.push(v);
        }
    }

    // Transitivity: every b ∈ better strictly dominates every w ∈ worse —
    // no comparison needed (b ≻ pivot ≻ w). Edge weights still come from
    // the factor difference, which is free to compute.
    for &b in &better {
        for &w in &worse {
            edges[b].push((w, factors[b].edge_weight(&factors[w])));
        }
    }

    // Cross pairs involving the incomparable set are not implied; resolve
    // them explicitly.
    for &i in &incomparable {
        for &other in better.iter().chain(&worse) {
            *comparisons += 1;
            if factors[i].strictly_dominates(&factors[other]) {
                edges[i].push((other, factors[i].edge_weight(&factors[other])));
            } else if factors[other].strictly_dominates(&factors[i]) {
                edges[other].push((i, factors[other].edge_weight(&factors[i])));
            }
        }
    }

    partition_recurse(factors, &better, edges, comparisons);
    partition_recurse(factors, &worse, edges, comparisons);
    partition_recurse(factors, &incomparable, edges, comparisons);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(m: f64, q: f64, w: f64) -> Factors {
        Factors { m, q, w }
    }

    /// The worked Example 5/6 of the paper: five nodes with known factors.
    /// Node order: 1(c), 1(d), 5(b), 5(c), 5(d).
    fn example_nodes() -> Vec<Factors> {
        vec![
            f(1.00, 0.99976, 0.89), // Figure 1(c)
            f(0.00, 0.99633, 0.52), // Figure 1(d)
            f(0.72, 0.99, 0.40),    // Figure 5(b)
            f(0.80, 0.99, 0.40),    // Figure 5(c) — dominates 5(b)
            f(0.30, 0.999, 0.60),   // Figure 5(d) — dominates 1(d)
        ]
    }

    #[test]
    fn example_6_edge_weight() {
        // w(1(c), 1(d)) from the paper: ((1−0) + (0.99976−0.99633) + (0.89−0.52))/3.
        let nodes = example_nodes();
        let w = nodes[0].edge_weight(&nodes[1]);
        assert!((w - 0.4578).abs() < 1e-4, "w={w}");
    }

    #[test]
    fn example_6_scores_and_topk() {
        let nodes = example_nodes();
        let g = DominanceGraph::build_naive(&nodes);
        // 1(c) ≻ 1(d); 5(d) ≻ 1(d); 5(c) ≻ 5(b).
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(4, 1));
        assert!(g.has_edge(3, 2));
        let scores = g.scores();
        // Sinks score zero.
        assert_eq!(scores[1], 0.0);
        assert_eq!(scores[2], 0.0);
        assert!(scores[0] > scores[4] && scores[4] > scores[3]);
        // Top-3 = 1(c), 5(d), 5(c) as in Example 6.
        assert_eq!(g.top_k(3), vec![0, 4, 3]);
    }

    #[test]
    fn pruned_equals_naive() {
        // Deterministic pseudo-random factor clouds of several sizes.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        for n in [3usize, 10, 37, 120] {
            let factors: Vec<Factors> = (0..n).map(|_| f(next(), next(), next())).collect();
            let naive = DominanceGraph::build_naive(&factors);
            let pruned = DominanceGraph::build_pruned(&factors);
            assert_eq!(naive.edge_count(), pruned.edge_count(), "n={n}");
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(
                        naive.has_edge(u, v),
                        pruned.has_edge(u, v),
                        "edge {u}->{v}, n={n}"
                    );
                }
            }
            // Same ranking too.
            assert_eq!(naive.ranking(), pruned.ranking(), "n={n}");
        }
    }

    /// The product scorer against Algorithm 1's reference, node for node.
    fn assert_scorer_matches_naive(factors: &[Factors]) -> Vec<f64> {
        let scores = partial_order_log_scores(factors);
        let naive = DominanceGraph::build_naive(factors).log_scores();
        for (i, (s, r)) in scores.iter().zip(&naive).enumerate() {
            assert!(
                s == r || (s - r).abs() < 1e-12,
                "node {i}: scorer {s} vs naive graph {r}"
            );
        }
        scores
    }

    #[test]
    fn scorer_keeps_edges_between_triples_with_equal_sums() {
        // Two triples from a benchmark table: a ≻ b on m alone, yet their
        // f64 factor sums are equal, so an order by sum cannot put b first.
        let a = f(0.9978454940926381, 0.9965, 0.6497277676950999);
        let b = f(0.9978454940926379, a.q, a.w);
        let c = f(0.5, 0.5, 0.5);
        assert!(a.strictly_dominates(&b));
        assert_eq!(a.m + a.q + a.w, b.m + b.q + b.w);
        // ln S(a) = ln(w(a,b) + S(b) + w(a,c)); dropping the a → b edge
        // gives ln w(a,c) ≈ −0.9640 instead.
        let scores = assert_scorer_matches_naive(&[a, b, c]);
        assert!(
            (scores[0] - -0.2709).abs() < 1e-4,
            "ln S(a) = {}",
            scores[0]
        );
        assert_scorer_matches_naive(&[c, b, a]);
    }

    #[test]
    fn scorer_treats_negative_zero_as_zero() {
        // −0.0 ≥ 0.0 holds, so x ≻ y, although `total_cmp` sorts −0.0
        // before 0.0.
        let x = f(-0.0, 0.5, 0.5);
        let y = f(0.0, 0.4, 0.5);
        let z = f(0.0, 0.1, 0.1);
        assert!(x.strictly_dominates(&y));
        let scores = assert_scorer_matches_naive(&[x, y, z]);
        assert!(scores[0] > scores[1] && scores[1] > scores[2]);
    }

    #[test]
    fn scorer_counts_every_copy_of_a_dominated_triple() {
        // 50 copies of one sink form one group; each is a separate edge, so
        // S(top) = 50 · w(top, sink).
        let top = f(0.9, 0.8, 0.7);
        let sink = f(0.3, 0.2, 0.1);
        let mut factors = vec![sink; 50];
        factors.insert(17, top);
        let scores = assert_scorer_matches_naive(&factors);
        let expected = 50f64.ln() + top.edge_weight(&sink).ln();
        assert!(
            (scores[17] - expected).abs() < 1e-12,
            "ln S(top) = {}, expected {expected}",
            scores[17]
        );
        assert!(scores
            .iter()
            .enumerate()
            .all(|(i, &s)| i == 17 || s == f64::NEG_INFINITY));
    }

    #[test]
    fn pruning_saves_comparisons_on_chains() {
        // A totally ordered chain is the best case for transitivity pruning.
        let factors: Vec<Factors> = (0..200)
            .map(|i| {
                let x = i as f64 / 200.0;
                f(x, x, x)
            })
            .collect();
        let naive = DominanceGraph::build_naive(&factors);
        let pruned = DominanceGraph::build_pruned(&factors);
        assert!(
            pruned.comparisons() * 2 < naive.comparisons(),
            "pruned {} vs naive {}",
            pruned.comparisons(),
            naive.comparisons()
        );
        assert_eq!(naive.edge_count(), pruned.edge_count());
    }

    #[test]
    fn scores_on_chain_accumulate() {
        // a ≻ b ≻ c: S(c)=0, S(b)=w(b,c), S(a)=w(a,b)+S(b)+w(a,c)+S(c).
        let factors = vec![f(1.0, 1.0, 1.0), f(0.5, 0.5, 0.5), f(0.0, 0.0, 0.0)];
        let g = DominanceGraph::build_naive(&factors);
        let s = g.scores();
        assert_eq!(s[2], 0.0);
        assert!((s[1] - 0.5).abs() < 1e-12);
        assert!((s[0] - (0.5 + (0.5 + 0.0) + 1.0)).abs() < 1e-12);
        assert_eq!(g.top_k(2), vec![0, 1]);
    }

    #[test]
    fn incomparable_nodes_tie_break_deterministically() {
        let factors = vec![f(1.0, 0.0, 0.0), f(0.0, 1.0, 0.0), f(0.0, 0.0, 1.0)];
        let g = DominanceGraph::build_naive(&factors);
        assert_eq!(g.edge_count(), 0);
        let order = g.ranking();
        assert_eq!(order, vec![0, 1, 2]); // all tie at S=0, index order
    }

    #[test]
    fn empty_and_singleton() {
        let g = DominanceGraph::build_pruned(&[]);
        assert!(g.is_empty());
        assert!(g.top_k(5).is_empty());
        let g = DominanceGraph::build_pruned(&[f(0.5, 0.5, 0.5)]);
        assert_eq!(g.top_k(5), vec![0]);
        assert_eq!(g.scores(), vec![0.0]);
    }

    #[test]
    fn equal_factors_produce_no_edges() {
        // ⪰ holds both ways but ≻ holds neither: no cycle, no edge.
        let factors = vec![f(0.5, 0.5, 0.5), f(0.5, 0.5, 0.5)];
        let g = DominanceGraph::build_naive(&factors);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let factors: Vec<Factors> = (0..2000)
            .map(|i| {
                let x = i as f64 / 2000.0;
                f(x, x, x)
            })
            .collect();
        let g = DominanceGraph::build_pruned(&factors);
        // Linear S overflows on a 2000-deep transitive chain, but the
        // log-space scores stay finite and the ranking stays exact.
        let log_scores = g.log_scores();
        assert!(log_scores[1..].iter().all(|s| s.is_finite()));
        assert_eq!(log_scores[0], f64::NEG_INFINITY); // the unique sink
        assert_eq!(g.top_k(1), vec![1999]);
        let ranking = g.ranking();
        // Full ranking is the exact reverse chain.
        assert!(ranking.windows(2).all(|w| w[0] > w[1]));
    }
}
