//! Property-based tests for the core ranking machinery.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_core::{
    compute_factors, partial_order_log_scores, DominanceGraph, Factors, HybridRanker,
};
use proptest::prelude::*;

fn factor_strategy() -> impl Strategy<Value = Factors> {
    (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(m, q, w)| Factors { m, q, w })
}

fn factors_vec(max: usize) -> impl Strategy<Value = Vec<Factors>> {
    proptest::collection::vec(factor_strategy(), 0..max)
}

/// One factor on a coarse grid, so that ties are common, then moved one
/// ulp up or down or, at zero, given either sign.
fn near_tie_coordinate() -> impl Strategy<Value = f64> {
    (0u32..=3, 0u32..4).prop_map(|(grid, nudge)| {
        let x = f64::from(grid) / 3.0;
        match nudge {
            0 => x,
            1 => x.next_up(),
            _ if x == 0.0 => -0.0,
            2 => x.next_down(),
            _ => x,
        }
    })
}

/// A factor cloud with the inputs that order-sensitive scorers get wrong:
/// triples one ulp apart (whose factor sums may round equal), −0.0 next
/// to 0.0, and exact duplicates.
fn near_tie_cloud(max: usize) -> impl Strategy<Value = Vec<Factors>> {
    let triple = (
        near_tie_coordinate(),
        near_tie_coordinate(),
        near_tie_coordinate(),
    )
        .prop_map(|(m, q, w)| Factors { m, q, w });
    (
        proptest::collection::vec(triple, 1..max),
        proptest::collection::vec(0usize..1_000, 0..max / 4),
    )
        .prop_map(|(mut cloud, copies)| {
            for c in copies {
                cloud.push(cloud[c % cloud.len()]);
            }
            cloud
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dominance is a partial order: reflexive (⪰), antisymmetric on ≻,
    /// transitive — for ⪰ on every generated triple, for ≻ whenever it
    /// holds pairwise.
    #[test]
    fn dominance_axioms(a in factor_strategy(), b in factor_strategy(), c in factor_strategy()) {
        prop_assert!(a.dominates(&a));
        prop_assert!(!a.strictly_dominates(&a));
        prop_assert!(!(a.strictly_dominates(&b) && b.strictly_dominates(&a)));
        if a.dominates(&b) && b.dominates(&c) {
            prop_assert!(a.dominates(&c));
        }
        if a.strictly_dominates(&b) && b.strictly_dominates(&c) {
            prop_assert!(a.strictly_dominates(&c));
        }
    }

    /// Eq. 9 edge weights are positive on strict dominance and bounded by 1.
    #[test]
    fn edge_weight_bounds(a in factor_strategy(), b in factor_strategy()) {
        if a.strictly_dominates(&b) {
            let w = a.edge_weight(&b);
            prop_assert!(w > 0.0 && w <= 1.0, "w={w}");
        }
    }

    /// Eq. 9 is antisymmetric as a function of its endpoints —
    /// `w(a, b) == -w(b, a)` exactly (the factor differences negate
    /// term-by-term, so no epsilon is needed) — and zero on the diagonal.
    #[test]
    fn edge_weight_antisymmetric(a in factor_strategy(), b in factor_strategy()) {
        prop_assert_eq!(a.edge_weight(&b), -b.edge_weight(&a));
        prop_assert_eq!(a.edge_weight(&a), 0.0);
    }

    /// Pruned and naive graph construction agree exactly on edges and
    /// on the final ranking.
    #[test]
    fn pruned_equals_naive(factors in factors_vec(60)) {
        let naive = DominanceGraph::build_naive(&factors);
        let pruned = DominanceGraph::build_pruned(&factors);
        prop_assert_eq!(naive.edge_count(), pruned.edge_count());
        for u in 0..factors.len() {
            for v in 0..factors.len() {
                prop_assert_eq!(naive.has_edge(u, v), pruned.has_edge(u, v));
            }
        }
        prop_assert_eq!(naive.ranking(), pruned.ranking());
    }

    /// The product scorer computes Algorithm 1's scores: within 1e-9 of
    /// the naive graph's `ln S` on every node, and `-inf` exactly where the
    /// graph has a sink. Scores, not orders, are compared: exact ties may
    /// order differently when the summation order changes.
    #[test]
    fn partial_order_scores_match_naive_graph(factors in near_tie_cloud(60)) {
        let scores = partial_order_log_scores(&factors);
        let naive = DominanceGraph::build_naive(&factors).log_scores();
        prop_assert_eq!(scores.len(), naive.len());
        for (i, (s, r)) in scores.iter().zip(&naive).enumerate() {
            if *s == f64::NEG_INFINITY || *r == f64::NEG_INFINITY {
                prop_assert_eq!(s, r, "node {}: scorer {} vs naive graph {}", i, s, r);
            } else {
                prop_assert!((s - r).abs() < 1e-9, "node {i}: scorer {s} vs naive graph {r}");
            }
        }
    }

    /// The strict-dominance graph is acyclic: scores terminate and every
    /// node gets a finite log-score or -inf.
    #[test]
    fn graph_scores_terminate(factors in factors_vec(60)) {
        let g = DominanceGraph::build_pruned(&factors);
        let scores = g.log_scores();
        prop_assert_eq!(scores.len(), factors.len());
        for s in scores {
            prop_assert!(s == f64::NEG_INFINITY || s.is_finite());
        }
    }

    /// top_k output is a prefix of the full ranking, which is a
    /// permutation.
    #[test]
    fn topk_is_ranking_prefix((factors, k) in (factors_vec(40), 0usize..50)) {
        let g = DominanceGraph::build_pruned(&factors);
        let full = g.ranking();
        let mut sorted = full.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..factors.len()).collect::<Vec<_>>());
        let top = g.top_k(k);
        prop_assert_eq!(top.as_slice(), &full[..k.min(factors.len())]);
    }

    /// A node that strictly dominates another never ranks below it.
    #[test]
    fn dominance_respected_in_ranking(factors in factors_vec(30)) {
        let g = DominanceGraph::build_pruned(&factors);
        let ranking = g.ranking();
        let pos = |i: usize| ranking.iter().position(|&x| x == i).unwrap();
        for u in 0..factors.len() {
            for v in 0..factors.len() {
                if u != v && factors[u].strictly_dominates(&factors[v]) {
                    prop_assert!(
                        pos(u) < pos(v),
                        "dominating node {u} ranked below {v}"
                    );
                }
            }
        }
    }

    /// Hybrid combine is a permutation and matches the extremes: pure LTR
    /// at α=0, pure partial order as α→∞.
    #[test]
    fn hybrid_combine_laws(n in 1usize..30, seed in 0u64..1000) {
        // Two deterministic pseudo-random permutations of 0..n.
        let perm = |s: u64| {
            let mut v: Vec<usize> = (0..n).collect();
            let mut state = s.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for i in (1..n).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v.swap(i, (state as usize) % (i + 1));
            }
            v
        };
        let ltr = perm(seed);
        let po = perm(seed ^ 0xabcdef);
        let combined = HybridRanker::new(1.0).combine(&ltr, &po);
        let mut sorted = combined.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(HybridRanker::new(0.0).combine(&ltr, &po), ltr.clone());
        prop_assert_eq!(HybridRanker::new(1e9).combine(&ltr, &po), po.clone());
    }
}

/// compute_factors on a real node set always yields normalized triples.
#[test]
fn compute_factors_normalized_on_real_nodes() {
    let table = deepeye_data::TableBuilder::new("t")
        .text("cat", ["a", "b", "c", "a", "b", "c", "a", "b"])
        .numeric("v", [1.0, 5.0, 2.0, 4.0, 3.0, 8.0, 2.0, 6.0])
        .numeric("w", [2.0, 10.0, 4.0, 8.0, 6.0, 16.0, 4.0, 12.0])
        .build()
        .unwrap();
    let nodes = deepeye_core::DeepEye::with_defaults().candidates(&table);
    assert!(!nodes.is_empty());
    let factors = compute_factors(&nodes);
    for f in &factors {
        assert!((0.0..=1.0).contains(&f.m));
        assert!((0.0..=1.0).contains(&f.q));
        assert!((0.0..=1.0).contains(&f.w));
    }
    // Normalization attains 1 somewhere for W.
    assert!(factors.iter().any(|f| (f.w - 1.0).abs() < 1e-9));
}
