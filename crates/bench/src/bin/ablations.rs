//! Ablations beyond the paper: validate the design choices DESIGN.md calls
//! out.
//!
//! 1. Quick-sort partition pruning vs naive O(n²) dominance-graph build
//!    (§IV-C) — comparisons saved and identical output — next to the
//!    product's scorer, `partial_order_log_scores`, on the same factors.
//! 2. Progressive tournament vs exhaustive scoring (§V-B) — leaves
//!    skipped, scans shared, identical top-k.
//! 3. Hybrid α sweep — NDCG as a function of the preference weight.
//! 4. Ranking lenses — DeepEye's perception-based partial order vs a
//!    SeeDB-style deviation ranker on the same perception ground truth
//!    (the paper's §I argument for angle 3 over angle 1).

// Experiment drivers are report scripts: aborting on a broken
// invariant is the right behavior, so the workspace unwrap/panic
// lints are relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_bench::fmt::{f2, TextTable};
use deepeye_bench::ranking::{node_combo_features, train_rankers, valid_nodes};
use deepeye_bench::scale_from_env;
use deepeye_core::graph::order_by_log_scores;
use deepeye_core::{
    compute_factors, exhaustive_top_k, partial_order_log_scores, rank_by_deviation,
    rank_by_partial_order, DeviationMetric, DominanceGraph, HybridRanker, ProgressiveSelector,
};
use deepeye_datagen::{
    build_table, candidate_nodes, dense_relevance, test_specs, PerceptionOracle,
};
use deepeye_ml::ndcg;
use deepeye_obs::Stopwatch;
use deepeye_query::UdfRegistry;

fn main() {
    let scale = scale_from_env();
    let oracle = PerceptionOracle::default();
    println!("== Ablations (scale {scale}) ==");

    // ----- 1. Graph construction pruning -----
    println!(
        "\n-- 1. dominance-graph build: naive vs quick-sort pruning, and the product scorer --"
    );
    let mut t = TextTable::new([
        "dataset",
        "nodes",
        "naive cmp",
        "pruned cmp",
        "saved %",
        "naive",
        "pruned",
        "same edges/top-10",
        "scorer",
        "scorer top-10",
    ]);
    for (i, spec) in test_specs().iter().enumerate().take(6) {
        let table = build_table(&spec.scaled(scale * 0.5));
        let nodes = candidate_nodes(&table);
        let factors = compute_factors(&nodes);
        let t0 = Stopwatch::start();
        let naive = DominanceGraph::build_naive(&factors);
        let naive_time = t0.elapsed();
        let t1 = Stopwatch::start();
        let pruned = DominanceGraph::build_pruned(&factors);
        let pruned_time = t1.elapsed();
        // Edge sets are identical by construction (property-tested); the
        // full ranking can differ at exact ties because log-sum-exp folds
        // edges in a different order, so compare edges and top-10.
        let same_edges = naive.edge_count() == pruned.edge_count();
        let naive_top10 = naive.top_k(10);
        let same_top10 = naive_top10 == pruned.top_k(10);
        let t2 = Stopwatch::start();
        let scores = partial_order_log_scores(&factors);
        let scorer_time = t2.elapsed();
        let scorer_top10 =
            order_by_log_scores(&factors, &scores)[..naive_top10.len()] == naive_top10;
        let saved = 100.0 * (1.0 - pruned.comparisons() as f64 / naive.comparisons().max(1) as f64);
        t.row([
            format!("X{}", i + 1),
            factors.len().to_string(),
            naive.comparisons().to_string(),
            pruned.comparisons().to_string(),
            format!("{saved:.0}"),
            format!("{}us", naive_time.as_micros()),
            format!("{}us", pruned_time.as_micros()),
            format!("{same_edges}/{same_top10}"),
            format!("{}us", scorer_time.as_micros()),
            scorer_top10.to_string(),
        ]);
    }
    t.print();

    // ----- 2. Progressive vs exhaustive selection -----
    println!("\n-- 2. progressive tournament vs exhaustive scoring (k = 5) --");
    let udfs = UdfRegistry::default();
    let mut t = TextTable::new([
        "dataset",
        "leaves used/total",
        "nodes generated (prog)",
        "nodes generated (exh)",
        "shared scans",
        "same top-k",
    ]);
    for (i, spec) in test_specs().iter().enumerate().take(6) {
        let table = build_table(&spec.scaled(scale * 0.5));
        let selector = ProgressiveSelector::new(&table, &udfs);
        let (prog, ps) = selector.top_k(5);
        let (exh, es) = exhaustive_top_k(&table, &udfs, 5);
        let same = prog
            .iter()
            .zip(&exh)
            .all(|(a, b)| (a.score - b.score).abs() < 1e-12);
        t.row([
            format!("X{}", i + 1),
            format!("{}/{}", ps.leaves_materialized, ps.leaves_total),
            ps.nodes_generated.to_string(),
            es.nodes_generated.to_string(),
            ps.shared_scans.to_string(),
            same.to_string(),
        ]);
    }
    t.print();

    // ----- 3. Hybrid α sweep (same pipeline as Figure 11) -----
    println!("\n-- 3. hybrid α sweep (mean NDCG over X1–X6) --");
    let trained = train_rankers((scale * 0.3).max(0.01), &oracle);
    let eval: Vec<(Vec<usize>, Vec<usize>, Vec<f64>)> = test_specs()
        .iter()
        .take(6)
        .map(|spec| {
            let table = build_table(&spec.scaled(scale * 0.5));
            let nodes = valid_nodes(&table, &trained.recognizer);
            let feats = node_combo_features(&table, &nodes);
            let rel = dense_relevance(&nodes, &oracle);
            (
                trained.ltr.rank_features(&feats),
                rank_by_partial_order(&nodes),
                rel,
            )
        })
        .collect();
    let mut t = TextTable::new(["alpha", "mean NDCG"]);
    for alpha in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 1e6] {
        let h = HybridRanker::new(alpha);
        let mean: f64 = eval
            .iter()
            .map(|(l, p, rel)| {
                let combined = h.combine(l, p);
                ndcg(&combined.iter().map(|&i| rel[i]).collect::<Vec<_>>())
            })
            .sum::<f64>()
            / eval.len() as f64;
        let label = if alpha >= 1e6 {
            "inf (pure PO)".to_owned()
        } else {
            format!("{alpha}")
        };
        t.row([label, f2(mean)]);
    }
    t.print();

    // ----- 4. Ranking lenses: perception vs deviation -----
    println!("\n-- 4. ranking lenses: DeepEye partial order vs SeeDB-style deviation --");
    let mut t = TextTable::new([
        "dataset",
        "PO (valid)",
        "deviation (valid)",
        "PO (raw)",
        "deviation (raw)",
    ]);
    for (i, spec) in test_specs().iter().enumerate().take(6) {
        let table = build_table(&spec.scaled(scale * 0.5));
        // Condition A: after DeepEye's recognition filter.
        let valid = valid_nodes(&table, &trained.recognizer);
        let rel_valid = dense_relevance(&valid, &oracle);
        let eval_valid =
            |order: &[usize]| ndcg(&order.iter().map(|&j| rel_valid[j]).collect::<Vec<_>>());
        // Condition B: standalone, over the raw rule-based candidates.
        let raw = candidate_nodes(&table);
        let rel_raw = dense_relevance(&raw, &oracle);
        let eval_raw =
            |order: &[usize]| ndcg(&order.iter().map(|&j| rel_raw[j]).collect::<Vec<_>>());
        t.row([
            format!("X{}", i + 1),
            f2(eval_valid(&rank_by_partial_order(&valid))),
            f2(eval_valid(&rank_by_deviation(
                &valid,
                DeviationMetric::EarthMover,
            ))),
            f2(eval_raw(&rank_by_partial_order(&raw))),
            f2(eval_raw(&rank_by_deviation(
                &raw,
                DeviationMetric::EarthMover,
            ))),
        ]);
    }
    t.print();
    println!(
        "\nFinding (reproduction, not the paper): on this perception oracle,\n\
         deviation-from-uniform is a surprisingly strong single-signal\n\
         heuristic — skew correlates with the oracle's spread / diversity /\n\
         trend components — and it stays competitive even without the\n\
         recognition filter. What it cannot do is make the good/bad\n\
         decision itself (it has no notion of chart/data fit, and scores\n\
         raw scatter clouds not at all), rank within equal-skew groups, or\n\
         explain a choice the way the M/Q/W factors can. The comparison is\n\
         a genuine limitation of perception-oracle evaluation worth noting."
    );
}
