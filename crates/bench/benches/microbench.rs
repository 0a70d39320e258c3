//! Criterion micro-benchmarks for DeepEye's hot paths: search-space
//! enumeration, candidate execution, partial-order scoring (the product
//! scorer and the dominance graph built naive or pruned), progressive vs
//! exhaustive selection, correlation, and the rankers.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deepeye_core::{
    compute_factors, exhaustive_top_k, partial_order_log_scores, rank_by_partial_order,
    DominanceGraph, ProgressiveSelector,
};
use deepeye_datagen::{candidate_nodes, flight_table, PerceptionOracle};
use deepeye_query::{two_column_queries, UdfRegistry};
use std::hint::black_box;

fn bench_enumeration(c: &mut Criterion) {
    let table = flight_table(1, 1_000);
    c.bench_function("enumerate/two_column_space_m6", |b| {
        b.iter(|| black_box(two_column_queries(&table).count()))
    });
    c.bench_function("enumerate/rule_based_m6", |b| {
        b.iter(|| black_box(deepeye_core::rules::rule_based_queries(&table).len()))
    });
}

fn bench_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidates");
    group.sample_size(10);
    for rows in [500usize, 2_000] {
        let table = flight_table(2, rows);
        group.bench_with_input(BenchmarkId::new("rule_based", rows), &table, |b, t| {
            b.iter(|| black_box(candidate_nodes(t).len()))
        });
    }
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let table = flight_table(3, 1_000);
    let nodes = candidate_nodes(&table);
    let factors = compute_factors(&nodes);
    let mut group = c.benchmark_group("graph");
    group.bench_function("build_naive", |b| {
        b.iter(|| black_box(DominanceGraph::build_naive(&factors).edge_count()))
    });
    group.bench_function("build_pruned", |b| {
        b.iter(|| black_box(DominanceGraph::build_pruned(&factors).edge_count()))
    });
    let graph = DominanceGraph::build_pruned(&factors);
    group.bench_function("scores", |b| b.iter(|| black_box(graph.log_scores())));
    group.bench_function("partial_order_log_scores", |b| {
        b.iter(|| black_box(partial_order_log_scores(&factors)))
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let table = flight_table(4, 1_500);
    let udfs = UdfRegistry::default();
    let mut group = c.benchmark_group("selection");
    group.sample_size(10);
    group.bench_function("progressive_top5", |b| {
        b.iter(|| black_box(ProgressiveSelector::new(&table, &udfs).top_k(5).0.len()))
    });
    group.bench_function("exhaustive_top5", |b| {
        b.iter(|| black_box(exhaustive_top_k(&table, &udfs, 5).0.len()))
    });
    let nodes = candidate_nodes(&table);
    group.bench_function("partial_order_rank", |b| {
        b.iter(|| black_box(rank_by_partial_order(&nodes).len()))
    });
    group.finish();
}

fn bench_batch_execution(c: &mut Criterion) {
    let table = flight_table(6, 2_000);
    let udfs = UdfRegistry::default();
    let queries: Vec<deepeye_query::VisQuery> = deepeye_core::rules::rule_based_queries(&table);
    let mut group = c.benchmark_group("execute");
    group.sample_size(10);
    group.bench_function("scalar_rule_set", |b| {
        b.iter(|| {
            let ok = queries
                .iter()
                .filter(|q| deepeye_query::execute_with(&table, q, &udfs).is_ok())
                .count();
            black_box(ok)
        })
    });
    group.bench_function("batch_rule_set", |b| {
        b.iter(|| {
            let ok = deepeye_query::execute_batch(&table, &queries, &udfs)
                .into_iter()
                .filter(Result::is_ok)
                .count();
            black_box(ok)
        })
    });
    group.finish();
}

fn bench_oracle_and_correlation(c: &mut Criterion) {
    let table = flight_table(5, 1_000);
    let nodes = candidate_nodes(&table);
    let oracle = PerceptionOracle::default();
    c.bench_function("oracle/score_candidate_set", |b| {
        b.iter(|| {
            let total: f64 = nodes.iter().map(|n| oracle.score(n)).sum();
            black_box(total)
        })
    });
    let xs: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 2.0 * x.ln().max(0.0) + x * 0.01)
        .collect();
    c.bench_function("correlation/four_models_10k", |b| {
        b.iter(|| black_box(deepeye_data::correlation(&xs, &ys)))
    });
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_candidates,
    bench_graph,
    bench_selection,
    bench_batch_execution,
    bench_oracle_and_correlation
);
criterion_main!(benches);
