//! Parallel candidate generation. §VI-D notes that "the task of
//! visualization selection is trivially parallelizable"; this module
//! shards the candidates across scoped std threads (no runtime dependency
//! needed), and each worker builds its share through the shared-scan
//! executor ([`deepeye_query::execute_batch_each`], §V-B optimization 1):
//! one key pass and one aggregation sweep per (x column, transform), then
//! per-candidate materialization and feature extraction.

use crate::node::VisNode;
use deepeye_data::{DataType, Table};
use deepeye_obs::{
    CandidateCost, CostAcc, CostCollector, NoCost, Observer, Op, OpCosts, SpanId, Stopwatch,
};
use deepeye_query::{execute_batch_each, Transform, UdfRegistry, VisQuery};
use std::num::NonZeroUsize;

/// Number of worker threads to use: the available parallelism, capped by
/// the work size (no point spawning more threads than queries).
pub(crate) fn worker_count(work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(work_items).max(1)
}

/// [`build_nodes`] across all cores, unobserved and unprofiled.
pub fn build_nodes_parallel(
    table: &Table,
    queries: Vec<VisQuery>,
    udfs: &UdfRegistry,
    slim: bool,
) -> Vec<VisNode> {
    let (obs, costs) = (Observer::disabled(), CostCollector::disabled());
    build_nodes(table, queries, udfs, slim, true, &obs, None, &costs)
}

/// [`build_nodes`] on the calling thread, observed but unprofiled.
pub fn build_nodes_serial_observed(
    table: &Table,
    queries: Vec<VisQuery>,
    udfs: &UdfRegistry,
    slim: bool,
    obs: &Observer,
    parent: Option<SpanId>,
) -> Vec<VisNode> {
    build_nodes(
        table,
        queries,
        udfs,
        slim,
        false,
        obs,
        parent,
        &CostCollector::disabled(),
    )
}

/// Build visualization nodes for `queries`. Invalid queries are skipped;
/// output order matches input order, and duplicates by node id are
/// dropped keeping the first, at any worker count. `slim` drops each
/// node's series after feature extraction ([`VisNode::slim`]).
///
/// With `parallel`, 32 or more candidates are cut into one contiguous
/// chunk per core; otherwise the whole input is one chunk built on the
/// calling thread. Each chunk runs under an `execute.worker` span
/// parented to `parent` (normally the caller's `pipeline.execute` span —
/// passing it explicitly is what merges worker spans under the right
/// stage across threads) and flushes its observations once: one
/// `exec.query_ns` sample per candidate, the `exec.ok` / `exec.err`
/// counts, and an allocation charge. With `costs` enabled it also
/// records one [`CandidateCost`] per candidate and flushes the `cost.*`
/// counters inside its span, so those counters equal the collector's
/// totals by construction.
#[allow(clippy::too_many_arguments)]
pub fn build_nodes(
    table: &Table,
    queries: Vec<VisQuery>,
    udfs: &UdfRegistry,
    slim: bool,
    parallel: bool,
    obs: &Observer,
    parent: Option<SpanId>,
    costs: &CostCollector,
) -> Vec<VisNode> {
    let workers = if parallel && queries.len() >= 32 {
        worker_count(queries.len())
    } else {
        1
    };
    let per_chunk: Vec<Vec<VisNode>> = if workers == 1 {
        vec![build_worker(
            table, &queries, udfs, slim, obs, parent, costs,
        )]
    } else {
        let chunk = queries.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|chunk| {
                    let (obs, costs) = (obs.clone(), costs.clone());
                    scope
                        .spawn(move || build_worker(table, chunk, udfs, slim, &obs, parent, &costs))
                })
                .collect();
            // A panicked worker contributes no nodes; the panic itself is
            // surfaced by the runtime on stderr.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        })
    };
    let mut seen = std::collections::HashSet::new();
    per_chunk
        .into_iter()
        .flatten()
        .filter(|node| seen.insert(node.id()))
        .collect()
}

/// One worker: its chunk under an `execute.worker` span, with
/// per-candidate operator counts only when `costs` is enabled.
fn build_worker(
    table: &Table,
    chunk: &[VisQuery],
    udfs: &UdfRegistry,
    slim: bool,
    obs: &Observer,
    parent: Option<SpanId>,
    costs: &CostCollector,
) -> Vec<VisNode> {
    let _worker = obs.span_under("execute.worker", parent);
    if !costs.is_enabled() {
        return build_chunk(
            table,
            chunk,
            udfs,
            slim,
            obs,
            &mut vec![NoCost; chunk.len()],
        );
    }
    let mut per_query = vec![OpCosts::default(); chunk.len()];
    let nodes = build_chunk(table, chunk, udfs, slim, obs, &mut per_query);
    let mut total = OpCosts::default();
    for c in &per_query {
        total.merge(c);
    }
    flush_cost_counters(obs, &total);
    costs.record_worker(
        chunk
            .iter()
            .zip(per_query)
            .map(|(q, costs)| CandidateCost {
                id: crate::provenance::query_id(q),
                chart: q.chart.name().to_owned(),
                transform: transform_label(&q.transform).to_owned(),
                signature: pair_signature(table, q),
                builds: 1,
                costs,
            })
            .collect(),
    );
    nodes
}

/// The chunk body, for every build: runs `chunk` through the shared-scan
/// executor and builds each chart's node. When the observer is enabled,
/// a candidate's `exec.query_ns` sample is the gap between the
/// executor's emissions: its sema check, materialization and feature
/// extraction, plus — for the first valid candidate of each
/// (x, transform) group — the group's shared scan, the same candidate
/// its operator counts land on.
fn build_chunk<C: CostAcc>(
    table: &Table,
    chunk: &[VisQuery],
    udfs: &UdfRegistry,
    slim: bool,
    obs: &Observer,
    costs: &mut [C],
) -> Vec<VisNode> {
    let obs_on = obs.is_enabled();
    let mut latencies = Vec::with_capacity(if obs_on { chunk.len() } else { 0 });
    let mut lap = obs_on.then(Stopwatch::start);
    let mut built: Vec<Option<VisNode>> = vec![None; chunk.len()];
    execute_batch_each(table, chunk, udfs, costs, |i, result| {
        if let Ok(data) = result {
            let mut node = VisNode::from_chart(table, chunk[i].clone(), data);
            if slim {
                node.slim();
            }
            built[i] = Some(node);
        }
        if let Some(lap) = &mut lap {
            latencies.push(lap.elapsed_ns());
            *lap = Stopwatch::start();
        }
    });
    let nodes: Vec<VisNode> = built.into_iter().flatten().collect();
    if obs_on {
        let ok = nodes.len() as u64;
        obs.record_many_ns("exec.query_ns", &latencies);
        obs.incr("exec.ok", ok);
        obs.incr("exec.err", (chunk.len() as u64).saturating_sub(ok));
        // One batched charge per chunk, attributed to this worker's span.
        obs.alloc_many(ok, nodes.iter().map(VisNode::approx_heap_bytes).sum());
    }
    nodes
}

/// Flush one worker chunk's operator totals into the metric registry's
/// `cost.*` counters — called inside the worker's `execute.worker` span,
/// which is what makes the snapshot counters equal the worker stage
/// totals (the cost document's exactness invariant).
fn flush_cost_counters(obs: &Observer, total: &OpCosts) {
    if !obs.is_enabled() {
        return;
    }
    obs.incr("cost.rows_scanned", total.get(Op::RowsScanned));
    obs.incr("cost.bin_computations", total.get(Op::BinComputations));
    obs.incr("cost.group_probes", total.get(Op::GroupProbes));
    obs.incr("cost.group_inserts", total.get(Op::GroupInserts));
    obs.incr("cost.agg_updates", total.get(Op::AggUpdates));
    obs.incr("cost.sort_comparisons", total.get(Op::SortComparisons));
    obs.incr("cost.output_rows", total.get(Op::OutputRows));
}

/// The transform bucket a candidate rolls up under.
fn transform_label(t: &Transform) -> &'static str {
    match t {
        Transform::None => "none",
        Transform::Group => "group",
        Transform::Bin(_) => "bin",
    }
}

/// The column-pair type signature a candidate rolls up under, e.g.
/// `categorical*numerical`; one-column queries use the single type name.
fn pair_signature(table: &Table, q: &VisQuery) -> String {
    let type_of = |name: &str| {
        table
            .column_by_name(name)
            .map(|c| match c.data_type() {
                DataType::Categorical => "categorical",
                DataType::Numerical => "numerical",
                DataType::Temporal => "temporal",
            })
            .unwrap_or("unknown")
    };
    match &q.y {
        Some(y) => format!("{}*{}", type_of(&q.x), type_of(y)),
        None => type_of(&q.x).to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule_based_queries;
    use deepeye_data::{parse_timestamp, Column, ColumnData, TableBuilder};

    fn table() -> Table {
        let n = 400;
        TableBuilder::new("t")
            .text("cat", (0..n).map(|i| format!("c{}", i % 7)))
            .numeric("a", (0..n).map(|i| (i as f64 * 0.37).sin() * 10.0))
            .numeric("b", (0..n).map(|i| i as f64))
            .numeric("c", (0..n).map(|i| i as f64 * 2.0 + 1.0))
            .build()
            .unwrap()
    }

    /// Categorical, numeric and temporal columns, each with null cells.
    fn mixed_table() -> Table {
        let n = 120;
        let null_every = |k: usize, i: usize| i % k == 1;
        TableBuilder::new("m")
            .column(Column::new(
                "cat",
                ColumnData::Text(
                    (0..n)
                        .map(|i| (!null_every(11, i)).then(|| format!("c{}", i % 5)))
                        .collect(),
                ),
            ))
            .column(Column::new(
                "num",
                ColumnData::Numeric(
                    (0..n)
                        .map(|i| (!null_every(7, i)).then(|| ((i * 37) % 23) as f64 - 6.5))
                        .collect(),
                ),
            ))
            .column(Column::new(
                "when",
                ColumnData::Temporal(
                    (0..n)
                        .map(|i| {
                            (!null_every(13, i)).then(|| {
                                parse_timestamp(&format!(
                                    "2015-{:02}-{:02} {:02}:15",
                                    i % 12 + 1,
                                    i % 28 + 1,
                                    (i * 5) % 24
                                ))
                                .unwrap()
                            })
                        })
                        .collect(),
                ),
            ))
            .build()
            .unwrap()
    }

    fn plain(table: &Table, queries: Vec<VisQuery>, parallel: bool) -> Vec<VisNode> {
        let (obs, costs) = (Observer::disabled(), CostCollector::disabled());
        let udfs = UdfRegistry::default();
        build_nodes(table, queries, &udfs, false, parallel, &obs, None, &costs)
    }

    /// The scalar reference: per-query [`VisNode::build`], deduplicated.
    fn reference(table: &Table, queries: &[VisQuery]) -> Vec<VisNode> {
        let udfs = UdfRegistry::default();
        let mut seen = std::collections::HashSet::new();
        queries
            .iter()
            .filter_map(|q| VisNode::build(table, q.clone(), &udfs).ok())
            .filter(|node| seen.insert(node.id()))
            .collect()
    }

    #[test]
    fn parallel_equals_serial() {
        let t = mixed_table();
        let udfs = UdfRegistry::default();
        let spaces = [
            rule_based_queries(&t),
            deepeye_query::valid_queries(&t, &udfs).collect(),
        ];
        for queries in spaces {
            let want = reference(&t, &queries);
            assert!(want.len() >= 32, "the parallel path must engage");
            for parallel in [false, true] {
                let got = plain(&t, queries.clone(), parallel);
                assert_eq!(got.len(), want.len(), "parallel = {parallel}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.query, b.query);
                    assert_eq!(a.data.series, b.data.series, "{:?}", a.query);
                    assert_eq!(a.features, b.features, "{:?}", a.query);
                }
            }
        }
    }

    #[test]
    fn slim_mode_drops_series() {
        let t = table();
        let udfs = UdfRegistry::default();
        let queries = rule_based_queries(&t);
        let nodes = build_nodes_parallel(&t, queries, &udfs, true);
        assert!(!nodes.is_empty());
        assert!(nodes.iter().all(|n| n.data.series.is_empty()));
        // Features survive slimming.
        assert!(nodes
            .iter()
            .all(|n| n.feature_vector().len() == crate::features::FEATURE_DIM));
    }

    #[test]
    fn small_workloads_fall_back_to_serial() {
        let t = table();
        let udfs = UdfRegistry::default();
        let queries: Vec<VisQuery> = rule_based_queries(&t).into_iter().take(5).collect();
        let nodes = build_nodes_parallel(&t, queries, &udfs, false);
        assert_eq!(nodes.len(), 5);
    }

    #[test]
    fn empty_input() {
        let t = table();
        let udfs = UdfRegistry::default();
        assert!(build_nodes_parallel(&t, Vec::new(), &udfs, false).is_empty());
    }

    #[test]
    fn costed_equals_plain_and_flushes_counters() {
        let t = table();
        let udfs = UdfRegistry::default();
        let queries = rule_based_queries(&t);
        let plain = build_nodes_parallel(&t, queries.clone(), &udfs, false);
        let obs = Observer::enabled();
        let costs = CostCollector::enabled();
        let nodes = build_nodes(&t, queries, &udfs, false, true, &obs, None, &costs);
        assert_eq!(plain.len(), nodes.len());
        for (a, b) in plain.iter().zip(&nodes) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.data.series, b.data.series);
        }
        let report = costs.report();
        assert_eq!(report.candidates.len(), nodes.len());
        assert!(!report.totals.is_zero());
        // Exactness invariant: the registry's cost.* counters (flushed
        // inside the execute.worker spans) equal the collector totals.
        let snap = obs.snapshot();
        for op in Op::ALL {
            assert_eq!(
                snap.counter(op.metric()),
                report.totals.get(op),
                "counter {} must equal the collector total",
                op.metric()
            );
        }
        // The document round-trips through its validator.
        deepeye_obs::validate_cost_json(&report.to_json()).unwrap();
        // Rollup dimensions are populated with real labels.
        assert!(report
            .groups
            .iter()
            .any(|g| g.signature.contains("categorical") || g.signature.contains("numerical")));
    }

    #[test]
    fn repeated_runs_merge_builds_not_candidates() {
        let t = table();
        let udfs = UdfRegistry::default();
        let queries: Vec<VisQuery> = rule_based_queries(&t).into_iter().take(8).collect();
        let costs = CostCollector::enabled();
        for _ in 0..3 {
            let obs = Observer::disabled();
            build_nodes(&t, queries.clone(), &udfs, false, false, &obs, None, &costs);
        }
        let report = costs.report();
        assert_eq!(report.candidates.len(), 8);
        assert_eq!(report.workers.len(), 3);
        assert!(report.candidates.iter().all(|c| c.builds == 3));
        deepeye_obs::validate_cost_json(&report.to_json()).unwrap();
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let t = table();
        let udfs = UdfRegistry::default();
        let costs = CostCollector::disabled();
        let obs = Observer::disabled();
        let nodes = build_nodes(
            &t,
            rule_based_queries(&t),
            &udfs,
            false,
            true,
            &obs,
            None,
            &costs,
        );
        assert!(!nodes.is_empty());
        assert!(costs.report().candidates.is_empty());
    }
}
