//! Parallel candidate generation. §VI-D notes that "the task of
//! visualization selection is trivially parallelizable"; this module
//! shards the candidates across scoped std threads (no runtime dependency
//! needed), and each worker builds its share in two phases: the
//! shared-scan executor ([`deepeye_query::execute_batch`], §V-B
//! optimization 1) makes every chart — one key pass and one aggregation
//! sweep per (x column, transform), then per-candidate materialization —
//! and then each chart's node is built with its features (§III).

use crate::node::VisNode;
use deepeye_data::Table;
use deepeye_obs::{Observer, SpanId};
use deepeye_query::{execute_batch, UdfRegistry, VisQuery};
use std::num::NonZeroUsize;

/// Number of worker threads to use: the available parallelism, capped by
/// the work size (no point spawning more threads than queries).
pub(crate) fn worker_count(work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(work_items).max(1)
}

/// [`build_nodes`] across all cores, unobserved.
pub fn build_nodes_parallel(
    table: &Table,
    queries: Vec<VisQuery>,
    udfs: &UdfRegistry,
    slim: bool,
) -> Vec<VisNode> {
    let obs = Observer::disabled();
    build_nodes(table, queries, udfs, slim, true, &obs, None)
}

/// [`build_nodes`] on the calling thread, observed.
pub fn build_nodes_serial_observed(
    table: &Table,
    queries: Vec<VisQuery>,
    udfs: &UdfRegistry,
    slim: bool,
    obs: &Observer,
    parent: Option<SpanId>,
) -> Vec<VisNode> {
    build_nodes(table, queries, udfs, slim, false, obs, parent)
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
/// stage across threads), with two child spans that split its time:
/// `execute.charts` (sema, the shared scans, materialization and ORDER
/// BY) and `execute.features` (building each chart's node). Each worker
/// flushes its `exec.ok` / `exec.err` counts and one allocation charge
/// once.
pub fn build_nodes(
    table: &Table,
    queries: Vec<VisQuery>,
    udfs: &UdfRegistry,
    slim: bool,
    parallel: bool,
    obs: &Observer,
    parent: Option<SpanId>,
) -> Vec<VisNode> {
    let workers = if parallel && queries.len() >= 32 {
        worker_count(queries.len())
    } else {
        1
    };
    let per_chunk: Vec<Vec<VisNode>> = if workers == 1 {
        vec![build_worker(table, &queries, udfs, slim, obs, parent)]
    } else {
        let chunk = queries.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|chunk| {
                    let obs = obs.clone();
                    scope.spawn(move || build_worker(table, chunk, udfs, slim, &obs, parent))
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

/// One worker: its chunk's charts, then their nodes, each phase under
/// its own span inside the worker's `execute.worker` span.
fn build_worker(
    table: &Table,
    chunk: &[VisQuery],
    udfs: &UdfRegistry,
    slim: bool,
    obs: &Observer,
    parent: Option<SpanId>,
) -> Vec<VisNode> {
    let _worker = obs.span_under("execute.worker", parent);
    let charts = {
        let _charts = obs.span("execute.charts");
        execute_batch(table, chunk, udfs)
    };
    let nodes: Vec<VisNode> = {
        let _features = obs.span("execute.features");
        chunk
            .iter()
            .zip(charts)
            .filter_map(|(q, chart)| {
                let mut node = VisNode::from_chart(table, q.clone(), chart.ok()?);
                if slim {
                    node.slim();
                }
                Some(node)
            })
            .collect()
    };
    if obs.is_enabled() {
        let ok = nodes.len() as u64;
        obs.incr("exec.ok", ok);
        obs.incr("exec.err", (chunk.len() as u64).saturating_sub(ok));
        // One batched charge per chunk, attributed to this worker's span.
        obs.alloc_many(ok, nodes.iter().map(VisNode::approx_heap_bytes).sum());
    }
    nodes
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
        let udfs = UdfRegistry::default();
        build_nodes(
            table,
            queries,
            &udfs,
            false,
            parallel,
            &Observer::disabled(),
            None,
        )
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
    fn observed_build_equals_plain_and_splits_every_worker() {
        let t = table();
        let udfs = UdfRegistry::default();
        let queries = rule_based_queries(&t);
        assert!(queries.len() >= 32, "the parallel path must engage");
        let want = build_nodes_parallel(&t, queries.clone(), &udfs, false);
        for parallel in [false, true] {
            let obs = Observer::enabled();
            let nodes = build_nodes(&t, queries.clone(), &udfs, false, parallel, &obs, None);
            assert_eq!(nodes.len(), want.len());
            for (a, b) in nodes.iter().zip(&want) {
                assert_eq!(a.id(), b.id());
                assert_eq!(a.data.series, b.data.series);
            }
            // Each worker closes exactly one span per phase.
            let workers = obs.stage_count("execute.worker");
            assert!(workers >= 1);
            assert_eq!(obs.stage_count("execute.charts"), workers);
            assert_eq!(obs.stage_count("execute.features"), workers);
            assert_eq!(obs.counter("exec.ok"), nodes.len() as u64);
        }
    }
}
