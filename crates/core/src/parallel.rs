//! Parallel candidate generation. §VI-D notes that "the task of
//! visualization selection is trivially parallelizable"; this module cuts
//! the candidates into contiguous chunks and builds them through
//! [`par::map`], and each chunk is built in two phases: the shared-scan
//! executor ([`deepeye_query::execute_batch`], §V-B optimization 1) makes
//! every chart — one key pass and one aggregation sweep per (x column,
//! transform), then per-candidate materialization — and then builds each
//! chart's node, extracting §III's features once per distinct plotted
//! series in the chunk.

use crate::node::{nodes_from_charts, VisNode};
use deepeye_data::{par, Table};
use deepeye_obs::{Observer, SpanId};
use deepeye_query::{execute_batch, UdfRegistry, VisQuery};
use std::collections::HashSet;

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

/// Build visualization nodes for `queries`. Repeated queries are dropped
/// keeping the first, and invalid queries are skipped; output order
/// matches input order at any worker count. `slim` drops each node's
/// series after feature extraction ([`VisNode::slim`]).
///
/// With `parallel`, 32 or more candidates are cut into one contiguous
/// chunk per core, built through [`par::map`] (the calling thread builds
/// one); otherwise the whole input is one chunk built on the calling
/// thread. A panic while building reaches the caller either way. Each
/// chunk runs under an `execute.worker` span parented to `parent`
/// (normally the caller's `pipeline.execute` span — passing it explicitly
/// is what merges worker spans under the right stage across threads), with
/// two child spans that split its time: `execute.charts` (sema, the shared
/// scans, materialization and ORDER BY) and `execute.features` (building
/// the chunk's nodes). Each chunk flushes its `exec.ok` / `exec.err`
/// counts once.
pub fn build_nodes(
    table: &Table,
    queries: Vec<VisQuery>,
    udfs: &UdfRegistry,
    slim: bool,
    parallel: bool,
    obs: &Observer,
    parent: Option<SpanId>,
) -> Vec<VisNode> {
    let queries: Vec<VisQuery> = {
        let mut seen = HashSet::new();
        let first: Vec<bool> = queries.iter().map(|q| seen.insert(q)).collect();
        queries
            .into_iter()
            .zip(first)
            .filter_map(|(q, first)| first.then_some(q))
            .collect()
    };
    let workers = if parallel && queries.len() >= 32 {
        par::workers(queries.len())
    } else {
        1
    };
    let chunks: Vec<&[VisQuery]> = if workers > 1 {
        queries.chunks(queries.len().div_ceil(workers)).collect()
    } else {
        vec![&queries]
    };
    par::map(&chunks, workers, |chunk| {
        build_worker(table, chunk, udfs, slim, obs, parent)
    })
    .into_iter()
    .flatten()
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
        let executed = chunk
            .iter()
            .zip(charts)
            .filter_map(|(q, chart)| Some((q.clone(), chart.ok()?)));
        let mut nodes = nodes_from_charts(table, executed);
        if slim {
            nodes.iter_mut().for_each(VisNode::slim);
        }
        nodes
    };
    if obs.is_enabled() {
        let ok = nodes.len() as u64;
        obs.incr("exec.ok", ok);
        obs.incr("exec.err", (chunk.len() as u64).saturating_sub(ok));
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule_based_queries;
    use deepeye_data::{parse_timestamp, Column, ColumnData, TableBuilder};
    use deepeye_query::{Aggregate, ChartType, SortOrder, Transform};

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

    /// Features are shared only between bit-identical series. These two
    /// charts differ only in `0.0` versus `-0.0`, so they are equal under
    /// `==` (and to `parallel_equals_serial`), but `distinct` counts bits:
    /// each must keep its own features.
    #[test]
    fn reuse_compares_series_bitwise() {
        let t = TableBuilder::new("z")
            .numeric("x", [1.0, 2.0, 3.0])
            .numeric("pos", [0.0, 0.0, 5.0])
            .numeric("neg", [-0.0, 0.0, 5.0])
            .build()
            .unwrap();
        let scatter = |y: &str| VisQuery {
            chart: ChartType::Scatter,
            x: "x".into(),
            y: Some(y.into()),
            transform: Transform::None,
            aggregate: Aggregate::Raw,
            order: SortOrder::None,
        };
        let queries = vec![scatter("pos"), scatter("neg")];
        let got = plain(&t, queries.clone(), false);
        let want = reference(&t, &queries);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].data.series, got[1].data.series);
        assert_ne!(want[0].features.y.distinct, want[1].features.y.distinct);
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.features.y.min.to_bits(), b.features.y.min.to_bits());
            assert_eq!(a.features.y.distinct, b.features.y.distinct);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// On generated CSV text, `build_nodes` at one worker and at
        /// every core builds per-query `VisNode::build`'s nodes, each
        /// feature by its bits, raw charts in every order included.
        #[test]
        fn generated_csv_builds_the_reference_nodes(text in crate::csv_text::csv_text()) {
            let Ok(t) = deepeye_data::table_from_csv_str("generated", &text) else {
                return Ok(());
            };
            let mut queries = rule_based_queries(&t);
            for x in t.columns() {
                for y in t.columns() {
                    for order in SortOrder::ALL {
                        queries.push(VisQuery {
                            chart: ChartType::Line,
                            x: x.name().to_owned(),
                            y: Some(y.name().to_owned()),
                            transform: Transform::None,
                            aggregate: Aggregate::Raw,
                            order,
                        });
                    }
                }
            }
            let want = reference(&t, &queries);
            let bits = |n: &VisNode| n.feature_vector().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for parallel in [false, true] {
                let got = plain(&t, queries.clone(), parallel);
                proptest::prop_assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(&want) {
                    proptest::prop_assert_eq!(&a.query, &b.query);
                    proptest::prop_assert_eq!(bits(a), bits(b), "{:?}", a.query);
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
