//! The shared-scan executor (§V-B optimization 1): "for each column X,
//! when grouping and binning the column, we compute the AGG values on
//! other columns together and avoid binning/grouping multiple times."
//!
//! This is the pipeline's executor: `core::parallel` builds every
//! candidate through it and `core::progressive` materializes every leaf
//! with it. Aggregated queries are grouped by `(x column, transform)`;
//! each group makes one key pass and one aggregation sweep computing CNT
//! plus SUM and non-null count for every numeric y-column its queries
//! aggregate, then materializes each chart from the shared accumulators.
//! Raw (untransformed) queries run through the single-query executor.
//! Every query passes [`crate::sema::check_executable`] first, so each
//! result — chart or error — equals [`crate::execute_with`]'s.

use crate::ast::{Aggregate, Transform, VisQuery};
use crate::bins::{bin_keys, group_keys, Bucketizer, Key, UdfRegistry};
use crate::chart::{ChartData, Series};
use crate::exec::{apply_order, execute_impl, QueryError};
use deepeye_data::{ColumnData, Table};
use deepeye_obs::{CostAcc, NoCost, Op, OpCosts};
use std::collections::HashMap;

/// Execute many queries with shared scans. `results[i]` corresponds to
/// `queries[i]`.
pub fn execute_batch(
    table: &Table,
    queries: &[VisQuery],
    udfs: &UdfRegistry,
) -> Vec<Result<ChartData, QueryError>> {
    // NoCost is zero-sized: the per-query vector allocates nothing and
    // every counter monomorphizes away.
    execute_in_order(table, queries, udfs, &mut vec![NoCost; queries.len()])
}

/// [`execute_batch`], also returning each query's operator counts
/// (aligned with `queries`). A group's shared scan is charged to its
/// first member that passes sema, so the counts sum to exactly the work
/// the batch did.
pub fn execute_batch_costed(
    table: &Table,
    queries: &[VisQuery],
    udfs: &UdfRegistry,
) -> (Vec<Result<ChartData, QueryError>>, Vec<OpCosts>) {
    let mut costs = vec![OpCosts::default(); queries.len()];
    let results = execute_in_order(table, queries, udfs, &mut costs);
    (results, costs)
}

/// The shared-scan executor's results, in input order.
fn execute_in_order<C: CostAcc>(
    table: &Table,
    queries: &[VisQuery],
    udfs: &UdfRegistry,
    costs: &mut [C],
) -> Vec<Result<ChartData, QueryError>> {
    let mut results = Vec::with_capacity(queries.len());
    execute_batch_each(table, queries, udfs, costs, |i, r| results.push((i, r)));
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Whether a query rides a shared scan: GROUP or BIN with an aggregate.
fn shareable(q: &VisQuery) -> bool {
    !matches!(q.transform, Transform::None) && q.aggregate != Aggregate::Raw
}

/// The shared-scan executor. Calls `emit(i, result)` exactly once per
/// `queries[i]`: a group's queries one after another (in input order) at
/// its first member's position, every other query at its own.
///
/// Each query's sema check, materialization and ORDER BY are charged to
/// `costs[i]`; a group's scan is charged to — and runs just before the
/// emission of — its first member that passes sema. A caller timing the
/// gaps between emissions therefore attributes time the way costs are.
pub fn execute_batch_each<C: CostAcc>(
    table: &Table,
    queries: &[VisQuery],
    udfs: &UdfRegistry,
    costs: &mut [C],
    mut emit: impl FnMut(usize, Result<ChartData, QueryError>),
) {
    // Query indices per unit of work, in order of first appearance: one
    // unit per (x, transform) group, one per unshareable query.
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut group_unit: HashMap<(&str, &Transform), usize> = HashMap::new();
    for (i, q) in queries.iter().enumerate() {
        if shareable(q) {
            let u = *group_unit
                .entry((q.x.as_str(), &q.transform))
                .or_insert_with(|| {
                    units.push(Vec::new());
                    units.len() - 1
                });
            units[u].push(i);
        } else {
            units.push(vec![i]);
        }
    }

    for members in &units {
        let first = members[0];
        if !shareable(&queries[first]) {
            emit(
                first,
                execute_impl(table, &queries[first], udfs, &mut costs[first]),
            );
            continue;
        }
        let mut scan: Option<Result<Scan, QueryError>> = None;
        for &i in members {
            let q = &queries[i];
            if let Err(diagnostic) = crate::sema::check_executable(table, q, udfs) {
                emit(i, Err(diagnostic.into_query_error(q)));
                continue;
            }
            let scan =
                scan.get_or_insert_with(|| Scan::run(table, queries, members, udfs, &mut costs[i]));
            emit(
                i,
                match scan {
                    Ok(scan) => scan.materialize(q, &mut costs[i]),
                    Err(e) => Err(e.clone()),
                },
            );
        }
    }
}

/// One shared scan's accumulators, per bucket in first-seen key order:
/// CNT, plus SUM and non-null count for each numeric y-column the
/// group's queries aggregate with SUM or AVG.
struct Scan<'q> {
    keys: Vec<Key>,
    counts: Vec<u64>,
    ys: Vec<&'q str>,
    sums: Vec<Vec<f64>>,
    y_counts: Vec<Vec<u64>>,
}

impl<'q> Scan<'q> {
    /// The key pass and aggregation sweep for the group `members` (same
    /// x and transform; at least one passed sema, so x resolves and the
    /// transform suits it). Y-columns are borrowed, not cloned.
    fn run<C: CostAcc>(
        table: &Table,
        queries: &'q [VisQuery],
        members: &[usize],
        udfs: &UdfRegistry,
        cost: &mut C,
    ) -> Result<Self, QueryError> {
        let q0 = &queries[members[0]];
        let x_col = table
            .column_by_name(&q0.x)
            .ok_or_else(|| QueryError::NoSuchColumn(q0.x.clone()))?;
        let keys = match &q0.transform {
            Transform::Bin(strategy) => {
                let keys = bin_keys(x_col, strategy, udfs)?;
                cost.add(Op::BinComputations, keys.len() as u64);
                keys
            }
            // GROUP: raw queries never reach a scan.
            _ => group_keys(x_col),
        };
        cost.add(Op::RowsScanned, keys.len() as u64);

        let mut ys: Vec<&'q str> = Vec::new();
        let mut y_values: Vec<&[Option<f64>]> = Vec::new();
        for &i in members {
            let q = &queries[i];
            let (Some(y), Aggregate::Sum | Aggregate::Avg) = (&q.y, q.aggregate) else {
                continue;
            };
            if ys.contains(&y.as_str()) {
                continue;
            }
            if let Some(ColumnData::Numeric(v)) = table.column_by_name(y).map(|c| c.data()) {
                ys.push(y);
                y_values.push(v);
            }
        }

        let mut buckets = Bucketizer::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut sums: Vec<Vec<f64>> = vec![Vec::new(); ys.len()];
        let mut y_counts: Vec<Vec<u64>> = vec![Vec::new(); ys.len()];
        for (row, key) in keys.into_iter().enumerate() {
            let Some(key) = key else { continue };
            cost.add(Op::GroupProbes, 1);
            let idx = buckets.index_of(key);
            if idx == counts.len() {
                cost.add(Op::GroupInserts, 1);
                counts.push(0);
                sums.iter_mut().for_each(|s| s.push(0.0));
                y_counts.iter_mut().for_each(|c| c.push(0));
            }
            cost.add(Op::AggUpdates, 1);
            counts[idx] += 1;
            for (yi, vals) in y_values.iter().enumerate() {
                if let Some(v) = vals[row] {
                    cost.add(Op::AggUpdates, 1);
                    sums[yi][idx] += v;
                    y_counts[yi][idx] += 1;
                }
            }
        }
        Ok(Scan {
            keys: buckets.into_keys(),
            counts,
            ys,
            sums,
            y_counts,
        })
    }

    /// One member's chart from the accumulators, ORDER BY applied.
    fn materialize<C: CostAcc>(&self, q: &VisQuery, cost: &mut C) -> Result<ChartData, QueryError> {
        if self.keys.is_empty() {
            return Err(QueryError::EmptyResult);
        }
        let yi =
            q.y.as_deref()
                .and_then(|y| self.ys.iter().position(|n| *n == y));
        let values: Vec<f64> = match (q.aggregate, yi) {
            (Aggregate::Sum, Some(yi)) => self.sums[yi].clone(),
            (Aggregate::Avg, Some(yi)) => self.sums[yi]
                .iter()
                .zip(&self.y_counts[yi])
                .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                .collect(),
            (Aggregate::Cnt, _) => self.counts.iter().map(|&c| c as f64).collect(),
            // Sema admits SUM/AVG only over a numeric y, which the scan
            // accumulated.
            (agg, _) => {
                return Err(QueryError::Invalid(format!(
                    "{} requires a numerical y column",
                    agg.name()
                )))
            }
        };
        let y_label = match &q.y {
            Some(y) => format!("{}({y})", q.aggregate.name()),
            None => format!("CNT({})", q.x),
        };
        let mut series = Series::Keyed(self.keys.iter().cloned().zip(values).collect());
        apply_order(&mut series, q.order, cost);
        cost.add(Op::OutputRows, series.len() as u64);
        Ok(ChartData {
            chart: q.chart,
            x_label: q.x.clone(),
            y_label,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinStrategy, ChartType, SortOrder};
    use crate::exec::{execute_costed, execute_with};
    use deepeye_data::{parse_timestamp, Column, TableBuilder};

    fn table() -> Table {
        let n = 60;
        let ts: Vec<_> = (0..n)
            .map(|i| {
                parse_timestamp(&format!(
                    "2015-{:02}-{:02} {:02}:30",
                    i % 12 + 1,
                    i % 28 + 1,
                    i % 24
                ))
                .unwrap()
            })
            .collect();
        TableBuilder::new("t")
            .column(Column::temporal("when", ts))
            .text("cat", (0..n).map(|i| ["a", "b", "c"][i % 3]))
            .numeric("v", (0..n).map(|i| (i % 13) as f64 - 4.0))
            .numeric("w", (0..n).map(|i| i as f64 * 0.5))
            .build()
            .unwrap()
    }

    /// Sample a diverse query set spanning shareable and raw paths.
    fn queries() -> Vec<VisQuery> {
        let mut out = Vec::new();
        for x in ["cat", "when", "v"] {
            for t in crate::enumerate::all_queries(&table())
                .filter(|q| q.x == x)
                .take(40)
            {
                out.push(t);
            }
        }
        out
    }

    /// Three aggregates of one (x, transform): one shared scan.
    fn sum_avg_cnt() -> Vec<VisQuery> {
        let base = VisQuery {
            chart: ChartType::Bar,
            x: "cat".into(),
            y: Some("w".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Sum,
            order: SortOrder::ByX,
        };
        [Aggregate::Sum, Aggregate::Avg, Aggregate::Cnt]
            .into_iter()
            .map(|aggregate| VisQuery {
                aggregate,
                ..base.clone()
            })
            .collect()
    }

    #[test]
    fn batch_matches_scalar_execution() {
        let t = table();
        let udfs = UdfRegistry::default();
        let qs = queries();
        let batch = execute_batch(&t, &qs, &udfs);
        assert_eq!(batch.len(), qs.len());
        for (q, batch_result) in qs.iter().zip(&batch) {
            assert_eq!(
                batch_result,
                &execute_with(&t, q, &udfs),
                "mismatch for {q:?}"
            );
        }
    }

    #[test]
    fn shared_group_results_consistent() {
        let t = table();
        let results = execute_batch(&t, &sum_avg_cnt(), &UdfRegistry::default());
        let sum = results[0].as_ref().unwrap().series.y_values();
        let avg = results[1].as_ref().unwrap().series.y_values();
        let cnt = results[2].as_ref().unwrap().series.y_values();
        for ((s, a), c) in sum.iter().zip(&avg).zip(&cnt) {
            assert!((s / c - a).abs() < 1e-9, "sum/cnt must equal avg");
        }
    }

    #[test]
    fn invalid_queries_fail_identically() {
        let t = table();
        let udfs = UdfRegistry::default();
        let avg_of_text = VisQuery {
            chart: ChartType::Bar,
            x: "cat".into(),
            y: Some("cat".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Avg,
            order: SortOrder::None,
        };
        let cnt_of_missing = VisQuery {
            y: Some("nope".into()),
            aggregate: Aggregate::Cnt,
            ..avg_of_text.clone()
        };
        let bad = [avg_of_text, cnt_of_missing];
        let results = execute_batch(&t, &bad, &udfs);
        for (q, batch_result) in bad.iter().zip(&results) {
            assert!(batch_result.is_err(), "{q:?} must fail");
            assert_eq!(
                batch_result,
                &execute_with(&t, q, &udfs),
                "mismatch for {q:?}"
            );
        }
        assert_eq!(results[1], Err(QueryError::NoSuchColumn("nope".into())));
    }

    #[test]
    fn temporal_bins_share_scans() {
        let t = table();
        let udfs = UdfRegistry::default();
        let qs: Vec<VisQuery> = [Aggregate::Sum, Aggregate::Avg, Aggregate::Cnt]
            .into_iter()
            .map(|aggregate| VisQuery {
                chart: ChartType::Line,
                x: "when".into(),
                y: Some("v".into()),
                transform: Transform::Bin(BinStrategy::Unit(deepeye_data::TimeUnit::Month)),
                aggregate,
                order: SortOrder::ByX,
            })
            .collect();
        for (q, r) in qs.iter().zip(execute_batch(&t, &qs, &udfs)) {
            assert_eq!(r.unwrap(), execute_with(&t, q, &udfs).unwrap());
        }
    }

    #[test]
    fn empty_input() {
        assert!(execute_batch(&table(), &[], &UdfRegistry::default()).is_empty());
        let (results, costs) = execute_batch_costed(&table(), &[], &UdfRegistry::default());
        assert!(results.is_empty());
        assert!(costs.is_empty());
    }

    #[test]
    fn costed_batch_matches_plain_batch() {
        let t = table();
        let udfs = UdfRegistry::default();
        let qs = queries();
        let plain = execute_batch(&t, &qs, &udfs);
        let (costed, costs) = execute_batch_costed(&t, &qs, &udfs);
        assert_eq!(plain, costed);
        assert_eq!(costs.len(), qs.len());
        assert!(costs.iter().any(|c| !c.is_zero()));
    }

    #[test]
    fn shared_scan_saves_work_versus_scalar() {
        // Three aggregates over the same (x, transform) share one scan:
        // the batch's total work must be strictly below three scalar
        // executions, and the scan must be charged to the first query.
        let t = table();
        let udfs = UdfRegistry::default();
        let qs = sum_avg_cnt();
        let (results, costs) = execute_batch_costed(&t, &qs, &udfs);
        assert!(results.iter().all(Result::is_ok));
        let mut scalar_total = OpCosts::default();
        let mut batch_total = OpCosts::default();
        for (q, c) in qs.iter().zip(&costs) {
            let (out, scalar) = execute_costed(&t, q, &udfs);
            assert!(out.is_ok());
            scalar_total.merge(&scalar);
            batch_total.merge(c);
        }
        // One scan instead of three.
        assert_eq!(batch_total.get(Op::RowsScanned), 60);
        assert_eq!(scalar_total.get(Op::RowsScanned), 180);
        assert!(batch_total.get(Op::GroupProbes) < scalar_total.get(Op::GroupProbes));
        assert!(batch_total.total() < scalar_total.total());
        // The scan lands on the group's first query; every query pays
        // for its own materialization.
        assert_eq!(costs[0].get(Op::RowsScanned), 60);
        for (r, per) in results.iter().zip(&costs) {
            let chart = r.as_ref().unwrap();
            assert_eq!(per.get(Op::OutputRows), chart.series.len() as u64);
        }
        for per in &costs[1..] {
            assert_eq!(per.get(Op::RowsScanned), 0);
            assert_eq!(per.get(Op::GroupProbes), 0);
            assert_eq!(per.get(Op::OutputRows), 3); // a, b, c
        }
    }

    #[test]
    fn scan_is_charged_to_the_first_valid_member() {
        let t = table();
        let mut qs = sum_avg_cnt();
        qs.insert(
            0,
            VisQuery {
                y: Some("nope".into()),
                ..qs[2].clone()
            },
        );
        let (results, costs) = execute_batch_costed(&t, &qs, &UdfRegistry::default());
        assert!(results[0].is_err());
        assert!(costs[0].is_zero(), "a sema rejection does no work");
        assert_eq!(costs[1].get(Op::RowsScanned), 60);
    }

    #[test]
    fn raw_fallback_costs_land_on_the_query() {
        let t = table();
        let udfs = UdfRegistry::default();
        let raw = VisQuery {
            chart: ChartType::Scatter,
            x: "v".into(),
            y: Some("w".into()),
            transform: Transform::None,
            aggregate: Aggregate::Raw,
            order: SortOrder::None,
        };
        let (results, costs) = execute_batch_costed(&t, std::slice::from_ref(&raw), &udfs);
        assert!(results[0].is_ok());
        let (_, scalar) = execute_costed(&t, &raw, &udfs);
        assert_eq!(costs[0], scalar);
    }

    #[test]
    fn emission_follows_groups() {
        // Interleaved groups: each group's members are emitted together,
        // at the position of the group's first member.
        let t = table();
        let a = sum_avg_cnt();
        let b: Vec<VisQuery> = a
            .iter()
            .map(|q| VisQuery {
                transform: Transform::Bin(BinStrategy::Default),
                x: "w".into(),
                y: Some("v".into()),
                ..q.clone()
            })
            .collect();
        let qs = vec![a[0].clone(), b[0].clone(), a[1].clone(), b[1].clone()];
        let mut order = Vec::new();
        execute_batch_each(
            &t,
            &qs,
            &UdfRegistry::default(),
            &mut [NoCost; 4],
            |i, r| {
                assert!(r.is_ok());
                order.push(i);
            },
        );
        assert_eq!(order, vec![0, 2, 1, 3]);
    }
}
