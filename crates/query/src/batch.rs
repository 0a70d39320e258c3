//! The shared-scan executor (§V-B optimization 1): "for each column X,
//! when grouping and binning the column, we compute the AGG values on
//! other columns together and avoid binning/grouping multiple times."
//!
//! This is the one aggregation kernel: `core::parallel` builds every
//! candidate through it, `core::progressive` materializes every leaf with
//! it, and [`crate::execute_with`] runs an aggregated query as a scan of
//! one. Aggregated queries are grouped by `(x column, transform)`; each
//! group maps its rows to dense bucket codes once
//! (`crate::bins::key_codes`), counts CNT over the codes, then sums every
//! numeric y-column its queries aggregate over (codes, y) in row order,
//! and materializes each chart from the shared accumulators. Raw
//! (untransformed) queries run through the single-query executor. Every
//! query passes [`crate::sema::check_executable`] first.

use crate::ast::{Aggregate, Transform, VisQuery};
use crate::bins::{key_codes, Key, KeyCodes, UdfRegistry, NULL_CODE};
use crate::chart::{ChartData, Series};
use crate::exec::{apply_order, execute_with, QueryError};
use deepeye_data::{ColumnData, Table};
use std::collections::HashMap;

/// Whether a query rides a shared scan: GROUP or BIN with an aggregate.
fn shareable(q: &VisQuery) -> bool {
    !matches!(q.transform, Transform::None) && q.aggregate != Aggregate::Raw
}

/// Execute many queries with shared scans. `results[i]` corresponds to
/// `queries[i]`.
pub fn execute_batch(
    table: &Table,
    queries: &[VisQuery],
    udfs: &UdfRegistry,
) -> Vec<Result<ChartData, QueryError>> {
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

    let mut results = Vec::with_capacity(queries.len());
    for members in &units {
        let first = members[0];
        if !shareable(&queries[first]) {
            results.push((first, execute_with(table, &queries[first], udfs)));
            continue;
        }
        // The scan runs once, for the group's first member that passes
        // sema; a member sema rejects fails alone.
        let mut scan: Option<Result<Scan, QueryError>> = None;
        for &i in members {
            let q = &queries[i];
            if let Err(diagnostic) = crate::sema::check_executable(table, q, udfs) {
                results.push((i, Err(diagnostic.into_query_error(q))));
                continue;
            }
            let scan = scan.get_or_insert_with(|| Scan::run(table, queries, members, udfs));
            let result = match scan {
                Ok(scan) => scan.materialize(q),
                Err(e) => Err(e.clone()),
            };
            results.push((i, result));
        }
    }
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// One shared scan's accumulators, per bucket in first-seen key order:
/// CNT, plus SUM and non-null count for each numeric y-column the
/// group's queries aggregate with SUM or AVG.
pub(crate) struct Scan<'q> {
    keys: Vec<Key>,
    counts: Vec<u64>,
    ys: Vec<&'q str>,
    sums: Vec<Vec<f64>>,
    y_counts: Vec<Vec<u64>>,
}

impl<'q> Scan<'q> {
    /// The key codes and aggregation sweeps for the group `members` (same
    /// x and transform; at least one passed sema, so x resolves and the
    /// transform suits it). Y-columns are borrowed, not cloned. Each
    /// bucket's sums take their additions in row order.
    pub(crate) fn run(
        table: &Table,
        queries: &'q [VisQuery],
        members: &[usize],
        udfs: &UdfRegistry,
    ) -> Result<Self, QueryError> {
        let q0 = &queries[members[0]];
        let x_col = table
            .column_by_name(&q0.x)
            .ok_or_else(|| QueryError::NoSuchColumn(q0.x.clone()))?;
        let KeyCodes { codes, keys } = key_codes(x_col, &q0.transform, udfs)?;

        let mut counts = vec![0u64; keys.len()];
        for &code in &codes {
            if code != NULL_CODE {
                counts[code as usize] += 1;
            }
        }
        let mut ys: Vec<&'q str> = Vec::new();
        let mut sums: Vec<Vec<f64>> = Vec::new();
        let mut y_counts: Vec<Vec<u64>> = Vec::new();
        for &i in members {
            let q = &queries[i];
            let (Some(y), Aggregate::Sum | Aggregate::Avg) = (&q.y, q.aggregate) else {
                continue;
            };
            if ys.contains(&y.as_str()) {
                continue;
            }
            let Some(ColumnData::Numeric(vals)) = table.column_by_name(y).map(|c| c.data()) else {
                continue;
            };
            let mut sum = vec![0.0; keys.len()];
            let mut count = vec![0u64; keys.len()];
            for (&code, v) in codes.iter().zip(vals) {
                if let (true, Some(v)) = (code != NULL_CODE, v) {
                    sum[code as usize] += v;
                    count[code as usize] += 1;
                }
            }
            ys.push(y);
            sums.push(sum);
            y_counts.push(count);
        }
        Ok(Scan {
            keys,
            counts,
            ys,
            sums,
            y_counts,
        })
    }

    /// One member's chart from the accumulators, ORDER BY applied.
    pub(crate) fn materialize(&self, q: &VisQuery) -> Result<ChartData, QueryError> {
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
        let mut pairs: Vec<(Key, f64)> = self.keys.iter().cloned().zip(values).collect();
        apply_order(&mut pairs, q.order);
        Ok(ChartData {
            chart: q.chart,
            x_label: q.x.clone(),
            y_label,
            series: Series::Keyed(pairs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinStrategy, ChartType, SortOrder};
    use crate::exec::execute_with;
    use deepeye_data::{parse_timestamp, Column, TableBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
    }

    #[test]
    fn shared_scan_saves_work_versus_scalar() {
        // Three aggregates over the same (x, transform) share one scan:
        // the batch bins the 60 rows once, three scalar executions bin
        // them three times.
        let t = table();
        let calls = Arc::new(AtomicUsize::new(0));
        let mut udfs = UdfRegistry::default();
        let counter = Arc::clone(&calls);
        udfs.register("counted", move |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            Key::Text(if x < 0.0 { "neg" } else { "pos" }.to_owned())
        });
        let qs: Vec<VisQuery> = sum_avg_cnt()
            .into_iter()
            .map(|q| VisQuery {
                x: "v".into(),
                transform: Transform::Bin(BinStrategy::Udf("counted".into())),
                ..q
            })
            .collect();
        let batch = execute_batch(&t, &qs, &udfs);
        assert!(batch.iter().all(Result::is_ok), "{batch:?}");
        assert_eq!(calls.swap(0, Ordering::Relaxed), 60, "one scan");
        for (q, b) in qs.iter().zip(&batch) {
            assert_eq!(b, &execute_with(&t, q, &udfs));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 180, "one scan per query");
    }

    #[test]
    fn a_rejected_first_member_fails_alone() {
        // Sema rejects the group's first member; the scan still runs for
        // the rest of the group, and every result matches the scalar one.
        let t = table();
        let udfs = UdfRegistry::default();
        let mut qs = sum_avg_cnt();
        qs.insert(
            0,
            VisQuery {
                y: Some("nope".into()),
                ..qs[2].clone()
            },
        );
        let results = execute_batch(&t, &qs, &udfs);
        assert_eq!(results[0], Err(QueryError::NoSuchColumn("nope".into())));
        for (q, r) in qs.iter().zip(&results).skip(1) {
            assert!(r.is_ok(), "{q:?}");
            assert_eq!(r, &execute_with(&t, q, &udfs));
        }
    }

    #[test]
    fn interleaved_groups_keep_input_order() {
        // Two groups interleaved in the input: the scans run group by
        // group, and the results come back in input order.
        let t = table();
        let udfs = UdfRegistry::default();
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
        let results = execute_batch(&t, &qs, &udfs);
        for (q, r) in qs.iter().zip(&results) {
            assert!(r.is_ok(), "{q:?}");
            assert_eq!(r, &execute_with(&t, q, &udfs), "{q:?}");
        }
    }
}
