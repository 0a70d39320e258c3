//! Query execution: `Q(D)` → chart (§II-B).
//!
//! The executor applies the TRANSFORM clause (group or bin the x-column),
//! aggregates the y-column per bucket (SUM / AVG / CNT), applies ORDER BY,
//! and assembles a [`ChartData`].

use crate::ast::{Aggregate, SortOrder, Transform, VisQuery};
use crate::bins::{bin_keys, group_keys, BinError, Bucketizer, Key, UdfRegistry};
use crate::chart::{ChartData, Series};
use deepeye_data::{Column, ColumnData, DataType, Table};
use std::fmt;

/// Errors raised while executing a visualization query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    NoSuchColumn(String),
    /// The (transform, aggregate, column types) combination is undefined,
    /// e.g. AVG over a categorical y, or a raw query with an aggregate.
    Invalid(String),
    Bin(BinError),
    /// Every row was null after filtering.
    EmptyResult,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoSuchColumn(c) => write!(f, "no such column {c:?}"),
            QueryError::Invalid(msg) => write!(f, "invalid query: {msg}"),
            QueryError::Bin(e) => write!(f, "bin error: {e}"),
            QueryError::EmptyResult => f.write_str("query produced no rows"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<BinError> for QueryError {
    fn from(e: BinError) -> Self {
        QueryError::Bin(e)
    }
}

/// Execute `query` against `table` with the default UDF registry.
pub fn execute(table: &Table, query: &VisQuery) -> Result<ChartData, QueryError> {
    execute_with(table, query, &UdfRegistry::default())
}

/// Execute `query` against `table`, resolving UDF bins in `udfs`.
///
/// Runs [`crate::sema::check_executable`] first: every statically-detectable
/// failure (unknown columns, invalid transform/aggregate combinations,
/// bin/type mismatches) is rejected up front with the same [`QueryError`]
/// the execution path itself would produce. Only data-dependent failures
/// ([`QueryError::EmptyResult`]) surface during execution proper.
pub fn execute_with(
    table: &Table,
    query: &VisQuery,
    udfs: &UdfRegistry,
) -> Result<ChartData, QueryError> {
    if let Err(diagnostic) = crate::sema::check_executable(table, query, udfs) {
        return Err(diagnostic.into_query_error(query));
    }
    let x_col = table
        .column_by_name(&query.x)
        .ok_or_else(|| QueryError::NoSuchColumn(query.x.clone()))?;
    let y_col = match &query.y {
        Some(name) => Some(
            table
                .column_by_name(name)
                .ok_or_else(|| QueryError::NoSuchColumn(name.clone()))?,
        ),
        None => None,
    };

    let mut chart = match (&query.transform, query.aggregate) {
        (Transform::None, Aggregate::Raw) => raw_chart(query, x_col, y_col)?,
        (Transform::None, agg) => {
            return Err(QueryError::Invalid(format!(
                "{} requires a GROUP or BIN transform",
                agg.name()
            )));
        }
        (Transform::Group, Aggregate::Raw) | (Transform::Bin(_), Aggregate::Raw) => {
            return Err(QueryError::Invalid(
                "a transform requires an aggregate (SUM, AVG, or CNT)".to_owned(),
            ));
        }
        (transform, agg) => {
            let keys = match transform {
                Transform::Group => group_keys(x_col),
                Transform::Bin(strategy) => bin_keys(x_col, strategy, udfs)?,
                Transform::None => unreachable!("handled above"),
            };
            aggregated_chart(query, keys, y_col, agg)?
        }
    };

    apply_order(&mut chart.series, query.order);
    Ok(chart)
}

/// Raw (untransformed) chart: pairs of cell values per row.
fn raw_chart(
    query: &VisQuery,
    x_col: &Column,
    y_col: Option<&Column>,
) -> Result<ChartData, QueryError> {
    let y_col = y_col
        .ok_or_else(|| QueryError::Invalid("a raw query needs an explicit y column".to_owned()))?;
    let y_nums = numeric_view(y_col).ok_or_else(|| {
        QueryError::Invalid(format!("y column {:?} is not numeric", y_col.name()))
    })?;
    let series = match numeric_scale(x_col) {
        // Both sides numeric-ish: continuous points.
        Some(xs) => {
            let pts: Vec<(f64, f64)> = xs
                .iter()
                .zip(y_nums.iter())
                .filter_map(|(x, y)| Some(((*x)?, (*y)?)))
                .collect();
            if pts.is_empty() {
                return Err(QueryError::EmptyResult);
            }
            Series::Points(pts)
        }
        // Categorical x: keyed rows.
        None => {
            let keys = group_keys(x_col);
            let pairs: Vec<(Key, f64)> = keys
                .into_iter()
                .zip(y_nums.iter())
                .filter_map(|(k, y)| Some((k?, (*y)?)))
                .collect();
            if pairs.is_empty() {
                return Err(QueryError::EmptyResult);
            }
            Series::Keyed(pairs)
        }
    };
    Ok(ChartData {
        chart: query.chart,
        x_label: query.x.clone(),
        y_label: y_col.name().to_owned(),
        series,
    })
}

/// Grouped/binned chart with SUM / AVG / CNT per bucket.
fn aggregated_chart(
    query: &VisQuery,
    keys: Vec<Option<Key>>,
    y_col: Option<&Column>,
    agg: Aggregate,
) -> Result<ChartData, QueryError> {
    let y_label = match (y_col, agg) {
        (_, Aggregate::Raw) => unreachable!("caller rejects Raw"),
        (None, Aggregate::Cnt) => format!("CNT({})", query.x),
        (None, other) => {
            return Err(QueryError::Invalid(format!(
                "one-column queries support CNT only, got {}",
                other.name()
            )));
        }
        (Some(y), Aggregate::Cnt) => format!("CNT({})", y.name()),
        (Some(y), other) => {
            if y.data_type() != DataType::Numerical {
                return Err(QueryError::Invalid(format!(
                    "{} requires a numerical y column, {:?} is {}",
                    other.name(),
                    y.name(),
                    y.data_type()
                )));
            }
            format!("{}({})", other.name(), y.name())
        }
    };

    let y_nums: Option<Vec<Option<f64>>> = y_col.and_then(numeric_view);
    let mut buckets = Bucketizer::new();
    let mut sums: Vec<f64> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for (row, key) in keys.into_iter().enumerate() {
        let Some(key) = key else { continue };
        let idx = buckets.index_of(key);
        if idx == sums.len() {
            sums.push(0.0);
            counts.push(0);
        }
        match agg {
            Aggregate::Cnt => counts[idx] += 1,
            Aggregate::Sum | Aggregate::Avg => {
                if let Some(Some(y)) = y_nums.as_ref().map(|v| v[row]) {
                    sums[idx] += y;
                    counts[idx] += 1;
                }
            }
            Aggregate::Raw => unreachable!(),
        }
    }
    if buckets.is_empty() {
        return Err(QueryError::EmptyResult);
    }
    let pairs: Vec<(Key, f64)> = buckets
        .into_keys()
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let v = match agg {
                Aggregate::Cnt => counts[i] as f64,
                Aggregate::Sum => sums[i],
                Aggregate::Avg => {
                    if counts[i] == 0 {
                        0.0
                    } else {
                        sums[i] / counts[i] as f64
                    }
                }
                Aggregate::Raw => unreachable!(),
            };
            (k, v)
        })
        .collect();
    Ok(ChartData {
        chart: query.chart,
        x_label: query.x.clone(),
        y_label,
        series: Series::Keyed(pairs),
    })
}

/// Apply the ORDER BY clause in place: X' ascending or Y' descending.
pub(crate) fn apply_order(series: &mut Series, order: SortOrder) {
    match (series, order) {
        (_, SortOrder::None) => {}
        (Series::Keyed(pairs), SortOrder::ByX) => pairs.sort_by(|a, b| a.0.total_cmp(&b.0)),
        (Series::Keyed(pairs), SortOrder::ByY) => pairs.sort_by(|a, b| b.1.total_cmp(&a.1)),
        (Series::Points(pts), SortOrder::ByX) => pts.sort_by(|a, b| a.0.total_cmp(&b.0)),
        (Series::Points(pts), SortOrder::ByY) => pts.sort_by(|a, b| b.1.total_cmp(&a.1)),
    }
}

/// Numeric view of a column: numbers as-is; temporal as Unix seconds;
/// `None` for categorical.
fn numeric_scale(col: &Column) -> Option<Vec<Option<f64>>> {
    match col.data() {
        ColumnData::Numeric(v) => Some(v.clone()),
        ColumnData::Temporal(v) => Some(
            v.iter()
                .map(|t| t.map(|t| t.unix_seconds() as f64))
                .collect(),
        ),
        ColumnData::Text(_) => None,
    }
}

/// Numeric values of a numerical column only (used for y aggregation).
fn numeric_view(col: &Column) -> Option<Vec<Option<f64>>> {
    match col.data() {
        ColumnData::Numeric(v) => Some(v.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinStrategy, ChartType};
    use deepeye_data::{parse_timestamp, TableBuilder, TimeUnit};

    fn flights() -> Table {
        let times: Vec<_> = [
            "2015-01-01 08:05",
            "2015-01-01 08:40",
            "2015-01-01 09:10",
            "2015-01-01 09:30",
            "2015-01-02 08:15",
        ]
        .iter()
        .map(|s| parse_timestamp(s).unwrap())
        .collect();
        TableBuilder::new("flights")
            .column(Column::temporal("scheduled", times))
            .text("carrier", ["UA", "AA", "UA", "MQ", "UA"])
            .numeric("delay", [4.0, 10.0, -2.0, 8.0, 0.0])
            .numeric("passengers", [100.0, 200.0, 150.0, 50.0, 120.0])
            .build()
            .unwrap()
    }

    fn q(chart: ChartType, x: &str, y: Option<&str>, t: Transform, a: Aggregate) -> VisQuery {
        VisQuery {
            chart,
            x: x.into(),
            y: y.map(Into::into),
            transform: t,
            aggregate: a,
            order: SortOrder::None,
        }
    }

    #[test]
    fn group_avg_matches_hand_computation() {
        let chart = execute(
            &flights(),
            &q(
                ChartType::Bar,
                "carrier",
                Some("delay"),
                Transform::Group,
                Aggregate::Avg,
            ),
        )
        .unwrap();
        let Series::Keyed(pairs) = &chart.series else {
            panic!()
        };
        let get = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k.to_string() == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!((get("UA") - (4.0 - 2.0 + 0.0) / 3.0).abs() < 1e-12);
        assert_eq!(get("AA"), 10.0);
        assert_eq!(get("MQ"), 8.0);
        assert_eq!(chart.y_label, "AVG(delay)");
    }

    #[test]
    fn group_sum_and_cnt() {
        let t = flights();
        let sum = execute(
            &t,
            &q(
                ChartType::Bar,
                "carrier",
                Some("passengers"),
                Transform::Group,
                Aggregate::Sum,
            ),
        )
        .unwrap();
        let Series::Keyed(pairs) = &sum.series else {
            panic!()
        };
        let total: f64 = pairs.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 620.0); // SUM conservation

        let cnt = execute(
            &t,
            &q(
                ChartType::Pie,
                "carrier",
                None,
                Transform::Group,
                Aggregate::Cnt,
            ),
        )
        .unwrap();
        let Series::Keyed(pairs) = &cnt.series else {
            panic!()
        };
        let total: f64 = pairs.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 5.0);
        assert_eq!(cnt.y_label, "CNT(carrier)");
    }

    #[test]
    fn bin_by_hour_like_paper_q1() {
        // Example 2's Q1: line chart of AVG(delay) binned by hour.
        let query = q(
            ChartType::Line,
            "scheduled",
            Some("delay"),
            Transform::Bin(BinStrategy::Unit(TimeUnit::Hour)),
            Aggregate::Avg,
        )
        .with_order(SortOrder::ByX);
        let chart = execute(&flights(), &query).unwrap();
        let Series::Keyed(pairs) = &chart.series else {
            panic!()
        };
        // Periodic hour-of-day buckets (Table II semantics):
        // 08:00 ← {4, 10, 0} across both days; 09:00 ← {-2, 8}.
        assert_eq!(pairs.len(), 2);
        assert!((pairs[0].1 - 14.0 / 3.0).abs() < 1e-12);
        assert_eq!(pairs[1].1, 3.0);
        // ORDER BY X gives hour-of-day order.
        let labels: Vec<String> = pairs.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(labels, vec!["08:00", "09:00"]);
    }

    #[test]
    fn raw_scatter_points() {
        let chart = execute(
            &flights(),
            &q(
                ChartType::Scatter,
                "delay",
                Some("passengers"),
                Transform::None,
                Aggregate::Raw,
            ),
        )
        .unwrap();
        let Series::Points(pts) = &chart.series else {
            panic!()
        };
        assert_eq!(pts.len(), 5);
    }

    #[test]
    fn raw_keyed_for_categorical_x() {
        let chart = execute(
            &flights(),
            &q(
                ChartType::Bar,
                "carrier",
                Some("delay"),
                Transform::None,
                Aggregate::Raw,
            ),
        )
        .unwrap();
        assert!(matches!(chart.series, Series::Keyed(_)));
        assert_eq!(chart.series.len(), 5);
    }

    #[test]
    fn order_by_y_descends() {
        let query = q(
            ChartType::Bar,
            "carrier",
            Some("passengers"),
            Transform::Group,
            Aggregate::Sum,
        )
        .with_order(SortOrder::ByY);
        let chart = execute(&flights(), &query).unwrap();
        let ys = chart.series.y_values();
        assert!(
            ys.windows(2).all(|w| w[0] >= w[1]),
            "not descending: {ys:?}"
        );
    }

    #[test]
    fn invalid_combinations_rejected() {
        let t = flights();
        // Aggregate without transform.
        assert!(matches!(
            execute(
                &t,
                &q(
                    ChartType::Bar,
                    "carrier",
                    Some("delay"),
                    Transform::None,
                    Aggregate::Avg
                )
            ),
            Err(QueryError::Invalid(_))
        ));
        // Transform without aggregate.
        assert!(matches!(
            execute(
                &t,
                &q(
                    ChartType::Bar,
                    "carrier",
                    Some("delay"),
                    Transform::Group,
                    Aggregate::Raw
                )
            ),
            Err(QueryError::Invalid(_))
        ));
        // AVG over categorical y.
        assert!(matches!(
            execute(
                &t,
                &q(
                    ChartType::Bar,
                    "delay",
                    Some("carrier"),
                    Transform::Bin(BinStrategy::Default),
                    Aggregate::Avg
                )
            ),
            Err(QueryError::Invalid(_))
        ));
        // Unknown column.
        assert!(matches!(
            execute(
                &t,
                &q(
                    ChartType::Bar,
                    "nope",
                    Some("delay"),
                    Transform::Group,
                    Aggregate::Avg
                )
            ),
            Err(QueryError::NoSuchColumn(_))
        ));
        // One-column with SUM.
        assert!(matches!(
            execute(
                &t,
                &q(
                    ChartType::Bar,
                    "carrier",
                    None,
                    Transform::Group,
                    Aggregate::Sum
                )
            ),
            Err(QueryError::Invalid(_))
        ));
    }

    #[test]
    fn cnt_with_explicit_y_counts_rows() {
        let chart = execute(
            &flights(),
            &q(
                ChartType::Bar,
                "carrier",
                Some("delay"),
                Transform::Group,
                Aggregate::Cnt,
            ),
        )
        .unwrap();
        let Series::Keyed(pairs) = &chart.series else {
            panic!()
        };
        let total: f64 = pairs.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 5.0);
        assert_eq!(chart.y_label, "CNT(delay)");
    }

    #[test]
    fn nulls_are_skipped() {
        let t = TableBuilder::new("t")
            .column(Column::new(
                "g",
                ColumnData::Text(vec![Some("a".into()), None, Some("a".into())]),
            ))
            .column(Column::new(
                "v",
                ColumnData::Numeric(vec![Some(1.0), Some(2.0), None]),
            ))
            .build()
            .unwrap();
        let chart = execute(
            &t,
            &q(
                ChartType::Bar,
                "g",
                Some("v"),
                Transform::Group,
                Aggregate::Avg,
            ),
        )
        .unwrap();
        let Series::Keyed(pairs) = &chart.series else {
            panic!()
        };
        // Only the first row contributes a value; third row's y is null.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].1, 1.0);
    }

    #[test]
    fn empty_result_detected() {
        let t = TableBuilder::new("t")
            .column(Column::new("g", ColumnData::Text(vec![None, None])))
            .column(Column::new(
                "v",
                ColumnData::Numeric(vec![Some(1.0), Some(2.0)]),
            ))
            .build()
            .unwrap();
        assert_eq!(
            execute(
                &t,
                &q(
                    ChartType::Bar,
                    "g",
                    Some("v"),
                    Transform::Group,
                    Aggregate::Avg
                )
            ),
            Err(QueryError::EmptyResult)
        );
    }

    #[test]
    fn temporal_x_raw_points_use_seconds() {
        let chart = execute(
            &flights(),
            &q(
                ChartType::Line,
                "scheduled",
                Some("delay"),
                Transform::None,
                Aggregate::Raw,
            ),
        )
        .unwrap();
        let Series::Points(pts) = &chart.series else {
            panic!()
        };
        assert_eq!(pts.len(), 5);
        assert!(pts.iter().all(|(x, _)| *x > 1.4e9)); // 2015 in Unix seconds
    }
}
