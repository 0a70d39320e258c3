//! Property-based tests for the query engine.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_data::{Column, ColumnData, Table, TableBuilder, Timestamp};
use deepeye_query::{
    all_queries, execute, Aggregate, ChartType, Series, SortOrder, Transform, VisQuery,
};
use proptest::prelude::*;

fn arbitrary_table() -> impl Strategy<Value = Table> {
    table_strategy(false)
}

/// [`arbitrary_table`] with nulls in every column: each cell is null with
/// probability 1/4.
fn nullable_table() -> impl Strategy<Value = Table> {
    table_strategy(true)
}

fn table_strategy(nullable: bool) -> impl Strategy<Value = Table> {
    let rows = 1usize..40;
    rows.prop_flat_map(move |n| {
        (
            proptest::collection::vec(-100.0f64..100.0, n),
            proptest::collection::vec(0u8..4, n),
            proptest::collection::vec(0i64..100_000_000, n),
            proptest::collection::vec(0u8..64, n),
        )
            .prop_map(move |(nums, cats, secs, nulls)| {
                // Bits 2c..2c+1 of a row's draw are both clear → column c
                // is null in that row.
                let keep = |row: usize, col: u8| !nullable || (nulls[row] >> (2 * col)) & 3 != 0;
                let cell = |row: usize, col: u8, v| keep(row, col).then_some(v);
                TableBuilder::new("t")
                    .column(Column::new(
                        "num",
                        ColumnData::Numeric(
                            nums.iter()
                                .enumerate()
                                .map(|(r, &v)| cell(r, 0, v))
                                .collect(),
                        ),
                    ))
                    .column(Column::new(
                        "cat",
                        ColumnData::Text(
                            cats.iter()
                                .enumerate()
                                .map(|(r, c)| keep(r, 1).then(|| format!("c{c}")))
                                .collect(),
                        ),
                    ))
                    .column(Column::new(
                        "tem",
                        ColumnData::Temporal(
                            secs.iter()
                                .enumerate()
                                .map(|(r, &s)| keep(r, 2).then(|| Timestamp::from_unix_seconds(s)))
                                .collect(),
                        ),
                    ))
                    .build()
                    .unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every query in the raw search space either executes cleanly or
    /// returns a typed error — no panics, no NaN outputs.
    #[test]
    fn execution_is_total((table, skip) in (arbitrary_table(), 0usize..200)) {
        // Sample a slice of the (large) space, offset by `skip`.
        for q in all_queries(&table).skip(skip * 7).take(50) {
            if let Ok(chart) = execute(&table, &q) {
                prop_assert!(!chart.series.is_empty());
                for y in chart.series.y_values() {
                    prop_assert!(y.is_finite(), "non-finite y from {q:?}");
                }
            }
        }
    }

    /// SUM over groups conserves the column total (ignoring null rows).
    #[test]
    fn group_sum_conservation(table in arbitrary_table()) {
        let q = VisQuery {
            chart: ChartType::Bar,
            x: "cat".into(),
            y: Some("num".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Sum,
            order: SortOrder::None,
        };
        let chart = execute(&table, &q).unwrap();
        let grouped: f64 = chart.series.y_values().iter().sum();
        let direct: f64 = table.column_by_name("num").unwrap().numbers().iter().sum();
        prop_assert!((grouped - direct).abs() < 1e-6 * (1.0 + direct.abs()));
    }

    /// CNT over groups counts every non-null row exactly once.
    #[test]
    fn group_cnt_partition(table in arbitrary_table()) {
        let q = VisQuery {
            chart: ChartType::Pie,
            x: "cat".into(),
            y: None,
            transform: Transform::Group,
            aggregate: Aggregate::Cnt,
            order: SortOrder::None,
        };
        let chart = execute(&table, &q).unwrap();
        let total: f64 = chart.series.y_values().iter().sum();
        prop_assert_eq!(total as usize, table.row_count());
    }

    /// Binning into N buckets yields at most N buckets and counts every row.
    #[test]
    fn bin_partition((table, n) in (arbitrary_table(), 1usize..20)) {
        let q = VisQuery {
            chart: ChartType::Bar,
            x: "num".into(),
            y: None,
            transform: Transform::Bin(deepeye_query::BinStrategy::IntoBuckets(n)),
            aggregate: Aggregate::Cnt,
            order: SortOrder::None,
        };
        let chart = execute(&table, &q).unwrap();
        prop_assert!(chart.series.len() <= n);
        let total: f64 = chart.series.y_values().iter().sum();
        prop_assert_eq!(total as usize, table.row_count());
    }

    /// ORDER BY X yields a non-decreasing x-scale; ORDER BY Y a
    /// non-increasing y-series.
    #[test]
    fn order_by_laws(table in arbitrary_table()) {
        let base = VisQuery {
            chart: ChartType::Bar,
            x: "cat".into(),
            y: Some("num".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Avg,
            order: SortOrder::ByX,
        };
        let by_x = execute(&table, &base).unwrap();
        if let Series::Keyed(pairs) = &by_x.series {
            for w in pairs.windows(2) {
                prop_assert!(w[0].0.total_cmp(&w[1].0) != std::cmp::Ordering::Greater);
            }
        }
        let by_y = execute(&table, &VisQuery { order: SortOrder::ByY, ..base }).unwrap();
        let ys = by_y.series.y_values();
        for w in ys.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// AVG of each group lies within the min/max of the underlying column.
    #[test]
    fn avg_within_bounds(table in arbitrary_table()) {
        let q = VisQuery {
            chart: ChartType::Bar,
            x: "cat".into(),
            y: Some("num".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Avg,
            order: SortOrder::None,
        };
        let chart = execute(&table, &q).unwrap();
        let col = table.column_by_name("num").unwrap();
        let (lo, hi) = (col.min_scalar().unwrap(), col.max_scalar().unwrap());
        for y in chart.series.y_values() {
            prop_assert!(lo - 1e-9 <= y && y <= hi + 1e-9);
        }
    }

    /// Batch execution with shared scans returns exactly what the scalar
    /// executor returns — the same chart or the same error — for every
    /// query in a sampled slice of the space, over tables with nulls.
    #[test]
    fn batch_equals_scalar((table, skip) in (nullable_table(), 0usize..100)) {
        let udfs = deepeye_query::UdfRegistry::default();
        let qs: Vec<VisQuery> = all_queries(&table).skip(skip * 11).take(40).collect();
        let batch = deepeye_query::execute_batch(&table, &qs, &udfs);
        for (q, b) in qs.iter().zip(batch) {
            let scalar = deepeye_query::execute_with(&table, q, &udfs);
            prop_assert_eq!(b, scalar, "{:?}: batch {:?} != scalar {:?}", q, b, scalar);
        }
    }

    /// Sorting never changes the multiset of y-values.
    #[test]
    fn sorting_preserves_values(table in arbitrary_table()) {
        let base = VisQuery {
            chart: ChartType::Bar,
            x: "cat".into(),
            y: Some("num".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Sum,
            order: SortOrder::None,
        };
        let plain = execute(&table, &base).unwrap();
        let sorted = execute(&table, &VisQuery { order: SortOrder::ByY, ..base }).unwrap();
        let mut a = plain.series.y_values();
        let mut b = sorted.series.y_values();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        prop_assert_eq!(a, b);
    }
}
