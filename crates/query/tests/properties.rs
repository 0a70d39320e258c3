//! Property-based tests for the query engine.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod oracle;

use deepeye_data::{Column, ColumnData, Table, TableBuilder, TimeUnit, Timestamp};
use deepeye_query::{
    all_queries, execute, execute_batch, execute_with, execute_xyz, Aggregate, BinStrategy,
    ChartType, Key, Series, SortOrder, Transform, UdfRegistry, VisQuery, XyzQuery,
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

/// Columns `num`, `cat`, `tem` and `num2`, a second numeric column drawn
/// from a few values with `0.0` beside `-0.0`, so raw charts between two
/// numeric columns meet tied x values and signed zeros.
fn table_strategy(nullable: bool) -> impl Strategy<Value = Table> {
    const FEW: [f64; 5] = [0.0, -0.0, 1.5, -2.0, 7.0];
    let rows = 1usize..40;
    rows.prop_flat_map(move |n| {
        (
            proptest::collection::vec(-100.0f64..100.0, n),
            proptest::collection::vec(0u8..4, n),
            proptest::collection::vec(0i64..100_000_000, n),
            proptest::collection::vec(0usize..FEW.len(), n),
            proptest::collection::vec(any::<u8>(), n),
        )
            .prop_map(move |(nums, cats, secs, few, nulls)| {
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
                    .column(Column::new(
                        "num2",
                        ColumnData::Numeric(
                            few.iter()
                                .enumerate()
                                .map(|(r, &i)| cell(r, 3, FEW[i]))
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

    /// The kernel — `execute_batch`, and `execute_with` as a scan of one —
    /// returns the oracle's result for a sample of the space: the same
    /// error, or the same chart with every key and `f64` equal by its
    /// bits.
    #[test]
    fn kernel_equals_the_oracle(
        (table, skip) in (prop_oneof![arbitrary_table(), nullable_table()], 0usize..37)
    ) {
        let qs: Vec<VisQuery> = all_queries(&table).skip(skip).step_by(37).collect();
        let bad = kernel_mismatches(&table, &qs, &UdfRegistry::default());
        prop_assert!(bad.is_empty(), "{:?}", bad);
    }

    /// `execute_xyz` returns the oracle's result for every (series, x, z)
    /// column triple, x transform and aggregate.
    #[test]
    fn xyz_equals_the_oracle(table in prop_oneof![arbitrary_table(), nullable_table()]) {
        let bad = xyz_mismatches(&table, &UdfRegistry::default());
        prop_assert!(bad.is_empty(), "{:?}", bad);
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

/// The queries whose kernel result differs from the oracle's, through
/// `execute_batch` or `execute_with`.
fn kernel_mismatches(table: &Table, qs: &[VisQuery], udfs: &UdfRegistry) -> Vec<String> {
    let mut bad = Vec::new();
    for (q, batch) in qs.iter().zip(execute_batch(table, qs, udfs)) {
        let want = oracle::execute_with(table, q, udfs);
        let scalar = execute_with(table, q, udfs);
        if !oracle::same_chart(&batch, &want) || !oracle::same_chart(&scalar, &want) {
            bad.push(format!(
                "{q:?}: batch {batch:?}, execute_with {scalar:?}, oracle {want:?}"
            ));
        }
    }
    bad
}

/// The XYZ queries over every column triple whose result differs from
/// the oracle's.
fn xyz_mismatches(table: &Table, udfs: &UdfRegistry) -> Vec<String> {
    let mut transforms = vec![
        Transform::None,
        Transform::Group,
        Transform::Bin(BinStrategy::Default),
        Transform::Bin(BinStrategy::IntoBuckets(3)),
    ];
    transforms.extend(TimeUnit::ALL.map(|u| Transform::Bin(BinStrategy::Unit(u))));
    transforms.extend(
        udfs.names()
            .map(|name| Transform::Bin(BinStrategy::Udf(name.to_owned()))),
    );
    let names: Vec<String> = table
        .columns()
        .iter()
        .map(|c| c.name().to_owned())
        .collect();
    let mut bad = Vec::new();
    for series_column in &names {
        for x in &names {
            for z in &names {
                for x_transform in &transforms {
                    for aggregate in Aggregate::ALL {
                        let q = XyzQuery {
                            chart: ChartType::Bar,
                            series_column: series_column.clone(),
                            x: x.clone(),
                            x_transform: x_transform.clone(),
                            z: z.clone(),
                            aggregate,
                        };
                        let got = execute_xyz(table, &q, udfs);
                        let want = oracle::execute_xyz(table, &q, udfs);
                        if !oracle::same_multi(&got, &want) {
                            bad.push(format!("{q:?}: {got:?}, oracle {want:?}"));
                        }
                    }
                }
            }
        }
    }
    bad
}

/// Every query of the space over `table`, plus `BIN x INTO n` for n in
/// 1..=40 and every UDF of `udfs` on each numeric x, through the kernel
/// and the oracle; XYZ queries too. Returns the mismatches.
fn oracle_mismatches(table: &Table, udfs: &UdfRegistry) -> Vec<String> {
    let mut qs: Vec<VisQuery> = all_queries(table).collect();
    for col in table.columns() {
        let mut bins: Vec<BinStrategy> = (1..=40).map(BinStrategy::IntoBuckets).collect();
        bins.extend(udfs.names().map(|n| BinStrategy::Udf(n.to_owned())));
        for strategy in bins {
            for y in [None, Some("y")] {
                for aggregate in [Aggregate::Cnt, Aggregate::Sum, Aggregate::Avg] {
                    qs.push(VisQuery {
                        chart: ChartType::Bar,
                        x: col.name().to_owned(),
                        y: y.map(str::to_owned),
                        transform: Transform::Bin(strategy.clone()),
                        aggregate,
                        order: SortOrder::ByX,
                    });
                }
            }
        }
    }
    let mut bad = kernel_mismatches(table, &qs, udfs);
    bad.extend(xyz_mismatches(table, udfs));
    bad
}

/// A table of an x column beside a numeric `y` (with a null and a
/// `-0.0`) and a categorical `s` for XYZ series.
fn fixed_table(x: Column) -> Table {
    let n = x.len();
    TableBuilder::new("fixed")
        .column(x)
        .column(Column::new(
            "y",
            ColumnData::Numeric(
                (0..n)
                    .map(|i| match i % 5 {
                        0 => None,
                        1 => Some(-0.0),
                        _ => Some(i as f64 * 0.7 - 3.0),
                    })
                    .collect(),
            ),
        ))
        .text("s", (0..n).map(|i| ["a", "b", "c"][i % 3]))
        .build()
        .unwrap()
}

fn assert_matches_oracle(table: &Table, udfs: &UdfRegistry) {
    let bad = oracle_mismatches(table, udfs);
    assert!(
        bad.is_empty(),
        "{} mismatches, first: {}",
        bad.len(),
        bad[0]
    );
}

#[test]
fn constant_numeric_column_equals_the_oracle() {
    let table = fixed_table(Column::numeric("x", [2.5; 12]));
    assert_matches_oracle(&table, &UdfRegistry::default());
}

#[test]
fn values_near_1e17_equal_the_oracle() {
    // An ulp at 1e17 is 16, so over a range of a few ulps `lo + idx·width`
    // rounds, and the bounds of many bucket indices coincide.
    let xs = (0..24).map(|i| 1e17 + 16.0 * f64::from(i % 4));
    let table = fixed_table(Column::numeric("x", xs));
    assert_matches_oracle(&table, &UdfRegistry::default());
}

#[test]
fn a_subnormal_range_equals_the_oracle() {
    // The width rounds to 0, so occupied bucket indices share the bounds
    // [0, 0) and must share one bucket.
    let xs = (0..12).map(|i| if i % 3 == 0 { 5e-324 } else { 0.0 });
    let table = fixed_table(Column::numeric("x", xs));
    assert_matches_oracle(&table, &UdfRegistry::default());
}

#[test]
fn negative_zero_beside_zero_equals_the_oracle() {
    // GROUP keys numbers by their bits: 0.0 and -0.0 are two groups, and
    // as XYZ series they print alike, so their order is first-seen order.
    let xs = (0..15).map(|i| [0.0, -0.0, 1.0, -0.0, 0.0][i % 5]);
    let table = fixed_table(Column::numeric("x", xs));
    assert_matches_oracle(&table, &UdfRegistry::default());
}

#[test]
fn a_udf_with_many_keys_equals_the_oracle() {
    // 67 distinct keys, more than any small-set fast path holds, with
    // -0.0 (from x in (-3, 0)) beside 0.0.
    let mut udfs = UdfRegistry::default();
    udfs.register("thirds", |x| Key::Number((x / 3.0).trunc()));
    udfs.register("labels", |x| {
        Key::Text(format!("k{}", (x as i64).rem_euclid(40)))
    });
    let xs = (0..400).map(|i| f64::from((i * 37) % 201) - 100.0);
    let table = fixed_table(Column::numeric("x", xs));
    assert_matches_oracle(&table, &udfs);
}

#[test]
fn an_all_null_x_column_equals_the_oracle() {
    for x in [
        Column::new("x", ColumnData::Numeric(vec![None; 6])),
        Column::new("x", ColumnData::Text(vec![None; 6])),
        Column::new("x", ColumnData::Temporal(vec![None; 6])),
    ] {
        let table = fixed_table(x);
        assert_matches_oracle(&table, &UdfRegistry::default());
    }
}
