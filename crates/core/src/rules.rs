//! The decision rules of §V-A: transformation rules, sorting rules, and
//! visualization rules. These capture "meaningful" operations so the
//! rule-based enumeration (the `R` configurations of Figure 12) never
//! generates visualizations a human would never consider.
//!
//! The type-level legality tables (`applicable_*`, [`transformed_x_type`])
//! live with the language in [`deepeye_query::sema`] and are re-exported
//! here; this module keeps the enumerator built on top of them and
//! [`passes_rules`], the single-query filter, which is a thin wrapper over
//! the semantic analyzer: a query passes the rules exactly when
//! [`sema::analyze`] returns no diagnostics at all (neither executor
//! errors nor §V-A meaningfulness warnings).

use deepeye_data::{DataType, PreparedColumn, Table};
use deepeye_query::sema;
use deepeye_query::{Aggregate, ChartType, SortOrder, Transform, VisQuery};
use std::cell::OnceCell;

pub use deepeye_query::sema::{
    applicable_aggregates, applicable_charts, applicable_orders, applicable_transforms,
    transformed_x_type, SCATTER_CORRELATION_THRESHOLD,
};

/// Generate the rule-based candidate queries for a table: every query the
/// rules of §V-A consider potentially meaningful (the `R` enumeration mode).
/// Includes both two-column and one-column candidates, plus the raw
/// (untransformed) numeric charts that the visualization rules admit
/// directly (e.g. the scatter of Figure 1(a)).
pub fn rule_based_queries(table: &Table) -> Vec<VisQuery> {
    let mut out = Vec::new();
    let columns = table.columns();
    // Each numeric column's non-null numbers, prepared for correlation
    // once, on its first pair.
    let prepared: Vec<OnceCell<PreparedColumn>> = columns.iter().map(|_| OnceCell::new()).collect();
    let prepare = |i: usize| prepared[i].get_or_init(|| PreparedColumn::new(columns[i].numbers()));

    // Two-column candidates.
    for (i, x_col) in columns.iter().enumerate() {
        for (j, y_col) in columns.iter().enumerate() {
            if i == j {
                continue;
            }
            let (x_type, y_type) = (x_col.data_type(), y_col.data_type());

            // Raw charts: only numeric/temporal x against numeric y.
            if y_type == DataType::Numerical && x_type != DataType::Categorical {
                let correlated = x_type == DataType::Numerical
                    && prepare(i).correlation(prepare(j)).strength()
                        >= SCATTER_CORRELATION_THRESHOLD;
                let raw_charts = match x_type {
                    DataType::Numerical => applicable_charts(DataType::Numerical, correlated),
                    DataType::Temporal => applicable_charts(DataType::Temporal, false),
                    DataType::Categorical => unreachable!("filtered above"),
                };
                for chart in raw_charts {
                    // A raw bar over thousands of rows is never meaningful;
                    // bars come from transforms. Keep line/scatter raw.
                    if chart == ChartType::Bar {
                        continue;
                    }
                    for order in [SortOrder::None, SortOrder::ByX] {
                        out.push(VisQuery {
                            chart,
                            x: x_col.name().to_owned(),
                            y: Some(y_col.name().to_owned()),
                            transform: Transform::None,
                            aggregate: Aggregate::Raw,
                            order,
                        });
                        // Deduplicate: raw scatter ignores order semantics.
                        if chart == ChartType::Scatter {
                            break;
                        }
                    }
                }
            }

            // Transformed charts.
            for transform in applicable_transforms(x_type) {
                let x_prime = transformed_x_type(x_type, &transform);
                for aggregate in applicable_aggregates(Some(y_type)) {
                    for chart in applicable_charts(x_prime, false) {
                        for order in applicable_orders(x_prime) {
                            out.push(VisQuery {
                                chart,
                                x: x_col.name().to_owned(),
                                y: Some(y_col.name().to_owned()),
                                transform: transform.clone(),
                                aggregate,
                                order,
                            });
                        }
                    }
                }
            }
        }
    }

    // One-column candidates: group/bin the column and count.
    for x_col in columns {
        let x_type = x_col.data_type();
        for transform in applicable_transforms(x_type) {
            let x_prime = transformed_x_type(x_type, &transform);
            for chart in applicable_charts(x_prime, false) {
                for order in applicable_orders(x_prime) {
                    out.push(VisQuery {
                        chart,
                        x: x_col.name().to_owned(),
                        y: None,
                        transform: transform.clone(),
                        aggregate: Aggregate::Cnt,
                        order,
                    });
                }
            }
        }
    }

    debug_assert!(
        out.iter()
            .all(|q| sema::analyze(table, q, sema::default_registry()).is_empty()),
        "rule_based_queries emitted a candidate the semantic analyzer flags"
    );
    out
}

/// Check whether a single query conforms to the rules (used to filter the
/// exhaustive enumeration and in tests to cross-validate the generator).
///
/// Thin wrapper over the static analyzer: a query passes exactly when
/// [`sema::analyze`] is silent — no fatal diagnostics (the executor would
/// reject it) and no warnings (the §V-A rules would prune it).
pub fn passes_rules(table: &Table, query: &VisQuery) -> bool {
    sema::analyze(table, query, sema::default_registry()).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::{parse_timestamp, Column, TableBuilder};
    use deepeye_query::BinStrategy;

    fn mixed_table() -> Table {
        let ts: Vec<_> = (1..=4)
            .map(|d| parse_timestamp(&format!("2015-01-0{d}")).unwrap())
            .collect();
        TableBuilder::new("t")
            .text("carrier", ["UA", "AA", "UA", "MQ"])
            .numeric("delay", [5.0, 3.0, -1.0, 2.0])
            .column(Column::temporal("scheduled", ts))
            .build()
            .unwrap()
    }

    #[test]
    fn transform_rules_by_type() {
        assert_eq!(
            applicable_transforms(DataType::Categorical),
            vec![Transform::Group]
        );
        let num = applicable_transforms(DataType::Numerical);
        assert!(num.iter().all(|t| matches!(t, Transform::Bin(_))));
        let tem = applicable_transforms(DataType::Temporal);
        assert!(tem.contains(&Transform::Group));
        assert_eq!(tem.len(), 8); // group + 7 calendar units
    }

    #[test]
    fn aggregate_rules_by_y_type() {
        assert_eq!(
            applicable_aggregates(Some(DataType::Numerical)),
            vec![Aggregate::Avg, Aggregate::Sum, Aggregate::Cnt]
        );
        assert_eq!(
            applicable_aggregates(Some(DataType::Categorical)),
            vec![Aggregate::Cnt]
        );
        assert_eq!(
            applicable_aggregates(Some(DataType::Temporal)),
            vec![Aggregate::Cnt]
        );
        assert_eq!(applicable_aggregates(None), vec![Aggregate::Cnt]);
    }

    #[test]
    fn visualization_rules_match_paper() {
        assert_eq!(
            applicable_charts(DataType::Categorical, false),
            vec![ChartType::Bar, ChartType::Pie]
        );
        assert_eq!(
            applicable_charts(DataType::Numerical, false),
            vec![ChartType::Line, ChartType::Bar]
        );
        assert!(applicable_charts(DataType::Numerical, true).contains(&ChartType::Scatter));
        assert_eq!(
            applicable_charts(DataType::Temporal, false),
            vec![ChartType::Line]
        );
    }

    #[test]
    fn sorting_rules_match_paper() {
        // Categorical x cannot be sorted by X.
        assert!(!applicable_orders(DataType::Categorical).contains(&SortOrder::ByX));
        assert!(applicable_orders(DataType::Categorical).contains(&SortOrder::ByY));
        assert!(applicable_orders(DataType::Temporal).contains(&SortOrder::ByX));
    }

    #[test]
    fn transformed_type_tracking() {
        assert_eq!(
            transformed_x_type(DataType::Numerical, &Transform::Bin(BinStrategy::Default)),
            DataType::Numerical
        );
        assert_eq!(
            transformed_x_type(
                DataType::Numerical,
                &Transform::Bin(BinStrategy::Udf("sign".into()))
            ),
            DataType::Categorical
        );
        assert_eq!(
            transformed_x_type(
                DataType::Temporal,
                &Transform::Bin(BinStrategy::Unit(deepeye_data::TimeUnit::Hour))
            ),
            DataType::Temporal
        );
        assert_eq!(
            transformed_x_type(DataType::Categorical, &Transform::Group),
            DataType::Categorical
        );
    }

    #[test]
    fn generator_output_all_passes_filter() {
        let t = mixed_table();
        let queries = rule_based_queries(&t);
        assert!(!queries.is_empty());
        for q in &queries {
            assert!(
                passes_rules(&t, q),
                "generated query fails its own rules: {q:?}"
            );
        }
    }

    #[test]
    fn generator_is_much_smaller_than_raw_space() {
        let t = mixed_table();
        let rule_count = rule_based_queries(&t).len();
        let raw_count = deepeye_query::two_column_space_size(t.column_count())
            + deepeye_query::one_column_space_size(t.column_count());
        assert!(
            rule_count * 4 < raw_count,
            "rules should prune most of the space: {rule_count} vs {raw_count}"
        );
    }

    #[test]
    fn example_7_queries_are_admitted() {
        // GROUP(carrier), AVG(passengers-like) → bar (Figure 5(b)).
        let t = mixed_table();
        let q = VisQuery {
            chart: ChartType::Bar,
            x: "carrier".into(),
            y: Some("delay".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Avg,
            order: SortOrder::None,
        };
        assert!(passes_rules(&t, &q));
        // BIN(scheduled) BY HOUR, AVG(delay) → line (Figure 1(c)).
        let q = VisQuery {
            chart: ChartType::Line,
            x: "scheduled".into(),
            y: Some("delay".into()),
            transform: Transform::Bin(BinStrategy::Unit(deepeye_data::TimeUnit::Hour)),
            aggregate: Aggregate::Avg,
            order: SortOrder::ByX,
        };
        assert!(passes_rules(&t, &q));
    }

    #[test]
    fn bad_queries_are_rejected() {
        let t = mixed_table();
        // Binning a categorical column.
        assert!(!passes_rules(
            &t,
            &VisQuery {
                chart: ChartType::Bar,
                x: "carrier".into(),
                y: Some("delay".into()),
                transform: Transform::Bin(BinStrategy::Default),
                aggregate: Aggregate::Avg,
                order: SortOrder::None,
            }
        ));
        // AVG over a categorical y.
        assert!(!passes_rules(
            &t,
            &VisQuery {
                chart: ChartType::Bar,
                x: "delay".into(),
                y: Some("carrier".into()),
                transform: Transform::Bin(BinStrategy::Default),
                aggregate: Aggregate::Avg,
                order: SortOrder::None,
            }
        ));
        // Pie over a temporal x-scale.
        assert!(!passes_rules(
            &t,
            &VisQuery {
                chart: ChartType::Pie,
                x: "scheduled".into(),
                y: Some("delay".into()),
                transform: Transform::Bin(BinStrategy::Unit(deepeye_data::TimeUnit::Day)),
                aggregate: Aggregate::Avg,
                order: SortOrder::None,
            }
        ));
        // Sorting a categorical x-scale by X.
        assert!(!passes_rules(
            &t,
            &VisQuery {
                chart: ChartType::Bar,
                x: "carrier".into(),
                y: Some("delay".into()),
                transform: Transform::Group,
                aggregate: Aggregate::Avg,
                order: SortOrder::ByX,
            }
        ));
        // Unknown column.
        assert!(!passes_rules(
            &t,
            &VisQuery {
                chart: ChartType::Bar,
                x: "nope".into(),
                y: None,
                transform: Transform::Group,
                aggregate: Aggregate::Cnt,
                order: SortOrder::None,
            }
        ));
    }

    #[test]
    fn scatter_requires_correlation() {
        // delay and a correlated copy.
        let t = TableBuilder::new("t")
            .numeric("a", (0..50).map(f64::from))
            .numeric("b", (0..50).map(|i| f64::from(i) * 2.0 + 1.0))
            .numeric("noise", (0..50).map(|i| f64::from((i * 7919) % 97)))
            .build()
            .unwrap();
        let scatter_ab = VisQuery {
            chart: ChartType::Scatter,
            x: "a".into(),
            y: Some("b".into()),
            transform: Transform::None,
            aggregate: Aggregate::Raw,
            order: SortOrder::None,
        };
        assert!(passes_rules(&t, &scatter_ab));
        let scatter_noise = VisQuery {
            y: Some("noise".into()),
            ..scatter_ab.clone()
        };
        assert!(!passes_rules(&t, &scatter_noise));
        // The generator agrees.
        let queries = rule_based_queries(&t);
        assert!(queries.iter().any(|q| q == &scatter_ab));
        assert!(!queries.iter().any(|q| q.chart == ChartType::Scatter
            && q.x == "a"
            && q.y.as_deref() == Some("noise")));
    }
}
