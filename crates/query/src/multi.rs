//! Multi-column extensions (§II-B "Extensions for One Column and Multiple
//! Columns").
//!
//! Two cases from the paper:
//!
//! 1. **Multi-Y**: one x-column and several y-columns `Y_1 … Y_z`, each
//!    aggregated the same way and plotted as its own series, "to compare
//!    the Y_i columns".
//! 2. **XYZ**: group by `X` (the series/color), group-or-bin `Y` (the
//!    x-axis), and aggregate `Z` per (X, Y') cell — the shape of the
//!    paper's Figure 1(b) stacked bar of passengers by month and
//!    destination.

use crate::ast::{Aggregate, ChartType, SortOrder, Transform, VisQuery};
use crate::bins::{key_codes, Exact, Key, UdfRegistry, NULL_CODE};
use crate::chart::{ChartData, Series};
use crate::exec::{execute_with, QueryError};
use crate::sema::{self, Clause, Code, Diagnostic};
use deepeye_data::{ColumnData, DataType, FirstSeen, Table};

/// A chart with several named series over a shared x-scale.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSeriesChart {
    pub chart: ChartType,
    pub x_label: String,
    pub y_label: String,
    /// `(series name, keyed values)` — every series shares the key universe
    /// but may omit keys with no data.
    pub series: Vec<(String, Vec<(Key, f64)>)>,
}

impl MultiSeriesChart {
    /// Total number of plotted marks across series.
    pub fn mark_count(&self) -> usize {
        self.series.iter().map(|(_, pts)| pts.len()).sum()
    }

    /// Collapse to a single-series [`ChartData`] by summing across series
    /// (used by ranking, which scores the overall shape).
    pub fn flattened(&self) -> ChartData {
        let mut buckets = FirstSeen::new();
        let mut totals: Vec<f64> = Vec::new();
        for (_, pts) in &self.series {
            for (k, v) in pts {
                let idx = buckets.code(Exact(k.clone())) as usize;
                if idx == totals.len() {
                    totals.push(0.0);
                }
                totals[idx] += v;
            }
        }
        let pairs = buckets
            .into_keys()
            .into_iter()
            .map(|k| k.0)
            .zip(totals)
            .collect::<Vec<_>>();
        ChartData {
            chart: self.chart,
            x_label: self.x_label.clone(),
            y_label: self.y_label.clone(),
            series: Series::Keyed(pairs),
        }
    }
}

/// Case (i): one x-column, multiple y-columns, shared transform/aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiYQuery {
    pub chart: ChartType,
    pub x: String,
    pub ys: Vec<String>,
    pub transform: Transform,
    pub aggregate: Aggregate,
    pub order: SortOrder,
}

/// Case (ii): series from X, x-axis from Y (grouped or binned), aggregate
/// over Z.
#[derive(Debug, Clone, PartialEq)]
pub struct XyzQuery {
    pub chart: ChartType,
    /// Series / color column (grouped by exact value).
    pub series_column: String,
    /// x-axis column with its transform.
    pub x: String,
    pub x_transform: Transform,
    /// Aggregated value column.
    pub z: String,
    pub aggregate: Aggregate,
}

/// Statically analyze a multi-Y query: the arity rule (at least two y
/// columns, E0014) plus the union of single-query diagnostics over each
/// `(x, y_i)` decomposition. Diagnostics shared by every decomposition
/// (e.g. a bad x transform) are reported once.
pub fn analyze_multi_y(table: &Table, query: &MultiYQuery, udfs: &UdfRegistry) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if query.ys.len() < 2 {
        out.push(
            Diagnostic::new(
                Code::MultiYNeedsTwoColumns,
                Clause::Select,
                format!(
                    "multi-Y queries need at least two y columns, got {}",
                    query.ys.len()
                ),
            )
            .with_suggestion("add more y columns, or use a plain single-y query"),
        );
    }
    for y in &query.ys {
        let single = VisQuery {
            chart: query.chart,
            x: query.x.clone(),
            y: Some(y.clone()),
            transform: query.transform.clone(),
            aggregate: query.aggregate,
            order: query.order,
        };
        for d in sema::analyze(table, &single, udfs) {
            if !out.contains(&d) {
                out.push(d);
            }
        }
    }
    out
}

/// Statically analyze an XYZ query, in the same order [`execute_xyz`]
/// discovers failures: column lookups, missing aggregate, z-type
/// compatibility, then the x transform (must be GROUP/BIN, with the usual
/// bin/type rules).
pub fn analyze_xyz(table: &Table, query: &XyzQuery, udfs: &UdfRegistry) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (role, name) in [
        ("series", &query.series_column),
        ("x", &query.x),
        ("z", &query.z),
    ] {
        if table.column_by_name(name).is_none() {
            let code = if role == "z" {
                Code::UnknownYColumn
            } else {
                Code::UnknownXColumn
            };
            out.push(Diagnostic::new(
                code,
                Clause::Select,
                format!(
                    "no {role} column named {name:?} in table {:?}",
                    table.name()
                ),
            ));
        }
    }
    if query.aggregate == Aggregate::Raw {
        out.push(
            Diagnostic::new(
                Code::TransformWithoutAggregate,
                Clause::Select,
                "XYZ queries aggregate z per (series, x') cell and need SUM, AVG, or CNT",
            )
            .with_suggestion(format!("e.g. SUM({})", query.z)),
        );
    } else if query.aggregate != Aggregate::Cnt {
        if let Some(z_col) = table.column_by_name(&query.z) {
            if z_col.data_type() != DataType::Numerical {
                out.push(
                    Diagnostic::new(
                        Code::AggregateNeedsNumericY,
                        Clause::Select,
                        format!(
                            "{} requires a numerical z column, {:?} is {}",
                            query.aggregate.name(),
                            query.z,
                            z_col.data_type()
                        ),
                    )
                    .with_suggestion(format!("count instead: CNT({})", query.z)),
                );
            }
        }
    }
    match &query.x_transform {
        Transform::None => {
            out.push(
                Diagnostic::new(
                    Code::XyzNeedsTransform,
                    Clause::Transform,
                    "XYZ queries require the x column to be grouped or binned",
                )
                .with_suggestion(format!("add `GROUP BY {0}` or `BIN {0}`", query.x)),
            );
        }
        x_transform => {
            // Reuse the single-query analyzer for bin/type compatibility of
            // the x transform (errors only; the §V-A chart rules do not
            // extend to multi-series charts).
            let single = VisQuery {
                chart: query.chart,
                x: query.x.clone(),
                y: None,
                transform: x_transform.clone(),
                aggregate: Aggregate::Cnt,
                order: SortOrder::None,
            };
            out.extend(
                sema::analyze(table, &single, udfs)
                    .into_iter()
                    .filter(|d| d.is_error() && d.clause == Clause::Transform),
            );
        }
    }
    out
}

/// Execute a multi-Y query: each y-column becomes one series.
pub fn execute_multi_y(
    table: &Table,
    query: &MultiYQuery,
    udfs: &UdfRegistry,
) -> Result<MultiSeriesChart, QueryError> {
    if query.ys.len() < 2 {
        return Err(QueryError::Invalid(
            "multi-Y queries need at least two y columns".to_owned(),
        ));
    }
    let mut series = Vec::with_capacity(query.ys.len());
    let mut y_label = String::new();
    for y in &query.ys {
        let single = VisQuery {
            chart: query.chart,
            x: query.x.clone(),
            y: Some(y.clone()),
            transform: query.transform.clone(),
            aggregate: query.aggregate,
            order: query.order,
        };
        let chart = execute_with(table, &single, udfs)?;
        if y_label.is_empty() {
            y_label = chart.y_label.replace(y.as_str(), "*");
        }
        match chart.series {
            Series::Keyed(pairs) => series.push((y.clone(), pairs)),
            Series::Points(pts) => series.push((
                y.clone(),
                pts.into_iter().map(|(x, v)| (Key::Number(x), v)).collect(),
            )),
        }
    }
    Ok(MultiSeriesChart {
        chart: query.chart,
        x_label: query.x.clone(),
        y_label,
        series,
    })
}

/// Execute an XYZ query: group rows by the series column, then aggregate Z
/// over the transformed x-axis within each group.
pub fn execute_xyz(
    table: &Table,
    query: &XyzQuery,
    udfs: &UdfRegistry,
) -> Result<MultiSeriesChart, QueryError> {
    let series_col = table
        .column_by_name(&query.series_column)
        .ok_or_else(|| QueryError::NoSuchColumn(query.series_column.clone()))?;
    let x_col = table
        .column_by_name(&query.x)
        .ok_or_else(|| QueryError::NoSuchColumn(query.x.clone()))?;
    let z_col = table
        .column_by_name(&query.z)
        .ok_or_else(|| QueryError::NoSuchColumn(query.z.clone()))?;
    if query.aggregate == Aggregate::Raw {
        return Err(QueryError::Invalid(
            "XYZ queries require an aggregate".to_owned(),
        ));
    }
    let z_vals: Option<&[Option<f64>]> = match z_col.data() {
        ColumnData::Numeric(v) => Some(v),
        _ if query.aggregate == Aggregate::Cnt => None,
        _ => {
            return Err(QueryError::Invalid(format!(
                "{} requires a numerical z column",
                query.aggregate.name()
            )));
        }
    };

    let series_codes = key_codes(series_col, &Transform::Group, udfs)?;
    let x_codes = match &query.x_transform {
        Transform::None => {
            return Err(QueryError::Invalid(
                "XYZ queries require the x column to be grouped or binned".to_owned(),
            ));
        }
        transform => key_codes(x_col, transform, udfs)?,
    };

    // Series and x buckets are numbered from their column codes in the
    // order rows with both keys non-null first reach them, and cells from
    // those numbers; each cell takes its rows in row order.
    let mut series_seen = FirstSeen::new();
    let mut x_seen = FirstSeen::new();
    let mut cells = FirstSeen::new();
    let mut acc: Vec<(f64, u64)> = Vec::new();
    for (row, (&s, &x)) in series_codes.codes.iter().zip(&x_codes.codes).enumerate() {
        if s == NULL_CODE || x == NULL_CODE {
            continue;
        }
        let cell = cells.code((series_seen.code(s), x_seen.code(x))) as usize;
        if cell == acc.len() {
            acc.push((0.0, 0));
        }
        match (query.aggregate, z_vals) {
            (Aggregate::Sum | Aggregate::Avg, Some(z)) => {
                if let Some(z) = z[row] {
                    acc[cell].0 += z;
                    acc[cell].1 += 1;
                }
            }
            _ => acc[cell].1 += 1,
        }
    }
    if acc.is_empty() {
        return Err(QueryError::EmptyResult);
    }
    let x_order = x_seen.into_keys();
    let mut series: Vec<(String, Vec<(Key, f64)>)> = series_seen
        .into_keys()
        .into_iter()
        .map(|code| (series_codes.keys[code as usize].to_string(), Vec::new()))
        .collect();
    let cell_keys = cells.into_keys();
    let mut by_cell: Vec<usize> = (0..cell_keys.len()).collect();
    by_cell.sort_by_key(|&c| cell_keys[c]);
    for c in by_cell {
        let (s, x) = cell_keys[c];
        let (sum, cnt) = acc[c];
        let v = match query.aggregate {
            Aggregate::Sum => sum,
            Aggregate::Avg if cnt == 0 => continue,
            Aggregate::Avg => sum / cnt as f64,
            _ => cnt as f64,
        };
        let key = x_codes.keys[x_order[x as usize] as usize].clone();
        series[s as usize].1.push((key, v));
    }
    for (_, pts) in &mut series {
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    series.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(MultiSeriesChart {
        chart: query.chart,
        x_label: query.x.clone(),
        y_label: format!("{}({})", query.aggregate.name(), query.z),
        series,
    })
}

/// Size of the paper's XYZ search space: `704·m³` (§II-B).
pub fn xyz_space_size(m: usize) -> usize {
    704 * m * m * m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinStrategy;
    use deepeye_data::{parse_timestamp, Column, TableBuilder, TimeUnit};

    fn flights() -> Table {
        let times: Vec<_> = [
            "2015-01-05",
            "2015-01-20",
            "2015-02-10",
            "2015-02-15",
            "2015-02-28",
        ]
        .iter()
        .map(|s| parse_timestamp(s).unwrap())
        .collect();
        TableBuilder::new("flights")
            .column(Column::temporal("scheduled", times))
            .text("destination", ["NYC", "LA", "NYC", "LA", "NYC"])
            .numeric("passengers", [100.0, 200.0, 150.0, 50.0, 80.0])
            .numeric("delay", [5.0, -1.0, 8.0, 2.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn xyz_stacked_bar_like_figure_1b() {
        // Figure 1(b): x = scheduled binned by month, stacked by
        // destination, y = SUM(passengers).
        let q = XyzQuery {
            chart: ChartType::Bar,
            series_column: "destination".into(),
            x: "scheduled".into(),
            x_transform: Transform::Bin(BinStrategy::Unit(TimeUnit::Month)),
            z: "passengers".into(),
            aggregate: Aggregate::Sum,
        };
        let chart = execute_xyz(&flights(), &q, &UdfRegistry::default()).unwrap();
        assert_eq!(chart.series.len(), 2);
        let la = &chart.series[0];
        let nyc = &chart.series[1];
        assert_eq!(la.0, "LA");
        assert_eq!(nyc.0, "NYC");
        // LA: Jan 200, Feb 50. NYC: Jan 100, Feb 230.
        assert_eq!(
            la.1.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![200.0, 50.0]
        );
        assert_eq!(
            nyc.1.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![100.0, 230.0]
        );
        // Flattened totals conserve the grand total.
        let flat = chart.flattened();
        let total: f64 = flat.series.y_values().iter().sum();
        assert_eq!(total, 580.0);
    }

    #[test]
    fn multi_y_compares_columns() {
        let q = MultiYQuery {
            chart: ChartType::Line,
            x: "destination".into(),
            ys: vec!["passengers".into(), "delay".into()],
            transform: Transform::Group,
            aggregate: Aggregate::Avg,
            order: SortOrder::ByX,
        };
        let chart = execute_multi_y(&flights(), &q, &UdfRegistry::default()).unwrap();
        assert_eq!(chart.series.len(), 2);
        assert_eq!(chart.series[0].0, "passengers");
        assert_eq!(chart.y_label, "AVG(*)");
        assert_eq!(chart.mark_count(), 4);
    }

    #[test]
    fn multi_y_requires_two_columns() {
        let q = MultiYQuery {
            chart: ChartType::Line,
            x: "destination".into(),
            ys: vec!["passengers".into()],
            transform: Transform::Group,
            aggregate: Aggregate::Avg,
            order: SortOrder::None,
        };
        assert!(matches!(
            execute_multi_y(&flights(), &q, &UdfRegistry::default()),
            Err(QueryError::Invalid(_))
        ));
    }

    #[test]
    fn xyz_requires_transform_and_aggregate() {
        let base = XyzQuery {
            chart: ChartType::Bar,
            series_column: "destination".into(),
            x: "scheduled".into(),
            x_transform: Transform::None,
            z: "passengers".into(),
            aggregate: Aggregate::Sum,
        };
        assert!(matches!(
            execute_xyz(&flights(), &base, &UdfRegistry::default()),
            Err(QueryError::Invalid(_))
        ));
        let raw = XyzQuery {
            aggregate: Aggregate::Raw,
            ..base
        };
        assert!(matches!(
            execute_xyz(&flights(), &raw, &UdfRegistry::default()),
            Err(QueryError::Invalid(_))
        ));
    }

    #[test]
    fn xyz_cnt_on_categorical_z() {
        let q = XyzQuery {
            chart: ChartType::Bar,
            series_column: "destination".into(),
            x: "scheduled".into(),
            x_transform: Transform::Bin(BinStrategy::Unit(TimeUnit::Month)),
            z: "destination".into(),
            aggregate: Aggregate::Cnt,
        };
        let chart = execute_xyz(&flights(), &q, &UdfRegistry::default()).unwrap();
        let total: f64 = chart
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|(_, v)| *v))
            .sum();
        assert_eq!(total, 5.0);
    }

    #[test]
    fn space_size_formula() {
        assert_eq!(xyz_space_size(2), 704 * 8);
    }

    #[test]
    fn analyze_multi_y_agrees_with_execution() {
        let t = flights();
        let udfs = UdfRegistry::default();
        let columns = ["scheduled", "destination", "passengers", "delay"];
        for x in columns {
            for transform in [
                Transform::Group,
                Transform::Bin(BinStrategy::Unit(TimeUnit::Month)),
                Transform::Bin(BinStrategy::Default),
            ] {
                for ys in [
                    vec!["passengers".to_owned(), "delay".to_owned()],
                    vec!["passengers".to_owned()],
                    vec!["passengers".to_owned(), "nope".to_owned()],
                ] {
                    let q = MultiYQuery {
                        chart: ChartType::Line,
                        x: x.into(),
                        ys,
                        transform: transform.clone(),
                        aggregate: Aggregate::Avg,
                        order: SortOrder::ByX,
                    };
                    let fatal = analyze_multi_y(&t, &q, &udfs).iter().any(|d| d.is_error());
                    let ran = execute_multi_y(&t, &q, &udfs);
                    match ran {
                        Ok(_) | Err(QueryError::EmptyResult) => {
                            assert!(!fatal, "executed but sema found an error: {q:?}")
                        }
                        Err(e) => assert!(fatal, "sema clean but execution failed: {q:?} → {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn analyze_xyz_agrees_with_execution() {
        let t = flights();
        let udfs = UdfRegistry::default();
        let transforms = [
            Transform::None,
            Transform::Group,
            Transform::Bin(BinStrategy::Unit(TimeUnit::Month)),
            Transform::Bin(BinStrategy::Default),
            Transform::Bin(BinStrategy::Udf("missing".into())),
        ];
        let columns = ["scheduled", "destination", "passengers", "nope"];
        for series_column in columns {
            for x in columns {
                for z in columns {
                    for x_transform in &transforms {
                        for aggregate in Aggregate::ALL {
                            let q = XyzQuery {
                                chart: ChartType::Bar,
                                series_column: series_column.into(),
                                x: x.into(),
                                x_transform: x_transform.clone(),
                                z: z.into(),
                                aggregate,
                            };
                            let fatal = analyze_xyz(&t, &q, &udfs).iter().any(|d| d.is_error());
                            match execute_xyz(&t, &q, &udfs) {
                                Ok(_) | Err(QueryError::EmptyResult) => {
                                    assert!(!fatal, "executed but sema errored: {q:?}")
                                }
                                Err(e) => {
                                    assert!(fatal, "sema clean but failed: {q:?} → {e}")
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
