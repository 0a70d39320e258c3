//! Multi-column visualization selection — recommendation support for the
//! §II-B extensions: XYZ charts (group X as the series/color, bin/group Y
//! as the x-axis, aggregate Z), the shape of the paper's Figure 1(b)
//! stacked bar, plus multi-Y comparisons.
//!
//! The paper bounds this space at `704·m³` and leaves selection to the
//! same machinery; here rule filtering keeps the candidates sane (series
//! column must be categorical with few values, x-axis bin/group per the
//! §V-A transformation rules) and ranking reuses the factor triple on the
//! flattened chart with a series-legibility discount.

use crate::features::NodeFeatures;
use crate::partial_order::raw_match_quality;
use crate::rules;
use deepeye_data::{DataType, Table};
use deepeye_query::{
    execute_xyz, Aggregate, ChartType, MultiSeriesChart, Transform, UdfRegistry, XyzQuery,
};

/// Maximum number of series a multi-column chart may have before it stops
/// being legible (stacked bars with dozens of colors are noise).
pub const MAX_SERIES: usize = 8;

/// A scored multi-column recommendation.
#[derive(Debug, Clone)]
pub struct MultiRecommendation {
    pub rank: usize,
    pub query: XyzQuery,
    pub chart: MultiSeriesChart,
    pub score: f64,
}

/// Enumerate the rule-admitted XYZ candidates of a table:
/// - series column: categorical with 2–[`MAX_SERIES`] distinct values;
/// - x-axis column: any column admitted by the §V-A transformation rules
///   (grouped categorical, binned numeric/temporal), distinct from the
///   series column;
/// - z column: numerical, with AGG ∈ {SUM, AVG, CNT} (CNT also allows a
///   categorical z);
/// - chart: bar (stacked) for categorical/binned x, line for temporal x.
pub fn xyz_candidates(table: &Table) -> Vec<XyzQuery> {
    let mut out = Vec::new();
    for series_col in table.columns() {
        if series_col.data_type() != DataType::Categorical {
            continue;
        }
        let k = series_col.distinct_count();
        if !(2..=MAX_SERIES).contains(&k) {
            continue;
        }
        for x_col in table.columns() {
            if x_col.name() == series_col.name() {
                continue;
            }
            let x_type = x_col.data_type();
            for transform in rules::applicable_transforms(x_type) {
                let x_prime = rules::transformed_x_type(x_type, &transform);
                let chart = match x_prime {
                    DataType::Temporal => ChartType::Line,
                    _ => ChartType::Bar,
                };
                for z_col in table.columns() {
                    if z_col.name() == series_col.name() || z_col.name() == x_col.name() {
                        continue;
                    }
                    let aggs: Vec<Aggregate> = match z_col.data_type() {
                        DataType::Numerical => vec![Aggregate::Sum, Aggregate::Avg],
                        _ => vec![Aggregate::Cnt],
                    };
                    for aggregate in aggs {
                        out.push(XyzQuery {
                            chart,
                            series_column: series_col.name().to_owned(),
                            x: x_col.name().to_owned(),
                            x_transform: transform.clone(),
                            z: z_col.name().to_owned(),
                            aggregate,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Score a multi-series chart: the flattened chart's matching quality and
/// transform quality, a series-count legibility term, and a balance term
/// (series of wildly different coverage stack poorly).
pub fn score_multi(table: &Table, chart: &MultiSeriesChart) -> f64 {
    let flat = chart.flattened();
    let source_x_type = table
        .column_by_name(&chart.x_label)
        .map(|c| c.data_type())
        .unwrap_or(DataType::Categorical);
    let features = NodeFeatures::from_chart(&flat, table.row_count(), source_x_type);
    // Reuse the single-series match quality on the flattened view via a
    // synthetic node (the query part is irrelevant to M).
    let node = crate::node::VisNode::new(
        deepeye_query::VisQuery {
            chart: flat.chart,
            x: chart.x_label.clone(),
            y: None,
            transform: Transform::Group,
            aggregate: Aggregate::Sum,
            order: deepeye_query::SortOrder::None,
        },
        flat,
        features,
    );
    let m = raw_match_quality(&node);
    let q = crate::partial_order::transform_quality(&node);

    let s = chart.series.len() as f64;
    let legibility = if chart.series.len() <= MAX_SERIES {
        1.0 - (s - 2.0).max(0.0) / (2.0 * MAX_SERIES as f64)
    } else {
        0.2
    };
    let sizes: Vec<f64> = chart
        .series
        .iter()
        .map(|(_, pts)| pts.len() as f64)
        .collect();
    let balance = deepeye_data::stats::min(&sizes).unwrap_or(0.0)
        / deepeye_data::stats::max(&sizes).unwrap_or(1.0).max(1.0);

    (m + q + legibility + balance) / 4.0
}

/// Recommend the top-k multi-column charts of a table.
pub fn recommend_multi(table: &Table, k: usize, udfs: &UdfRegistry) -> Vec<MultiRecommendation> {
    let mut scored: Vec<(XyzQuery, MultiSeriesChart, f64)> = Vec::new();
    for query in xyz_candidates(table) {
        let Ok(chart) = execute_xyz(table, &query, udfs) else {
            continue;
        };
        if chart.series.len() < 2 {
            continue; // a single series is not a multi-column story
        }
        let score = score_multi(table, &chart);
        scored.push((query, chart, score));
    }
    scored.sort_by(|a, b| b.2.total_cmp(&a.2));
    scored
        .into_iter()
        .take(k)
        .enumerate()
        .map(|(i, (query, chart, score))| MultiRecommendation {
            rank: i + 1,
            query,
            chart,
            score,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Multi-Y (case (i) of §II-B): one x-column, several y-columns compared on
// a shared axis.
// ---------------------------------------------------------------------------

/// A scored multi-Y recommendation.
#[derive(Debug, Clone)]
pub struct MultiYRecommendation {
    pub rank: usize,
    pub query: deepeye_query::MultiYQuery,
    pub chart: MultiSeriesChart,
    pub score: f64,
}

/// How close two value ranges must be (ratio of the smaller to the larger
/// span) for their columns to share one y-axis legibly.
pub const AXIS_COMPAT_THRESHOLD: f64 = 0.05;

/// Span of a numeric column (max − min), `None` when not numeric/empty.
fn span_of(table: &Table, name: &str) -> Option<f64> {
    let col = table.column_by_name(name)?;
    if col.data_type() != DataType::Numerical {
        return None;
    }
    Some((col.max_scalar()? - col.min_scalar()?).abs())
}

/// Enumerate multi-Y candidates: an x-column admitted by the rules paired
/// with 2–3 numeric y-columns whose value spans are axis-compatible
/// (series with wildly different magnitudes are unreadable on one scale —
/// a constraint the paper's "compare the Y_i columns" intent presumes).
pub fn multi_y_candidates(table: &Table) -> Vec<deepeye_query::MultiYQuery> {
    let numeric: Vec<(&str, f64)> = table
        .columns()
        .iter()
        .filter_map(|c| span_of(table, c.name()).map(|s| (c.name(), s)))
        .collect();
    let mut out = Vec::new();
    for x_col in table.columns() {
        let x_type = x_col.data_type();
        for transform in rules::applicable_transforms(x_type) {
            let x_prime = rules::transformed_x_type(x_type, &transform);
            let chart = match x_prime {
                DataType::Temporal => ChartType::Line,
                _ => ChartType::Bar,
            };
            // All axis-compatible pairs (and triples) of y-columns.
            for i in 0..numeric.len() {
                for j in i + 1..numeric.len() {
                    let (ya, sa) = numeric[i];
                    let (yb, sb) = numeric[j];
                    if ya == x_col.name() || yb == x_col.name() {
                        continue;
                    }
                    let ratio = sa.min(sb) / sa.max(sb).max(1e-12);
                    if ratio < AXIS_COMPAT_THRESHOLD {
                        continue;
                    }
                    out.push(deepeye_query::MultiYQuery {
                        chart,
                        x: x_col.name().to_owned(),
                        ys: vec![ya.to_owned(), yb.to_owned()],
                        transform: transform.clone(),
                        aggregate: Aggregate::Avg,
                        order: deepeye_query::SortOrder::ByX,
                    });
                }
            }
        }
    }
    out
}

/// Recommend the top-k multi-Y comparisons of a table. Scoring combines
/// the per-series flattened match quality, the axis balance of the series,
/// and how differently the series move (comparisons of identical lines are
/// pointless; so are completely unrelated ones — the inverted-U again).
pub fn recommend_multi_y(table: &Table, k: usize, udfs: &UdfRegistry) -> Vec<MultiYRecommendation> {
    let mut scored: Vec<(deepeye_query::MultiYQuery, MultiSeriesChart, f64)> = Vec::new();
    for query in multi_y_candidates(table) {
        let Ok(chart) = deepeye_query::execute_multi_y(table, &query, udfs) else {
            continue;
        };
        if chart.series.len() < 2 || chart.series.iter().any(|(_, pts)| pts.len() < 2) {
            continue;
        }
        // Series divergence: mean pairwise shape distance, mapped through
        // an inverted-U (0 at identical, 0 at unrelated, peak in between).
        let shapes: Vec<Vec<f64>> = chart
            .series
            .iter()
            .map(|(_, pts)| pts.iter().map(|(_, y)| *y).collect())
            .collect();
        let mut dist_sum = 0.0;
        let mut pairs = 0.0;
        for i in 0..shapes.len() {
            for j in i + 1..shapes.len() {
                dist_sum += crate::similarity::shape_distance(&shapes[i], &shapes[j], 16);
                pairs += 1.0;
            }
        }
        let mean_dist = if pairs > 0.0 { dist_sum / pairs } else { 0.0 };
        // shape_distance of z-normalized series tops out around 2.0.
        let u = (mean_dist / 2.0).clamp(0.0, 1.0);
        let divergence = 4.0 * u * (1.0 - u);

        let flat = chart.flattened();
        let features = NodeFeatures::from_chart(&flat, table.row_count(), DataType::Numerical);
        let node = crate::node::VisNode::new(
            deepeye_query::VisQuery {
                chart: flat.chart,
                x: chart.x_label.clone(),
                y: None,
                transform: query.transform.clone(),
                aggregate: Aggregate::Cnt,
                order: deepeye_query::SortOrder::None,
            },
            flat,
            features,
        );
        let m = raw_match_quality(&node);
        let q = crate::partial_order::transform_quality(&node);
        let score = (m + q + divergence) / 3.0;
        scored.push((query, chart, score));
    }
    scored.sort_by(|a, b| b.2.total_cmp(&a.2));
    scored
        .into_iter()
        .take(k)
        .enumerate()
        .map(|(i, (query, chart, score))| MultiYRecommendation {
            rank: i + 1,
            query,
            chart,
            score,
        })
        .collect()
}

#[cfg(test)]
mod multi_y_tests {
    use super::*;
    use deepeye_data::TableBuilder;

    fn table() -> Table {
        let n = 60;
        TableBuilder::new("t")
            .text("cat", (0..n).map(|i| ["a", "b", "c", "d"][i % 4]))
            .numeric("sales", (0..n).map(|i| 100.0 + (i % 13) as f64 * 3.0))
            .numeric(
                "returns",
                (0..n).map(|i| 90.0 + ((i * 7) % 17) as f64 * 2.0),
            )
            .numeric("micros", (0..n).map(|i| (i % 5) as f64 * 1e-4))
            .build()
            .unwrap()
    }

    #[test]
    fn candidates_respect_axis_compatibility() {
        let cands = multi_y_candidates(&table());
        assert!(!cands.is_empty());
        for c in &cands {
            assert_eq!(c.ys.len(), 2);
            // The micro-scale column never shares an axis with the others.
            assert!(
                !c.ys.contains(&"micros".to_owned()) || c.ys.iter().all(|y| y == "micros"),
                "axis-incompatible pair admitted: {c:?}"
            );
            assert!(!c.ys.contains(&c.x));
        }
    }

    #[test]
    fn recommendations_are_scored_and_ordered() {
        let recs = recommend_multi_y(&table(), 4, &UdfRegistry::default());
        assert!(!recs.is_empty());
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for r in &recs {
            assert_eq!(r.chart.series.len(), 2);
            assert!((0.0..=1.0).contains(&r.score), "score {}", r.score);
        }
    }

    #[test]
    fn tables_without_numeric_pairs_yield_nothing() {
        let t = TableBuilder::new("t")
            .text("a", ["x", "y"])
            .numeric("only", [1.0, 2.0])
            .build()
            .unwrap();
        assert!(multi_y_candidates(&t).is_empty());
        assert!(recommend_multi_y(&t, 3, &UdfRegistry::default()).is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::{parse_timestamp, Column, TableBuilder};

    fn flights() -> Table {
        let n = 120;
        let times: Vec<_> = (0..n)
            .map(|i| parse_timestamp(&format!("2015-{:02}-{:02}", i % 12 + 1, i % 28 + 1)).unwrap())
            .collect();
        TableBuilder::new("t")
            .column(Column::temporal("when", times))
            .text("dest", (0..n).map(|i| ["NYC", "LA", "SF"][i % 3]))
            .numeric("pax", (0..n).map(|i| 100.0 + (i % 37) as f64 * 3.0))
            .numeric("delay", (0..n).map(|i| (i % 23) as f64 - 5.0))
            .build()
            .unwrap()
    }

    #[test]
    fn candidates_respect_rules() {
        let t = flights();
        let cands = xyz_candidates(&t);
        assert!(!cands.is_empty());
        for c in &cands {
            // Series column is the categorical one.
            assert_eq!(c.series_column, "dest");
            assert_ne!(c.x, c.series_column);
            assert_ne!(c.z, c.x);
            assert_ne!(c.z, c.series_column);
            assert!(c.aggregate != Aggregate::Raw);
            assert!(!matches!(c.x_transform, Transform::None));
        }
        // Temporal x gets line charts, others bars.
        assert!(cands
            .iter()
            .any(|c| c.chart == ChartType::Line && c.x == "when"));
    }

    #[test]
    fn recommendations_are_ordered_and_multi_series() {
        let t = flights();
        let recs = recommend_multi(&t, 5, &UdfRegistry::default());
        assert!(!recs.is_empty());
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for r in &recs {
            assert!(r.chart.series.len() >= 2);
            assert!(r.chart.series.len() <= MAX_SERIES);
            assert!((0.0..=1.0).contains(&r.score));
        }
        assert_eq!(recs[0].rank, 1);
    }

    #[test]
    fn too_many_series_excluded() {
        // 40 distinct categories: no multi-column candidate uses it as the
        // series column.
        let n = 200;
        let t = TableBuilder::new("t")
            .text("wide", (0..n).map(|i| format!("c{}", i % 40)))
            .text("narrow", (0..n).map(|i| ["a", "b"][i % 2]))
            .numeric("v", (0..n).map(|i| i as f64))
            .build()
            .unwrap();
        let cands = xyz_candidates(&t);
        assert!(cands.iter().all(|c| c.series_column == "narrow"));
    }

    #[test]
    fn no_categorical_column_means_no_candidates() {
        let t = TableBuilder::new("t")
            .numeric("a", (0..50).map(f64::from))
            .numeric("b", (0..50).map(|i| f64::from(i) * 2.0))
            .build()
            .unwrap();
        assert!(xyz_candidates(&t).is_empty());
        assert!(recommend_multi(&t, 3, &UdfRegistry::default()).is_empty());
    }
}
