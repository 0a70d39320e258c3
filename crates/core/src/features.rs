//! The 14-dimension feature vector of §III.
//!
//! For the two plotted columns the paper uses features (1)–(5) each —
//! distinct count `d(X)`, tuple count `|X|`, unique ratio `r(X)`,
//! min / max, and data type — giving 12, plus (6) the column correlation
//! `c(X, Y)` and (7) the visualization type: 14 in total. Features are
//! computed on the *plotted* (transformed) data, which is what the
//! recognition classifier must judge.

use deepeye_data::stats;
use deepeye_data::{correlation, trend_of_series, DataType, Trend};
use deepeye_query::{ChartData, ChartType, Series};

/// Features (1)–(5) for one plotted column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnFeatures {
    /// (1) number of distinct values.
    pub distinct: usize,
    /// (2) number of tuples.
    pub tuples: usize,
    /// (3) unique ratio `d/|X|`.
    pub unique_ratio: f64,
    /// (4) minimum value (0 for categorical).
    pub min: f64,
    /// (4) maximum value (0 for categorical).
    pub max: f64,
    /// (5) data type.
    pub dtype: DataType,
}

impl ColumnFeatures {
    fn from_values(values: &[f64], dtype: DataType) -> Self {
        Self::counted(values, distinct_count(values), dtype)
    }

    /// [`Self::from_values`] with the distinct count of `values` (by
    /// their bits) already known.
    pub(crate) fn counted(values: &[f64], distinct: usize, dtype: DataType) -> Self {
        let tuples = values.len();
        ColumnFeatures {
            distinct,
            tuples,
            unique_ratio: if tuples == 0 {
                0.0
            } else {
                distinct as f64 / tuples as f64
            },
            min: stats::min(values).unwrap_or(0.0),
            max: stats::max(values).unwrap_or(0.0),
            dtype,
        }
    }

    fn from_labels(labels_distinct: usize, tuples: usize, dtype: DataType) -> Self {
        ColumnFeatures {
            distinct: labels_distinct,
            tuples,
            unique_ratio: if tuples == 0 {
                0.0
            } else {
                labels_distinct as f64 / tuples as f64
            },
            min: 0.0,
            max: 0.0,
            dtype,
        }
    }
}

fn distinct_count(values: &[f64]) -> usize {
    let mut bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    bits.sort_unstable();
    bits.dedup();
    bits.len()
}

/// The type of an x-scale whose source column has type `source`:
/// temporal stays temporal, anything else plots as numbers.
pub(crate) fn scale_type(source: DataType) -> DataType {
    if source == DataType::Temporal {
        DataType::Temporal
    } else {
        DataType::Numerical
    }
}

fn dtype_code(t: DataType) -> f64 {
    match t {
        DataType::Categorical => 0.0,
        DataType::Numerical => 1.0,
        DataType::Temporal => 2.0,
    }
}

fn chart_code(c: ChartType) -> f64 {
    match c {
        ChartType::Bar => 0.0,
        ChartType::Line => 1.0,
        ChartType::Pie => 2.0,
        ChartType::Scatter => 3.0,
    }
}

/// The feature set of a visualization node: the paper's 14 dimensions
/// plus the original row count and x type that Q (Eq. 6) reads. Every
/// candidate needs these, for recognition and both rankers; the two
/// statistics only M reads are computed from the series where M is, by
/// [`line_trend`] (Eq. 4) and [`slice_entropy`] (Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFeatures {
    pub x: ColumnFeatures,
    pub y: ColumnFeatures,
    /// (6) correlation of the plotted x/y series, signed, in [-1, 1].
    pub correlation: f64,
    /// (7) the visualization type.
    pub chart: ChartType,
    /// Rows in the source table, `|X|` before transformation.
    pub source_rows: usize,
    /// Original (pre-transform) data type of the x column.
    pub source_x_type: DataType,
}

impl NodeFeatures {
    /// Extract features from an executed chart.
    ///
    /// `source_rows` / `source_x_type` describe the original column the
    /// query read so the transform-quality factor `Q(v) = 1 − |X'|/|X|`
    /// can be computed. Apart from `chart.chart`, the result depends only
    /// on these two and the plotted series.
    pub fn from_chart(chart: &ChartData, source_rows: usize, source_x_type: DataType) -> Self {
        let xs = chart.series.x_positions();
        let ys = chart.series.y_values();
        let x_feat = match &chart.series {
            Series::Keyed(pairs) if pairs.iter().any(|(k, _)| k.scale_position().is_none()) => {
                ColumnFeatures::from_labels(pairs.len(), pairs.len(), DataType::Categorical)
            }
            _ => ColumnFeatures::from_values(&xs, scale_type(source_x_type)),
        };
        NodeFeatures {
            x: x_feat,
            y: ColumnFeatures::from_values(&ys, DataType::Numerical),
            correlation: correlation(&xs, &ys).coefficient,
            chart: chart.chart,
            source_rows,
            source_x_type,
        }
    }

    /// The canonical 14-dimension vector fed to the ML models, in the
    /// paper's order: x(1–5), y(1–5), correlation, chart type.
    pub fn to_vector(&self) -> Vec<f64> {
        vec![
            self.x.distinct as f64,
            self.x.tuples as f64,
            self.x.unique_ratio,
            self.x.min,
            self.x.max,
            dtype_code(self.x.dtype),
            self.y.distinct as f64,
            self.y.tuples as f64,
            self.y.unique_ratio,
            self.y.min,
            self.y.max,
            dtype_code(self.y.dtype),
            self.correlation,
            chart_code(self.chart),
        ]
    }

    /// Number of plotted marks `|X'|`.
    pub fn transformed_rows(&self) -> usize {
        self.x.tuples
    }
}

/// Eq. 4's trend test of a plotted series: its y-values in x order
/// (stable, so equal positions keep plot order), fitted against
/// 1, 2, …, n. Text keys sit at their plot rank.
pub fn line_trend(series: &Series) -> Trend {
    let xs = series.x_positions();
    let ys = series.y_values();
    let mut order: Vec<usize> = (0..ys.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let sorted_ys: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
    trend_of_series(&sorted_ys)
}

/// Eq. 1's slice diversity: the normalized entropy of a plotted series'
/// y-values as weights, negative values counting as 0.
pub fn slice_entropy(series: &Series) -> f64 {
    let weights: Vec<f64> = series.y_values().iter().map(|y| y.max(0.0)).collect();
    stats::normalized_entropy(&weights)
}

/// Dimension of [`NodeFeatures::to_vector`].
pub const FEATURE_DIM: usize = 14;

/// Human-readable names for the dimensions of [`NodeFeatures::to_vector`]
/// (and [`pair_feature_vector`], which shares the layout), in order.
/// Classifier decision paths are recorded as feature *indices*; provenance
/// rendering maps them back through this table.
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "x.distinct",
    "x.tuples",
    "x.unique_ratio",
    "x.min",
    "x.max",
    "x.dtype",
    "y.distinct",
    "y.tuples",
    "y.unique_ratio",
    "y.min",
    "y.max",
    "y.dtype",
    "correlation",
    "chart",
];

/// The paper-faithful 14-feature vector computed from the **original**
/// columns (§III lists features (1)–(6) over the table's columns `X`, `Y`
/// plus (7) the chart type). Under this reading the ML models cannot see
/// the transform at all — two candidates that differ only in binning have
/// identical vectors. That blindness is precisely the paper's explanation
/// for why learning-to-rank trails the expert partial order ("learning to
/// rank cannot learn these rules"), so the reproduction's experiment
/// harnesses use this vector for the classifier and LambdaMART, while the
/// library's default recognizer may use the richer
/// [`NodeFeatures::to_vector`] (a documented improvement over the paper).
///
/// One-column charts (`y = None`) duplicate the x column stats for the
/// y slots (the chart plots CNT(X) against X).
pub fn pair_feature_vector(
    table: &deepeye_data::Table,
    x: &str,
    y: Option<&str>,
    chart: ChartType,
) -> Option<Vec<f64>> {
    fn column_stats(col: &deepeye_data::Column) -> [f64; 6] {
        [
            col.distinct_count() as f64,
            col.len() as f64,
            col.unique_ratio(),
            col.min_scalar().unwrap_or(0.0),
            col.max_scalar().unwrap_or(0.0),
            dtype_code(col.data_type()),
        ]
    }
    let x_col = table.column_by_name(x)?;
    let y_col = match y {
        Some(name) => table.column_by_name(name)?,
        None => x_col,
    };
    let xs = column_stats(x_col);
    let ys = column_stats(y_col);
    // (6): correlation of the original columns (0 when either side is not
    // numeric — there is no meaningful raw pairing).
    let corr =
        if x_col.data_type() == DataType::Numerical && y_col.data_type() == DataType::Numerical {
            correlation(&x_col.numbers(), &y_col.numbers()).coefficient
        } else {
            0.0
        };
    let mut v = Vec::with_capacity(FEATURE_DIM);
    v.extend_from_slice(&xs);
    v.extend_from_slice(&ys);
    v.push(corr);
    v.push(chart_code(chart));
    Some(v)
}

#[cfg(test)]
mod pair_tests {
    use super::*;
    use deepeye_data::TableBuilder;

    #[test]
    fn pair_vector_is_transform_blind_and_fourteen_dim() {
        let t = TableBuilder::new("t")
            .text("cat", ["a", "b", "a"])
            .numeric("v", [1.0, 2.0, 3.0])
            .build()
            .unwrap();
        let v = pair_feature_vector(&t, "cat", Some("v"), ChartType::Bar).unwrap();
        assert_eq!(v.len(), FEATURE_DIM);
        // Chart type is the only thing distinguishing same-pair combos.
        let v2 = pair_feature_vector(&t, "cat", Some("v"), ChartType::Pie).unwrap();
        assert_eq!(v[..13], v2[..13]);
        assert_ne!(v[13], v2[13]);
        // Unknown columns yield None.
        assert!(pair_feature_vector(&t, "nope", Some("v"), ChartType::Bar).is_none());
    }

    #[test]
    fn pair_vector_correlation_for_numeric_pairs() {
        let t = TableBuilder::new("t")
            .numeric("a", (0..30).map(f64::from))
            .numeric("b", (0..30).map(|i| f64::from(i) * 2.0))
            .text("c", (0..30).map(|i| format!("x{i}")))
            .build()
            .unwrap();
        let v = pair_feature_vector(&t, "a", Some("b"), ChartType::Scatter).unwrap();
        assert!(v[12] > 0.99, "corr feature {}", v[12]);
        let vc = pair_feature_vector(&t, "a", Some("c"), ChartType::Bar).unwrap();
        assert_eq!(vc[12], 0.0);
    }

    #[test]
    fn one_column_duplicates_x_stats() {
        let t = TableBuilder::new("t")
            .text("cat", ["a", "b", "a"])
            .build()
            .unwrap();
        let v = pair_feature_vector(&t, "cat", None, ChartType::Pie).unwrap();
        assert_eq!(v[..6], v[6..12]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_query::Key;

    fn keyed_chart(chart: ChartType, pairs: Vec<(Key, f64)>) -> ChartData {
        ChartData {
            chart,
            x_label: "x".into(),
            y_label: "y".into(),
            series: Series::Keyed(pairs),
        }
    }

    #[test]
    fn vector_has_fourteen_dimensions() {
        let chart = keyed_chart(
            ChartType::Bar,
            vec![(Key::Text("a".into()), 1.0), (Key::Text("b".into()), 2.0)],
        );
        let f = NodeFeatures::from_chart(&chart, 100, DataType::Categorical);
        assert_eq!(f.to_vector().len(), FEATURE_DIM);
    }

    #[test]
    fn categorical_keys_detected() {
        let chart = keyed_chart(
            ChartType::Bar,
            vec![(Key::Text("a".into()), 1.0), (Key::Text("b".into()), 5.0)],
        );
        let f = NodeFeatures::from_chart(&chart, 10, DataType::Categorical);
        assert_eq!(f.x.dtype, DataType::Categorical);
        assert_eq!(f.x.distinct, 2);
        assert_eq!(f.y.dtype, DataType::Numerical);
        assert_eq!(f.y.min, 1.0);
        assert_eq!(f.y.max, 5.0);
        assert_eq!(f.source_rows, 10);
    }

    #[test]
    fn numeric_interval_keys_are_numerical() {
        let chart = keyed_chart(
            ChartType::Bar,
            vec![
                (Key::Interval { lo: 0.0, hi: 10.0 }, 3.0),
                (Key::Interval { lo: 10.0, hi: 20.0 }, 4.0),
            ],
        );
        let f = NodeFeatures::from_chart(&chart, 50, DataType::Numerical);
        assert_eq!(f.x.dtype, DataType::Numerical);
        assert_eq!(f.x.min, 5.0); // interval midpoints
        assert_eq!(f.x.max, 15.0);
    }

    #[test]
    fn correlation_of_linear_points() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 2.0 * i as f64)).collect();
        let chart = ChartData {
            chart: ChartType::Scatter,
            x_label: "x".into(),
            y_label: "y".into(),
            series: Series::Points(pts),
        };
        let f = NodeFeatures::from_chart(&chart, 50, DataType::Numerical);
        assert!(f.correlation > 0.999);
        assert!(line_trend(&chart.series).follows_distribution);
    }

    #[test]
    fn trend_sorted_by_x_not_plot_order() {
        // Shuffled plot order of a perfect line must still show a trend.
        let mut pts: Vec<(f64, f64)> = (0..40).map(|i| (i as f64, 3.0 * i as f64)).collect();
        pts.swap(0, 39);
        pts.swap(5, 20);
        let chart = ChartData {
            chart: ChartType::Line,
            x_label: "x".into(),
            y_label: "y".into(),
            series: Series::Points(pts),
        };
        let trend = line_trend(&chart.series);
        assert!(trend.follows_distribution, "fit={}", trend.fit);
    }

    #[test]
    fn entropy_and_ymin_for_pie_factors() {
        let uniform = keyed_chart(
            ChartType::Pie,
            vec![(Key::Text("a".into()), 5.0), (Key::Text("b".into()), 5.0)],
        );
        assert!((slice_entropy(&uniform.series) - 1.0).abs() < 1e-12);
        let f = NodeFeatures::from_chart(&uniform, 10, DataType::Categorical);
        assert_eq!(f.y.min, 5.0);

        let negative = keyed_chart(
            ChartType::Pie,
            vec![(Key::Text("a".into()), -2.0), (Key::Text("b".into()), 5.0)],
        );
        // A negative slice weighs nothing: one positive slice, no diversity.
        assert_eq!(slice_entropy(&negative.series), 0.0);
        let f = NodeFeatures::from_chart(&negative, 10, DataType::Categorical);
        assert!(f.y.min < 0.0);
    }

    #[test]
    fn temporal_source_keeps_temporal_dtype() {
        let chart = keyed_chart(
            ChartType::Line,
            vec![
                (
                    Key::Time(deepeye_data::parse_timestamp("2015-01-01").unwrap()),
                    1.0,
                ),
                (
                    Key::Time(deepeye_data::parse_timestamp("2015-01-02").unwrap()),
                    2.0,
                ),
            ],
        );
        let f = NodeFeatures::from_chart(&chart, 99, DataType::Temporal);
        assert_eq!(f.x.dtype, DataType::Temporal);
        assert_eq!(f.transformed_rows(), 2);
    }
}
